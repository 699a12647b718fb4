import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerlab.chaos import AlgebraError, ChaosPoly, hermite_product
from wienerlab.dsl import (
    Binary,
    DslError,
    DslSemanticError,
    DslSyntaxError,
    Hermite,
    Literal,
    Unary,
    Variable,
    Vector,
    lower,
    parse_functional,
    print_functional,
)
from wienerlab.malliavin import VField


# ---------------------------------------------------------------- parsing


def test_parse_atoms():
    assert parse_functional("x1") == Variable(1)
    assert parse_functional("x12") == Variable(12)
    assert parse_functional("3") == Literal(3.0)
    assert parse_functional("2.5e-3") == Literal(2.5e-3)
    assert parse_functional("h2(x1)") == Hermite(2, 1)
    assert parse_functional("h0(x3)") == Hermite(0, 3)


def test_parse_precedence_and_associativity():
    assert parse_functional("x1 + x2 * x3") == Binary(
        "+", Variable(1), Binary("*", Variable(2), Variable(3))
    )
    # left associative: a - b - c is (a - b) - c
    assert parse_functional("x1 - x2 - x3") == Binary(
        "-", Binary("-", Variable(1), Variable(2)), Variable(3)
    )
    assert parse_functional("(x1 + x2) * x3") == Binary(
        "*", Binary("+", Variable(1), Variable(2)), Variable(3)
    )
    # unary minus binds tighter than *
    assert parse_functional("-x1 * x2") == Binary("*", Unary(Variable(1)), Variable(2))
    assert parse_functional("-(x1 * x2)") == Unary(Binary("*", Variable(1), Variable(2)))


def test_parse_vector_literal():
    node = parse_functional("[x1, x2 * x2, 3]")
    assert node == Vector(
        (Variable(1), Binary("*", Variable(2), Variable(2)), Literal(3.0))
    )


def test_spans_track_lines_and_columns():
    node = parse_functional("x1 +\n  x2")
    assert node.span == (1, 4)
    assert node.left.span == (1, 1)
    assert node.right.span == (2, 3)


def test_syntax_error_unterminated_group_points_at_opener():
    with pytest.raises(DslSyntaxError) as err:
        parse_functional("x1*(")
    assert err.value.line == 1
    assert err.value.col == 4
    assert "unclosed" in str(err.value)


def test_syntax_error_positions_and_expected_sets():
    with pytest.raises(DslSyntaxError) as err:
        parse_functional("x1 +")
    assert (err.value.line, err.value.col) == (1, 5)
    assert "expected" in str(err.value)

    with pytest.raises(DslSyntaxError) as err:
        parse_functional(")x1")
    assert (err.value.line, err.value.col) == (1, 1)

    with pytest.raises(DslSyntaxError) as err:
        parse_functional("x1 x2")
    assert (err.value.line, err.value.col) == (1, 4)

    with pytest.raises(DslSyntaxError) as err:
        parse_functional("")
    assert "end of input" in str(err.value)


def test_syntax_error_bad_names_and_calls():
    with pytest.raises(DslSyntaxError) as err:
        parse_functional("foo + x1")
    assert (err.value.line, err.value.col) == (1, 1)
    assert "unknown name" in str(err.value)

    # Hermite factor needs a parenthesized coordinate
    with pytest.raises(DslSyntaxError) as err:
        parse_functional("h2 x1")
    assert (err.value.line, err.value.col) == (1, 4)

    with pytest.raises(DslSyntaxError) as err:
        parse_functional("h2(3)")
    assert (err.value.line, err.value.col) == (1, 4)

    with pytest.raises(DslSyntaxError) as err:
        parse_functional("[x1, x2")
    assert (err.value.line, err.value.col) == (1, 1)


def test_syntax_error_unknown_character():
    with pytest.raises(DslSyntaxError) as err:
        parse_functional("x1 @ x2")
    assert (err.value.line, err.value.col) == (1, 4)


# --------------------------------------------------------------- lowering


def test_lower_basic_functionals():
    n = 3
    assert lower(parse_functional("x1"), n) == ChaosPoly.coordinate(n, 1)
    assert lower(parse_functional("h2(x2)"), n) == ChaosPoly.hermite(n, 2, 2)
    assert lower(parse_functional("h0(x1)"), n) == ChaosPoly.constant(n, 1.0)
    assert lower(parse_functional("-x1"), n) == -ChaosPoly.coordinate(n, 1)
    combo = lower(parse_functional("2*x1 - x2 + 0.5"), n)
    expected = (
        ChaosPoly.coordinate(n, 1) * 2.0
        - ChaosPoly.coordinate(n, 2)
        + ChaosPoly.constant(n, 0.5)
    )
    assert combo == expected


def test_lower_product_expands_in_the_algebra():
    n = 2
    prod = lower(parse_functional("x1 * x1"), n)
    # eta^2 = He_2 + 1
    assert prod == ChaosPoly.hermite(n, 1, 2) + ChaosPoly.constant(n, 1.0)
    cross = lower(parse_functional("x1 * x2"), n)
    assert cross == hermite_product(
        ChaosPoly.coordinate(n, 1), ChaosPoly.coordinate(n, 2)
    )


def test_lower_vector_literal_gives_field():
    v = lower(parse_functional("[x1, h2(x2), 1]"), 2)
    assert isinstance(v, VField)
    assert v.d == 3
    assert v.component(1) == ChaosPoly.coordinate(2, 1)
    assert v.component(2) == ChaosPoly.hermite(2, 2, 2)
    assert v.component(3) == ChaosPoly.constant(2, 1.0)


def test_lower_agrees_with_pointwise_evaluation():
    rng = np.random.default_rng(4701)
    n = 3
    text = "(x1 + 2) * h2(x2) - x3 * x3 + 0.25"
    p = lower(parse_functional(text), n)
    for _ in range(20):
        w = rng.standard_normal(n)
        x1, x2, x3 = w
        direct = (x1 + 2.0) * (x2 * x2 - 1.0) - x3 * x3 + 0.25
        assert math.isclose(p.evaluate(w), direct, rel_tol=0, abs_tol=1e-12)


def test_semantic_error_hermite_order_cap():
    with pytest.raises(DslSemanticError) as err:
        lower(parse_functional("h9(x1)"), 1)
    assert (err.value.line, err.value.col) == (1, 1)
    assert "degree cap 8" in str(err.value)
    # the cap is the algebra's: an order at the cap lowers
    assert lower(parse_functional("h8(x1)"), 1) == ChaosPoly.hermite(1, 1, 8)


def test_semantic_error_variable_out_of_range():
    with pytest.raises(DslSemanticError) as err:
        lower(parse_functional("x1 + x3"), 2)
    assert (err.value.line, err.value.col) == (1, 6)
    assert "n=2" in str(err.value)
    with pytest.raises(DslSemanticError) as err:
        lower(parse_functional("x0"), 2)
    assert "at least 1" in str(err.value)


def test_semantic_error_product_overflow_points_at_operator():
    with pytest.raises(DslSemanticError) as err:
        lower(parse_functional("h5(x1) * h5(x1)"), 1)
    assert (err.value.line, err.value.col) == (1, 8)
    assert "degree cap" in str(err.value)


# ---------------------------------------------------------------- printer


HAND_CORPUS = [
    "x1",
    "3",
    "2.5e-3",
    "h2(x1)",
    "x1 + x2 * x3",
    "x1 - x2 - x3",
    "x1 - (x2 - x3)",
    "x1 + (x2 + x3)",
    "(x1 + x2) * x3",
    "-x1 * x2",
    "-(x1 + x2)",
    "--x1",
    "x1 * (x2 + x3) - h3(x2)",
    "[x1, x2 * x2, 3]",
    "[h2(x1) - 1, -x2]",
]


@pytest.mark.parametrize("text", HAND_CORPUS)
def test_print_parse_round_trip_hand_corpus(text):
    tree = parse_functional(text)
    printed = print_functional(tree)
    assert parse_functional(printed) == tree


def _random_tree(rng, depth, vector_ok):
    if vector_ok and rng.random() < 0.3:
        count = int(rng.integers(1, 4))
        return Vector(tuple(_random_tree(rng, depth, False) for _ in range(count)))
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 3)
        if kind == 0:
            if rng.random() < 0.5:
                return Literal(float(rng.integers(0, 10)))
            return Literal(round(float(rng.uniform(0.0, 5.0)), 3))
        if kind == 1:
            return Variable(int(rng.integers(1, 5)))
        return Hermite(int(rng.integers(0, 5)), int(rng.integers(1, 5)))
    roll = rng.random()
    if roll < 0.2:
        return Unary(_random_tree(rng, depth - 1, False))
    op = ["+", "-", "*"][int(rng.integers(0, 3))]
    return Binary(
        op,
        _random_tree(rng, depth - 1, False),
        _random_tree(rng, depth - 1, False),
    )


def test_print_parse_round_trip_random_corpus():
    rng = np.random.default_rng(20240815)
    for _ in range(100):
        tree = _random_tree(rng, depth=4, vector_ok=True)
        printed = print_functional(tree)
        assert parse_functional(printed) == tree


def test_printed_form_lowers_identically():
    # additive trees stay under the degree cap, so lowering must agree
    rng = np.random.default_rng(515151)
    for _ in range(40):
        tree = _random_tree(rng, depth=3, vector_ok=False)
        printed = print_functional(tree)
        try:
            p = lower(tree, 4)
        except DslSemanticError:
            continue
        assert lower(parse_functional(printed), 4) == p


def test_semantic_error_non_finite_literal():
    with pytest.raises(DslSemanticError) as err:
        lower(parse_functional("x1 + 1e400*x1"), 1)
    assert (err.value.line, err.value.col) == (1, 6)
    assert "finite" in str(err.value)


def test_overflow_from_finite_literals_stays_an_algebra_error():
    with pytest.raises(AlgebraError) as err:
        lower(parse_functional("1e200 * 1e200 * x1"), 1)
    assert not isinstance(err.value, DslError)


# ------------------------------------------------------------ deep inputs


def test_deep_trees_compare_hash_and_print():
    chain = "-" * 1000 + "x1"
    nested = "(x1 + " * 400 + "x1" + ")" * 400
    for text, other in ((chain, "-" + chain), (nested, nested.replace("x1)", "x2)", 1))):
        node = parse_functional(text)
        # spans differ under a leading space and take no part in equality
        same = parse_functional(" " + text)
        assert node == same and hash(node) == hash(same)
        assert node != parse_functional(other)
        assert repr(node).count("span=") == repr(same).count("span=")
    deep = parse_functional(chain)
    assert repr(deep) == "Unary(operand=" * 1000 + "Variable(index=1, span=(1, 1001))" + "".join(
        f", span=(1, {col}))" for col in range(1000, 0, -1)
    )
    assert {deep, parse_functional(chain)} == {deep}


def test_structural_equality_matches_the_dataclass_rules():
    x1, x2 = Variable(1), Variable(2, span=(3, 4))
    assert Binary("+", x1, x2) == Binary("+", x1, Variable(2), span=(9, 9))
    assert Binary("+", x1, x2) != Binary("-", x1, x2)
    assert Binary("+", x1, x2) != Binary("+", x2, x1)
    assert Unary(x1) != x1 and Unary(Unary(x1)) != Unary(x1)
    assert Vector((x1, Unary(x2))) == Vector((x1, Unary(x2)))
    assert Vector((x1,)) != Vector((x1, x1))
    assert repr(Vector((x1,))) == "Vector(items=(Variable(index=1, span=(0, 0)),), span=(0, 0))"


def test_deeply_nested_parentheses_parse_and_lower():
    text = "(" * 400 + "x1" + ")" * 400
    node = parse_functional(text)
    assert isinstance(node, Variable) and node.span == (1, 401)
    assert lower(node, 1) == ChaosPoly.coordinate(1, 1)
    right_nested = "(x1 + " * 400 + "x1" + ")" * 400
    assert lower(parse_functional(right_nested), 1) == ChaosPoly.hermite(1, 1, 1, 401.0)


def test_long_unary_chains_parse_lower_and_print():
    for count in (1000, 1001):
        node = parse_functional("-" * count + "x1")
        sign = -1.0 if count % 2 else 1.0
        assert lower(node, 1) == ChaosPoly.hermite(1, 1, 1, sign)
        assert print_functional(node) == "-" * count + "x1"


def test_long_flat_sums_lower_and_print():
    for count in (1000, 2000):
        text = " + ".join(["x1"] * count)
        node = parse_functional(text)
        assert lower(node, 1) == ChaosPoly.hermite(1, 1, 1, float(count))
        assert print_functional(node) == text


def test_deep_input_errors_carry_their_span():
    with pytest.raises(DslSyntaxError) as err:
        parse_functional("(" * 400 + "x1 +" + ")" * 400)
    assert (err.value.line, err.value.col) == (1, 405)
    with pytest.raises(DslSyntaxError) as err:
        parse_functional("(" * 400 + "x1")
    assert (err.value.line, err.value.col) == (1, 400)
    assert "unclosed" in str(err.value)
    with pytest.raises(DslSemanticError) as err:
        lower(parse_functional("(" * 400 + "x2" + ")" * 400), 1)
    assert (err.value.line, err.value.col) == (1, 401)


def test_index_with_too_many_digits_is_a_semantic_error():
    with pytest.raises(DslSemanticError) as err:
        parse_functional("x1 + x" + "9" * 5000)
    assert (err.value.line, err.value.col) == (1, 6)
    with pytest.raises(DslSemanticError):
        parse_functional("h" + "2" * 5000 + "(x1)")


def test_printing_a_non_finite_literal_is_a_semantic_error():
    with pytest.raises(DslSemanticError) as err:
        print_functional(parse_functional("x1 + 1e400"))
    assert (err.value.line, err.value.col) == (1, 6)
    assert "finite" in str(err.value)


_DSL_ALPHABET = "x1h2093()+-*[],.e \n"
_DSL_TEXT = st.text(alphabet=_DSL_ALPHABET, max_size=40)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.one_of(
        _DSL_TEXT,
        # a fragment repeated into deep nesting, long chains or long sums
        st.builds(lambda part, count: part * count, _DSL_TEXT, st.integers(1, 1500)),
    )
)
def test_only_dsl_and_algebra_errors_escape(text):
    try:
        tree = parse_functional(text)
        print_functional(tree)
        lower(tree, 3)
    except (DslError, AlgebraError):
        pass
