"""Chaos algebra: frozen examples, independent oracles, randomized properties."""

import hashlib
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    eval_poly_indep,
    exact_root,
    fd_partial,
    generic_product_pairs,
    he_value,
    l2_mass,
    make_rng,
    mc_poly_mean,
    packed,
    quad_expectation,
    quad_poly_expectation,
    refine_monomial_oracle,
)
from wienerlab import cli, clark, dsl
from wienerlab.chaos import (
    DEGREE_CAP,
    DIM_CAP,
    AlgebraError,
    ChaosPoly,
    DegreeCapExceeded,
    DimensionMismatch,
    MultiIndex,
    conditional_expectation,
    evaluate_batch,
    expectation,
    hermite_product,
    l2_inner,
    linear_combine,
    multiply_by_coordinate,
    norm_l2,
    ou_apply,
    ou_inverse,
    partial_derivative,
    refine,
    _block_average_table,
    _factorial,
    _pack,
    _pairs_of,
    _product_terms,
    _text_sort_key,
)
from wienerlab.malliavin import HField, VField, divergence_h


def random_poly(rng, dim, degree, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        support = rng.choice(dim, size=min(dim, int(rng.integers(1, 4))), replace=False) + 1
        orders = {}
        budget = degree
        for c in support:
            if budget == 0:
                break
            k = int(rng.integers(0, budget + 1))
            if k:
                orders[int(c)] = k
                budget -= k
        key = packed(orders)
        terms[key] = terms.get(key, 0.0) + float(rng.uniform(-1, 1))
    return ChaosPoly(dim, terms)


def _at(p, x):
    """Value of p at one sample point, as a one-row batch."""
    return evaluate_batch(p, np.asarray(x, dtype=float)[None])[0]


# ---------------------------------------------------------------- multi-index


def test_multiindex_canonical_form():
    idx = MultiIndex(packed({3: 1, 1: 2}))
    assert idx.key == b"\x01\x01\x03"
    assert idx.pairs == ((1, 2), (3, 1))
    assert idx.total_degree == 3
    assert idx.factorial == 2
    assert _order(idx.pairs, 1) == 2 and _order(idx.pairs, 2) == 0
    assert MultiIndex(b"\x01\x01\x03") == idx and hash(MultiIndex(b"\x01\x01\x03")) == hash(idx)
    assert MultiIndex(b"\x01\x03") != idx
    assert repr(idx) == "MultiIndex({1: 2, 3: 1})" and repr(MultiIndex(b"")) == "MultiIndex({})"


def test_term_ordering_for_serialization():
    p = ChaosPoly(
        3,
        {
            packed({1: 2}): 1.0,
            packed({2: 1}): 2.0,
            packed(): 3.0,
            packed({1: 1, 2: 1}): 4.0,
        },
    )
    assert p.to_text() == "3.0\n2.0 2:1\n1.0 1:2\n4.0 1:1 2:1"
    assert repr(p) == "ChaosPoly(dim=3, {{}: 3.0, {2: 1}: 2.0, {1: 2}: 1.0, {1: 1, 2: 1}: 4.0})"
    # b"\x01\x01\x03" sorts before b"\x01\x02\x02" as bytes, after it in text
    q = ChaosPoly(3, {b"\x01\x01\x03": 1.0, b"\x01\x02\x02": 2.0})
    assert q.to_text() == "2.0 1:1 2:2\n1.0 1:2 3:1"
    assert repr(q) == "ChaosPoly(dim=3, {{1: 1, 2: 2}: 2.0, {1: 2, 3: 1}: 1.0})"


# ---------------------------------------------------------------- linear part


def test_linear_combine_trivia():
    dim = 2
    he1 = ChaosPoly.hermite(dim, 1, 1)
    p = linear_combine([2.0, 3.0], [he1, he1])
    assert p == ChaosPoly.hermite(dim, 1, 1, 5.0)
    z = linear_combine([1.0, -1.0], [p, p])
    assert z.is_zero()
    with pytest.raises(AlgebraError):
        linear_combine([1.0], [he1, he1])
    with pytest.raises(DimensionMismatch):
        linear_combine([1.0, 1.0], [he1, ChaosPoly.hermite(3, 1, 1)])


def test_no_stored_zeros_after_cancellation():
    p = ChaosPoly(2, {packed({1: 1}): 1.0, packed({2: 2}): 0.5})
    q = ChaosPoly(2, {packed({1: 1}): -1.0})
    assert MultiIndex(b"\x01") not in (p + q).terms
    assert (p + q).terms[MultiIndex(b"\x02\x02")] == 0.5
    # only an exact zero is dropped: a tiny sum is kept, however small
    tiny = ChaosPoly(2, {packed({1: 1}): 1e-15})
    assert tiny.packed_terms == {b"\x01": 1e-15}
    assert (tiny - tiny).is_zero()
    assert (p + q + tiny).packed_terms == {b"\x02\x02": 0.5, b"\x01": 1e-15}


# ------------------------------------------------------------------- product


def test_product_he1_he1_frozen():
    # He_1^2 = He_2 + 1, expectation side = 1 by quadrature
    dim = 1
    he1 = ChaosPoly.hermite(dim, 1, 1)
    prod = hermite_product(he1, he1)
    assert prod == ChaosPoly(dim, {packed({1: 2}): 1.0, packed(): 1.0})
    assert abs(quad_poly_expectation(prod) - 1.0) < 1e-12
    # (1e-8 eta_1)^2 = 1e-16 He_2 + 1e-16: both terms are kept
    tiny = ChaosPoly.hermite(dim, 1, 1, 1e-8)
    assert hermite_product(tiny, tiny).packed_terms == {b"\x01\x01": 1e-8 * 1e-8, b"": 1e-8 * 1e-8}


def test_product_he2_he2_frozen():
    # He_2^2 = He_4 + 4 He_2 + 2; mean frozen at 2, cross-checked by MC
    dim = 1
    he2 = ChaosPoly.hermite(dim, 1, 2)
    prod = hermite_product(he2, he2)
    assert prod == ChaosPoly(
        dim, {packed({1: 4}): 1.0, packed({1: 2}): 4.0, packed(): 2.0}
    )
    mean, stderr = mc_poly_mean(prod, 1_000_000, seed=20240811)
    assert abs(mean - 2.0) < 4 * stderr
    assert abs(quad_poly_expectation(prod) - 2.0) < 1e-12


def test_mc_poly_mean_matches_row_loop_exactly():
    # the column-wise oracle must reproduce the row-by-row evaluation bit for bit
    rng = make_rng(108)
    for _ in range(5):
        p = random_poly(rng, 3, 4)
        draws = make_rng(77).standard_normal((500, 3))
        vals = np.array([eval_poly_indep(p, row) for row in draws])
        expected = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(500)))
        assert mc_poly_mean(p, 500, seed=77) == expected


def test_product_pointwise_oracle():
    rng = make_rng(101)
    for _ in range(25):
        p = random_poly(rng, 3, 3)
        q = random_poly(rng, 3, 3)
        prod = hermite_product(p, q)
        for _ in range(5):
            x = rng.standard_normal(3)
            lhs = eval_poly_indep(prod, x)
            rhs = eval_poly_indep(p, x) * eval_poly_indep(q, x)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_product_ring_axioms():
    rng = make_rng(202)
    for _ in range(10):
        p = random_poly(rng, 3, 2)
        q = random_poly(rng, 3, 2)
        r = random_poly(rng, 3, 2)
        assert norm_l2(hermite_product(p, q) - hermite_product(q, p)) <= 1e-12
        a = hermite_product(hermite_product(p, q), r)
        b = hermite_product(p, hermite_product(q, r))
        assert norm_l2(a - b) <= 1e-10
        c = hermite_product(p, q + r)
        d = hermite_product(p, q) + hermite_product(p, r)
        assert norm_l2(c - d) <= 1e-12


def test_product_neutral_element():
    rng = make_rng(303)
    one = ChaosPoly.constant(4, 1.0)
    for _ in range(5):
        p = random_poly(rng, 4, 4)
        assert hermite_product(one, p) == p


# -------------------------------------------------------------- inner product


def test_l2_inner_orthonormality_table():
    # <He_j, He_k> = k! [j == k], checked against quadrature for j,k <= 6:
    # of the pointwise product always, of the algebra product within the cap
    dim = 1
    for j in range(7):
        for k in range(7):
            pj = ChaosPoly.hermite(dim, 1, j)
            pk = ChaosPoly.hermite(dim, 1, k)
            got = l2_inner(pj, pk)
            want = float(math.factorial(k)) if j == k else 0.0
            assert got == want
            pointwise = quad_expectation(
                lambda x: eval_poly_indep(pj, x) * eval_poly_indep(pk, x), [1], dim
            )
            assert abs(pointwise - want) < 1e-9
            if j + k > DEGREE_CAP:
                with pytest.raises(DegreeCapExceeded):
                    hermite_product(pj, pk)
            else:
                assert abs(quad_poly_expectation(hermite_product(pj, pk)) - want) < 1e-9


def test_l2_inner_vs_quadrature_random():
    rng = make_rng(404)
    for _ in range(10):
        p = random_poly(rng, 2, 3)
        q = random_poly(rng, 2, 3)
        quad = quad_poly_expectation(hermite_product(p, q))
        assert abs(l2_inner(p, q) - quad) <= 1e-10 * (1 + abs(quad))


def test_expectation_is_product_free():
    rng = make_rng(505)
    for _ in range(10):
        p = random_poly(rng, 3, 3)
        q = random_poly(rng, 3, 3)
        assert abs(expectation(hermite_product(p, q)) - l2_inner(p, q)) <= 1e-12


# ---------------------------------------------------------------- derivative


def test_partial_derivative_frozen():
    assert partial_derivative(ChaosPoly.hermite(2, 1, 3), 1) == ChaosPoly.hermite(2, 1, 2, 3.0)
    assert partial_derivative(ChaosPoly.hermite(2, 1, 3), 2).is_zero()
    with pytest.raises(AlgebraError):
        partial_derivative(ChaosPoly.hermite(2, 1, 3), 0)
    with pytest.raises(AlgebraError):
        partial_derivative(ChaosPoly.hermite(2, 1, 3), 3)


def test_partial_derivative_finite_difference():
    rng = make_rng(606)
    for _ in range(10):
        p = random_poly(rng, 3, 4)
        i = int(rng.integers(1, 4))
        dp = partial_derivative(p, i)
        for _ in range(3):
            x = rng.uniform(-2, 2, size=3)
            fd = fd_partial(p, i, x)
            assert abs(_at(dp, x) - fd) <= 1e-6 * (1 + abs(fd))


def test_derivative_is_product_rule_compatible():
    rng = make_rng(707)
    for _ in range(8):
        p = random_poly(rng, 2, 3)
        q = random_poly(rng, 2, 3)
        i = int(rng.integers(1, 3))
        lhs = partial_derivative(hermite_product(p, q), i)
        rhs = hermite_product(partial_derivative(p, i), q) + hermite_product(
            p, partial_derivative(q, i)
        )
        assert norm_l2(lhs - rhs) <= 1e-10


# ------------------------------------------------------- coordinate multiplier


def test_multiply_by_coordinate_frozen():
    got = multiply_by_coordinate(ChaosPoly.hermite(1, 1, 1), 1)
    assert got == ChaosPoly(1, {packed({1: 2}): 1.0, packed(): 1.0})


def test_multiply_by_coordinate_matches_product():
    rng = make_rng(808)
    for _ in range(10):
        p = random_poly(rng, 3, 4)
        i = int(rng.integers(1, 4))
        direct = multiply_by_coordinate(p, i)
        via_product = hermite_product(ChaosPoly.coordinate(3, i), p)
        assert norm_l2(direct - via_product) <= 1e-12


@pytest.mark.parametrize("op", [partial_derivative, multiply_by_coordinate])
@pytest.mark.parametrize(
    "i, message",
    [
        (0, r"^coordinate 0 outside 1\.\.2$"),
        (3, r"^coordinate 3 outside 1\.\.2$"),
        (1.0, "^coordinate 1.0 is not an integer$"),
        (np.float64(1.0), "^coordinate .*1.0.* is not an integer$"),
        (2.5, "^coordinate 2.5 is not an integer$"),
    ],
)
def test_a_coordinate_off_the_grid_raises_algebra_error(op, i, message):
    # a float, even an integral one, is refused as ChaosPoly.hermite refuses it
    p = ChaosPoly.hermite(2, 1, 3) + ChaosPoly.coordinate(2, 2)
    with pytest.raises(AlgebraError, match=message):
        op(p, i)
    assert op(p, np.int64(1)) == op(p, 1)


def test_degree_one_left_factor_matches_generic_linearization():
    # at coordinate 3, q has a constant term, orders 0 and 1, and orders 2..4,
    # with other coordinates below and above 3
    q = ChaosPoly(
        5,
        {
            b"": 0.7,
            b"\x01\x02": -1.3,
            b"\x03": 0.9,
            b"\x02\x03\x05": 1.1,
            b"\x03\x03": -0.4,
            b"\x01\x03\x03\x03": 2.5,
            b"\x03\x03\x03\x03\x04": 0.35,
            b"\x04\x05": -0.8,
        },
    )
    lefts = [
        ChaosPoly.coordinate(5, 3),
        ChaosPoly(5, {b"\x03": -0.6}),
        ChaosPoly(5, {b"": 1.5, b"\x03": 0.25}),
        ChaosPoly(5, {b"\x01": 0.3, b"": -2.0, b"\x03": 0.7, b"\x05": 1.9}),
        # a sum over a block of coordinates
        ChaosPoly(5, {b"\x03": 0.5, b"\x04": 0.5, b"\x05": 0.5}),
    ]
    rng = make_rng(919)
    rights = [q, ChaosPoly.constant(5, 2.0)] + [random_poly(rng, 5, 4, n_terms=8) for _ in range(10)]
    for z in lefts:
        for r in rights:
            want = list(generic_product_pairs(z, r))
            assert list(_product_terms(z.packed_terms, r.packed_terms)) == want
            assert _same_terms(hermite_product(z, r), ChaosPoly(5, want))
    for r in rights:
        for i in range(1, 6):
            want = ChaosPoly(5, generic_product_pairs(ChaosPoly.coordinate(5, i), r))
            assert _same_terms(multiply_by_coordinate(r, i), want)


# ------------------------------------------------------ conditional expectation


def test_conditional_expectation_frozen():
    p = hermite_product(ChaosPoly.coordinate(2, 1), ChaosPoly.coordinate(2, 2))
    assert conditional_expectation(p, 1).is_zero()
    q = ChaosPoly.hermite(2, 1, 2) + ChaosPoly.hermite(2, 2, 2)
    assert conditional_expectation(q, 1) == ChaosPoly.hermite(2, 1, 2)
    assert conditional_expectation(q, 0) == ChaosPoly.zero(2)
    assert conditional_expectation(q, 2) == q
    with pytest.raises(AlgebraError):
        conditional_expectation(q, 3)
    # a fractional stage is refused, not compared against the keys
    for stage in (1.5, 1.0):
        with pytest.raises(AlgebraError, match=f"^stage {stage} is not an integer$"):
            conditional_expectation(q, stage)


def test_conditional_expectation_tower_and_contraction():
    rng = make_rng(909)
    for _ in range(10):
        p = random_poly(rng, 4, 4)
        j = int(rng.integers(0, 5))
        k = int(rng.integers(0, 5))
        tower = conditional_expectation(conditional_expectation(p, k), j)
        assert tower == conditional_expectation(p, min(j, k))
        assert norm_l2(conditional_expectation(p, k)) <= norm_l2(p) + 1e-14
        # projection: self-adjointness on random pairs
        q = random_poly(rng, 4, 4)
        lhs = l2_inner(conditional_expectation(p, k), q)
        rhs = l2_inner(p, conditional_expectation(q, k))
        assert abs(lhs - rhs) <= 1e-12


def test_conditional_expectation_mc_regression_oracle():
    # project onto Hermite features of eta_1 by Monte Carlo and compare
    rng = make_rng(1010)
    p = random_poly(rng, 2, 3)
    ce = conditional_expectation(p, 1)
    draws = make_rng(424242).standard_normal((100_000, 2))
    vals = evaluate_batch(p, draws)
    for k in range(4):
        feats = he_value(k, draws[:, 0])
        prods = vals * feats
        est = prods.mean() / math.factorial(k)
        stderr = prods.std(ddof=1) / math.sqrt(len(prods)) / math.factorial(k)
        want = ce.packed_terms.get(packed({1: k}), 0.0)
        assert abs(est - want) <= 3.0 * stderr + 1e-12


# ----------------------------------------------------------------- OU scaling


def test_ou_apply_and_inverse():
    p = hermite_product(ChaosPoly.coordinate(2, 1), ChaosPoly.coordinate(2, 2))
    assert ou_apply(p) == linear_combine([2.0], [p])
    he3 = ChaosPoly.hermite(1, 1, 3)
    assert ou_inverse(he3) == ChaosPoly.hermite(1, 1, 3, 1.0 / 3.0)
    # the pseudo-inverse drops the constant instead of refusing it
    assert ou_inverse(ChaosPoly.constant(1, 1.0)).is_zero()
    rng = make_rng(111)
    for _ in range(8):
        p = random_poly(rng, 3, 4)
        c = ChaosPoly.constant(3, float(rng.uniform(-1, 1)))
        assert ou_inverse(c + p) == ou_inverse(p)
        centered = p - ChaosPoly.constant(3, expectation(p))
        assert ou_apply(ou_inverse(p)) == ou_apply(ou_inverse(centered))
        assert norm_l2(ou_apply(ou_inverse(centered)) - centered) <= 1e-12
        assert norm_l2(ou_inverse(ou_apply(centered)) - centered) <= 1e-12


# ----------------------------------------------------------------- refinement


def test_refine_he1_frozen():
    got = refine(ChaosPoly.hermite(1, 1, 1), 2)
    s = 1.0 / math.sqrt(2.0)
    want = ChaosPoly(2, {packed({1: 1}): s, packed({2: 1}): s})
    assert norm_l2(got - want) <= 1e-15


def test_refine_he2_frozen():
    got = refine(ChaosPoly.hermite(1, 1, 2), 2)
    want = ChaosPoly(
        2,
        {
            packed({1: 2}): 0.5,
            packed({2: 2}): 0.5,
            packed({1: 1, 2: 1}): 1.0,
        },
    )
    assert norm_l2(got - want) <= 1e-14
    # norm preserved: 1/4*2 + 1/4*2 + 1 = 2
    assert abs(l2_inner(got, got) - 2.0) <= 1e-12


def test_refine_identity_factor():
    rng = make_rng(222)
    p = random_poly(rng, 3, 4)
    assert refine(p, 1) == p


def test_refine_matches_multinomial_oracle():
    for k in range(5):
        for m in (2, 3, 4):
            got = refine(ChaosPoly.hermite(2, 2, k), m)
            want = refine_monomial_oracle(2, 2, k, m)
            assert norm_l2(got - want) <= 1e-12


def test_refine_preserves_inner_products_and_grade():
    rng = make_rng(333)
    for m in (2, 3):
        for _ in range(6):
            p = random_poly(rng, 2, 4)
            q = random_poly(rng, 2, 4)
            rp, rq = refine(p, m), refine(q, m)
            assert abs(l2_inner(rp, rq) - l2_inner(p, q)) <= 1e-10
            assert abs(expectation(rp) - expectation(p)) <= 1e-12
            for grade in range(5):
                a, b = (
                    norm_l2(ChaosPoly(r.dim, {k: c for k, c in r.packed_terms.items() if len(k) == grade}))
                    for r in (rp, p)
                )
                assert abs(a - b) <= 1e-10


def test_refine_law_preserved_mc():
    # distribution unchanged: compare first four MC moments on a fixed seed
    p = ChaosPoly.hermite(1, 1, 2) + ChaosPoly.hermite(1, 1, 1, 0.5)
    rp = refine(p, 4)
    rng = make_rng(55555)
    a = evaluate_batch(p, rng.standard_normal((200_000, p.dim)))
    b = evaluate_batch(rp, rng.standard_normal((200_000, rp.dim)))
    for moment in (1, 2, 3):
        ma, mb = (a**moment).mean(), (b**moment).mean()
        se = math.hypot((a**moment).std() , (b**moment).std()) / math.sqrt(len(a))
        assert abs(ma - mb) <= 5 * se


def test_refine_dimension_cap():
    with pytest.raises(AlgebraError):
        refine(ChaosPoly.hermite(32, 1, 1), 8)


@pytest.mark.parametrize("m", [2.5, 2.0, "3", None])
def test_refine_refuses_a_non_integral_factor(m):
    # refused, not truncated: 2.5 used to refine by 2
    with pytest.raises(AlgebraError, match=f"refinement factor {m!r} is not an integer"):
        refine(ChaosPoly.hermite(1, 1, 2), m)
    # an integer of another type refines as the int
    assert refine(ChaosPoly.hermite(1, 1, 2), np.int64(2)) == refine(ChaosPoly.hermite(1, 1, 2), 2)


# ----------------------------------------------------------------- evaluation


def test_evaluate_frozen_points():
    assert _at(ChaosPoly.hermite(1, 1, 2), [2.0]) == 3.0
    assert _at(ChaosPoly.hermite(1, 1, 3), [1.0]) == -2.0


def test_evaluate_against_library():
    rng = make_rng(444)
    for k in range(9):
        p = ChaosPoly.hermite(1, 1, k)
        for _ in range(4):
            x = float(rng.uniform(-3, 3))
            assert abs(_at(p, [x]) - float(he_value(k, x))) <= 1e-9 * (1 + abs(he_value(k, x)))


def test_evaluate_batch_matches_scalar():
    rng = make_rng(666)
    p = random_poly(rng, 3, 4)
    xs = rng.standard_normal((50, 3))
    batch = evaluate_batch(p, xs)
    for row in range(50):
        assert abs(batch[row] - _at(p, xs[row])) <= 1e-10
    with pytest.raises(DimensionMismatch):
        _at(p, [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        evaluate_batch(p, xs[:, :2])



def _evaluate_by_recurrence(p, point):
    """Scalar three-term recurrence per factor, terms summed in stored order."""
    total = 0.0
    for idx, c in p.terms.items():
        v = c
        for i, k in idx.pairs:
            x = float(point[i - 1])
            vals = [1.0, x]
            for j in range(1, k):
                vals.append(x * vals[j] - j * vals[j - 1])
            v *= vals[k]
        total += v
    return total


def test_evaluate_matches_scalar_recurrence_exactly():
    # a one-row batch does the arithmetic of the scalar recurrence
    rng = make_rng(667)
    for _ in range(20):
        p = random_poly(rng, 4, 6, n_terms=8)
        x = 2.0 * rng.standard_normal(4)
        assert _at(p, x) == _evaluate_by_recurrence(p, x)


# ------------------------------------------------------------------ caps, text


def test_hermite_refuses_a_non_integral_coordinate_or_order():
    # hermite(3, 1.5, 2.7) once truncated both to He_2(eta_1)
    for i, k in ((1.5, 2.7), (1.5, 2), (1, 2.7), (1.0, 2), ("1", 2)):
        with pytest.raises(AlgebraError, match="is not an integer$"):
            ChaosPoly.hermite(3, i, k)
    assert ChaosPoly.hermite(3, np.int64(1), np.int64(2)) == ChaosPoly.hermite(3, 1, 2)
    with pytest.raises(AlgebraError, match=r"^coordinate 4 outside 1\.\.3$"):
        ChaosPoly.hermite(3, 4, 1)
    with pytest.raises(AlgebraError, match="^Hermite order -1 outside"):
        ChaosPoly.hermite(3, 1, -1)
    with pytest.raises(DegreeCapExceeded):
        ChaosPoly.hermite(3, 1, DEGREE_CAP + 1)


def test_degree_cap_enforcement():
    p = ChaosPoly.hermite(1, 1, 5)
    with pytest.raises(DegreeCapExceeded) as err:
        hermite_product(p, p)
    assert err.value.degree == 10
    assert str(err.value) == "term of total degree 10 exceeds the degree cap 8"
    with pytest.raises(AlgebraError):
        ChaosPoly(0)
    with pytest.raises(AlgebraError):
        ChaosPoly(200)
    with pytest.raises(AlgebraError, match="^ambient dimension 2.5 is not an integer$"):
        ChaosPoly(2.5)
    with pytest.raises(DimensionMismatch):
        ChaosPoly(2, {packed({3: 1}): 1.0})


def test_text_round_trip():
    # each line's leading field reads back as the exact coefficient
    rng = make_rng(777)
    for _ in range(10):
        p = random_poly(rng, 4, 4)
        lines = p.to_text().splitlines()
        ranked = sorted(p.terms.items(), key=lambda kv: _text_rank(kv[0].pairs))
        assert [float(line.split()[0]) for line in lines] == [c for _, c in ranked]
    p = ChaosPoly(2, {packed(): 2.5, packed({1: 2}): -1.0, packed({1: 1, 2: 1}): 3.0})
    assert p.to_text() == "2.5\n-1.0 1:2\n3.0 1:1 2:1"
    assert ChaosPoly.zero(2).to_text() == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_raise(bad):
    with pytest.raises(AlgebraError, match="non-finite"):
        ChaosPoly(2, {b"": bad, b"\x01": 1.0})
    with pytest.raises(AlgebraError, match="non-finite"):
        linear_combine([bad], [ChaosPoly.coordinate(2, 1)])


@pytest.mark.parametrize("c", [1e200, -1e200, 1e155])
def test_norm_l2_scales_a_sum_of_squares_that_overflows(c):
    p = ChaosPoly.hermite(1, 1, 2, c)
    assert l2_inner(p, p) == math.inf
    want = exact_root(l2_mass([p]))
    assert norm_l2(p) == p.norm_l2() == want
    assert abs(want - math.sqrt(2.0) * abs(c)) <= 1e-15 * want
    pair = ChaosPoly(2, {b"\x01": 3e200, b"\x02": -4e200})
    assert norm_l2(pair) == exact_root(l2_mass([pair]))
    assert abs(norm_l2(pair) - 5e200) <= 1e-15 * 5e200
    # a root past the largest double is inf
    assert norm_l2(ChaosPoly.hermite(1, 1, 8, 1e308)) == math.inf


def test_norm_l2_is_the_correctly_rounded_root():
    rng = make_rng(977)
    for _ in range(20):
        p = random_poly(rng, 3, 4, n_terms=6)
        assert norm_l2(p) == exact_root(l2_mass([p])) == p.norm_l2()
        # the plain float sum is a few roundings away, not more
        assert norm_l2(p) == pytest.approx(math.sqrt(l2_inner(p, p)), rel=1e-14, abs=0.0)
    assert norm_l2(ChaosPoly.zero(2)) == 0.0
    # a coefficient of 1e-200 is stored; its square underflows to zero, but
    # the exact sum does not
    tiny = ChaosPoly.hermite(1, 1, 2, 1e-200)
    assert tiny.packed_terms == {b"\x01\x01": 1e-200} and l2_inner(tiny, tiny) == 0.0
    assert norm_l2(tiny) == exact_root(l2_mass([tiny])) == 1.414213562373095e-200
    # a square that is subnormal has lost most of its bits; the exact sum keeps them
    small = ChaosPoly.hermite(1, 1, 2, 1e-160)
    assert 0.0 < l2_inner(small, small) < sys.float_info.min
    assert norm_l2(small) == exact_root(l2_mass([small])) == 1.414213562373095e-160
    # squares at both ends of the range in one sum: the tiny one is below
    # half an ulp of the total and leaves the root where it is
    mixed = ChaosPoly(2, {b"\x01": 1e200, b"\x02": 1e-200})
    assert norm_l2(mixed) == exact_root(l2_mass([mixed])) == 1e200


def test_overflowing_product_raises():
    big = ChaosPoly.constant(1, 1e200)
    with pytest.raises(AlgebraError, match="non-finite"):
        hermite_product(big, big)
    with pytest.raises(AlgebraError, match="non-finite"):
        linear_combine([1e200], [big])


# ---------------------------------------------------------- scale equivariance
# A stored coefficient is exactly a nonzero sum, with no absolute cutoff, so
# scaling an input by a power of two scales every kernel's output by it: the
# same keys in the same order, and each coefficient's bits scaled exactly, as
# long as nothing reaches the subnormal range.


def _scaled(p: ChaosPoly, s: float) -> ChaosPoly:
    return ChaosPoly(p.dim, [(key, s * c) for key, c in p.packed_terms.items()])


def _assert_scaled(got: ChaosPoly, unit: ChaosPoly, s: float):
    assert list(got.packed_terms.items()) == [(key, s * c) for key, c in unit.packed_terms.items()]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 600))
def test_kernels_commute_with_power_of_two_scaling(seed, k):
    s = math.ldexp(1.0, -k)
    rng = make_rng(seed)
    dim = int(rng.integers(1, 4))
    p, q = random_poly(rng, dim, 4), random_poly(rng, dim, 4)
    a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
    _assert_scaled(hermite_product(_scaled(p, s), q), hermite_product(p, q), s)
    _assert_scaled(linear_combine([a, b], [_scaled(p, s), _scaled(q, s)]), linear_combine([a, b], [p, q]), s)
    for i in range(1, dim + 1):
        _assert_scaled(partial_derivative(_scaled(p, s), i), partial_derivative(p, i), s)
    m = int(rng.integers(1, 5))
    _assert_scaled(refine(_scaled(p, s), m), refine(p, m), s)
    u = HField(tuple(random_poly(rng, dim, 3, n_terms=2) for _ in range(dim)))
    _assert_scaled(divergence_h(HField(tuple(_scaled(c, s) for c in u.coords))), divergence_h(u), s)
    _assert_scaled(ou_inverse(_scaled(p, s)), ou_inverse(p), s)


# ------------------------------------------------------------------ term gate
# Each kernel sums its (key, coefficient) pairs into the store it keeps.
# The references below keep the earlier representation: they
# work on (coordinate, order) pair tuples with dict arithmetic, sum the same
# pairs into a local dict first and construct from that, so the output must
# match term by term, in the same order and to the last bit.


def _order(pairs, coord):
    return dict(pairs).get(coord, 0)


def _shifted(pairs, coord, delta):
    """New pairs with the order at ``coord`` changed by ``delta``."""
    new = dict(pairs)
    new[coord] = new.get(coord, 0) + delta
    return tuple(sorted((i, k) for i, k in new.items() if k))


def _text_rank(pairs):
    """The text form's order, test side: degree, then coordinates, then orders."""
    return sum(k for _, k in pairs), [i for i, _ in pairs], [k for _, k in pairs]


def _linearization_ref(m, n):
    # He_m * He_n = sum_k C(m,k) C(n,k) k! He_{m+n-2k}
    return [
        (m + n - 2 * k, math.comb(m, k) * math.comb(n, k) * math.factorial(k))
        for k in range(min(m, n) + 1)
    ]


def _monomial_product(a, b):
    """Yield ``(pairs, coeff)`` for ``He_a * He_b`` coordinatewise."""
    a_orders = dict(a)
    b_orders = dict(b)
    shared = sorted(set(a_orders) & set(b_orders))
    base = [(i, k) for i, k in a_orders.items() if i not in b_orders]
    base += [(i, k) for i, k in b_orders.items() if i not in a_orders]
    if not shared:
        yield tuple(sorted(base)), 1.0
        return
    options = [
        [(i, order, weight) for order, weight in _linearization_ref(a_orders[i], b_orders[i])]
        for i in shared
    ]
    for combo in cartesian(*options):
        coeff = 1.0
        pairs = list(base)
        for i, order, weight in combo:
            coeff *= weight
            if order:
                pairs.append((i, order))
        yield tuple(sorted(pairs)), coeff


def _accumulated(dim, pairs):
    acc = {}
    for idx, c in pairs:
        key = packed(idx)
        acc[key] = acc.get(key, 0.0) + c
    return ChaosPoly(dim, acc)


def _product_ref(p, q):
    pairs = []
    for ia, ca in p.terms.items():
        for ib, cb in q.terms.items():
            scale = ca * cb
            pairs += [(idx, scale * w) for idx, w in _monomial_product(ia.pairs, ib.pairs)]
    return _accumulated(p.dim, pairs)


def _combine_ref(coeffs, polys):
    pairs = [
        (idx.pairs, float(c) * pc)
        for c, p in zip(coeffs, polys)
        if float(c) != 0.0
        for idx, pc in p.terms.items()
    ]
    return _accumulated(polys[0].dim, pairs)


def _derivative_ref(p, i):
    pairs = [
        (_shifted(idx.pairs, i, -1), _order(idx.pairs, i) * c)
        for idx, c in p.terms.items()
        if _order(idx.pairs, i)
    ]
    return _accumulated(p.dim, pairs)


def _coordinate_ref(p, i):
    pairs = []
    for idx, c in p.terms.items():
        pairs.append((_shifted(idx.pairs, i, 1), c))
        if _order(idx.pairs, i):
            pairs.append((_shifted(idx.pairs, i, -1), _order(idx.pairs, i) * c))
    return _accumulated(p.dim, pairs)


def _refine_ref(p, m):
    """refine() on the references: block He tables by the recurrence, then products.

    Each block's table is built in its own coordinates, once per call.
    """
    new_dim = p.dim * m
    one = ChaosPoly.constant(new_dim, 1.0)
    tables = {}
    pairs = []
    for idx, c in p.terms.items():
        piece = one
        for i, k in idx.pairs:
            if i not in tables:
                z = ChaosPoly(
                    new_dim, {packed({(i - 1) * m + j: 1}): 1.0 / math.sqrt(m) for j in range(1, m + 1)}
                )
                tables[i] = [one, z]
            table = tables[i]
            z = table[1]
            for j in range(len(table) - 1, k):
                table.append(_combine_ref([1.0, -float(j)], [_product_ref(z, table[j]), table[j - 1]]))
            piece = _product_ref(piece, table[k])
        pairs += [(pidx.pairs, c * pc) for pidx, pc in piece.terms.items()]
    return _accumulated(new_dim, pairs)


def _same_terms(got, want):
    return got.dim == want.dim and list(got.packed_terms.items()) == list(want.packed_terms.items())


#: The recurrence's block tables sit within 12 ulp of the exact coefficients
#: and the closed-form ones within 1.2 ulp; a refined coefficient multiplies
#: a few of them, so 32 units of 2**-52 bound the relative gap with room.
RECURRENCE_RTOL = 32 * 2.0**-52

#: The recurrence leaves terms that are zero in exact arithmetic, such as
#: 1.07e-14 in He_8 of the average of three coordinates.
RECURRENCE_ROUNDOFF = 1e-13


def _matches_recurrence(p, m):
    """``refine(p, m)`` against ``_refine_ref``, one coarse term at a time.

    Distinct coarse monomials refine to disjoint fine keys, so ``refine(p,
    m)`` is its coarse terms' refinements concatenated in stored order.  Each
    of those holds the reference's keys in the reference's order, with
    coefficients within ``RECURRENCE_RTOL``; the reference's other keys are
    the recurrence's roundoff terms, none above ``RECURRENCE_ROUNDOFF``.
    """
    parts = []
    for key, c in p.packed_terms.items():
        term = ChaosPoly(p.dim, {key: c})
        got, want = refine(term, m).packed_terms, _refine_ref(term, m).packed_terms
        if [k for k in want if k in got] != list(got):
            return False
        if any(abs(w) > RECURRENCE_ROUNDOFF for k, w in want.items() if k not in got):
            return False
        if any(abs(g - want[k]) > RECURRENCE_RTOL * abs(want[k]) for k, g in got.items()):
            return False
        parts += got.items()
    return _same_terms(refine(p, m), ChaosPoly(p.dim * m, parts)) and len(dict(parts)) == len(parts)


def test_streaming_kernels_match_accumulating_references():
    rng = make_rng(4242)
    for _ in range(25):
        p = random_poly(rng, 3, 4, n_terms=8)
        q = random_poly(rng, 3, 3, n_terms=8)
        r = random_poly(rng, 3, 2, n_terms=6)
        i = int(rng.integers(1, 4))
        coeffs = [float(rng.uniform(-2, 2)), 0.0, float(rng.uniform(-2, 2))]
        assert _same_terms(hermite_product(p, q), _product_ref(p, q))
        assert _same_terms(hermite_product(p, p), _product_ref(p, p))
        assert _same_terms(linear_combine(coeffs, [p, q, r]), _combine_ref(coeffs, [p, q, r]))
        assert _same_terms(partial_derivative(p, i), _derivative_ref(p, i))
        assert _same_terms(multiply_by_coordinate(q, i), _coordinate_ref(q, i))
        assert _matches_recurrence(q, 2)
    p = random_poly(rng, 2, 3, n_terms=6)
    assert _matches_recurrence(p, 3)
    # per-coordinate orders up to the cap: every block reads one table, relabeled
    # (the reference takes seconds for mixed high orders at m = 8)
    for m, dim, degree in ((2, 3, DEGREE_CAP), (3, 3, DEGREE_CAP), (5, 2, DEGREE_CAP), (8, 2, 3)):
        top = ChaosPoly.hermite(dim, dim, DEGREE_CAP, float(rng.uniform(-2, 2)))
        p = linear_combine([1.0, 1.0], [top, random_poly(rng, dim, degree, n_terms=6)])
        assert _matches_recurrence(p, m)


def test_refine_of_he8_over_three_cells_holds_only_its_45_degree_8_terms():
    # He_8 of the average of three coordinates has one term per multiset of
    # 8 digits from 1..3, C(10, 8) = 45, and no lower-degree term
    r = refine(ChaosPoly.hermite(1, 1, 8), 3)
    assert len(r.packed_terms) == math.comb(10, 8) == 45
    assert all(len(key) == 8 for key in r.packed_terms)


@pytest.mark.parametrize(
    "text, n, m, count",
    [("h4(x1)*h4(x2)", 2, 4, 1225), ("h4(x1)*h4(x2)", 2, 8, 108900), ("h8(x1)", 1, 3, 45),
     ("[h3(x1)*h3(x2) + x1, h2(x2)*x1 - 0.5*x2, h4(x3)]", 3, 4, 400 + 4 + 40 + 4 + 35)],
)
def test_refine_stores_every_block_monomial(text, n, m, count):
    # a coarse term prod_i He_{k_i}(eta_i) spreads over prod_i C(m + k_i - 1, k_i)
    # fine monomials, and distinct coarse terms share none of them
    v = dsl.lower(dsl.parse_functional(text), n)
    polys = v.components if isinstance(v, VField) else (v,)
    assert sum(len(refine(p, m).packed_terms) for p in polys) == count


def test_refined_hermite_tables_match_the_exact_closed_form():
    # He_k(eta_1) refined by m is He_k of the block average: one term per
    # multiset alpha of k digits from 1..m, with coefficient k!/alpha! *
    # m**(-k/2), decided in exact rationals: even k is correctly rounded, odd
    # k within 2 ulp
    checked = 0
    for m in range(1, 17):
        for k in range(DEGREE_CAP + 1):
            count = math.comb(m + k - 1, k)
            if count > 50_000:
                continue
            terms = refine(ChaosPoly.hermite(1, 1, k), m).packed_terms
            values = set()
            for key, c in terms.items():
                # a multiset of k digits from 1..m
                assert len(key) == k and bytes(sorted(key)) == key
                assert not key or (key[0] >= 1 and key[-1] <= m)
                values.add((math.prod(map(math.factorial, Counter(key).values())), c))
            # distinct multisets, as many as there are: every one of them
            assert len(terms) == count
            for alpha, c in values:
                weight = Fraction(math.factorial(k), alpha)
                if k % 2 == 0:
                    assert c.hex() == float(weight / m ** (k // 2)).hex()
                else:
                    # c - 2 ulp <= weight / sqrt(m**k) <= c + 2 ulp, squared
                    ulp = Fraction(math.ulp(c))
                    lo, hi = Fraction(c) - 2 * ulp, Fraction(c) + 2 * ulp
                    assert 0 < lo**2 * m**k <= weight**2 <= hi**2 * m**k
            checked += count
    assert checked > 300_000


@pytest.mark.parametrize(
    "k, factors",
    [(k, range(1, 17)) for k in range(1, DEGREE_CAP + 1)]
    + [(k, (17, 32, 61, 100, 127, 128)) for k in (1, 2, 3)],
)
def test_block_average_table_weighs_each_key_by_its_own_factorial(k, factors):
    # alpha! is formed for all keys at once from the runs of equal digits;
    # each coefficient must be the bits of k! // alpha! / m**(k/2) from the
    # key's own alpha!, and the factorial column that alpha!, in
    # combinations_with_replacement order, one digit row per key
    for m in factors:
        root = m ** (k // 2) * math.sqrt(m) if k % 2 else m ** (k // 2)
        keys = map(bytes, combinations_with_replacement(range(1, m + 1), k))
        want = [(key, math.factorial(k) // _factorial(key) / root, _factorial(key)) for key in keys]
        digits, coeffs, factorials = _block_average_table(m, k)
        assert digits.dtype == np.uint8 and digits.shape == (len(want), k)
        assert factorials.dtype == np.int64
        assert list(zip(map(bytes, digits), coeffs.tolist(), factorials.tolist())) == want


def _refine_by_tuples(p, m):
    """``refine`` term by term in Python: the tuple construction arrays replaced.

    Each order's table is a key -> ``k! // alpha! / m**(k/2)`` dict, block
    ``i`` relabels its keys with ``bytes.translate``, and a coarse monomial
    is the cartesian product of its blocks' lists, earlier block outer, with
    coefficient ``c * ((c1 * c2) * ...)``.
    """

    def block_terms(i, k):
        root = m ** (k // 2) * math.sqrt(m) if k % 2 else m ** (k // 2)
        shift = bytes.maketrans(bytes(range(1, m + 1)), bytes(range((i - 1) * m + 1, i * m + 1)))
        keys = map(bytes, combinations_with_replacement(range(1, m + 1), k))
        return [(key.translate(shift), math.factorial(k) // _factorial(key) / root) for key in keys]

    store = {}
    for key, c in p.packed_terms.items():
        partial = [(b"", 1.0)]
        for i, k in _pairs_of(key):
            partial = [(ka + kb, ca * cb) for ka, ca in partial for kb, cb in block_terms(i, k)]
        store.update((fine, c * pc) for fine, pc in partial)
    return ChaosPoly(p.dim * m, store)


@pytest.mark.parametrize(
    "text, n, m",
    [
        ("0.459*x1*x2*x3 + 0.746*h2(x1)*x2*h3(x3) - 1.318*h2(x2) + 0.165", 3, 2),
        ("0.459*x1*x2*x3 + 0.746*h2(x1)*x2*h3(x3) - 1.318*h2(x2) + 0.165", 3, 3),
        ("0.849*h2(x1)*x2*x3*h2(x4) - 3.07*x1*h3(x4) + 2.2", 4, 5),
        ("0.318*x1*h2(x2)*x4*x5 + 1.53*h4(x3)*h2(x5) - 0.91*h8(x2) + 0.1", 5, 8),
        ("0.77*x1*x3*h2(x8) - 0.3*x2*x8 + 1.7*h3(x8) - 4.1", 8, 16),
        ("0.63*x15*h2(x16) + 0.59*h3(x1)*x9*x16 - 1.45*x8 + 0.25", 16, 8),
    ],
)
def test_refine_matches_the_term_by_term_tuple_construction(text, n, m):
    # keys, stored order and coefficient bits, over monomials of three and
    # more blocks with mixed orders and a constant term
    p = dsl.lower(dsl.parse_functional(text), n)
    got, want = refine(p, m), _refine_by_tuples(p, m)
    assert got.dim == want.dim == n * m
    bits = [[(key, c.hex()) for key, c in r.packed_terms.items()] for r in (got, want)]
    assert bits[0] == bits[1]
    assert b"" in got.packed_terms and max(map(len, map(_pairs_of, got.packed_terms))) >= 3
    if n * m == DIM_CAP:
        assert max(b"".join(got.packed_terms)) == 128


def test_gate_checks_keys_that_cancel_to_zero():
    out_of_dim = b"\x03"
    with pytest.raises(DimensionMismatch):
        ChaosPoly(2, [(out_of_dim, 1.0), (out_of_dim, -1.0)])
    over_cap = packed({1: DEGREE_CAP + 1})
    with pytest.raises(DegreeCapExceeded):
        ChaosPoly(1, [(over_cap, 0.5), (over_cap, -0.5)])
    h5 = ChaosPoly.hermite(1, 1, 5)
    with pytest.raises(DegreeCapExceeded):
        hermite_product(h5, h5)


def test_gate_prefers_the_cap_error_over_non_finite():
    with pytest.raises(DegreeCapExceeded):
        ChaosPoly(1, {packed({1: DEGREE_CAP + 1}): math.nan})
    huge = ChaosPoly.hermite(1, 1, 5, 1e200)
    with pytest.raises(DegreeCapExceeded):
        hermite_product(huge, huge)


def test_refine_above_the_degree_cap_raises():
    # no polynomial past the cap can be built, so none reaches refine;
    # refinement keeps each term's degree, so a polynomial at the cap refines
    h5 = ChaosPoly.hermite(1, 1, 5)
    with pytest.raises(DegreeCapExceeded):
        hermite_product(h5, h5)
    h8 = ChaosPoly.hermite(1, 1, DEGREE_CAP)
    assert max(idx.total_degree for idx in refine(h8, 2).terms) == DEGREE_CAP
    assert refine(h8, 1) is h8


def test_gate_reads_any_object_with_items():
    class Pairs:
        def __init__(self, data):
            self.data = data

        def items(self):
            return self.data.items()

    p = ChaosPoly(2, Pairs({b"\x01": 2.0, b"": 1.0}))
    assert list(p.packed_terms.items()) == [(b"\x01", 2.0), (b"", 1.0)]


@pytest.mark.parametrize(
    "key", [(1, 1, 3), MultiIndex(b"\x01\x01\x03"), "\x01\x01\x03"], ids=["tuple", "multiindex", "str"]
)
def test_gate_refuses_keys_that_are_not_bytes(key):
    # also where the key's coefficients cancel, and beside a valid key
    for terms in ({key: 1.0}, [(b"\x01", 1.0), (key, 0.5), (key, -0.5)]):
        with pytest.raises(AlgebraError, match="is not a packed bytes key"):
            ChaosPoly(4, terms)


# ------------------------------------------------------------- packed keys


# multisets of coordinate occurrences: the small range gives higher orders
_OCCURRENCES = st.lists(
    st.one_of(st.integers(1, 4), st.integers(1, DIM_CAP)), max_size=12
)


def _index(occurrences):
    """``(coordinate, order)`` pairs of a multiset of coordinate occurrences."""
    return tuple(sorted(Counter(occurrences).items()))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(a=_OCCURRENCES, b=_OCCURRENCES, coord=st.integers(1, DIM_CAP))
def test_packed_key_matches_multiindex(a, b, coord):
    ia, ib = _index(a), _index(b)
    key = _pack(ia)
    assert key == bytes(sorted(a)) == packed(ia)
    assert tuple(_pairs_of(key)) == ia == MultiIndex(key).pairs
    assert len(key) == len(a) == MultiIndex(key).total_degree
    assert (key[-1] if key else 0) == max(a, default=0)
    assert _factorial(key) == math.prod(math.factorial(k) for _, k in ia) == MultiIndex(key).factorial
    assert key.count(coord) == _order(ia, coord)
    digit = bytes((coord,))
    at = len([c for c in key if c <= coord])
    assert key[:at] + digit + key[at:] == packed(_shifted(ia, coord, 1))
    if _order(ia, coord):
        assert key.replace(digit, b"", 1) == packed(_shifted(ia, coord, -1))
    # the monomial product, pair by pair, in the reference's order and bits
    got = list(_product_terms({key: 1.0}, {packed(ib): 1.0}))
    want = [(packed(idx), w) for idx, w in _monomial_product(ia, ib)]
    assert got == want
    # the store keeps arrival order; the text form sorts by _text_rank
    if max(len(a), len(b)) > DEGREE_CAP:
        with pytest.raises(DegreeCapExceeded):
            ChaosPoly(DIM_CAP, [(packed(ia), 1.0), (packed(ib), 2.0)])
        return
    p = ChaosPoly(DIM_CAP, [(packed(ia), 1.0), (packed(ib), 2.0)])
    stored = [ia] if ia == ib else [ia, ib]
    assert [idx.pairs for idx in p.terms] == stored
    text = [line.split()[1:] for line in p.to_text().splitlines()]
    assert text == [[f"{i}:{k}" for i, k in idx] for idx in sorted(stored, key=_text_rank)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.integers(1, 4), st.integers(1, DIM_CAP)), max_size=DEGREE_CAP)))
def test_text_order_is_degree_then_coordinates_then_orders(indices):
    # a pair whose bytes order is the reverse of its text order, then any keys
    indices = [[1, 2, 2], [1, 1, 3]] + indices
    p = ChaosPoly(DIM_CAP, [(bytes(sorted(occ)), 0.5 + j) for j, occ in enumerate(indices)])
    ranked = sorted({_index(occ) for occ in indices}, key=_text_rank)
    coeffs = [p.packed_terms[packed(idx)] for idx in ranked]
    want = [" ".join([repr(c)] + [f"{i}:{k}" for i, k in idx]) for c, idx in zip(coeffs, ranked)]
    assert p.to_text().splitlines() == want
    body = ", ".join(f"{dict(idx)!r}: {c!r}" for c, idx in zip(coeffs, ranked))
    assert repr(p) == f"ChaosPoly(dim={DIM_CAP}, {{{body}}})"
    assert ranked.index(((1, 2), (3, 1))) > ranked.index(((1, 1), (2, 2)))


@pytest.mark.parametrize("seed", [0, 1, 104729])
def test_text_sort_key_orders_keys_as_the_tuple_rank(seed):
    # seeded keys over a few coordinates, where one key's coordinate list
    # is often a prefix of another's at the same degree, and over all of them
    rng = np.random.default_rng(seed)
    keys = {b""}
    for top in (3, 5, DIM_CAP):
        for _ in range(400):
            degree = int(rng.integers(1, DEGREE_CAP + 1))
            keys.add(bytes(sorted(rng.integers(1, top + 1, size=degree).tolist())))
    keys = list(keys)
    rng.shuffle(keys)
    want = sorted(keys, key=lambda key: _text_rank(_pairs_of(key)))
    assert sorted(keys, key=_text_sort_key) == want
    # the prefix case itself: coordinates (1, 2) rank below (1, 2, 3) at degree 3
    assert _text_sort_key(packed({1: 2, 2: 1})) < _text_sort_key(packed({1: 1, 2: 1, 3: 1}))
    assert _text_rank(((1, 2), (2, 1))) < _text_rank(((1, 1), (2, 1), (3, 1)))
    prefixed = sum(
        1 for a, b in zip(want, want[1:])
        if len(a) == len(b) and bytes(dict.fromkeys(b)).startswith(bytes(dict.fromkeys(a)))
        and len(set(a)) < len(set(b))
    )
    assert prefixed > 0


@pytest.mark.parametrize(
    "build, coord",
    [
        (lambda: ChaosPoly(4, {bytes((1, 129, 129)): 1.0}), 129),
        (lambda: ChaosPoly(4, [(bytes((255,)), 1.0)]), 255),
        (lambda: ChaosPoly(4, [(bytes((2, 200)), 0.5)]), 200),
    ],
)
def test_coordinates_past_the_byte_range_raise_dimension_mismatch(build, coord):
    with pytest.raises(DimensionMismatch, match=f"^coordinate {coord} outside ambient dimension 4$"):
        build()


def test_refine_reaches_coordinate_128_unchanged():
    p = dsl.lower(dsl.parse_functional("x16*x15 + h2(x16) + 0.5*h3(x1)*x9 - 1.5*x8"), 16)
    r = refine(p, 8)
    assert r.dim == DIM_CAP and max(b"".join(r.packed_terms)) == 128 and len(r.terms) == 1068
    assert _matches_recurrence(p, 8)
    # recorded from the closed-form block tables, once they passed the exact
    # table oracle above
    text = repr([(r.dim, r.to_text(), [idx.pairs for idx in r.terms])])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "dbc316c8378a9351d8050c286e0af43dde5d475ae88b8de51f56ca59d71a480f"


def test_degree_cap_error_carries_the_summed_degree():
    with pytest.raises(DegreeCapExceeded) as err:
        hermite_product(ChaosPoly.hermite(3, 1, 5), ChaosPoly.hermite(3, 2, 4))
    assert err.value.degree == 9
    with pytest.raises(DegreeCapExceeded) as err:
        hermite_product(ChaosPoly.hermite(3, 1, 7), ChaosPoly.hermite(3, 1, 6))
    assert err.value.degree == 13
    with pytest.raises(DegreeCapExceeded) as err:
        multiply_by_coordinate(ChaosPoly.hermite(3, 2, DEGREE_CAP), 3)
    assert err.value.degree == DEGREE_CAP + 1


REPRESENT_3 = ["represent", "--functional", "[h3(x1)*h3(x2) + x1, h2(x2)*x1 - 0.5*x2, h4(x3)]"]


@pytest.mark.parametrize("build", ["h8", "h3h3", "commands"])
def test_reconstruct_builds_no_multiindex(monkeypatch, tmp_path, capsys, build):
    calls = []
    init = MultiIndex.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultiIndex, "__init__", counting)
    if build == "commands":
        # verify, and a represent report whose to_text lines need sorting
        assert cli.main(["verify", "--output", str(tmp_path / "verify.json")]) == 0
        assert cli.main(REPRESENT_3 + ["--n", "3", "--output", str(tmp_path / "rep")]) == 0
        capsys.readouterr()
    else:
        if build == "h8":
            v = VField((ChaosPoly.hermite(1, 1, 8),))
        else:
            v = VField((hermite_product(ChaosPoly.hermite(2, 1, 3), ChaosPoly.hermite(2, 2, 3)),))
        clark.reconstruct(v)
        clark.refine_and_reconstruct(v, [1, 2, 4, 8])
    assert len(calls) == 0
    MultiIndex(b"\x01")  # the wrapper is live, so the zero above is a real count
    assert len(calls) == 1
