"""Chaos algebra: frozen examples, independent oracles, randomized properties."""

import hashlib
import math
from collections import Counter
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    eval_poly_indep,
    fd_partial,
    generic_product_pairs,
    he_value,
    make_rng,
    mc_poly_mean,
    quad_expectation,
    quad_poly_expectation,
    refine_monomial_oracle,
)
from wienerlab import clark, dsl
from wienerlab.chaos import (
    DEGREE_CAP,
    DIM_CAP,
    AlgebraError,
    ChaosPoly,
    DegreeCapExceeded,
    DimensionMismatch,
    MultiIndex,
    NotCentered,
    chaos_projection,
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
    _factorial,
    _pack,
    _pairs_of,
    _product_terms,
    _top_order_above_one,
)
from wienerlab.malliavin import VField


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
        idx = MultiIndex(orders)
        terms[idx] = terms.get(idx, 0.0) + float(rng.uniform(-1, 1))
    return ChaosPoly(dim, terms)


def _at(p, x):
    """Value of p at one sample point, as a one-row batch."""
    return evaluate_batch(p, np.asarray(x, dtype=float)[None])[0]


# ---------------------------------------------------------------- multi-index


def test_multiindex_canonical_form():
    idx = MultiIndex({3: 1, 1: 2, 5: 0})
    assert idx.pairs == ((1, 2), (3, 1))
    assert idx.total_degree == 3
    assert idx.factorial == 2
    assert idx.max_coordinate == 3
    assert _order(idx, 1) == 2 and _order(idx, 2) == 0
    assert MultiIndex({1: 2, 3: 1}) == idx


def test_multiindex_rejects_bad_entries():
    with pytest.raises(AlgebraError):
        MultiIndex({0: 1})
    with pytest.raises(AlgebraError):
        MultiIndex({2: -1})
    with pytest.raises(AlgebraError):
        MultiIndex([(1, 1), (1, 2)])


def test_term_ordering_for_serialization():
    p = ChaosPoly(
        3,
        {
            MultiIndex({1: 2}): 1.0,
            MultiIndex({2: 1}): 2.0,
            MultiIndex(): 3.0,
            MultiIndex({1: 1, 2: 1}): 4.0,
        },
    )
    keys = [idx.pairs for idx, _ in p.sorted_terms()]
    assert keys == [(), ((2, 1),), ((1, 2),), ((1, 1), (2, 1))]


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
    p = ChaosPoly(2, {MultiIndex({1: 1}): 1.0, MultiIndex({2: 2}): 0.5})
    q = ChaosPoly(2, {MultiIndex({1: 1}): -1.0})
    assert MultiIndex({1: 1}) not in (p + q).terms
    assert ChaosPoly(2, {MultiIndex({1: 1}): 1e-15}).is_zero()


# ------------------------------------------------------------------- product


def test_product_he1_he1_frozen():
    # He_1^2 = He_2 + 1, expectation side = 1 by quadrature
    dim = 1
    he1 = ChaosPoly.hermite(dim, 1, 1)
    prod = hermite_product(he1, he1)
    assert prod == ChaosPoly(dim, {MultiIndex({1: 2}): 1.0, MultiIndex(): 1.0})
    assert abs(quad_poly_expectation(prod) - 1.0) < 1e-12


def test_product_he2_he2_frozen():
    # He_2^2 = He_4 + 4 He_2 + 2; mean frozen at 2, cross-checked by MC
    dim = 1
    he2 = ChaosPoly.hermite(dim, 1, 2)
    prod = hermite_product(he2, he2)
    assert prod == ChaosPoly(
        dim, {MultiIndex({1: 4}): 1.0, MultiIndex({1: 2}): 4.0, MultiIndex(): 2.0}
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
    assert got == ChaosPoly(1, {MultiIndex({1: 2}): 1.0, MultiIndex(): 1.0})


def test_multiply_by_coordinate_matches_product():
    rng = make_rng(808)
    for _ in range(10):
        p = random_poly(rng, 3, 4)
        i = int(rng.integers(1, 4))
        direct = multiply_by_coordinate(p, i)
        via_product = hermite_product(ChaosPoly.coordinate(3, i), p)
        assert norm_l2(direct - via_product) <= 1e-12


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
        # a block average, as refine builds it
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
        want = ce.terms.get(MultiIndex({1: k}), 0.0)
        assert abs(est - want) <= 3.0 * stderr + 1e-12


# ------------------------------------------------------------ grade projection


def test_chaos_projection_frozen_and_parseval():
    p = ChaosPoly(
        2,
        {
            MultiIndex(): 1.5,
            MultiIndex({1: 1}): 2.0,
            MultiIndex({1: 1, 2: 1}): 3.0,
            MultiIndex({2: 2}): -1.0,
        },
    )
    assert chaos_projection(p, 2) == ChaosPoly(
        2, {MultiIndex({1: 1, 2: 1}): 3.0, MultiIndex({2: 2}): -1.0}
    )
    total = sum(l2_inner(chaos_projection(p, m), chaos_projection(p, m)) for m in range(5))
    assert abs(total - l2_inner(p, p)) <= 1e-12
    with pytest.raises(AlgebraError):
        chaos_projection(p, -1)


# ----------------------------------------------------------------- OU scaling


def test_ou_apply_and_inverse():
    p = hermite_product(ChaosPoly.coordinate(2, 1), ChaosPoly.coordinate(2, 2))
    assert ou_apply(p) == linear_combine([2.0], [p])
    he3 = ChaosPoly.hermite(1, 1, 3)
    assert ou_inverse(he3) == ChaosPoly.hermite(1, 1, 3, 1.0 / 3.0)
    with pytest.raises(NotCentered):
        ou_inverse(ChaosPoly.constant(1, 1.0))
    rng = make_rng(111)
    for _ in range(8):
        p = random_poly(rng, 3, 4)
        centered = p - ChaosPoly.constant(3, expectation(p))
        assert norm_l2(ou_apply(ou_inverse(centered)) - centered) <= 1e-12
        assert norm_l2(ou_inverse(ou_apply(centered)) - centered) <= 1e-12


# ----------------------------------------------------------------- refinement


def test_refine_he1_frozen():
    got = refine(ChaosPoly.hermite(1, 1, 1), 2)
    s = 1.0 / math.sqrt(2.0)
    want = ChaosPoly(2, {MultiIndex({1: 1}): s, MultiIndex({2: 1}): s})
    assert norm_l2(got - want) <= 1e-15


def test_refine_he2_frozen():
    got = refine(ChaosPoly.hermite(1, 1, 2), 2)
    want = ChaosPoly(
        2,
        {
            MultiIndex({1: 2}): 0.5,
            MultiIndex({2: 2}): 0.5,
            MultiIndex({1: 1, 2: 1}): 1.0,
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
                a = norm_l2(chaos_projection(rp, grade))
                b = norm_l2(chaos_projection(p, grade))
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
    with pytest.raises(DimensionMismatch):
        ChaosPoly(2, {MultiIndex({3: 1}): 1.0})


def test_text_round_trip():
    # each line's leading field reads back as the exact coefficient
    rng = make_rng(777)
    for _ in range(10):
        p = random_poly(rng, 4, 4)
        lines = p.to_text().splitlines()
        assert [float(line.split()[0]) for line in lines] == [c for _, c in p.sorted_terms()]
    p = ChaosPoly(2, {MultiIndex(): 2.5, MultiIndex({1: 2}): -1.0, MultiIndex({1: 1, 2: 1}): 3.0})
    assert p.to_text() == "2.5\n-1.0 1:2\n3.0 1:1 2:1"
    assert ChaosPoly.zero(2).to_text() == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_raise(bad):
    with pytest.raises(AlgebraError, match="non-finite"):
        ChaosPoly(2, {(): bad, ((1, 1),): 1.0})
    with pytest.raises(AlgebraError, match="non-finite"):
        linear_combine([bad], [ChaosPoly.coordinate(2, 1)])


@pytest.mark.parametrize("c", [1e200, -1e200, 1e155])
def test_norm_l2_scales_a_sum_of_squares_that_overflows(c):
    p = ChaosPoly.hermite(1, 1, 2, c)
    assert l2_inner(p, p) == math.inf
    want = math.sqrt(2.0) * abs(c)
    assert abs(norm_l2(p) - want) <= 1e-15 * want
    assert p.norm_l2() == norm_l2(p)
    pair = ChaosPoly(2, {b"\x01": 3e200, b"\x02": -4e200})
    assert abs(norm_l2(pair) - 5e200) <= 1e-15 * 5e200


def test_norm_l2_keeps_the_plain_sum_when_it_is_finite():
    rng = make_rng(977)
    for _ in range(20):
        p = random_poly(rng, 3, 4, n_terms=6)
        assert norm_l2(p) == math.sqrt(l2_inner(p, p)) == p.norm_l2()
    assert norm_l2(ChaosPoly.zero(2)) == 0.0
    # a coefficient of 1e-200 lies below PRUNE_EPS, so the gate drops it: no
    # stored polynomial has a sum of squares that underflows to zero
    tiny = ChaosPoly.hermite(1, 1, 2, 1e-200)
    assert tiny.is_zero() and norm_l2(tiny) == 0.0


def test_overflowing_product_raises():
    big = ChaosPoly.constant(1, 1e200)
    with pytest.raises(AlgebraError, match="non-finite"):
        hermite_product(big, big)
    with pytest.raises(AlgebraError, match="non-finite"):
        linear_combine([1e200], [big])


# ------------------------------------------------------------------ term gate
# Each kernel streams its (key, coefficient) pairs into the constructor's one
# term gate.  The references below keep the earlier representation: they
# work on MultiIndex objects with dict arithmetic, sum the same pairs into a
# local dict first and construct from that, so the output must match term by
# term, in the same order and to the last bit.


def _order(idx, coord):
    return dict(idx.pairs).get(coord, 0)


def _shifted(idx, coord, delta):
    """New index with the order at ``coord`` changed by ``delta``."""
    new = dict(idx.pairs)
    new[coord] = new.get(coord, 0) + delta
    return MultiIndex(new)


def _linearization_ref(m, n):
    # He_m * He_n = sum_k C(m,k) C(n,k) k! He_{m+n-2k}
    return [
        (m + n - 2 * k, math.comb(m, k) * math.comb(n, k) * math.factorial(k))
        for k in range(min(m, n) + 1)
    ]


def _monomial_product(a, b):
    """Yield ``(index, coeff)`` for ``He_a * He_b`` coordinatewise."""
    a_orders = dict(a.pairs)
    b_orders = dict(b.pairs)
    shared = sorted(set(a_orders) & set(b_orders))
    base = [(i, k) for i, k in a_orders.items() if i not in b_orders]
    base += [(i, k) for i, k in b_orders.items() if i not in a_orders]
    if not shared:
        yield MultiIndex(base), 1.0
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
        yield MultiIndex(pairs), coeff


def _accumulated(dim, pairs):
    acc = {}
    for idx, c in pairs:
        acc[idx] = acc.get(idx, 0.0) + c
    return ChaosPoly(dim, acc)


def _product_ref(p, q):
    pairs = []
    for ia, ca in p.terms.items():
        for ib, cb in q.terms.items():
            scale = ca * cb
            pairs += [(idx, scale * w) for idx, w in _monomial_product(ia, ib)]
    return _accumulated(p.dim, pairs)


def _combine_ref(coeffs, polys):
    pairs = [
        (idx, float(c) * pc)
        for c, p in zip(coeffs, polys)
        if float(c) != 0.0
        for idx, pc in p.terms.items()
    ]
    return _accumulated(polys[0].dim, pairs)


def _derivative_ref(p, i):
    pairs = [
        (_shifted(idx, i, -1), _order(idx, i) * c)
        for idx, c in p.terms.items()
        if _order(idx, i)
    ]
    return _accumulated(p.dim, pairs)


def _coordinate_ref(p, i):
    pairs = []
    for idx, c in p.terms.items():
        pairs.append((_shifted(idx, i, 1), c))
        if _order(idx, i):
            pairs.append((_shifted(idx, i, -1), _order(idx, i) * c))
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
                    new_dim, {MultiIndex({(i - 1) * m + j: 1}): 1.0 / math.sqrt(m) for j in range(1, m + 1)}
                )
                tables[i] = [one, z]
            table = tables[i]
            z = table[1]
            for j in range(len(table) - 1, k):
                table.append(_combine_ref([1.0, -float(j)], [_product_ref(z, table[j]), table[j - 1]]))
            piece = _product_ref(piece, table[k])
        pairs += [(pidx, c * pc) for pidx, pc in piece.terms.items()]
    return _accumulated(new_dim, pairs)


def _same_terms(got, want):
    return got.dim == want.dim and list(got.terms.items()) == list(want.terms.items())


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
        assert _same_terms(refine(q, 2), _refine_ref(q, 2))
    p = random_poly(rng, 2, 3, n_terms=6)
    assert _same_terms(refine(p, 3), _refine_ref(p, 3))
    # per-coordinate orders up to the cap: every block reads one table, relabeled
    # (the reference takes seconds for mixed high orders at m = 8)
    for m, dim, degree in ((2, 3, DEGREE_CAP), (3, 3, DEGREE_CAP), (5, 2, DEGREE_CAP), (8, 2, 3)):
        top = ChaosPoly.hermite(dim, dim, DEGREE_CAP, float(rng.uniform(-2, 2)))
        p = linear_combine([1.0, 1.0], [top, random_poly(rng, dim, degree, n_terms=6)])
        assert _same_terms(refine(p, m), _refine_ref(p, m))


def test_refine_keeps_the_roundoff_term_of_the_lowering_steps():
    # He_8 of the average of three coordinates carries no (2, 2, 2) term in
    # exact arithmetic; the recurrence's lowering terms leave this much
    # roundoff, above the pruning cutoff, and refinement keeps it bit for bit
    r = refine(ChaosPoly.hermite(1, 1, 8), 3)
    key = _pack([(1, 2), (2, 2), (3, 2)])
    assert r.packed_terms[key].hex() == (1.0658141036401503e-14).hex()
    assert [k for k, c in r.packed_terms.items() if len(k) < 8 and abs(c) < 1e-6] == [key]


def test_gate_checks_keys_that_cancel_to_zero():
    out_of_dim = MultiIndex({3: 1})
    with pytest.raises(DimensionMismatch):
        ChaosPoly(2, [(out_of_dim, 1.0), (out_of_dim, -1.0)])
    over_cap = MultiIndex({1: DEGREE_CAP + 1})
    with pytest.raises(DegreeCapExceeded):
        ChaosPoly(1, [(over_cap, 0.5), (over_cap, -0.5)])
    h5 = ChaosPoly.hermite(1, 1, 5)
    with pytest.raises(DegreeCapExceeded):
        hermite_product(h5, h5)


def test_gate_prefers_the_cap_error_over_non_finite():
    with pytest.raises(DegreeCapExceeded):
        ChaosPoly(1, {MultiIndex({1: DEGREE_CAP + 1}): math.nan})
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

    assert MultiIndex(Pairs({2: 1, 1: 3})) == MultiIndex({1: 3, 2: 1})
    p = ChaosPoly(2, Pairs({MultiIndex({1: 1}): 2.0, (): 1.0}))
    assert p == ChaosPoly(2, {MultiIndex({1: 1}): 2.0, MultiIndex(): 1.0})


# ------------------------------------------------------------- packed keys


# multisets of coordinate occurrences: the small range gives higher orders
_OCCURRENCES = st.lists(
    st.one_of(st.integers(1, 4), st.integers(1, DIM_CAP)), max_size=12
)


def _index(occurrences):
    return MultiIndex(Counter(occurrences))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(a=_OCCURRENCES, b=_OCCURRENCES, coord=st.integers(1, DIM_CAP))
def test_packed_key_matches_multiindex(a, b, coord):
    ia, ib = _index(a), _index(b)
    key = _pack(ia.pairs)
    assert key == bytes(sorted(a))
    assert MultiIndex(_pairs_of(key)) == ia
    assert len(key) == ia.total_degree
    assert (key[-1] if key else 0) == ia.max_coordinate
    assert _factorial(key) == ia.factorial
    assert key.count(coord) == _order(ia, coord)
    digit = bytes((coord,))
    at = len([c for c in key if c <= coord])
    assert key[:at] + digit + key[at:] == _pack(_shifted(ia, coord, 1).pairs)
    if _order(ia, coord):
        assert key.replace(digit, b"", 1) == _pack(_shifted(ia, coord, -1).pairs)
    assert _top_order_above_one(key) == bool(ia.pairs and ia.pairs[-1][1] > 1)
    # the monomial product, pair by pair, in the reference's order and bits
    got = list(_product_terms({key: 1.0}, {_pack(ib.pairs): 1.0}))
    want = [(_pack(idx.pairs), w) for idx, w in _monomial_product(ia, ib)]
    assert got == want
    # the store keeps arrival order; the text form sorts by sort_key
    if max(len(a), len(b)) > DEGREE_CAP:
        with pytest.raises(DegreeCapExceeded):
            ChaosPoly(DIM_CAP, [(ia, 1.0), (ib, 2.0)])
        return
    p = ChaosPoly(DIM_CAP, [(ia, 1.0), (ib, 2.0)])
    stored = [ia] if ia == ib else [ia, ib]
    assert list(p.terms) == stored
    assert [idx for idx, _ in p.sorted_terms()] == sorted(stored, key=MultiIndex.sort_key)


@pytest.mark.parametrize(
    "build, coord",
    [
        (lambda: ChaosPoly(4, {MultiIndex({300: 1}): 1.0}), 300),
        (lambda: ChaosPoly(4, {MultiIndex({1: 1, 129: 2}): 1.0}), 129),
        (lambda: ChaosPoly(4, [(((255, 1),), 1.0)]), 255),
        (lambda: ChaosPoly(4, {((256, 1), (2, 1)): 1.0}), 256),
        (lambda: ChaosPoly(4, [(MultiIndex([(200, 1)]), 1.0)]), 200),
        (lambda: ChaosPoly(4, [(MultiIndex([(1, 1), (300, 2)]), 0.5)]), 300),
    ],
)
def test_coordinates_past_the_byte_range_raise_dimension_mismatch(build, coord):
    with pytest.raises(DimensionMismatch, match=f"^coordinate {coord} outside ambient dimension 4$"):
        build()


def test_refine_reaches_coordinate_128_unchanged():
    p = dsl.lower(dsl.parse_functional("x16*x15 + h2(x16) + 0.5*h3(x1)*x9 - 1.5*x8"), 16)
    r = refine(p, 8)
    assert r.dim == DIM_CAP and r.max_coordinate() == 128 and len(r.terms) == 1068
    assert _same_terms(r, _refine_ref(p, 8))
    # recorded from the implementation that keyed terms by MultiIndex
    text = repr([(r.dim, r.to_text(), [idx.pairs for idx in r.terms])])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "2316a3ddaaaedbf345b9ec37f97ce7a30b4c5c16285911290fcc700b6d01bed3"


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


@pytest.mark.parametrize("build", ["h8", "h3h3"])
def test_reconstruct_builds_no_multiindex(monkeypatch, build):
    if build == "h8":
        v = VField((ChaosPoly.hermite(1, 1, 8),))
    else:
        v = VField((hermite_product(ChaosPoly.hermite(2, 1, 3), ChaosPoly.hermite(2, 2, 3)),))
    calls = []
    init = MultiIndex.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultiIndex, "__init__", counting)
    clark.reconstruct(v)
    clark.refine_and_reconstruct(v, [1, 2, 4, 8])
    assert len(calls) == 0
    MultiIndex({1: 1})  # the wrapper is live, so the zero above is a real count
    assert len(calls) == 1
