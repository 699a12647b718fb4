"""Kernels store their results past the public term gate; the gate is the oracle.

Each kernel below builds its keys from stored ones and keeps only the gate's
value rules (``chaos._kept``).  Fed the pairs the kernel sums, the full gate
``chaos._canonical_terms``, which also checks that every key is sorted, free
of coordinate 0, inside the dimension and the degree cap, must give the same
store: the same keys, coefficient bits and stored order.
"""

import numpy as np
import pytest

from helpers import draw_hfield, draw_poly, make_rng, packed
from wienerlab import chaos, clark, dsl, randgen
from wienerlab.chaos import (
    DEGREE_CAP,
    AlgebraError,
    ChaosPoly,
    DegreeCapExceeded,
    DimensionMismatch,
    _canonical_terms,
    _coordinate_terms,
    _product_terms,
    _require_same_dim,
    conditional_expectation,
    hermite_product,
    linear_combine,
    multiply_by_coordinate,
    ou_apply,
    ou_inverse,
    partial_derivative,
    refine,
)
from wienerlab.malliavin import HField, divergence_h


def _gated(dim, pairs):
    return list(_canonical_terms(list(pairs), dim).items())


def _stored(p):
    return list(p.packed_terms.items())


def _same_bits(got, want):
    # float equality would let -0.0 pass for 0.0; the bits must agree
    return [(k, c.hex()) for k, c in got] == [(k, c.hex()) for k, c in want]


def _instances(seed, count=30):
    """Seeded ``randgen`` polynomials and fields over dimensions 1 .. 4."""
    rng = make_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 5))
        p = draw_poly(rng, n, 4, 8)
        q = draw_poly(rng, n, 4, 6)
        u = draw_hfield(rng, n, 4)
        v = randgen.random_vfield(rng, n, 2, 6)
        yield rng, n, p, q, u, v


@pytest.mark.parametrize("seed", [3, 29, 104729])
def test_kernel_stores_equal_the_public_gate_over_the_same_pairs(seed):
    for rng, n, p, q, u, v in _instances(seed):
        i = int(rng.integers(1, n + 1))
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        pt, qt = p.packed_terms, q.packed_terms

        combined = (
            (key, c * pc) for c, r in ((a, p), (b, q), (-a, p)) for key, pc in r.packed_terms.items()
        )
        assert _same_bits(_stored(linear_combine([a, b, -a], [p, q, p])), _gated(n, combined))
        assert _same_bits(_stored(hermite_product(p, q)), _gated(n, _product_terms(dict(pt), dict(qt))))
        digit = bytes((i,))
        assert _same_bits(
            _stored(multiply_by_coordinate(q, i)), _gated(n, _coordinate_terms(digit, 1.0, dict(qt)))
        )
        lowered = (
            (key.replace(digit, b"", 1), key.count(digit) * c) for key, c in pt.items() if digit in key
        )
        assert _same_bits(_stored(partial_derivative(p, i)), _gated(n, lowered))
        scaled = ((key, len(key) * c) for key, c in pt.items() if key)
        assert _same_bits(_stored(ou_apply(p)), _gated(n, scaled))
        divided = ((key, c / len(key)) for key, c in pt.items() if key)
        assert _same_bits(_stored(ou_inverse(p)), _gated(n, divided))
        for k in range(n + 1):
            kept = ((key, c) for key, c in pt.items() if not key or key[-1] <= k)
            assert _same_bits(_stored(conditional_expectation(p, k)), _gated(n, kept))

        raised = []
        for j, uj in enumerate(u.coords, start=1):
            for key, c in uj.packed_terms.items():
                raised.append((bytes(sorted(key + bytes((j,)))), c))
        assert _same_bits(_stored(divergence_h(u)), _gated(n, raised))

        # clark_integrand moves a term whose top coordinate j has order 1 to
        # entry (a, j), less that factor
        K = clark.clark_integrand(v)
        for component, row in zip(v.components, K.rows):
            for j, entry in enumerate(row.coords, start=1):
                moved = (
                    (key[:-1], c) for key, c in component.packed_terms.items()
                    if key and key[-1] == j and key.count(j) == 1
                )
                assert _same_bits(_stored(entry), _gated(n, moved))


@pytest.mark.parametrize("seed", [5, 104729])
def test_refine_store_equals_the_public_gate_over_its_monomials(seed):
    # refine(p, m) is c times the refinement of each coarse monomial with
    # coefficient 1.0, concatenated: the gate over those pairs sums nothing,
    # because distinct coarse monomials refine to disjoint fine keys
    for rng, n, p, _, _, v in _instances(seed, count=12):
        for m in (2, 3, 5):
            if n * m > chaos.DIM_CAP:
                continue
            pairs = [
                (fine, c * pc)
                for key, c in p.packed_terms.items()
                for fine, pc in refine(ChaosPoly(n, {key: 1.0}), m).packed_terms.items()
            ]
            assert _same_bits(_stored(refine(p, m)), _gated(n * m, pairs))
            assert len(dict(pairs)) == len(pairs)


@pytest.mark.parametrize("seed", [0, 7, 104729])
def test_random_polynomials_equal_the_public_gate_over_their_draws(seed):
    for n, degree, coords in ((1, 3, None), (4, 4, None), (6, 8, None), (5, 5, [1, 3, 4])):
        a, b = make_rng(seed), make_rng(seed)
        p = draw_poly(a, n, degree, 12, coords)
        with randgen._Draws(b) as draws:
            coords = range(1, n + 1) if coords is None else coords
            pairs = [(randgen._key(draws, coords, degree), randgen._uniform(b)) for _ in range(12)]
        assert _same_bits(_stored(p), _gated(n, pairs))
        assert a.random(2).tolist() == b.random(2).tolist()


def test_random_polynomials_refuse_a_bad_dimension():
    rng = make_rng(1)
    for n in (0, chaos.DIM_CAP + 1):
        with pytest.raises(AlgebraError, match="ambient dimension"):
            randgen.random_poly(rng, n, 2)


# ------------------------------------------------------------ value rules


_BIG = 1e308


@pytest.mark.parametrize(
    "build",
    [
        lambda: hermite_product(ChaosPoly.constant(1, 1e200), ChaosPoly.constant(1, 1e200)),
        lambda: linear_combine([1e200], [ChaosPoly.constant(1, 1e200)]),
        lambda: linear_combine([1.0, 1.0], [ChaosPoly.coordinate(2, 1) * _BIG] * 2),
        lambda: partial_derivative(ChaosPoly.hermite(1, 1, DEGREE_CAP, _BIG), 1),
        lambda: multiply_by_coordinate(ChaosPoly.hermite(1, 1, 2, _BIG), 1),
        lambda: ou_apply(ChaosPoly.hermite(1, 1, 2, _BIG)),
        # He_8 over two cells holds 8!/(4! 4!) / 2**4 = 4.375 at {1: 4, 2: 4}
        lambda: refine(ChaosPoly.hermite(1, 1, DEGREE_CAP, _BIG), 2),
        # both coordinates raise to the key {1: 1, 2: 1}: 2e308
        lambda: divergence_h(
            HField((ChaosPoly.hermite(2, 2, 1, _BIG), ChaosPoly.hermite(2, 1, 1, _BIG)))
        ),
    ],
    ids=[
        "product", "combine", "combine-sum", "derivative", "coordinate", "ou_apply", "refine", "divergence",
    ],
)
def test_overflow_to_inf_raises_from_every_kernel(build):
    with pytest.raises(AlgebraError, match="non-finite coefficient inf"):
        build()


def test_only_exact_zeros_are_dropped():
    tiny = 5e-324
    # half the smallest subnormal rounds to zero: dropped
    assert ou_inverse(ChaosPoly.hermite(1, 1, 2, tiny)).is_zero()
    assert refine(ChaosPoly.hermite(1, 1, 1, tiny), 4).is_zero()
    # the smallest subnormal itself is kept
    assert _stored(ou_apply(ChaosPoly.hermite(1, 1, 1, tiny))) == [(b"\x01", tiny)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_refine_overflow_and_underflow_warn_nothing():
    # refine multiplies its coefficients in numpy: an overflow still raises
    # from the value rules and an underflow still drops to zero, with no
    # numpy warning on the way, nor an error where the caller asks for one
    for mode in ("warn", "raise"):
        with np.errstate(all=mode):
            with pytest.raises(AlgebraError, match="non-finite coefficient inf"):
                refine(ChaosPoly.hermite(1, 1, DEGREE_CAP, _BIG), 2)
            assert refine(ChaosPoly.hermite(1, 1, 1, 5e-324), 4).is_zero()


def test_degree_cap_error_names_the_first_offending_key_in_arrival_order():
    # He_4 He_5 pairs first (degree 9), then He_5 He_5 (degree 10)
    p = ChaosPoly(1, {packed({1: 4}): 1.0, packed({1: 5}): 1.0})
    q = ChaosPoly.hermite(1, 1, 5)
    with pytest.raises(DegreeCapExceeded) as err:
        hermite_product(p, q)
    with pytest.raises(DegreeCapExceeded) as want:
        _canonical_terms(list(_product_terms(dict(p.packed_terms), dict(q.packed_terms))), 1)
    assert err.value.degree == want.value.degree == 9
    # also before a non-finite coefficient, and from the divergence
    huge = ChaosPoly(1, {packed({1: 4}): 1e200, packed({1: 5}): 1e200})
    with pytest.raises(DegreeCapExceeded) as err:
        hermite_product(huge, huge)
    assert err.value.degree == 9
    with pytest.raises(DegreeCapExceeded) as err:
        divergence_h(HField((ChaosPoly.hermite(1, 1, DEGREE_CAP),)))
    assert err.value.degree == DEGREE_CAP + 1
    with pytest.raises(DegreeCapExceeded) as err:
        draw_poly(make_rng(2), 1, 40, 8)
    assert err.value.degree > DEGREE_CAP


# ------------------------------------------------------- the public gate


@pytest.mark.parametrize(
    "terms, message",
    [
        ({b"\x05\x01": 1.0}, "is not sorted ascending"),
        ({b"\x00": 1.0}, "holds coordinate 0"),
        ({b"\x00\x01": 1.0}, "holds coordinate 0"),
        ({b"\x02\x01": 1.0}, "is not sorted ascending"),
        # also a key whose coefficients cancel, beside a valid one
        ([(b"\x01", 1.0), (b"\x03\x02", 0.5), (b"\x03\x02", -0.5)], "is not sorted ascending"),
    ],
)
def test_public_gate_refuses_unsorted_keys_and_coordinate_zero(terms, message):
    with pytest.raises(AlgebraError, match=message):
        ChaosPoly(3, terms)


def test_one_monomial_has_one_spelling():
    # b"\x02\x01" and b"\x01\x02" would be two keys of eta_1 eta_2; only the
    # sorted one is accepted, so the difference of two equal monomials is zero
    with pytest.raises(AlgebraError):
        ChaosPoly(3, {b"\x02\x01": 1.0})
    pair = ChaosPoly(3, {b"\x01\x02": 1.0})
    product = ChaosPoly.coordinate(3, 1) * ChaosPoly.coordinate(3, 2)
    assert linear_combine((1.0, -1.0), (pair, product)).is_zero()


def test_same_dimension_check_reads_each_dimension():
    a, b = ChaosPoly.zero(2), ChaosPoly.zero(3)
    assert _require_same_dim(a, a, a) == 2
    with pytest.raises(DimensionMismatch, match=r"^mixed ambient dimensions \[2, 3\]$"):
        _require_same_dim(a, b, a)
    with pytest.raises(DimensionMismatch, match=r"^mixed ambient dimensions \[\]$"):
        _require_same_dim()


# ------------------------------------------------------- refine's budget


def test_refine_refuses_past_the_term_budget_before_building():
    # C(135, 8) = 2.2e12 fine monomials of He_8 over 128 cells
    with pytest.raises(AlgebraError, match="past the budget of 10,000,000"):
        refine(ChaosPoly.hermite(1, 1, DEGREE_CAP), 128)
    assert dsl.PRODUCT_PAIR_BUDGET == chaos._TERM_BUDGET == 10**7


def test_refine_budget_counts_exactly_the_terms_it_stores(monkeypatch):
    v = dsl.lower(dsl.parse_functional("[h3(x1)*h3(x2) + x1, h2(x2)*x1 - 0.5*x2, h4(x3)]"), 3)
    for p in v.components:
        count = len(refine(p, 4).packed_terms)
        monkeypatch.setattr(chaos, "_TERM_BUDGET", count)
        assert len(refine(p, 4).packed_terms) == count
        monkeypatch.setattr(chaos, "_TERM_BUDGET", count - 1)
        with pytest.raises(AlgebraError, match=f"would build {count:,} terms"):
            refine(p, 4)
        monkeypatch.undo()
