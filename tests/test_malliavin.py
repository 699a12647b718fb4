"""Gradient, divergence, pairings, and the integration-by-parts identities."""

import math

import numpy as np
import pytest

from helpers import draw_hfield, draw_poly, exact_root, l2_mass, make_rng, mc_poly_mean, open_draws
from wienerlab.chaos import (
    DEGREE_CAP,
    AlgebraError,
    ChaosPoly,
    DegreeCapExceeded,
    DimensionMismatch,
    evaluate_batch,
    hermite_product,
    l2_inner,
    linear_combine,
    multiply_by_coordinate,
    partial_derivative,
)
from wienerlab.clark import clark_integrand
from wienerlab.malliavin import (
    HField,
    OperatorField,
    VField,
    divergence_h,
    divergence_op,
    dual_pairing,
    dual_pairing_expectation,
    gradient_scalar,
    gradient_vector,
    skew_symmetric_field,
    trace_pairing,
    trace_pairing_expectation,
)
from wienerlab.randgen import (
    random_operator,
    random_poly,
    random_predictable_field,
    random_skew_matrix,
    random_vfield,
)
from wienerlab.suites import _check_cbound, _check_duality, _check_rowwise_divergence, _check_weakb


def he(k, i, n):
    return ChaosPoly.hermite(n, i, k)


def eta(i, n):
    return ChaosPoly.coordinate(n, i)


def _scaled(u, c):
    """The field c u, coordinate by coordinate."""
    return HField(tuple(q * float(c) for q in u.coords))


def _at(p, x):
    """Value of p at one sample point, as a one-row batch."""
    return evaluate_batch(p, x[None])[0]


# ----------------------------------------------------------------- gradient


def test_gradient_scalar_frozen():
    # grad He_3(eta_1) = (3 He_2(eta_1), 0) in two coordinates
    g = gradient_scalar(he(3, 1, 2))
    assert g.coords[0] == he(2, 1, 2) * 3.0
    assert g.coords[1].is_zero()


def test_gradient_product_functional():
    # grad(eta_1 eta_2) = (eta_2, eta_1)
    g = gradient_scalar(hermite_product(eta(1, 2), eta(2, 2)))
    assert g.coords[0] == eta(2, 2)
    assert g.coords[1] == eta(1, 2)


def test_gradient_vector_stacks_rows():
    v = VField((he(2, 1, 2), eta(2, 2)))
    K = gradient_vector(v)
    assert K.shape == (2, 2)
    assert K.rows[0].coords[0] == eta(1, 2) * 2.0
    assert K.rows[1].coords[1] == ChaosPoly.constant(2, 1.0)
    assert K.rows[1].coords[0].is_zero()


# --------------------------------------------------------------- divergence


def test_divergence_constant_field():
    # div of the deterministic field h is the linear functional sum h_i eta_i
    u = HField.constant([0.5, -2.0])
    d = divergence_h(u)
    assert d == eta(1, 2) * 0.5 + eta(2, 2) * (-2.0)


def test_divergence_coordinate_field_frozen():
    # u = eta_1 e_1: div u = eta_1^2 - 1 = He_2(eta_1)
    u = HField((eta(1, 2), ChaosPoly.zero(2)))
    assert divergence_h(u) == he(2, 1, 2)


def test_divergence_identity_field_norm():
    # u(w) = w over n coordinates: div u = sum He_2(eta_i), squared norm 2n
    for n in (1, 2, 5):
        u = HField(tuple(eta(i, n) for i in range(1, n + 1)))
        d = divergence_h(u)
        assert d == sum(
            (he(2, i, n) for i in range(2, n + 1)), he(2, 1, n)
        )
        assert d.norm_l2() == pytest.approx(math.sqrt(2.0 * n), abs=1e-12)


def test_identity_divergence_growth_closed_form():
    rows = {}
    for n in range(1, 9):
        u = HField(tuple(ChaosPoly.coordinate(n, i) for i in range(1, n + 1)))
        rows[n] = divergence_h(u).norm_l2()
        assert abs(rows[n] - math.sqrt(2.0 * n)) <= 1e-12
    # quadrupling n doubles the norm
    assert rows[4] / rows[1] == pytest.approx(2.0, abs=1e-12)
    assert rows[8] / rows[2] == pytest.approx(2.0, abs=1e-12)


def test_divergence_skew_field_is_exactly_zero():
    rng = make_rng(311)
    for n in (2, 3, 5):
        for _ in range(5):
            A = random_skew_matrix(rng, n)
            u = skew_symmetric_field(A)
            assert divergence_h(u).is_zero()  # exact, not approximate
    with pytest.raises(ValueError):
        skew_symmetric_field(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_divergence_has_zero_mean():
    draws = open_draws(312)
    for _ in range(10):
        u = draw_hfield(draws, 3, 3)
        assert divergence_h(u).expectation() == pytest.approx(0.0, abs=1e-12)


def test_divergence_mc_oracle():
    # pathwise check: E[div(u) * p] == E<u, grad p> via Monte Carlo
    n = 2
    u = HField((he(2, 2, n), eta(1, n)))
    p = hermite_product(eta(1, n), eta(2, n))
    lhs = hermite_product(divergence_h(u), p)
    mean, stderr = mc_poly_mean(lhs, 200_000, seed=90210)
    exact = u.inner(gradient_scalar(p))
    assert abs(mean - exact) <= 4.0 * stderr


def _divergence_ref(u):
    """The sum form: sum_i (eta_i u_i - d_i u_i) as one linear combination."""
    parts = []
    for i, ui in enumerate(u.coords, start=1):
        parts += [multiply_by_coordinate(ui, i), partial_derivative(ui, i)]
    return linear_combine([1.0, -1.0] * u.n, parts)


def _stored(p):
    return list(p.packed_terms.items())


def test_divergence_of_predictable_fields_is_bit_identical_to_the_sum_form():
    # on a predictable field d_i u_i = 0 and eta_i u_i only raises orders
    draws = open_draws(331)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            u = random_predictable_field(draws, n, 3)
            assert _stored(divergence_h(u)) == _stored(_divergence_ref(u))
        K = clark_integrand(VField(tuple(draw_poly(draws, n, 4, 6) for _ in range(2))))
        for row in K.rows:
            assert _stored(divergence_h(row)) == _stored(_divergence_ref(row))


def test_divergence_matches_the_sum_form_to_roundoff_on_general_fields():
    draws = open_draws(332)
    differing = 0
    for _ in range(300):
        n = 1 + draws.below(3)
        u = HField(tuple(draw_poly(draws, n, 4, 5) for _ in range(n)))
        got, want = divergence_h(u).packed_terms, _divergence_ref(u).packed_terms
        scale = max((abs(c) for ui in u.coords for c in ui.packed_terms.values()), default=0.0)
        gap = max((abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in got.keys() | want.keys()), default=0.0)
        assert gap <= 1e-15 * scale
        differing += gap > 0.0
    # the sum form rounds where the lowering parts of eta_i u_i and d_i u_i meet
    assert differing > 0


def test_divergence_past_the_degree_cap_raises():
    message = f"^term of total degree {DEGREE_CAP + 1} exceeds the degree cap {DEGREE_CAP}$"
    for u in (
        HField((eta(1, 2), he(DEGREE_CAP, 1, 2))),
        HField((he(DEGREE_CAP, 1, 2), ChaosPoly.zero(2))),
    ):
        for div in (divergence_h, _divergence_ref):
            with pytest.raises(DegreeCapExceeded, match=message):
                div(u)


def test_divergence_op_identity_recovers_coordinates():
    w = divergence_op(OperatorField.constant(np.eye(3)))
    assert w.components == tuple(eta(i, 3) for i in range(1, 4))


def test_rank_one_divergence_factorizes():
    draws = open_draws(313)
    alpha = draw_hfield(draws, 3, 2)
    y = np.array([2.0, -1.0, 0.5])
    K = OperatorField(tuple(_scaled(alpha, v) for v in y))
    d = divergence_op(K)
    base = divergence_h(alpha)
    for a, ya in enumerate(y, start=1):
        assert (d.component(a) - base * float(ya)).is_zero()


# ----------------------------------------------------------------- pairings


def test_trace_pairing_matches_pointwise_oracle():
    draws = open_draws(314)
    for _ in range(5):
        K = random_operator(draws, 3, 2, 2)
        D = random_operator(draws, 3, 2, 2)
        p = trace_pairing(K, D)
        for _ in range(4):
            x = draws.rng.standard_normal(3)
            direct = sum(
                _at(K.rows[a - 1].coords[i - 1], x) * _at(D.rows[a - 1].coords[i - 1], x)
                for a in range(1, 3)
                for i in range(1, 4)
            )
            assert _at(p, x) == pytest.approx(direct, rel=1e-9, abs=1e-9)
        assert trace_pairing_expectation(K, D) == pytest.approx(
            p.expectation(), abs=1e-10
        )


def test_dual_pairing_expectation_route():
    draws = open_draws(315)
    F = random_vfield(draws, 3, 2, 2)
    G = random_vfield(draws, 3, 2, 2)
    assert dual_pairing_expectation(F, G) == pytest.approx(
        dual_pairing(F, G).expectation(), abs=1e-10
    )
    with pytest.raises(DimensionMismatch):
        dual_pairing(F, random_vfield(draws, 3, 3, 2))


def test_transpose_apply_and_apply_field():
    K = OperatorField.constant(np.eye(2))
    y = np.array([3.0, -1.0])
    u = K.transpose_apply(y)
    assert u.coords == (ChaosPoly.constant(2, 3.0), ChaosPoly.constant(2, -1.0))
    F = VField((eta(1, 2), he(2, 2, 2)))
    v = K.apply_field(F)
    assert v.coords == (eta(1, 2), he(2, 2, 2))


# ----------------------------------------------------------- duality checks


def test_duality_random_instances():
    draws = open_draws(316)
    for _ in range(25):
        n = 2 + draws.below(3)
        d = 1 + draws.below(3)
        K = random_operator(draws, n, d, 3)
        F = random_vfield(draws, n, d, 3)
        assert _check_duality(K, F) <= 1e-10


def test_duality_hand_example():
    # K = identity on R^2, F = (He_2(eta_1), eta_1 eta_2); both sides
    # reduce to expectations of odd-degree terms, hence vanish
    K = OperatorField.constant(np.eye(2))
    F = VField((he(2, 1, 2), hermite_product(eta(1, 2), eta(2, 2))))
    lhs = trace_pairing_expectation(K, gradient_vector(F))
    rhs = dual_pairing_expectation(F, divergence_op(K))
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)


def test_weakb_random_instances():
    draws = open_draws(317)
    for _ in range(15):
        n = 2 + draws.below(2)
        d = 1 + draws.below(2)
        K = random_operator(draws, n, d, 2)
        F = random_vfield(draws, n, d, 2)
        assert _check_weakb(K, F, divergence_op(K)) <= 1e-10


def test_weakb_hand_example():
    # identity operator with F = (eta_1, 0): K^T F = (eta_1, 0)
    K = OperatorField.constant(np.eye(2))
    F = VField((eta(1, 2), ChaosPoly.zero(2)))
    lhs = divergence_h(K.apply_field(F))
    rhs = dual_pairing(F, divergence_op(K)) - trace_pairing(K, gradient_vector(F))
    assert (lhs - rhs).is_zero()
    # both equal He_2(eta_1): div of (eta_1, 0)
    assert lhs == he(2, 1, 2)


def test_rowwise_divergence_random():
    draws = open_draws(318)
    for _ in range(15):
        n = 2 + draws.below(2)
        d = 1 + draws.below(3)
        K = random_operator(draws, n, d, 3)
        y = draws.rng.standard_normal(d)
        assert _check_rowwise_divergence(K, y, divergence_op(K)) <= 1e-10


# ------------------------------------------------------------ uniform bound


def test_cbound_constant_identity():
    # each row of 1_H diverges to the orthonormal family (eta_a): C = 1
    assert _check_cbound(OperatorField.constant(np.eye(4))) == pytest.approx(1.0, abs=1e-12)


def test_cbound_diagonal_coordinate_operator():
    # row a = eta_a e_a: div row_a = He_2(eta_a), orthogonal with norm sqrt 2
    n = 3
    rows = tuple(
        HField(
            tuple(
                eta(a, n) if i == a else ChaosPoly.zero(n)
                for i in range(1, n + 1)
            )
        )
        for a in range(1, n + 1)
    )
    K = OperatorField(rows)
    assert _check_cbound(K) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_cbound_rank_one_closed_form():
    # K = alpha tensor y: div(K^T l) = <l, y> div(alpha), so C = |y| ||div alpha||
    draws = open_draws(319)
    alpha = draw_hfield(draws, 3, 2)
    y = np.array([1.0, -2.0, 2.0])
    K = OperatorField(tuple(_scaled(alpha, v) for v in y))
    expected = np.linalg.norm(y) * divergence_h(alpha).norm_l2()
    assert _check_cbound(K) == pytest.approx(expected, rel=1e-12)


def test_cbound_sphere_scan_oracle():
    # C must dominate ||div(K^T l)|| on sampled unit vectors and be attained
    draws = open_draws(320)
    for _ in range(5):
        K = random_operator(draws, 3, 3, 2)
        C = _check_cbound(K)
        best = 0.0
        for _ in range(200):
            l = draws.rng.standard_normal(3)
            l /= np.linalg.norm(l)
            val = divergence_h(K.transpose_apply(l)).norm_l2()
            assert val <= C + 1e-9
            best = max(best, val)
        assert best >= 0.9 * C  # scan gets close to the top eigendirection


# -------------------------------------------------------------- container API


def test_field_shape_validation():
    with pytest.raises(DimensionMismatch):
        HField((eta(1, 2),))  # one coordinate over a 2-dim ambient space
    with pytest.raises(DimensionMismatch):
        HField((eta(1, 2), eta(1, 3)))
    with pytest.raises(ValueError):
        VField(())
    with pytest.raises(DimensionMismatch):
        OperatorField(
            (HField((eta(1, 2), eta(2, 2))), HField((eta(1, 3), eta(2, 3), eta(3, 3))))
        )


@pytest.mark.parametrize("a", [0, 3, -1, 1.0])
def test_vfield_component_refuses_an_index_outside_one_to_d(a):
    # 1-based: 0 and -1 would wrap round to the last component, 1.0 truncate
    v = VField((eta(1, 2), he(2, 2, 2)))
    assert v.component(1) == eta(1, 2) and v.component(2) == he(2, 2, 2)
    with pytest.raises(AlgebraError):
        v.component(a)


def test_field_arithmetic_and_energy():
    u = HField((eta(1, 2), he(2, 2, 2)))
    v = HField.constant([1.0, 0.0])
    w = u.add(v).sub(v)
    assert w == u
    # energy 1 + 2 and 4 * 3, each root correctly rounded
    assert u.norm() == math.sqrt(3.0)
    assert u.inner(v) == pytest.approx(0.0, abs=1e-14)
    assert u.add(u).norm() == math.sqrt(12.0)


def _entries(field):
    """The polynomials a field stores, operator rows included."""
    if isinstance(field, OperatorField):
        return [p for row in field.rows for p in row.coords]
    return field.coords if isinstance(field, HField) else field.components


def test_field_norms_scale_an_energy_that_overflows():
    c = 1e200
    single = ChaosPoly.hermite(1, 1, 2, c)
    assert VField((single,)).norm() == single.norm_l2() == exact_root(l2_mass([single]))
    u = HField((eta(1, 2) * c, eta(2, 2) * c))
    assert sum(l2_inner(p, p) for p in u.coords) == math.inf
    assert u.norm() == exact_root(l2_mass(u.coords)) == c * math.sqrt(2.0)
    assert OperatorField((u, u)).norm() == c * 2.0
    # a norm past the largest double is inf
    assert HField((he(8, 1, 1) * 1e308,)).norm() == math.inf


def test_field_norms_are_the_correctly_rounded_root():
    draws = open_draws(322)
    for field in (
        draw_hfield(draws, 3, 3),
        random_vfield(draws, 3, 2, 3),
        random_operator(draws, 3, 2, 3),
        HField((eta(1, 2) * 1e150, eta(2, 2))),
        HField((eta(1, 2) * 1e-200, eta(2, 2) * 1e-160)),
        VField((ChaosPoly.zero(2),)),
    ):
        assert field.norm() == exact_root(l2_mass(_entries(field)))


def _pair_of_shapes(kind):
    if kind == "HField":
        return HField((eta(1, 2), eta(2, 2))), HField((eta(1, 3), eta(2, 3), eta(3, 3)))
    if kind == "VField":
        return VField((eta(1, 2), eta(2, 2))), VField((eta(1, 2), eta(2, 2), eta(1, 2)))
    row = HField((eta(1, 2), eta(2, 2)))
    return OperatorField((row, row)), OperatorField((row, row, row))


@pytest.mark.parametrize("kind", ["HField", "VField", "OperatorField"])
@pytest.mark.parametrize("op", ["add", "sub"])
def test_field_arithmetic_rejects_mismatched_shapes(kind, op):
    # zip would silently truncate the longer operand; the shape check must not
    a, b = _pair_of_shapes(kind)
    with pytest.raises(DimensionMismatch):
        getattr(a, op)(b)
    with pytest.raises(DimensionMismatch):
        getattr(b, op)(a)


def test_operator_energy_sums_row_energies_exactly():
    draws = open_draws(0)
    K = OperatorField(
        tuple(HField(tuple(random_poly(draws, 3, 3) for _ in range(3))) for _ in range(3))
    )
    assert K.norm() == exact_root(sum(l2_mass(row.coords) for row in K.rows))
    # this seed tells the row-by-row float order apart from one flat float
    # sum over entries; the exact sum has no order, so reversing the rows
    # moves no bit
    rowwise = sum(sum(l2_inner(p, p) for p in row.coords) for row in K.rows)
    assert rowwise != sum(l2_inner(p, p) for row in K.rows for p in row.coords)
    assert OperatorField(K.rows[::-1]).norm() == K.norm()
