"""Gradient, divergence, pairings, and the integration-by-parts identities."""

import math

import numpy as np
import pytest

from helpers import make_rng, mc_poly_mean
from wienerlab.chaos import (
    DEGREE_CAP,
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
    check_cbound,
    check_duality,
    check_rowwise_divergence,
    check_weakb,
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
    random_hfield,
    random_operator,
    random_predictable_field,
    random_skew_matrix,
    random_vfield,
)


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
    rng = make_rng(312)
    for _ in range(10):
        u = random_hfield(rng, 3, 3)
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
    rng = make_rng(331)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            u = random_predictable_field(rng, n, 3, n_terms=3)
            assert _stored(divergence_h(u)) == _stored(_divergence_ref(u))
        K = clark_integrand(random_vfield(rng, n, 2, 4, n_terms=6))
        for row in K.rows:
            assert _stored(divergence_h(row)) == _stored(_divergence_ref(row))


def test_divergence_matches_the_sum_form_to_roundoff_on_general_fields():
    rng = make_rng(332)
    differing = 0
    for _ in range(300):
        u = random_hfield(rng, int(rng.integers(1, 4)), 4, n_terms=5)
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
    rng = make_rng(313)
    alpha = random_hfield(rng, 3, 2)
    y = np.array([2.0, -1.0, 0.5])
    K = OperatorField(tuple(_scaled(alpha, v) for v in y))
    d = divergence_op(K)
    base = divergence_h(alpha)
    for a, ya in enumerate(y, start=1):
        assert (d.component(a) - base * float(ya)).is_zero()


# ----------------------------------------------------------------- pairings


def test_trace_pairing_matches_pointwise_oracle():
    rng = make_rng(314)
    for _ in range(5):
        K = random_operator(rng, 3, 2, 2)
        D = random_operator(rng, 3, 2, 2)
        p = trace_pairing(K, D)
        for _ in range(4):
            x = rng.standard_normal(3)
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
    rng = make_rng(315)
    F = random_vfield(rng, 3, 2, 2)
    G = random_vfield(rng, 3, 2, 2)
    assert dual_pairing_expectation(F, G) == pytest.approx(
        dual_pairing(F, G).expectation(), abs=1e-10
    )
    with pytest.raises(DimensionMismatch):
        dual_pairing(F, random_vfield(rng, 3, 3, 2))


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
    rng = make_rng(316)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        K = random_operator(rng, n, d, 3)
        F = random_vfield(rng, n, d, 3)
        assert check_duality(K, F) <= 1e-10


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
    rng = make_rng(317)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3))
        K = random_operator(rng, n, d, 2)
        F = random_vfield(rng, n, d, 2)
        assert check_weakb(K, F) <= 1e-10


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
    rng = make_rng(318)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        K = random_operator(rng, n, d, 3)
        y = rng.standard_normal(d)
        assert check_rowwise_divergence(K, y) <= 1e-10


# ------------------------------------------------------------ uniform bound


def test_cbound_constant_identity():
    # each row of 1_H diverges to the orthonormal family (eta_a): C = 1
    assert check_cbound(OperatorField.constant(np.eye(4))) == pytest.approx(1.0, abs=1e-12)


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
    assert check_cbound(K) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_cbound_rank_one_closed_form():
    # K = alpha tensor y: div(K^T l) = <l, y> div(alpha), so C = |y| ||div alpha||
    rng = make_rng(319)
    alpha = random_hfield(rng, 3, 2)
    y = np.array([1.0, -2.0, 2.0])
    K = OperatorField(tuple(_scaled(alpha, v) for v in y))
    expected = np.linalg.norm(y) * divergence_h(alpha).norm_l2()
    assert check_cbound(K) == pytest.approx(expected, rel=1e-12)


def test_cbound_sphere_scan_oracle():
    # C must dominate ||div(K^T l)|| on sampled unit vectors and be attained
    rng = make_rng(320)
    for _ in range(5):
        K = random_operator(rng, 3, 3, 2)
        C = check_cbound(K)
        best = 0.0
        for _ in range(200):
            l = rng.standard_normal(3)
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


def test_field_arithmetic_and_energy():
    u = HField((eta(1, 2), he(2, 2, 2)))
    v = HField.constant([1.0, 0.0])
    w = u.add(v).sub(v)
    assert w == u
    assert u.energy() == pytest.approx(1.0 + 2.0, abs=1e-12)
    assert u.norm() == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert u.inner(v) == pytest.approx(0.0, abs=1e-14)
    assert u.add(u).energy() == pytest.approx(12.0, abs=1e-12)


def test_field_norms_scale_an_energy_that_overflows():
    c = 1e200
    single = ChaosPoly.hermite(1, 1, 2, c)
    assert VField((single,)).norm() == single.norm_l2() == c * math.sqrt(2.0)
    u = HField((eta(1, 2) * c, eta(2, 2) * c))
    assert u.energy() == math.inf
    assert u.norm() == c * math.sqrt(2.0)
    assert OperatorField((u, u)).norm() == c * 2.0


def test_field_norms_keep_the_plain_root_when_the_energy_is_finite():
    rng = make_rng(322)
    for field in (
        random_hfield(rng, 3, 3),
        random_vfield(rng, 3, 2, 3),
        random_operator(rng, 3, 2, 3),
        HField((eta(1, 2) * 1e150, eta(2, 2))),
    ):
        assert field.norm() == math.sqrt(field.energy())


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
    K = random_operator(make_rng(0), 3, 3, 3, n_terms=4)
    assert K.energy() == sum(row.energy() for row in K.rows)
    # this seed tells the row-by-row order apart from one flat sum over entries
    flat = sum(l2_inner(p, p) for row in K.rows for p in row.coords)
    assert flat != K.energy()
