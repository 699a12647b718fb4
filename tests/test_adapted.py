"""Strict-past predictability, adapted projection, and discrete Ito calculus."""

import numpy as np
import pytest

from helpers import make_rng
from wienerlab.chaos import ChaosPoly, evaluate_batch, l2_inner, linear_combine
from wienerlab.adapted import (
    NotPredictable,
    PredictableHField,
    WeaklyAdaptedOperator,
    check_divergence_free_uniqueness,
    check_ito_isometry,
    check_operator_isometry,
    check_weak_orthogonality,
    is_predictable,
    project_adapted,
    project_operator,
)
from wienerlab.malliavin import HField, divergence_h, divergence_op
from wienerlab.randgen import (
    random_finite_rank_adapted,
    random_hfield,
    random_operator,
    random_predictable_field,
    random_weakly_adapted,
)


def eta(i, n):
    return ChaosPoly.coordinate(n, i)


def he(k, i, n):
    return ChaosPoly.hermite(n, i, k)


# ------------------------------------------------------------ predictability


def test_is_predictable_frozen_examples():
    n = 2
    # coordinate 2 may depend on eta_1; coordinate 1 only on constants
    assert is_predictable(HField((ChaosPoly.constant(n, 3.0), eta(1, n))))
    # eta_1 in coordinate 1 looks into its own increment: rejected
    assert not is_predictable(HField((eta(1, n), ChaosPoly.zero(n))))
    # eta_2 in coordinate 1 looks into the future: rejected
    assert not is_predictable(HField((eta(2, n), ChaosPoly.zero(n))))
    # the rotation generator (eta_2, -eta_1) mixes future into coordinate 1
    assert not is_predictable(HField((eta(2, n), eta(1, n) * -1.0)))


def test_predictable_field_constructor_validates():
    with pytest.raises(NotPredictable):
        PredictableHField((eta(1, 2), ChaosPoly.zero(2)))
    u = PredictableHField((ChaosPoly.constant(2, 1.0), he(2, 1, 2)))
    assert u.coords[1] == he(2, 1, 2)


def test_weakly_adapted_operator_validates():
    bad_row = HField((eta(2, 2), ChaosPoly.zero(2)))
    good_row = HField((ChaosPoly.constant(2, 1.0), eta(1, 2)))
    with pytest.raises(NotPredictable):
        WeaklyAdaptedOperator((good_row, bad_row))
    K = WeaklyAdaptedOperator((good_row, good_row))
    assert K.shape == (2, 2)


# --------------------------------------------------------------- projection


def test_project_adapted_frozen():
    # (eta_2, eta_1) projects to (0, eta_1): stage 0 kills eta_2, stage 1 keeps eta_1
    u = HField((eta(2, 2), eta(1, 2)))
    pu = project_adapted(u)
    assert pu.coords[0].is_zero()
    assert pu.coords[1] == eta(1, 2)


def test_projection_idempotent_and_fixes_predictable():
    rng = make_rng(401)
    for _ in range(10):
        u = random_hfield(rng, 4, 3)
        pu = project_adapted(u)
        assert project_adapted(pu) == pu
        assert is_predictable(pu)
    for _ in range(10):
        q = random_predictable_field(rng, 4, 3)
        assert project_adapted(q) == q


def test_projection_contraction_and_pythagoras():
    rng = make_rng(402)
    for _ in range(10):
        u = random_hfield(rng, 4, 3)
        pu = project_adapted(u)
        rest = u.sub(pu)
        assert pu.energy() <= u.energy() + 1e-12
        assert pu.energy() + rest.energy() == pytest.approx(u.energy(), rel=1e-10)


def test_projection_self_adjoint():
    rng = make_rng(403)
    for _ in range(10):
        u = random_hfield(rng, 3, 3)
        v = random_hfield(rng, 3, 3)
        assert project_adapted(u).inner(v) == pytest.approx(
            u.inner(project_adapted(v)), abs=1e-10
        )


def test_project_operator_rowwise():
    rng = make_rng(404)
    K = random_operator(rng, 3, 2, 3)
    P = project_operator(K)
    for a in range(1, 3):
        assert P.rows[a - 1] == project_adapted(K.rows[a - 1])


# ------------------------------------------------------------- Ito integral


def _pathwise_sum(u, x):
    """sum_i u_i(x) x_i at one sample x."""
    values = [evaluate_batch(ui, x[None])[0] for ui in u.coords]
    return float(sum(v * xi for v, xi in zip(values, x)))


def test_ito_integral_frozen_values():
    n = 2
    # constant field (1, 0): integral is eta_1 evaluated at the sample
    u = PredictableHField((ChaosPoly.constant(n, 1.0), ChaosPoly.zero(n)))
    x = np.array([0.7, -0.3])
    assert _pathwise_sum(u, x) == pytest.approx(0.7)
    assert evaluate_batch(divergence_h(u), x[None])[0] == pytest.approx(0.7)
    # u = eta_1 e_2: integral is eta_1 * eta_2
    v = PredictableHField((ChaosPoly.zero(n), eta(1, n)))
    x = np.array([2.0, 3.0])
    assert _pathwise_sum(v, x) == pytest.approx(6.0)
    assert evaluate_batch(divergence_h(v), x[None])[0] == pytest.approx(6.0)


def test_ito_integral_matches_divergence_pathwise():
    # on predictable fields the pathwise sum is the divergence at the sample
    rng = make_rng(405)
    for _ in range(10):
        u = random_predictable_field(rng, 4, 3)
        d = divergence_h(u)
        x = rng.standard_normal(4)
        expected = evaluate_batch(d, x[None])[0]
        assert _pathwise_sum(u, x) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_divergence_of_predictable_has_zero_mean():
    rng = make_rng(406)
    for _ in range(10):
        u = random_predictable_field(rng, 4, 3)
        assert divergence_h(u).expectation() == pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------- isometries


def test_ito_isometry_frozen():
    n = 2
    u = PredictableHField((ChaosPoly.zero(n), eta(1, n)))
    # E[(div u)^2] = E[(eta_1 eta_2)^2] = 1 = E[eta_1^2]
    assert check_ito_isometry(u, u) == pytest.approx(0.0, abs=1e-14)
    assert l2_inner(divergence_h(u), divergence_h(u)) == pytest.approx(1.0, abs=1e-14)


def test_ito_isometry_random():
    rng = make_rng(407)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        u = random_predictable_field(rng, n, 3)
        v = random_predictable_field(rng, n, 3)
        assert check_ito_isometry(u, v) <= 1e-10


def test_ito_isometry_requires_predictability():
    u = HField((eta(1, 1),))
    with pytest.raises(NotPredictable):
        check_ito_isometry(u, u)


def test_stage_convention_counterexample():
    # the field eta_1 e_1 (order-respecting but not strictly past) breaks
    # the isometry: E[(div u)^2] = E[He_2^2] = 2 while E|u|^2 = 1
    u = HField((eta(1, 1),))
    d = divergence_h(u)
    assert l2_inner(d, d) == pytest.approx(2.0, abs=1e-14)
    assert u.energy() == pytest.approx(1.0, abs=1e-14)


def test_operator_isometry_random():
    rng = make_rng(408)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        K = random_weakly_adapted(rng, n, d, 3)
        D = random_finite_rank_adapted(rng, n, d)
        assert check_operator_isometry(K, D) <= 1e-10


def test_operator_isometry_shape_guard():
    rng = make_rng(409)
    K = random_weakly_adapted(rng, 3, 2, 2)
    D = random_finite_rank_adapted(rng, 3, 3)
    with pytest.raises(Exception):
        check_operator_isometry(K, D)


# -------------------------------------------------------- weak orthogonality


def test_weak_orthogonality_random():
    rng = make_rng(410)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        K = random_operator(rng, n, d, 3)
        Q = random_finite_rank_adapted(rng, n, d)
        assert check_weak_orthogonality(K, Q) <= 1e-10


def test_weak_orthogonality_hand_example():
    # K with the anticipating row (eta_2, 0) pairs to zero against any
    # finite-rank adapted operator, matching its projection (0, 0)
    n = 2
    K = HField((eta(2, n), ChaosPoly.zero(n)))
    from wienerlab.malliavin import OperatorField

    Kop = OperatorField((K,))
    q = PredictableHField((ChaosPoly.constant(n, 1.0), eta(1, n)))
    Q = WeaklyAdaptedOperator((q,))
    assert check_weak_orthogonality(Kop, Q) == pytest.approx(0.0, abs=1e-14)


# ----------------------------------------------------- finite-rank structure


def test_finite_rank_divergence_matches_densified():
    # div(sum_t y_t (x) q_t) = sum_t y_t div(q_t), component by component
    rng = make_rng(411)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        terms = [
            (random_predictable_field(rng, n, 2), rng.uniform(-1, 1, size=d))
            for _ in range(3)
        ]
        rows = []
        for a in range(d):
            coords = [
                linear_combine([y[a] for _, y in terms], [q.coords[i - 1] for q, _ in terms])
                for i in range(1, n + 1)
            ]
            rows.append(HField(tuple(coords)))
        D = WeaklyAdaptedOperator(tuple(rows))
        divs = [divergence_h(q) for q, _ in terms]
        for a, component in enumerate(divergence_op(D).components):
            expected = linear_combine([y[a] for _, y in terms], divs)
            assert (component - expected).norm_l2() <= 1e-12


# -------------------------------------------------------------- uniqueness


def test_divergence_free_uniqueness_random():
    rng = make_rng(412)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        K = random_weakly_adapted(rng, n, d, 3)
        assert check_divergence_free_uniqueness(K)


def test_weakly_adapted_divergence_is_injective():
    # sharpest form of uniqueness: per-row Ito isometry gives
    # E|div K|^2 = E||K||^2, so div K = 0 forces every entry to vanish
    rng = make_rng(413)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        K = random_weakly_adapted(rng, n, d, 3)
        dK = divergence_op(K)
        assert dK.energy() == pytest.approx(K.energy(), rel=1e-10, abs=1e-12)


def test_zero_operator_passes_uniqueness():
    rows = tuple(
        PredictableHField((ChaosPoly.zero(2), ChaosPoly.zero(2))) for _ in range(2)
    )
    K = WeaklyAdaptedOperator(rows)
    assert check_divergence_free_uniqueness(K)


def test_predictable_sub_returns_plain_hfield():
    n = 2
    u = PredictableHField((ChaosPoly.constant(n, 1.0), eta(1, n)))
    v = HField((eta(1, n), eta(2, n)))  # reaches into its own present
    assert not is_predictable(v)
    for w in (u.sub(v), u.add(v)):
        assert type(w) is HField
        assert not is_predictable(w)
    assert u.sub(v).coords == (ChaosPoly.constant(n, 1.0) - eta(1, n), eta(1, n) - eta(2, n))
