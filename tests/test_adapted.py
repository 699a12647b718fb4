"""The stage table, strict-past predictability, adapted projection, and discrete Ito calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import STAGE_TABLES, draw_hfield, open_draws, stages
from wienerlab import adapted
from wienerlab.chaos import DIM_CAP, ChaosPoly, evaluate_batch, l2_inner, linear_combine
from wienerlab.adapted import (
    NotPredictable,
    PredictableHField,
    WeaklyAdaptedOperator,
    is_predictable,
    project_adapted,
    project_operator,
)
from wienerlab.clark import clark_integrand, compare_energies, reconstruct
from wienerlab.malliavin import HField, VField, divergence_h, divergence_op, gradient_vector
from wienerlab.randgen import (
    random_finite_rank_adapted,
    random_operator,
    random_predictable_field,
    random_vfield,
    random_weakly_adapted,
)
from wienerlab.rotations import build_sequential_isometry, check_strict_past_measurability
from wienerlab.space import sample_batch
from wienerlab.suites import (
    _check_divergence_free_uniqueness,
    _check_ito_isometry,
    _check_operator_isometry,
    _check_weak_orthogonality,
)


def eta(i, n):
    return ChaosPoly.coordinate(n, i)


def he(k, i, n):
    return ChaosPoly.hermite(n, i, k)


# --------------------------------------------------------------- stage table


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 4), st.integers(1, DIM_CAP)), max_size=12))
def test_last_stage_order_counts_the_occurrences_in_the_last_stage(occurrences):
    assert adapted._PAST == STAGE_TABLES["identity"]
    key, top = bytes(sorted(occurrences)), max(occurrences, default=0)
    for table in STAGE_TABLES.values():
        with stages(table):
            # a stage is a run of coordinates that share one strict past
            want = sum(table[c] == table[top] for c in occurrences)
            assert adapted._last_stage_order(key) == want
            # the byte test the Clark scans make first
            assert (len(key) > 1 and key[-2] > table[key[-1]]) == (want > 1)


def _stored(polys) -> list:
    """Keys, coefficient bits and stored order of each polynomial."""
    return [[(key, c.hex()) for key, c in p.packed_terms.items()] for p in polys]


def test_one_stage_table_moves_every_filtration_decision():
    # the pair stages {1, 2}, {3, 4}, ... planted in adapted's table alone
    draws = open_draws(3301)
    with stages(STAGE_TABLES["pairs"]):
        # coordinate 2 shares eta_1's stage; coordinates 3 and 4 see eta_1 and eta_2
        zero = ChaosPoly.zero(4)
        assert not is_predictable(HField((zero, eta(1, 4), zero, zero)))
        assert is_predictable(HField((zero, zero, eta(2, 4), eta(1, 4))))
        for _ in range(300):
            n, d, degree = 1 + draws.below(6), 1 + draws.below(3), 1 + draws.below(4)
            v = random_vfield(draws, n, d, degree)
            K = clark_integrand(v)
            assert _stored(p for row in K.rows for p in row.coords) == _stored(
                p for row in project_operator(gradient_vector(v)).rows for p in row.coords
            )
            res = reconstruct(v)
            mean = VField.constant(n, v.expectation())
            assert _stored(res.reconstruction.components) == _stored(
                mean.add(divergence_op(K)).components
            )
            assert v.sub(mean).norm() ** 2 == pytest.approx(
                divergence_op(K).norm() ** 2 + res.residual_l2**2, rel=1e-12, abs=0.0
            )
            for p in v.components:
                energy = clark_integrand(VField((p,))).norm() ** 2
                assert compare_energies(p).adapted_energy == pytest.approx(energy, rel=1e-12, abs=0.0)
            u, w = random_predictable_field(draws, n, degree), random_predictable_field(draws, n, degree)
            assert _check_ito_isometry(u, w) <= 1e-10
            D = random_finite_rank_adapted(draws, n, d)
            assert _check_operator_isometry(random_weakly_adapted(draws, n, d, degree), D) <= 1e-10
            assert _check_weak_orthogonality(random_operator(draws, n, d, degree), D) == 0.0
        # sign and givens read the coordinate past only: the certificate flags them
        draws = sample_batch(4, 256, seed=777).draws
        for spec, flagged in (("zero", False), ("constant", False), ("sign", True), ("givens", True)):
            gap = check_strict_past_measurability(build_sequential_isometry(4, seed=9, angle_spec=spec), draws)
            assert gap > 0.0 if flagged else gap == 0.0


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


# each property holds under the package's stage table and under the pair stages


def test_projection_idempotent_and_fixes_predictable():
    for table in STAGE_TABLES.values():
        draws = open_draws(401)
        with stages(table):
            for _ in range(10):
                u = draw_hfield(draws, 4, 3)
                pu = project_adapted(u)
                assert project_adapted(pu) == pu
                assert is_predictable(pu)
            for _ in range(10):
                q = random_predictable_field(draws, 4, 3)
                assert project_adapted(q) == q


def test_projection_contraction_and_pythagoras():
    for table in STAGE_TABLES.values():
        draws = open_draws(402)
        with stages(table):
            for _ in range(10):
                u = draw_hfield(draws, 4, 3)
                pu = project_adapted(u)
                rest = u.sub(pu)
                assert pu.norm() <= u.norm() + 1e-12
                assert pu.norm() ** 2 + rest.norm() ** 2 == pytest.approx(u.norm() ** 2, rel=1e-10)


def test_projection_self_adjoint():
    for table in STAGE_TABLES.values():
        draws = open_draws(403)
        with stages(table):
            for _ in range(10):
                u = draw_hfield(draws, 3, 3)
                v = draw_hfield(draws, 3, 3)
                assert project_adapted(u).inner(v) == pytest.approx(
                    u.inner(project_adapted(v)), abs=1e-10
                )


def test_project_operator_rowwise():
    for table in STAGE_TABLES.values():
        draws = open_draws(404)
        with stages(table):
            K = random_operator(draws, 3, 2, 3)
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
    draws = open_draws(405)
    for _ in range(10):
        u = random_predictable_field(draws, 4, 3)
        d = divergence_h(u)
        x = draws.rng.standard_normal(4)
        expected = evaluate_batch(d, x[None])[0]
        assert _pathwise_sum(u, x) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_divergence_of_predictable_has_zero_mean():
    draws = open_draws(406)
    for _ in range(10):
        u = random_predictable_field(draws, 4, 3)
        assert divergence_h(u).expectation() == pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------- isometries


def test_ito_isometry_frozen():
    n = 2
    u = PredictableHField((ChaosPoly.zero(n), eta(1, n)))
    # E[(div u)^2] = E[(eta_1 eta_2)^2] = 1 = E[eta_1^2]
    assert _check_ito_isometry(u, u) == pytest.approx(0.0, abs=1e-14)
    assert l2_inner(divergence_h(u), divergence_h(u)) == pytest.approx(1.0, abs=1e-14)


def test_ito_isometry_random():
    draws = open_draws(407)
    for _ in range(15):
        n = 2 + draws.below(3)
        u = random_predictable_field(draws, n, 3)
        v = random_predictable_field(draws, n, 3)
        assert _check_ito_isometry(u, v) <= 1e-10


def test_ito_isometry_requires_predictability():
    u = HField((eta(1, 1),))
    with pytest.raises(NotPredictable):
        _check_ito_isometry(u, u)


def test_stage_convention_counterexample():
    # the field eta_1 e_1 (order-respecting but not strictly past) breaks
    # the isometry: E[(div u)^2] = E[He_2^2] = 2 while E|u|^2 = 1
    u = HField((eta(1, 1),))
    d = divergence_h(u)
    assert l2_inner(d, d) == pytest.approx(2.0, abs=1e-14)
    assert u.norm() == 1.0


def test_operator_isometry_random():
    draws = open_draws(408)
    for _ in range(10):
        n = 2 + draws.below(3)
        d = 1 + draws.below(3)
        K = random_weakly_adapted(draws, n, d, 3)
        D = random_finite_rank_adapted(draws, n, d)
        assert _check_operator_isometry(K, D) <= 1e-10


def test_operator_isometry_shape_guard():
    draws = open_draws(409)
    K = random_weakly_adapted(draws, 3, 2, 2)
    D = random_finite_rank_adapted(draws, 3, 3)
    with pytest.raises(Exception):
        _check_operator_isometry(K, D)


# -------------------------------------------------------- weak orthogonality


def test_weak_orthogonality_random():
    draws = open_draws(410)
    for _ in range(10):
        n = 2 + draws.below(3)
        d = 1 + draws.below(3)
        K = random_operator(draws, n, d, 3)
        Q = random_finite_rank_adapted(draws, n, d)
        assert _check_weak_orthogonality(K, Q) <= 1e-10


def test_weak_orthogonality_hand_example():
    # K with the anticipating row (eta_2, 0) pairs to zero against any
    # finite-rank adapted operator, matching its projection (0, 0)
    n = 2
    K = HField((eta(2, n), ChaosPoly.zero(n)))
    from wienerlab.malliavin import OperatorField

    Kop = OperatorField((K,))
    q = PredictableHField((ChaosPoly.constant(n, 1.0), eta(1, n)))
    Q = WeaklyAdaptedOperator((q,))
    assert _check_weak_orthogonality(Kop, Q) == pytest.approx(0.0, abs=1e-14)


# ----------------------------------------------------- finite-rank structure


def test_finite_rank_divergence_matches_densified():
    # div(sum_t y_t (x) q_t) = sum_t y_t div(q_t), component by component
    draws = open_draws(411)
    for _ in range(8):
        n = 2 + draws.below(3)
        d = 1 + draws.below(3)
        terms = [
            (random_predictable_field(draws, n, 2), draws.rng.uniform(-1, 1, size=d))
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
    draws = open_draws(412)
    for _ in range(10):
        n = 2 + draws.below(3)
        d = 1 + draws.below(3)
        K = random_weakly_adapted(draws, n, d, 3)
        assert _check_divergence_free_uniqueness(K)


def test_weakly_adapted_divergence_is_injective():
    # sharpest form of uniqueness: per-row Ito isometry gives
    # E|div K|^2 = E||K||^2, so div K = 0 forces every entry to vanish
    draws = open_draws(413)
    for _ in range(10):
        n = 2 + draws.below(3)
        d = 1 + draws.below(3)
        K = random_weakly_adapted(draws, n, d, 3)
        dK = divergence_op(K)
        assert dK.norm() ** 2 == pytest.approx(K.norm() ** 2, rel=1e-10, abs=1e-12)


def test_zero_operator_passes_uniqueness():
    rows = tuple(
        PredictableHField((ChaosPoly.zero(2), ChaosPoly.zero(2))) for _ in range(2)
    )
    K = WeaklyAdaptedOperator(rows)
    assert _check_divergence_free_uniqueness(K)


def test_predictable_sub_returns_plain_hfield():
    n = 2
    u = PredictableHField((ChaosPoly.constant(n, 1.0), eta(1, n)))
    v = HField((eta(1, n), eta(2, n)))  # reaches into its own present
    assert not is_predictable(v)
    for w in (u.sub(v), u.add(v)):
        assert type(w) is HField
        assert not is_predictable(w)
    assert u.sub(v).coords == (ChaosPoly.constant(n, 1.0) - eta(1, n), eta(1, n) - eta(2, n))
