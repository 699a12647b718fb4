"""Adapted representation of vector functionals and minimal-energy fields."""

import math

import pytest

from helpers import make_rng
from wienerlab.chaos import (
    ChaosPoly,
    MultiIndex,
    hermite_product,
    ou_apply,
    ou_inverse,
    refine,
)
from wienerlab.adapted import PredictableHField, WeaklyAdaptedOperator, project_operator
from wienerlab.clark import (
    clark_integrand,
    compare_energies,
    is_representable,
    minimal_energy_integrand,
    reconstruct,
    refine_and_reconstruct,
    residual_mass_oracle,
)
from wienerlab.malliavin import (
    HField,
    VField,
    divergence_h,
    gradient_scalar,
    gradient_vector,
)
from wienerlab.randgen import (
    random_hfield,
    random_poly,
    random_representable_poly,
    random_representable_vfield,
    random_skew_matrix,
    random_vfield,
)
from wienerlab.malliavin import skew_symmetric_field


def eta(i, n):
    return ChaosPoly.coordinate(n, i)


def he(k, i, n):
    return ChaosPoly.hermite(n, i, k)


def bad_mass(v: VField) -> float:
    # inline recomputation of the unrepresentable coefficient mass
    total = 0.0
    for p in v.components:
        for idx, c in p.terms.items():
            if idx.pairs and idx.pairs[-1][1] != 1:
                total += idx.factorial * c * c
    return math.sqrt(total)


def split_integrand(p: ChaosPoly) -> HField:
    """Independent construction of the adapted integrand for representable p.

    Each monomial with top coordinate j at order 1 is the stage-j integral
    of the same monomial with that factor removed, placed in coordinate j.
    """
    rows = [ChaosPoly.zero(p.dim) for _ in range(p.dim)]
    for idx, c in p.terms.items():
        if not idx.pairs:
            continue
        j, order = idx.pairs[-1]
        assert order == 1
        lowered = MultiIndex(idx.pairs[:-1])
        rows[j - 1] = rows[j - 1] + ChaosPoly(p.dim, {lowered: c})
    return HField(tuple(rows))


# ----------------------------------------------------------- reconstruction


def test_clark_integrand_equals_projected_gradient_term_by_term():
    # the oracle is the definition: the adapted projection of the gradient
    rng = make_rng(511)
    fields = []
    for n in (1, 2, 3, 4):
        fields.append(random_representable_vfield(rng, n, 2, 3))
        fields.append(random_vfield(rng, n, 2, 3, n_terms=5))
    # components with a constant term, representable or not
    fields.append(VField((hermite_product(eta(1, 2), eta(2, 2)) + ChaosPoly.constant(2, -0.75),
                          he(2, 2, 2) + eta(1, 2) + ChaosPoly.constant(2, 1.5))))
    for v in fields:
        for m in (1, 2, 4, 8):
            refined = VField(tuple(refine(p, m) for p in v.components))
            K = clark_integrand(refined)
            want = project_operator(gradient_vector(refined))
            assert K == want
            for row, want_row in zip(K.rows, want.rows):
                for p, q in zip(row.coords, want_row.coords):
                    assert list(p.packed_terms.items()) == list(q.packed_terms.items())


def test_clark_product_functional_exact():
    n = 2
    v = VField((hermite_product(eta(1, n), eta(2, n)),))
    res = reconstruct(v)
    assert res.residual_l2 == pytest.approx(0.0, abs=1e-14)
    assert res.reconstruction.component(1) == v.component(1)
    K = res.integrand
    assert K.rows[0].coords[0].is_zero()
    assert K.rows[0].coords[1] == eta(1, n)


def test_clark_pure_second_order_residual():
    # He_2 of a single increment admits no adapted representation at all:
    # the integrand vanishes and the residual is the full norm sqrt(2)
    v = VField((he(2, 1, 1),))
    res = reconstruct(v)
    assert max(p.norm_l2() for row in res.integrand.rows for p in row.coords) == 0.0
    assert res.residual_l2 == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert res.reconstruction.component(1).is_zero()


def test_clark_mixed_functional_partial_residual():
    # representable part eta_1 eta_2 is recovered; He_2(eta_2) is lost whole
    n = 2
    p = hermite_product(eta(1, n), eta(2, n)) + he(2, 2, n)
    v = VField((p,))
    res = reconstruct(v)
    assert res.residual_l2 == pytest.approx(math.sqrt(2.0), abs=1e-12)
    lost = v.sub(res.reconstruction)
    assert lost.component(1) == he(2, 2, n)


def test_reconstruction_mean_is_preserved():
    rng = make_rng(501)
    for _ in range(8):
        v = random_vfield(rng, 3, 2, 3)
        res = reconstruct(v)
        for a in range(1, 3):
            assert res.reconstruction.component(a).expectation() == pytest.approx(
                v.component(a).expectation(), abs=1e-12
            )


def test_residual_matches_structural_oracle():
    rng = make_rng(502)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        v = random_vfield(rng, n, d, 3)
        res = reconstruct(v)
        assert res.residual_l2 == pytest.approx(bad_mass(v), rel=1e-10, abs=1e-12)
        assert residual_mass_oracle(v) == pytest.approx(bad_mass(v), abs=1e-14)


def test_representable_class_is_exact():
    rng = make_rng(503)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        v = random_representable_vfield(rng, n, 2, 3)
        assert is_representable(v)
        res = reconstruct(v)
        assert res.residual_l2 <= 1e-10
        gap = v.sub(res.reconstruction)
        assert all(p.norm_l2() <= 1e-10 for p in gap.components)


def test_is_representable_frozen():
    n = 2
    assert is_representable(hermite_product(eta(1, n), eta(2, n)))
    assert is_representable(eta(2, n) + ChaosPoly.constant(n, 4.0))
    assert not is_representable(he(2, 2, n))
    assert not is_representable(hermite_product(he(2, 1, n), eta(2, n)) + he(3, 2, n))
    # order 2 below the top coordinate is fine
    assert is_representable(hermite_product(he(2, 1, n), eta(2, n)))


def test_clark_result_json_shape():
    v = VField((hermite_product(eta(1, 2), eta(2, 2)),))
    payload = reconstruct(v).to_json_dict()
    assert payload["n"] == 2
    assert payload["d"] == 1
    assert payload["residual_l2"] == pytest.approx(0.0, abs=1e-14)
    assert payload["integrand"] == [["", "1.0 1:1"]]
    assert payload["reconstruction"] == ["1.0 1:1 2:1"]


# ------------------------------------------------------------- uniqueness


def test_uniqueness_accepts_independent_construction():
    # an independently built integrand that represents v is the projected gradient
    rng = make_rng(504)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        p = random_representable_poly(rng, n, 3)
        centered = p - ChaosPoly.constant(n, p.expectation())
        alt = WeaklyAdaptedOperator((PredictableHField(split_integrand(centered).coords),))
        assert (divergence_h(alt.rows[0]) - centered).norm_l2() <= 1e-10
        diff = clark_integrand(VField((p,))).sub(alt)
        assert all(q.norm_l2() <= 1e-10 for q in diff.rows[0].coords)


# -------------------------------------------------------------- refinement


def test_refinement_residual_closed_form():
    # single-cell He_2 refined over m subcells: residual sqrt(2/m)
    v = VField((he(2, 1, 1),))
    table = refine_and_reconstruct(v, [1, 2, 4, 8, 16])
    for m, residual in table:
        assert residual == pytest.approx(math.sqrt(2.0 / m), abs=1e-12)


def test_refinement_residual_non_increasing_random():
    rng = make_rng(505)
    for _ in range(6):
        n = int(rng.integers(1, 3))
        v = VField((random_poly(rng, n, 3, n_terms=4),))
        table = refine_and_reconstruct(v, [1, 2, 4, 8])
        residuals = [r for _, r in table]
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + 1e-12
        # energy reduction by at least 3x over an 8-fold refinement
        if residuals[0] > 1e-12:
            assert residuals[0] ** 2 / residuals[-1] ** 2 >= 3.0
        else:
            assert residuals[-1] <= 1e-12


def test_refinement_residual_non_increasing_fourth_order():
    v = VField((he(4, 1, 1),))
    table = refine_and_reconstruct(v, [1, 2, 4, 8])
    residuals = [r for _, r in table]
    assert residuals[0] == pytest.approx(math.sqrt(24.0), abs=1e-12)
    for a, b in zip(residuals, residuals[1:]):
        assert b < a


def test_refinement_residual_matches_refined_oracle():
    rng = make_rng(506)
    v = VField((random_poly(rng, 2, 3, n_terms=5),))
    for m in (2, 4):
        refined = VField(tuple(refine(p, m) for p in v.components))
        res = reconstruct(refined)
        assert res.residual_l2 == pytest.approx(bad_mass(refined), rel=1e-10, abs=1e-12)


# ---------------------------------------------------------- minimal energy


def _representation_gap(phi, field):
    """L2 gap between div(field) and phi - E phi."""
    centered = phi - ChaosPoly.constant(phi.dim, phi.expectation())
    return (divergence_h(field) - centered).norm_l2()


def test_minimal_energy_product_functional_frozen():
    n = 2
    phi = hermite_product(eta(1, n), eta(2, n))
    field = minimal_energy_integrand(phi)
    assert field.coords[0] == eta(2, n) * 0.5
    assert field.coords[1] == eta(1, n) * 0.5
    assert _representation_gap(phi, field) == pytest.approx(0.0, abs=1e-14)
    assert field.energy() == pytest.approx(0.5, abs=1e-14)


def test_energy_comparison_frozen_pair():
    n = 2
    phi = hermite_product(eta(1, n), eta(2, n))
    cmp = compare_energies(phi)
    assert cmp.adapted_energy == pytest.approx(1.0, abs=1e-12)
    assert cmp.exact_energy == pytest.approx(0.5, abs=1e-12)
    assert not cmp.coincide


def test_energy_comparison_first_chaos_coincides():
    n = 2
    phi = eta(1, n) * 2.0 + eta(2, n) * 3.0 + ChaosPoly.constant(n, 7.0)
    cmp = compare_energies(phi)
    assert cmp.coincide
    assert cmp.adapted_energy == pytest.approx(13.0, abs=1e-12)
    assert cmp.exact_energy == pytest.approx(13.0, abs=1e-12)
    field = minimal_energy_integrand(phi)
    adapted = clark_integrand(VField((phi,)))
    assert adapted.rows[0].sub(field).norm() <= 1e-12


def test_minimal_energy_represents_exactly():
    rng = make_rng(507)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        phi = random_poly(rng, n, 3, n_terms=4)
        field = minimal_energy_integrand(phi)
        assert _representation_gap(phi, field) <= 1e-10


def test_minimal_energy_beats_divergence_free_perturbations():
    rng = make_rng(508)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        phi = random_poly(rng, n, 3, n_terms=4)
        base = minimal_energy_integrand(phi)
        e0 = base.energy()
        # skew linear fields are divergence-free
        u0 = skew_symmetric_field(random_skew_matrix(rng, n))
        assert _representation_gap(phi, base.add(u0)) <= 1e-10
        assert base.add(u0).energy() >= e0 - 1e-12
        # generic divergence-free field: u - grad Linv div u
        u = random_hfield(rng, n, 3)
        correction = gradient_scalar(ou_inverse(divergence_h(u)))
        w0 = u.sub(correction)
        assert divergence_h(w0).norm_l2() <= 1e-10
        assert base.add(w0).energy() >= e0 - 1e-12
        # orthogonality makes the inequality an exact Pythagorean identity
        assert base.add(w0).energy() == pytest.approx(
            e0 + w0.energy(), rel=1e-9, abs=1e-10
        )


def test_minimal_at_most_adapted_on_representable_class():
    rng = make_rng(509)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        phi = random_representable_poly(rng, n, 3)
        cmp = compare_energies(phi)
        assert cmp.exact_energy <= cmp.adapted_energy + 1e-10


def test_energy_order_can_flip_off_the_representable_class():
    # He_2 of the only increment: the adapted integrand is zero (energy 0)
    # while the exact representing field is eta_1 (energy 1)
    cmp = compare_energies(he(2, 1, 1))
    assert cmp.adapted_energy == pytest.approx(0.0, abs=1e-14)
    assert cmp.exact_energy == pytest.approx(1.0, abs=1e-14)
    assert not cmp.coincide


# ---------------------------------------------- divergence-gradient algebra


def test_divergence_of_gradient_is_number_operator():
    rng = make_rng(510)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        p = random_poly(rng, n, 4, n_terms=5)
        lhs = divergence_h(gradient_scalar(p))
        rhs = ou_apply(p)
        assert (lhs - rhs).is_zero() or (lhs - rhs).norm_l2() <= 1e-12


def test_gradients_orthogonal_to_divergence_free():
    rng = make_rng(511)
    for _ in range(6):
        n = int(rng.integers(2, 4))
        p = random_poly(rng, n, 3, n_terms=3)
        g = gradient_scalar(p)
        u0 = skew_symmetric_field(random_skew_matrix(rng, n))
        assert g.inner(u0) == pytest.approx(0.0, abs=1e-10)


def test_vector_reconstruction_decomposes_into_scalar_problems():
    # component a of the vector reconstruction equals the reconstruction of
    # the scalar problem for that component alone, integrand rows included
    rng = make_rng(512)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        v = random_vfield(rng, n, d, 3)
        whole = reconstruct(v)
        for a in range(1, d + 1):
            part = reconstruct(VField((v.component(a),)))
            assert whole.reconstruction.component(a) == part.reconstruction.component(1)
            assert whole.integrand.rows[a - 1] == part.integrand.rows[0]
        total = sum(
            reconstruct(VField((v.component(a),))).residual_l2 ** 2
            for a in range(1, d + 1)
        )
        assert whole.residual_l2 == pytest.approx(math.sqrt(total), abs=1e-12)
