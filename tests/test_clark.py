"""Adapted representation of vector functionals and minimal-energy fields."""

import math

import numpy as np
import pytest

from helpers import (
    STAGE_TABLES,
    draw_hfield,
    draw_poly,
    energies,
    exact_root,
    l2_mass,
    open_draws,
    refinement_mass,
    refinement_residual,
    split_integrand,
    stages,
)
from wienerlab import clark
from wienerlab.chaos import (
    DEGREE_CAP,
    AlgebraError,
    ChaosPoly,
    hermite_product,
    norm_l2,
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
from wienerlab.cli import clark_block
from wienerlab.dsl import lower, parse_functional
from wienerlab.malliavin import (
    VField,
    divergence_h,
    divergence_op,
    gradient_scalar,
    gradient_vector,
)
from wienerlab.randgen import (
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


# ----------------------------------------------------------- reconstruction


def test_clark_integrand_equals_projected_gradient_term_by_term():
    # the oracle is the definition: the adapted projection of the gradient
    draws = open_draws(511)
    fields = []
    for n in (1, 2, 3, 4):
        fields.append(random_representable_vfield(draws, n, 2, 3))
        fields.append(VField(tuple(draw_poly(draws, n, 3, 5) for _ in range(2))))
    # components with a constant term, representable or not
    fields.append(VField((hermite_product(eta(1, 2), eta(2, 2)) + ChaosPoly.constant(2, -0.75),
                          he(2, 2, 2) + eta(1, 2) + ChaosPoly.constant(2, 1.5))))
    # the refinement factors under the package's stages, m = 1 under the pairs
    for table, factors in zip(STAGE_TABLES.values(), ((1, 2, 4, 8), (1,))):
        with stages(table):
            for v in fields:
                for m in factors:
                    refined = VField(tuple(refine(p, m) for p in v.components))
                    K = clark_integrand(refined)
                    want = project_operator(gradient_vector(refined))
                    assert K == want
                    for row, want_row in zip(K.rows, want.rows):
                        for p, q in zip(row.coords, want_row.coords):
                            assert list(p.packed_terms.items()) == list(q.packed_terms.items())


def test_reconstruction_is_the_formed_divergence_item_for_item():
    # reconstruct reads E[v] + div(K) off v; forming the divergence gives the
    # same keys, coefficient bits and stored order, component by component,
    # under the package's stages and under the pairs
    for table in STAGE_TABLES.values():
        draws = open_draws(2026)
        with stages(table):
            for _ in range(1200):
                n, d, degree = 1 + draws.below(5), 1 + draws.below(3), 1 + draws.below(8)
                v = random_vfield(draws, n, d, degree)
                formed = VField.constant(n, v.expectation()).add(divergence_op(clark_integrand(v)))
                got = reconstruct(v).reconstruction
                assert [[(k, c.hex()) for k, c in p.packed_terms.items()] for p in got.components] == [
                    [(k, c.hex()) for k, c in p.packed_terms.items()] for p in formed.components
                ]


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
    draws = open_draws(501)
    for _ in range(8):
        v = random_vfield(draws, 3, 2, 3)
        res = reconstruct(v)
        for a in range(1, 3):
            assert res.reconstruction.component(a).expectation() == pytest.approx(
                v.component(a).expectation(), abs=1e-12
            )


def test_residual_matches_structural_oracle():
    draws = open_draws(502)
    for _ in range(12):
        n = 2 + draws.below(3)
        d = 1 + draws.below(2)
        v = random_vfield(draws, n, d, 3)
        res = reconstruct(v)
        assert res.residual_l2 == pytest.approx(bad_mass(v), rel=1e-10, abs=1e-12)
        assert residual_mass_oracle(v) == pytest.approx(bad_mass(v), abs=1e-14)


def test_residual_mass_oracle_is_exact():
    # one rounding of the exact rational mass, however small or large
    v = VField((he(2, 1, 1) * 1e-200,))
    assert residual_mass_oracle(v) == refinement_residual(v, 1) == 1.414213562373095e-200
    tiny = VField((he(2, 1, 1) * 1e-160,))
    assert residual_mass_oracle(tiny) == exact_root(refinement_mass(tiny, 1)) == 1.414213562373095e-160
    # 2e400 squared mass, finite root; a root past the largest double is inf
    assert residual_mass_oracle(VField((he(2, 1, 1) * 1e200,))) == 1.414213562373095e200
    assert residual_mass_oracle(VField((he(8, 1, 1) * 1e308,))) == math.inf
    v = VField((lower(parse_functional("0.769787*h8(x1)"), 1),))
    assert residual_mass_oracle(_refined(v, 8)) == 101.08234343238155
    assert residual_mass_oracle(VField((ChaosPoly.zero(2),))) == 0.0
    draws = open_draws(510)
    for _ in range(40):
        v = random_vfield(draws, 1 + draws.below(3), 2, 5)
        assert residual_mass_oracle(v) == refinement_residual(v, 1)


def test_representable_class_is_exact():
    draws = open_draws(503)
    for _ in range(12):
        n = 2 + draws.below(3)
        v = random_representable_vfield(draws, n, 2, 3)
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
    payload = clark_block(v, reconstruct(v))
    assert payload["n"] == 2
    assert payload["d"] == 1
    assert payload["residual_l2"] == pytest.approx(0.0, abs=1e-14)
    assert payload["integrand"] == [["", "1.0 1:1"]]
    assert payload["reconstruction"] == ["1.0 1:1 2:1"]


# ------------------------------------------------------------- uniqueness


def test_uniqueness_accepts_independent_construction():
    # an independently built integrand that represents v is the projected gradient
    draws = open_draws(504)
    for _ in range(8):
        n = 2 + draws.below(3)
        p = random_representable_poly(draws, n, 3)
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
    draws = open_draws(505)
    for _ in range(6):
        n = 1 + draws.below(2)
        v = VField((random_poly(draws, n, 3),))
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
    draws = open_draws(506)
    v = VField((draw_poly(draws, 2, 3, 5),))
    for m in (2, 4):
        refined = VField(tuple(refine(p, m) for p in v.components))
        res = reconstruct(refined)
        assert res.residual_l2 == pytest.approx(bad_mass(refined), rel=1e-10, abs=1e-12)


def _refined(v, m):
    return VField(tuple(refine(p, m) for p in v.components))


def test_residual_is_the_norm_of_v_minus_its_reconstruction():
    # residual_l2 is the closed form at m = 1; it is checked against the
    # exact rational mass of the dropped terms, and against ||v -
    # reconstruction||, the independent oracle that forms the difference
    draws = open_draws(508)
    fields = [v for v in (random_vfield(draws, 1 + draws.below(3), 2, 4) for _ in range(30))
              if not is_representable(v)]
    assert len(fields) >= 10
    fields += [_refined(v, m) for v in fields[:4] for m in (2, 3, 4)]
    # a sum of squares past the largest double, with a finite root
    fields.append(VField((he(2, 1, 1) * 1e154,)))
    for v in fields:
        result = reconstruct(v)
        assert result.residual_l2 == exact_root(refinement_mass(v, 1))
        # the difference holds exactly the dropped terms, and its norm is
        # the same exact sum
        assert result.residual_l2 == v.sub(result.reconstruction).norm()
    assert math.isfinite(reconstruct(fields[-1]).residual_l2)


def test_refinement_residual_of_repeated_coefficients_is_exact():
    # a refined functional holds few distinct coefficients, each over many
    # keys and with both signs; the residual sums each one's weights first
    # and must still be the exact sum, rounded once
    v = VField((
        lower(parse_functional("0.769787*h8(x1) - 0.3*h3(x1)*h2(x2) + 0.3*x1*h2(x2)"), 2),
        he(4, 2, 2) * -0.769787,
    ))
    for m in (1, 2, 3, 5, 8):
        fine = _refined(v, m)
        assert len({c for p in fine.components for c in p.packed_terms.values()}) < 100
        assert clark.refinement_residual(fine, 1) == exact_root(refinement_mass(fine, 1))
        assert clark.refinement_residual(v, m) == exact_root(refinement_mass(v, m))


def _within(value, exact, rel):
    return abs(value - exact) <= rel * exact


def test_refinement_table_matches_the_closed_form_residual():
    # an oracle that reads only the coarse coefficients: residual**2 =
    # sum c**2 prod_{i<t} alpha_i! R(alpha_t, m), in exact rationals.  The
    # package's closed form equals its rounded root bit for bit, also at
    # factors whose refined polynomial is far too large to build
    for k in range(DEGREE_CAP + 1):
        v = VField((he(k, 1, 1),))
        for m, residual in refine_and_reconstruct(v, range(1, 9)):
            assert _within(residual, refinement_residual(v, m), 1e-12)
        for m in [*range(1, 17), 32, 64, 128]:
            assert clark.refinement_residual(v, m) == refinement_residual(v, m)
    # a tiny functional: refine keeps every nonzero block product, however
    # small, so the materialised row holds the whole mass too
    v = VField((he(8, 1, 1) * 1e-10,))
    assert clark.refinement_residual(v, 16) == refinement_residual(v, 16)
    v = VField((he(8, 1, 1) * 1e-12,))
    [(_, residual)] = refine_and_reconstruct(v, [4])
    assert _within(residual, clark.refinement_residual(v, 4), 1e-12)
    draws = open_draws(507)
    for _ in range(20):
        n = 1 + draws.below(3)
        v = random_vfield(draws, n, 2, 5)
        for m, residual in refine_and_reconstruct(v, [1, 2, 3, 4]):
            exact = refinement_residual(v, m)
            assert _within(residual, exact, 1e-12)
            assert clark.refinement_residual(v, m) == exact


def test_refinement_rows_and_energies_are_correctly_rounded_on_seeded_fields():
    # 3000 seeded fields at m = 1, 2, 4: every row is the exact root rounded
    # once, and both energies of every component are the exact sums rounded
    # once; a float sum of the rounded terms put 1317 of these 9000 rows
    # 1 ulp from the exact root
    draws = open_draws(2026)
    for _ in range(3000):
        n = 1 + draws.below(5)
        d = 1 + draws.below(3)
        v = random_vfield(draws, n, d, 1 + draws.below(8))
        for m in (1, 2, 4):
            assert clark.refinement_residual(v, m) == refinement_residual(v, m)
        for phi in v.components:
            cmp = compare_energies(phi)
            assert (cmp.adapted_energy, cmp.exact_energy) == energies(phi)


@pytest.mark.parametrize("c", [1e200, -1e200, 1e155, 1e-160, 1e-200, 0.0])
def test_residuals_energies_and_norms_are_exact_at_the_ends_of_the_range(c):
    # squares past the largest double, in the subnormal range, below the
    # smallest double, and none at all: each sum is still exact and rounded
    # once, to inf when the value is past the largest double
    phi = ChaosPoly(2, {b"\x01": c, b"\x01\x02": -c, b"\x02\x02": 0.5 * c, b"\x01\x01\x01": c})
    v = VField((phi, phi * 0.75))
    for m in (1, 2, 3, 8):
        assert clark.refinement_residual(v, m) == refinement_residual(v, m)
    assert reconstruct(v).residual_l2 == refinement_residual(v, 1)
    cmp = compare_energies(phi)
    assert (cmp.adapted_energy, cmp.exact_energy) == energies(phi)
    assert norm_l2(phi) == exact_root(l2_mass([phi]))
    K = gradient_vector(v)
    assert v.norm() == exact_root(l2_mass(v.components))
    assert K.norm() == exact_root(l2_mass([p for row in K.rows for p in row.coords]))
    assert K.rows[0].norm() == exact_root(l2_mass(K.rows[0].coords))
    if abs(c) >= 1e155:
        assert cmp.adapted_energy == math.inf and math.isfinite(v.norm())
    if c == 0.0:
        assert clark.refinement_residual(v, 2) == cmp.exact_energy == K.norm() == 0.0


def test_refinement_residual_refuses_what_refine_refuses():
    v = VField((he(2, 1, 2),))
    for m, message in [(0, "refinement factor 0 is not >= 1"),
                       (65, "refined dimension 130 exceeds the dimension cap 128")]:
        with pytest.raises(AlgebraError) as closed_form:
            clark.refinement_residual(v, m)
        with pytest.raises(AlgebraError) as materialised:
            refine(v.components[0], m)
        assert str(closed_form.value) == str(materialised.value) == message


def test_refinement_residual_refuses_a_non_integral_factor():
    # an AlgebraError, as refine raises, and not a TypeError
    v = VField((he(2, 1, 2),))
    for m in (2.5, 2.0, "2"):
        with pytest.raises(AlgebraError, match=f"refinement factor {m!r} is not an integer"):
            clark.refinement_residual(v, m)
    assert clark.refinement_residual(v, np.int64(2)) == clark.refinement_residual(v, 2)


def test_refine_and_reconstruct_refuses_a_non_integral_factor():
    # the rows used to be (2, ...), (2, ...), (3, ...): each factor went through int
    v = VField((he(1, 1, 2),))
    for factors in ([2.5, 2.0, "3"], [2, 2.0], [1, "3"]):
        with pytest.raises(AlgebraError, match="is not an integer"):
            refine_and_reconstruct(v, factors)
    rows = refine_and_reconstruct(v, [np.int64(2), 3])
    assert rows == refine_and_reconstruct(v, [2, 3])
    assert all(type(m) is int for m, _ in rows)


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
    assert field.norm() ** 2 == pytest.approx(0.5, abs=1e-14)


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


def test_coincide_is_pure_first_chaos_of_the_centered_functional():
    # the grade-1 filter written out, as the definition reads: centered phi
    # minus its first-chaos part is zero
    draws = open_draws(510)
    phis = [draw_poly(draws, 1 + draws.below(3), 1 + draws.below(3), 3)
            for _ in range(40)]
    phis += [
        ChaosPoly.constant(2, 3.0),
        ChaosPoly.zero(2),
        eta(1, 2) * 2.0 - eta(2, 2) + ChaosPoly.constant(2, -1.5),
        eta(1, 2) + he(2, 2, 2) + ChaosPoly.constant(2, 4.0),
        eta(1, 3) + hermite_product(eta(1, 3), eta(3, 3)),
    ]
    verdicts = []
    for phi in phis:
        centered = phi - ChaosPoly.constant(phi.dim, phi.expectation())
        first = ChaosPoly(phi.dim, {k: c for k, c in centered.packed_terms.items() if len(k) == 1})
        verdicts.append(compare_energies(phi).coincide)
        assert verdicts[-1] == (centered - first).is_zero()
    assert True in verdicts and False in verdicts


def test_minimal_energy_represents_exactly():
    draws = open_draws(507)
    for _ in range(10):
        n = 2 + draws.below(3)
        phi = random_poly(draws, n, 3)
        field = minimal_energy_integrand(phi)
        assert _representation_gap(phi, field) <= 1e-10


def test_minimal_energy_beats_divergence_free_perturbations():
    draws = open_draws(508)
    for _ in range(6):
        n = 2 + draws.below(3)
        phi = random_poly(draws, n, 3)
        base = minimal_energy_integrand(phi)
        e0 = base.norm() ** 2
        # skew linear fields are divergence-free
        u0 = skew_symmetric_field(random_skew_matrix(draws.rng, n))
        assert _representation_gap(phi, base.add(u0)) <= 1e-10
        assert base.add(u0).norm() ** 2 >= e0 - 1e-12
        # generic divergence-free field: u - grad Linv div u
        u = draw_hfield(draws, n, 3)
        correction = gradient_scalar(ou_inverse(divergence_h(u)))
        w0 = u.sub(correction)
        assert divergence_h(w0).norm_l2() <= 1e-10
        assert base.add(w0).norm() ** 2 >= e0 - 1e-12
        # orthogonality makes the inequality an exact Pythagorean identity
        assert base.add(w0).norm() ** 2 == pytest.approx(
            e0 + w0.norm() ** 2, rel=1e-9, abs=1e-10
        )


def test_minimal_at_most_adapted_on_representable_class():
    draws = open_draws(509)
    for _ in range(10):
        n = 2 + draws.below(3)
        phi = random_representable_poly(draws, n, 3)
        cmp = compare_energies(phi)
        assert cmp.exact_energy <= cmp.adapted_energy + 1e-10


def test_energy_order_can_flip_off_the_representable_class():
    # He_2 of the only increment: the adapted integrand is zero (energy 0)
    # while the exact representing field is eta_1 (energy 1)
    cmp = compare_energies(he(2, 1, 1))
    assert cmp.adapted_energy == pytest.approx(0.0, abs=1e-14)
    assert cmp.exact_energy == pytest.approx(1.0, abs=1e-14)
    assert not cmp.coincide


def _energy_cases():
    """Seeded random scalars, and every component of the README and CI functionals."""
    draws = open_draws(513)
    phis = []
    for _ in range(300):
        n = 1 + draws.below(5)
        degree, n_terms = 1 + draws.below(DEGREE_CAP), 1 + draws.below(8)
        phis.append(draw_poly(draws, n, degree, n_terms))
    phis += [random_representable_poly(draws, 1 + draws.below(5), 3) for _ in range(50)]
    for text, n in [
        ("x1", 1),
        ("x1*x2", 2),
        ("h2(x1)", 1),
        ("h8(x1)", 1),
        ("h4(x1)*h4(x2)", 2),
        ("[h3(x1)*h3(x2) + x1, h2(x2)*x1 - 0.5*x2, h4(x3)]", 3),
        ("[0.459*h3(x1), 0.746*h4(x2) + 0.165*h3(x3) + 0.849*h3(x1) + 0.318*h4(x3)*x3]", 3),
    ]:
        lowered = lower(parse_functional(text), n)
        phis += lowered.components if isinstance(lowered, VField) else [lowered]
    return phis


def test_energies_match_exact_rationals_and_the_integrand_fields():
    # both sums equal the Fraction sums rounded once, bit for bit, and an
    # energy with no terms is exactly zero; the two integrands built as
    # fields are the reference the closed forms replace
    for phi in _energy_cases():
        cmp = compare_energies(phi)
        assert (cmp.adapted_energy, cmp.exact_energy) == energies(phi)
        adapted = clark_integrand(VField((phi,))).norm() ** 2
        minimal = minimal_energy_integrand(phi).norm() ** 2
        assert cmp.adapted_energy == pytest.approx(adapted, rel=1e-12, abs=0.0)
        assert cmp.exact_energy == pytest.approx(minimal, rel=1e-12, abs=0.0)


def test_minimal_energy_of_a_cubic_is_exact():
    # 3!/3 * 0.459**2; the gradient of Linv phi gives 0.42136199999999996
    phi = lower(parse_functional("0.459*h3(x1)"), 1)
    assert compare_energies(phi).exact_energy == 0.421362
    assert energies(phi)[1] == 0.421362


# ---------------------------------------------- divergence-gradient algebra


def test_divergence_of_gradient_is_number_operator():
    draws = open_draws(510)
    for _ in range(10):
        n = 1 + draws.below(3)
        p = draw_poly(draws, n, 4, 5)
        lhs = divergence_h(gradient_scalar(p))
        rhs = ou_apply(p)
        assert (lhs - rhs).is_zero() or (lhs - rhs).norm_l2() <= 1e-12


def test_gradients_orthogonal_to_divergence_free():
    draws = open_draws(511)
    for _ in range(6):
        n = 2 + draws.below(2)
        p = draw_poly(draws, n, 3, 3)
        g = gradient_scalar(p)
        u0 = skew_symmetric_field(random_skew_matrix(draws.rng, n))
        assert g.inner(u0) == pytest.approx(0.0, abs=1e-10)


def test_vector_reconstruction_decomposes_into_scalar_problems():
    # component a of the vector reconstruction equals the reconstruction of
    # the scalar problem for that component alone, integrand rows included
    draws = open_draws(512)
    for _ in range(8):
        n = 2 + draws.below(3)
        d = 2 + draws.below(2)
        v = random_vfield(draws, n, d, 3)
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
