"""Acceptance gate: every stated guarantee of the package, one test each.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to also see the printed summaries).  Tolerances are
pinned here and match the documented contracts: exact identities at 1e-10
or tighter, statistical batteries at four sigma / KS alpha = 0.01.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import make_rng, open_draws, split_integrand
from wienerlab.adapted import WeaklyAdaptedOperator
from wienerlab.chaos import ChaosPoly, ou_apply
from wienerlab.clark import (
    clark_integrand,
    compare_energies,
    minimal_energy_integrand,
    reconstruct,
    refine_and_reconstruct,
)
from wienerlab.cli import main as cli_main
from wienerlab.malliavin import (
    HField,
    VField,
    divergence_h,
    gradient_scalar,
    skew_symmetric_field,
)
from wienerlab.randgen import (
    random_poly,
    random_representable_poly,
    random_representable_vfield,
    random_skew_matrix,
    random_weakly_adapted,
)
from wienerlab.rotations import (
    ISOMETRY_TOL,
    build_sequential_isometry,
    check_strict_past_measurability,
    gaussianity_battery,
    independence_battery,
    isometry_check,
    measure_preservation_battery,
    mix_outputs,
    scale_output,
)
from wienerlab.space import mc_estimate, sample_batch
from wienerlab.suites import (
    _check_divergence_free_uniqueness,
    suite_duality_pairing,
    suite_ito_isometry,
    suite_weak_orthogonality,
    suite_weak_pairing,
)


def _worst(gaps) -> float:
    """The largest gap, NaN if any gap is NaN (``max(0.0, nan)`` is 0.0)."""
    return float(np.max(gaps, initial=0.0))


def test_gap_fold_fails_on_nan():
    assert max(0.0, math.nan) == 0.0  # the fold this replaces hides a NaN
    worst = _worst([1e-13, math.nan, 0.0])
    assert math.isnan(worst)
    assert not worst <= 1e-10
    assert _worst([]) == 0.0 and _worst([2e-11, 1e-12]) == 2e-11


def test_acceptance_01_duality_adjointness():
    # E[<K, grad F>] = E[(div K, F)] for 200 random pairs, within 1e-10,
    # inside a 30 second budget
    t0 = time.monotonic()
    result = suite_duality_pairing(70101)
    elapsed = time.monotonic() - t0
    assert result.statistic <= 1e-10 and result.passed
    assert elapsed <= 30.0
    print(f"PASS duality adjointness: worst gap {result.statistic:.3e} in {elapsed:.2f}s")


def test_acceptance_02_weak_pairing_forms():
    # componentwise pairing and rowwise divergence forms agree, 100 instances
    result = suite_weak_pairing(70202)
    assert result.statistic <= 1e-10 and result.passed
    print(f"PASS weak pairing forms: worst gap {result.statistic:.3e}")


def test_acceptance_03_exact_divergence_structure():
    # skew fields have divergence exactly zero; constant fields integrate to
    # first chaos; the identity field's divergence norm grows as sqrt(2n)
    rng = make_rng(70303)
    gaps = []
    for n in range(2, 9):
        A = random_skew_matrix(rng, n)
        assert divergence_h(skew_symmetric_field(A)).is_zero()
        h = rng.standard_normal(n)
        const = HField(tuple(ChaosPoly.constant(n, h[i]) for i in range(n)))
        expected = sum(
            (ChaosPoly.hermite(n, i + 1, 1, h[i]) for i in range(n)),
            ChaosPoly.zero(n),
        )
        gaps.append((divergence_h(const) - expected).norm_l2())
    ones = HField(tuple(ChaosPoly.constant(4, 1.0) for _ in range(4)))
    target = sum(
        (ChaosPoly.hermite(4, i, 1) for i in range(1, 5)), ChaosPoly.zero(4)
    )
    gaps.append((divergence_h(ones) - target).norm_l2())
    for n in range(1, 9):
        identity = HField(tuple(ChaosPoly.coordinate(n, i) for i in range(1, n + 1)))
        gaps.append(abs(divergence_h(identity).norm_l2() - math.sqrt(2.0 * n)))
    worst = _worst(gaps)
    assert worst <= 1e-12
    print(f"PASS exact divergence structure: worst gap {worst:.3e}")


def test_acceptance_04_adapted_isometries():
    # polarized energy identity for 200 predictable pairs and 200 weakly
    # adapted operator pairs
    result = suite_ito_isometry(70404)
    assert result.statistic <= 1e-10 and result.passed
    print(f"PASS adapted isometries: worst gap {result.statistic:.3e}")


def test_acceptance_05_weak_orthogonality():
    # anticipating remainder pairs to zero against adapted test operators
    result = suite_weak_orthogonality(70505)
    assert result.statistic <= 1e-10 and result.passed
    print(f"PASS weak orthogonality: worst gap {result.statistic:.3e}")


def test_acceptance_06_clark_representable_exactness():
    # zero residual on the representable class, and the integrand is the
    # unique weakly adapted one: independently split integrands must agree,
    # and the divergence is injective on weakly adapted operators
    draws = open_draws(70606)
    gaps = []
    for _ in range(100):
        n = 2 + draws.below(4)
        d = 1 + draws.below(3)
        v = random_representable_vfield(draws, n, d, 3)
        res = reconstruct(v)
        gaps.append(res.residual_l2)
        gaps.append(res.reconstruction.sub(v).norm())
    for _ in range(30):
        n = 2 + draws.below(4)
        p = random_representable_poly(draws, n, 3)
        p = p - ChaosPoly.constant(n, p.expectation())
        alt = WeaklyAdaptedOperator((split_integrand(p),))
        # alt represents the centered p, so it must be the projected gradient
        assert (divergence_h(alt.rows[0]) - p).norm_l2() <= 1e-10
        diff = clark_integrand(VField((p,))).sub(alt)
        assert all(q.norm_l2() <= 1e-10 for q in diff.rows[0].coords)
    for _ in range(30):
        n = 2 + draws.below(4)
        d = 1 + draws.below(3)
        assert _check_divergence_free_uniqueness(random_weakly_adapted(draws, n, d, 3))
    worst = _worst(gaps)
    assert worst <= 1e-10
    print(f"PASS representable exactness and uniqueness: worst residual {worst:.3e}")


def test_acceptance_07_refinement_convergence():
    # closed-form sqrt(2/m) decay for the quadratic cell functional, residual
    # monotone under refinement, and refined energy at least 3x smaller
    gaps = []
    he2 = VField((ChaosPoly.hermite(1, 1, 2),))
    for m, residual in refine_and_reconstruct(he2, range(1, 17)):
        gaps.append(abs(residual - math.sqrt(2.0 / m)))
    worst = _worst(gaps)
    assert worst <= 1e-12
    draws = open_draws(70707)
    for _ in range(20):
        n = 1 + draws.below(3)
        v = VField((random_poly(draws, n, 3),))
        residuals = [r for _, r in refine_and_reconstruct(v, [1, 2, 4, 8])]
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + 1e-12
        if residuals[0] > 1e-12:
            assert residuals[0] ** 2 >= 3.0 * residuals[-1] ** 2
    print(f"PASS refinement convergence: closed-form gap {worst:.3e}")


def test_acceptance_08_minimal_energy_representation():
    # the gradient of the inverse generator represents every centered
    # functional, never beats the adapted integrand on the representable
    # class, and coincides with it exactly on first chaos
    draws = open_draws(70808)
    gaps = []
    for _ in range(100):
        n = 1 + draws.below(5)
        p = random_poly(draws, n, 4)
        centered = p - ChaosPoly.constant(n, p.expectation())
        bar = minimal_energy_integrand(centered)
        gaps.append((divergence_h(bar) - centered).norm_l2())
    worst = _worst(gaps)
    assert worst <= 1e-12
    for _ in range(40):
        n = 2 + draws.below(4)
        comp = compare_energies(random_representable_poly(draws, n, 3))
        assert comp.exact_energy <= comp.adapted_energy + 1e-10
    pair = ChaosPoly.hermite(2, 1, 1) * ChaosPoly.hermite(2, 2, 1)
    comp = compare_energies(pair)
    assert comp.adapted_energy == pytest.approx(1.0, abs=1e-12)
    assert comp.exact_energy == pytest.approx(0.5, abs=1e-12)
    assert not comp.coincide
    first = ChaosPoly.hermite(3, 2, 1, 2.0) - ChaosPoly.hermite(3, 3, 1)
    comp_first = compare_energies(first)
    assert comp_first.coincide
    assert comp_first.exact_energy == pytest.approx(comp_first.adapted_energy, rel=1e-12)
    assert not compare_energies(ChaosPoly.hermite(1, 1, 2)).coincide
    print(f"PASS minimal-energy representation: worst gap {worst:.3e}")


def test_acceptance_09_number_operator_identity():
    # divergence after gradient equals grade scaling, 100 random functionals
    draws = open_draws(70909)
    gaps = []
    for _ in range(100):
        n = 1 + draws.below(5)
        p = random_poly(draws, n, 4)
        gaps.append((divergence_h(gradient_scalar(p)) - ou_apply(p)).norm_l2())
    worst = _worst(gaps)
    assert worst <= 1e-10
    print(f"PASS number operator identity: worst gap {worst:.3e}")


def test_acceptance_10_rotation_batteries():
    # all constructions pass the statistical batteries at N = 200000 with
    # four-sigma moments and KS alpha = 0.01; the pathwise isometry holds to
    # 1e-9 over 1000 draws; planted defects are detected; everything inside a
    # two minute budget
    # fixed seed chosen off the alpha tail: at alpha = 0.01 a true-null KS
    # battery still fails one run in a hundred, and the gate must be stable
    t0 = time.monotonic()
    n = 8
    N = 200_000
    seed = 71030
    probe = sample_batch(n, 1000, seed)
    h_mixed = np.ones(n) / math.sqrt(n)
    e1 = np.eye(n)[0]
    e2 = np.eye(n)[1]
    for spec in ("zero", "sign", "givens"):
        R = build_sequential_isometry(n, seed, spec)
        assert isometry_check(R, probe) <= ISOMETRY_TOL
        assert check_strict_past_measurability(R, probe) == 0.0
        assert gaussianity_battery(R, h_mixed, N, seed + 1).passed
        assert independence_battery(R, e1, e2, N, seed + 2).passed
        assert measure_preservation_battery(R, N, seed + 3).passed
    Rc = build_sequential_isometry(n, seed, "constant")
    # a constant rotation's output covariance is M M^T, exactly
    assert isometry_check(Rc, probe) <= 1e-12
    assert measure_preservation_battery(Rc, N, seed + 4).passed

    base = build_sequential_isometry(n, seed, "givens")
    scaled = scale_output(base, 1, 2.0)
    assert isometry_check(scaled, probe) == pytest.approx(3.0, abs=1e-12)
    assert not gaussianity_battery(scaled, e1, N, seed + 5).passed
    mixed = mix_outputs(base, 1, 2)
    assert isometry_check(mixed, probe) > 0.5
    assert not independence_battery(mixed, e1, e2, N, seed + 6).passed
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    print(f"PASS rotation batteries: three constructions plus defects in {elapsed:.1f}s")


def test_acceptance_11_monte_carlo_agreement():
    # sampled means match algebraic expectations within four standard errors
    # for 50 random functionals at 100000 draws
    draws = open_draws(71111)
    n = 4
    batch = sample_batch(n, 100_000, 71112)
    gaps = []
    for _ in range(50):
        p = random_poly(draws, n, 3)
        est = mc_estimate(p, batch)
        tolerance = max(4.0 * est.stderr, 1e-12)
        gaps.append(abs(est.mean - p.expectation()) / tolerance)
    worst = _worst(gaps)
    assert worst <= 1.0
    print(f"PASS Monte Carlo agreement: worst normalized gap {worst:.3f}")


def test_acceptance_12_cli_determinism(tmp_path, monkeypatch, capsys):
    # two consecutive full verify runs produce byte-identical reports and
    # stdout, and exit zero
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--output", "report.json"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    blob1 = (tmp_path / "report.json").read_bytes()
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out
    blob2 = (tmp_path / "report.json").read_bytes()
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert blob1 == blob2
    payload = json.loads(blob1)
    assert payload["passed"] is True
    assert len(payload["results"]) == 12
    print("PASS CLI determinism: byte-identical verify reports")
