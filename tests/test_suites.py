import json
import math

import pytest

import wienerlab.cli
import wienerlab.suites
from wienerlab.cli import main
from wienerlab.space import Check
from wienerlab.suites import run_suites, suite_names


def test_suite_registry_names_and_order():
    names = suite_names()
    assert names == [
        "duality_pairing",
        "weak_pairing",
        "structure_constants",
        "ito_isometry",
        "weak_orthogonality",
        "clark_exactness",
        "refinement_convergence",
        "minimal_energy",
        "number_operator",
        "operator_bound",
        "rotation_invariants",
        "monte_carlo_consistency",
    ]


def test_run_suites_subset_and_order():
    results = run_suites(["number_operator", "structure_constants"])
    assert [r.name for r in results] == ["number_operator", "structure_constants"]
    assert all(r.passed for r in results)


def test_run_suites_unknown_name():
    with pytest.raises(KeyError):
        run_suites(["no_such_suite"])


def test_suite_result_line_and_json(monkeypatch, capsys):
    r = Check(name="demo", statistic=1.5e-12, threshold=1e-10, passed=True, details="3 cases")
    assert json.loads(json.dumps(r.to_json_dict())) == {
        "name": "demo",
        "passed": True,
        "statistic": 1.5e-12,
        "threshold": 1e-10,
        "details": "3 cases",
    }
    bad = Check(name="bad", statistic=2.0, threshold=1e-10, passed=False, details="1 case")
    # the verify command prints one line per suite result
    monkeypatch.setattr(wienerlab.cli, "run_suites", lambda names: [r, bad])
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [
        "PASS demo: worst 1.500e-12 (threshold 1.0e-10; 3 cases)",
        "FAIL bad: worst 2.000e+00 (threshold 1.0e-10; 1 case)",
    ]


def test_suites_are_deterministic():
    a = run_suites(["refinement_convergence", "clark_exactness"])
    b = run_suites(["refinement_convergence", "clark_exactness"])
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


def test_nan_gap_fails_the_suite(monkeypatch):
    monkeypatch.setattr(wienerlab.suites, "check_duality", lambda K, F: math.nan)
    result = wienerlab.suites.suite_duality_pairing()
    assert not result.passed
    assert math.isnan(result.statistic)
    assert result.details == "200 random operator/field pairs"


def test_a_planted_refine_defect_fails_only_refinement_convergence(monkeypatch, capsys):
    # refine's fine coefficients scaled by 1 + 1e-9, which only m > 1
    # reads: the refinement rows are the residuals of refine's arrays, so
    # the suite's comparison with the closed form catches it, and no other
    # suite runs refine
    original = wienerlab.chaos._refined_blocks

    def planted(p, m):
        for digits, coeffs, factorials in original(p, m):
            yield digits, coeffs * (1 + 1e-9), factorials

    monkeypatch.setattr(wienerlab.clark, "_refined_blocks", planted)
    failed = [r.name for r in run_suites(suite_names()) if not r.passed]
    assert failed == ["refinement_convergence"]
    assert main(["verify", "--suite", "refinement_convergence"]) == 1
    assert capsys.readouterr().out.startswith("FAIL refinement_convergence")
