import json
import math

import pytest

import wienerlab.suites
from wienerlab.suites import SuiteResult, run_suites, suite_names


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


def test_suite_result_line_and_json():
    r = SuiteResult(
        name="demo", passed=True, statistic=1.5e-12, threshold=1e-10, details="3 cases"
    )
    assert r.line() == "PASS demo: worst 1.500e-12 (threshold 1.0e-10; 3 cases)"
    assert json.loads(json.dumps(r.to_json_dict())) == {
        "name": "demo",
        "passed": True,
        "statistic": 1.5e-12,
        "threshold": 1e-10,
        "details": "3 cases",
    }
    bad = SuiteResult(
        name="demo", passed=False, statistic=2.0, threshold=1e-10, details="1 case"
    )
    assert bad.line().startswith("FAIL demo")


def test_suites_are_deterministic():
    a = run_suites(["refinement_convergence", "clark_exactness"])
    b = run_suites(["refinement_convergence", "clark_exactness"])
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


def test_nan_gap_fails_the_suite(monkeypatch):
    monkeypatch.setattr(wienerlab.suites, "check_duality", lambda K, F: math.nan)
    result = wienerlab.suites.suite_duality_pairing()
    assert not result.passed
    assert math.isnan(result.statistic)
    assert result.line().startswith("FAIL duality_pairing: worst nan")
