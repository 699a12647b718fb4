import json
import math
import time

import numpy as np
import pytest

import wienerlab.cli
import wienerlab.suites
from wienerlab.cli import main
from wienerlab.suites import SuiteResult


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- verify


def test_verify_subset_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        ["verify", "--suite", "structure_constants,refinement_convergence"], capsys
    )
    assert code == 0
    assert "PASS structure_constants" in out
    assert "PASS refinement_convergence" in out
    assert out.strip().endswith("verify: PASS")


def test_verify_runs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [
        "verify",
        "--suite",
        "structure_constants,number_operator",
        "--output",
        "report.json",
    ]
    code1, out1, _ = run(argv, capsys)
    blob1 = (tmp_path / "report.json").read_bytes()
    code2, out2, _ = run(argv, capsys)
    blob2 = (tmp_path / "report.json").read_bytes()
    assert code1 == code2 == 0
    assert out1 == out2
    assert blob1 == blob2
    payload = json.loads(blob1)
    assert payload["passed"] is True
    assert [r["name"] for r in payload["results"]] == [
        "structure_constants",
        "number_operator",
    ]
    assert "timestamp" not in json.dumps(payload)


def test_verify_reports_failure_with_exit_one(tmp_path, monkeypatch, capsys):
    def broken_suite():
        return SuiteResult(
            name="broken", passed=False, statistic=1.0, threshold=0.0, details="stub"
        )

    broken_suite.__name__ = "suite_broken"
    monkeypatch.setattr(wienerlab.suites, "ALL_SUITES", (broken_suite,))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["verify"], capsys)
    assert code == 1
    assert "FAIL broken" in out
    assert out.strip().endswith("verify: FAIL")


def test_verify_nan_gap_exits_one(tmp_path, monkeypatch, capsys):
    # a check that returns NaN must fail its suite, not vanish in the fold
    monkeypatch.setattr(wienerlab.suites, "check_duality", lambda K, F: math.nan)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["verify", "--suite", "duality_pairing"], capsys)
    assert code == 1
    assert "FAIL duality_pairing: worst nan" in out
    assert out.strip().endswith("verify: FAIL")


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run(["verify", "--suite", "nope"], capsys)
    assert code == 2
    assert "unknown suite" in err


# -------------------------------------------------------------- represent


def test_represent_product_functional(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        [
            "represent",
            "--functional",
            "x1*x2",
            "--n",
            "2",
            "--refine",
            "1,2",
            "--output",
            "pair",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "pair.json").read_text())
    assert payload["clark"]["residual_l2"] == 0.0
    assert payload["energy"] == [
        {
            "component": 1,
            "adapted_energy": 1.0,
            "exact_energy": 0.5,
            "coincide": False,
        }
    ]
    rows = (tmp_path / "pair.csv").read_text().splitlines()
    assert rows[0] == "m,residual"
    assert [float(r.split(",")[1]) for r in rows[1:]] == [0.0, 0.0]


def test_represent_refinement_table(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        [
            "represent",
            "--functional",
            "h2(x1)",
            "--n",
            "1",
            "--refine",
            "1,2,4,8",
            "--output",
            "he2",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "he2.json").read_text())
    table = payload["refinement"]
    assert [m for m, _ in table] == [1, 2, 4, 8]
    for (m, residual) in table:
        assert residual == pytest.approx(math.sqrt(2.0 / m), abs=1e-12)


def test_represent_reads_functional_from_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    source = tmp_path / "fn.txt"
    source.write_text("[x1, x1*x2]\n")
    code, out, _ = run(
        ["represent", "--functional", str(source), "--n", "2", "--output", "vec"],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "vec.json").read_text())
    assert payload["functional"] == "[x1, x1*x2]"
    assert len(payload["energy"]) == 2


def test_represent_syntax_error_leaves_no_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["represent", "--functional", "x1*(", "--n", "2"], capsys)
    assert code == 2
    assert "column 4" in err
    assert list(tmp_path.iterdir()) == []


def test_represent_semantic_error_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["represent", "--functional", "h9(x1)", "--n", "1"], capsys)
    assert code == 2
    assert "degree cap" in err
    assert list(tmp_path.iterdir()) == []


def test_represent_non_finite_literal_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["represent", "--functional", "1e400*x1", "--n", "1"], capsys)
    assert code == 2
    assert "column 1" in err and "finite" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_represent_overflowing_product_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["represent", "--functional", "1e200*1e200*x1", "--n", "1"], capsys)
    assert code == 2
    assert err.startswith("error:") and "non-finite" in err
    assert "Traceback" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_represent_bad_refine_list(capsys):
    code, _, err = run(
        ["represent", "--functional", "x1", "--n", "1", "--refine", "2,zero"], capsys
    )
    assert code == 2
    assert "refinement factors" in err


# ----------------------------------------------------------------- config


def test_config_file_supplies_values(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "functional": "x1*x2", "refine": [1, 2]}))
    code, out, _ = run(
        ["represent", "--config", str(cfg), "--output", "fromcfg"], capsys
    )
    assert code == 0
    assert "functional: x1*x2" in out
    assert "n = 2" in out


def test_flags_override_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "functional": "x1*x2"}))
    code, out, _ = run(
        [
            "represent",
            "--config",
            str(cfg),
            "--functional",
            "h2(x1)",
            "--output",
            "flagwins",
        ],
        capsys,
    )
    assert code == 0
    assert "functional: h2(x1)" in out
    payload = json.loads((tmp_path / "flagwins.json").read_text())
    assert payload["functional"] == "h2(x1)"


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(["verify", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config key" in err


def test_config_invalid_json_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = run(["verify", "--config", str(cfg)], capsys)
    assert code == 2
    assert "not valid JSON" in err


# ----------------------------------------------------------------- rotate


def test_rotate_runs_batteries(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [
        "rotate",
        "--n",
        "3",
        "--construction",
        "givens",
        "--n-samples",
        "20000",
        "--seed",
        "99",
        "--output",
        "rot.json",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "PASS pathwise_isometry" in out
    assert "PASS strict_past_measurability" in out
    payload = json.loads((tmp_path / "rot.json").read_text())
    assert payload["passed"] is True
    assert payload["construction"] == "givens"
    names = [t["name"] for t in payload["tests"]]
    assert any(name.startswith("output_law_") for name in names)
    assert any(name.startswith("independence_") for name in names)
    assert any(name.startswith("measure_") for name in names)

    blob1 = (tmp_path / "rot.json").read_bytes()
    code2, _, _ = run(argv, capsys)
    assert code2 == 0
    assert (tmp_path / "rot.json").read_bytes() == blob1


def test_rotate_unknown_construction(capsys):
    code, _, err = run(["rotate", "--n", "3", "--construction", "spin"], capsys)
    assert code == 2
    assert "unknown construction" in err


def test_rotate_rejects_bad_dimension(capsys):
    code, _, err = run(["rotate", "--n", "0"], capsys)
    assert code == 2
    assert "n must be >= 1" in err


# ------------------------------------------------------------------ misc


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_bench_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the rows are checked, not the timings: run each kernel once
    monkeypatch.setattr(wienerlab.cli, "_time_call", _time_once)
    code, out, _ = run(["bench", "--seed", "7", "--output", "bench.json"], capsys)
    assert code == 0
    assert "hermite_product" in out
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert set(payload["timings_ms"]) >= {"hermite_product_40x40_terms", "refine_he2_m16"}


def test_no_command_is_usage_error(capsys):
    code, _, err = run([], capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(["frobnicate"], capsys)
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert "wienerlab" in out


def test_internal_error_exit_code(monkeypatch, capsys):
    def explode(names=None):
        raise RuntimeError("contrived")

    monkeypatch.setattr("wienerlab.cli.run_suites", explode)
    code, _, err = run(["verify"], capsys)
    assert code == 3
    assert "contrived" in err
