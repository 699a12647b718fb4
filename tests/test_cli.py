import json
import math

import pytest

import wienerlab.suites
from wienerlab.cli import main
from wienerlab.space import Check


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
        return Check(name="broken", statistic=1.0, threshold=0.0, passed=False, details="stub")

    broken_suite.__name__ = "suite_broken"
    monkeypatch.setattr(wienerlab.suites, "ALL_SUITES", (broken_suite,))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["verify"], capsys)
    assert code == 1
    assert "FAIL broken: worst 1.000e+00 (threshold 0.0e+00; stub)" in out
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


def assert_input_error(code, err, tmp_path, expected):
    # exit 2, one error line, no traceback, and nothing written
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert expected in err
    assert list(tmp_path.iterdir()) == []


def test_verify_empty_suite_list_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["verify", "--suite", ","], capsys)
    assert out == ""
    assert_input_error(code, err, tmp_path, "at least one suite")


def test_verify_unwritable_output_exits_two(tmp_path, monkeypatch, capsys):
    # the report is written before any suite line is printed
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "missing" / "r.json"
    code, out, err = run(
        ["verify", "--suite", "structure_constants", "--output", str(missing)], capsys
    )
    assert out == ""
    assert_input_error(code, err, tmp_path, "cannot write report")


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


def test_represent_undecodable_functional_file_exits_two(tmp_path, monkeypatch, capsys):
    source = tmp_path / "fn.txt"
    source.write_bytes(b"\xff\xfe x1")
    workdir = tmp_path / "run"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code, out, err = run(["represent", "--functional", str(source), "--n", "1"], capsys)
    assert out == ""
    assert_input_error(code, err, workdir, "cannot read functional file")


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


def test_represent_deeply_nested_functional(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    nested = "(" * 400 + "x1" + ")" * 400
    code, out, _ = run(["represent", "--functional", nested, "--n", "1"], capsys)
    assert code == 0
    assert "residual_l2 = 0\n" in out
    # at the same depth, a group left open is an input error at its opener
    code, out, err = run(["represent", "--functional", nested[:-1], "--n", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: line 1, column 1: unclosed '('") and "Traceback" not in err


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


@pytest.mark.parametrize("functional", ["1e200*x1", "1e200*h2(x1)"])
def test_represent_overflowing_moment_exits_two(tmp_path, monkeypatch, capsys, functional):
    # finite coefficients whose energy or residual overflows to inf
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["represent", "--functional", functional, "--n", "1"], capsys)
    assert code == 2
    assert err == f"error: functional {functional!r}: residual or energy overflows a float\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_represent_bad_refine_list(capsys):
    code, _, err = run(
        ["represent", "--functional", "x1", "--n", "1", "--refine", "2,zero"], capsys
    )
    assert code == 2
    assert "refinement factors" in err


def test_represent_refinement_past_dimension_cap_exits_two(tmp_path, monkeypatch, capsys):
    # n = 4 refined by 64 is dimension 256, over DIM_CAP = 128
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        ["represent", "--n", "4", "--functional", "x1*x2", "--refine", "64"], capsys
    )
    assert out == ""
    assert_input_error(code, err, tmp_path, "dimension cap")


def test_represent_unwritable_output_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    prefix = tmp_path / "missing" / "r"
    code, out, err = run(
        ["represent", "--n", "2", "--functional", "x1*x2", "--output", str(prefix)], capsys
    )
    assert out == ""  # the reports are written before the table is printed
    assert_input_error(code, err, tmp_path, "cannot write report")


def test_represent_failed_csv_leaves_no_json(tmp_path, monkeypatch, capsys):
    # r.csv is a directory, so its rename fails after r.json could be renamed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.csv").mkdir()
    code, out, err = run(
        ["represent", "--n", "2", "--functional", "x1*x2", "--output", "r"], capsys
    )
    assert code == 2
    assert out == ""
    assert "cannot write report r.csv" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
    assert list((tmp_path / "r.csv").iterdir()) == []


# ------------------------------------------------------------------ flags


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["rotate", "--seed", "seven"], "seed must be an integer, got 'seven'"),
        (["rotate", "--n", "inf"], "n must be an integer, got 'inf'"),
        (["verify", "--suite", ","], "suites must name at least one suite, got ','"),
        (["represent", "--n", "2.5"], "n must be an integer, got '2.5'"),
    ],
    ids=["seed_not_integer", "n_infinite", "suites_empty", "n_fractional"],
)
def test_flag_values_are_checked(tmp_path, monkeypatch, capsys, argv, expected):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv + ["--output", "r.json"], capsys)
    assert out == ""
    assert err == f"error: {expected}\n"
    assert_input_error(code, err, tmp_path, expected)


def test_config_option_is_unrecognized(tmp_path, monkeypatch, capsys):
    # every setting has one source, its flag
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").write_text("{}")
    code, out, err = run(["verify", "--config", "x.json"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: unrecognized arguments: --config x.json\n")
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


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


_ROTATE_NAMES_N1 = [
    "pathwise_isometry",
    "strict_past_measurability",
    "output_law_ks",
    "output_law_mean",
    "output_law_variance",
    "output_law_skewness",
    "output_law_excess_kurtosis",
    "measure_covariance_identity",
    "measure_ks_coordinate_1",
]

_ROTATE_NAMES_N3 = [
    *_ROTATE_NAMES_N1[:7],
    "independence_correlation",
    *(
        f"independence_factorization_{f}_{g}"
        for f in ("x", "x2m1", "sign")
        for g in ("x", "x2m1", "sign")
    ),
    "measure_covariance_identity",
    "measure_ks_coordinate_1",
    "measure_ks_coordinate_2",
    "measure_ks_coordinate_3",
    "measure_independence_pair_1_2",
    "measure_independence_pair_1_3",
    "measure_independence_pair_2_3",
]


def test_report_records_have_exact_keys(tmp_path, monkeypatch, capsys):
    # the two report writers: verify results[] and rotate tests[], key for key
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        ["verify", "--suite", "structure_constants,number_operator", "--output", "v.json"],
        capsys,
    )
    assert code == 0
    results = json.loads((tmp_path / "v.json").read_text())["results"]
    assert len(results) == 2
    for r in results:
        assert set(r) == {"name", "passed", "statistic", "threshold", "details"}
    for n, expected in ((1, _ROTATE_NAMES_N1), (3, _ROTATE_NAMES_N3)):
        argv = ["rotate", "--n", str(n), "--n-samples", "20000", "--output", "r.json"]
        code, _, _ = run(argv, capsys)
        assert code == 0
        tests = json.loads((tmp_path / "r.json").read_text())["tests"]
        assert [t["name"] for t in tests] == expected
        for t in tests:
            assert set(t) == {"name", "statistic", "threshold", "pass"}


def test_rotate_unknown_construction(capsys):
    code, _, err = run(["rotate", "--n", "3", "--construction", "spin"], capsys)
    assert code == 2
    assert "unknown construction" in err


def test_rotate_rejects_bad_dimension(capsys):
    code, _, err = run(["rotate", "--n", "0"], capsys)
    assert code == 2
    assert "n must be >= 1" in err


# rotate samples with seed + 7 up to seed + 17, and sampling seeds are < 2**64
@pytest.mark.parametrize("seed", [-1, 2**64 - 17], ids=["negative", "derived_past_2_64"])
def test_rotate_seed_out_of_range_exits_two(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        ["rotate", "--n", "2", "--n-samples", "100", "--seed", str(seed), "--output", "r.json"],
        capsys,
    )
    assert out == ""
    assert_input_error(code, err, tmp_path, "seed must be in")


def test_rotate_unwritable_output_exits_two(tmp_path, monkeypatch, capsys):
    # the report is written before any battery line is printed
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "missing" / "r.json"
    code, out, err = run(
        ["rotate", "--n", "2", "--n-samples", "1000", "--output", str(missing)], capsys
    )
    assert out == ""
    assert_input_error(code, err, tmp_path, "cannot write report")


def test_rotate_working_set_past_budget_exits_two(tmp_path, monkeypatch, capsys):
    # 10**12 samples would need 8 TB per coordinate: refused before any allocation
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        ["rotate", "--n", "2", "--n-samples", "1000000000000", "--output", "r.json"], capsys
    )
    assert out == ""
    assert_input_error(code, err, tmp_path, "block budget")


def test_rotate_accepts_the_largest_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        ["rotate", "--n", "2", "--n-samples", "100", "--seed", str(2**64 - 18),
         "--output", "r.json"],
        capsys,
    )
    assert code in (0, 1), err
    assert json.loads((tmp_path / "r.json").read_text())["seed"] == 2**64 - 18


# ------------------------------------------------------------------ misc


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
