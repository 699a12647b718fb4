import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import open_draws, refinement_residual
import wienerlab.chaos
import wienerlab.clark
import wienerlab.cli
import wienerlab.dsl
import wienerlab.suites
from wienerlab.clark import refine_and_reconstruct
from wienerlab.cli import build_parser, main
from wienerlab.dsl import lower, parse_functional
from wienerlab.malliavin import VField
from wienerlab.randgen import random_vfield
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
    monkeypatch.setattr(wienerlab.suites, "_check_duality", lambda K, F: math.nan)
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
    assert payload["clark"] == {
        "n": 2,
        "d": 1,
        "residual_l2": 0.0,
        "integrand": [["", "1.0 1:1"]],
        "reconstruction": ["1.0 1:1 2:1"],
    }
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


def test_represent_keeps_a_tiny_functional(tmp_path, monkeypatch, capsys):
    # the representation is homogeneous: 1e-15*h2(x1) is not the zero functional
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        ["represent", "--n", "1", "--functional", "0.000000000000001*h2(x1)", "--output", "tiny"],
        capsys,
    )
    assert code == 0, err
    payload = json.loads((tmp_path / "tiny.json").read_text())
    assert payload["clark"]["residual_l2"] == 1.414213562373095e-15
    rows = [line.split(",") for line in (tmp_path / "tiny.csv").read_text().splitlines()[1:]]
    assert [int(m) for m, _ in rows] == [1, 2, 4, 8]
    for m, residual in rows:
        assert float(residual) == pytest.approx(math.sqrt(2.0 / int(m)) * 1e-15, rel=1e-12, abs=0.0)


def test_represent_residual_is_its_first_refinement_row_bit_for_bit(tmp_path, monkeypatch, capsys):
    # residual_l2 and the m = 1 row are one exact sum, rounded once to
    # ...604; a float sum of the rounded terms gave ...605 for this functional
    monkeypatch.chdir(tmp_path)
    functional = "[0.459*h3(x1), 0.746*h4(x2) + 0.165*h3(x3) + 0.849*h3(x1) + 0.318*h4(x3)*x3]"
    code, _, err = run(
        ["represent", "--n", "3", "--refine", "1,2", "--functional", functional, "--output", "e"],
        capsys,
    )
    assert code == 0, err
    residual = json.loads((tmp_path / "e.json").read_text())["clark"]["residual_l2"]
    row = (tmp_path / "e.csv").read_text().splitlines()[1]
    assert row == f"1,{residual!r}"
    exact = refinement_residual(lower(parse_functional(functional), 3), 1)
    assert residual == 6.593176017671604 == exact
    draws = open_draws(2026)
    for _ in range(300):
        v = random_vfield(draws, 1 + draws.below(5), 1 + draws.below(3), 1 + draws.below(8))
        assert wienerlab.clark.reconstruct(v).residual_l2 == wienerlab.clark.refinement_residual(v, 1)


def test_represent_reads_functional_from_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    source = tmp_path / "fn.txt"
    source.write_text("[x1, x1*x2]\n")
    code, out, _ = run(
        ["represent", "--functional", f"@{source}", "--n", "2", "--output", "vec"],
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
    code, out, err = run(["represent", "--functional", f"@{source}", "--n", "1"], capsys)
    assert out == ""
    assert_input_error(code, err, workdir, "cannot read functional file")


def test_represent_missing_functional_file_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["represent", "--functional", "@missing", "--n", "1"], capsys)
    assert out == ""
    assert_input_error(code, err, tmp_path, "cannot read functional file missing")


def test_represent_file_in_cwd_does_not_shadow_the_expression(tmp_path, monkeypatch, capsys):
    # only @path reads a file: a file named x1 leaves the expression x1 as it is
    (tmp_path / "x1").write_text("h2(x1)\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["represent", "--functional", "x1", "--n", "1", "--output", "r"], capsys)
    assert code == 0
    assert out.startswith("functional: x1\n")
    assert json.loads((tmp_path / "r.json").read_text())["functional"] == "x1"


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


def test_represent_refuses_a_product_past_the_pair_budget(tmp_path, monkeypatch, capsys):
    # with S = x1 + ... + x128, (S*S)*(S*S) pairs 8257**2 monomials; the
    # guard keeps any such product from forming, also where no budget is checked
    formed = wienerlab.dsl.hermite_product

    def guarded(p, q):
        assert len(p.packed_terms) * len(q.packed_terms) <= 10**7, "an over-budget product formed"
        return formed(p, q)

    monkeypatch.setattr(wienerlab.dsl, "hermite_product", guarded)
    monkeypatch.chdir(tmp_path)
    s = "(" + "+".join(f"x{i}" for i in range(1, 129)) + ")"
    functional = f"({s}*{s})*({s}*{s})"
    code, out, err = run(["represent", "--n", "128", "--refine", "1", "--functional", functional],
                         capsys)
    assert code == 2 and out == ""
    assert err == (
        f"error: line 1, column {functional.index('))*((') + 3}: product of 8257 and 8257 terms"
        " expands 68,178,049 monomial pairs, past the budget of 10,000,000\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("budget, expected", [(6, 0), (5, 2)])
def test_the_pair_budget_admits_a_product_at_it(tmp_path, monkeypatch, capsys, budget, expected):
    # (x1 + x2) * (x1 + x2 + x3) pairs 2 * 3 = 6 monomials
    monkeypatch.setattr(wienerlab.dsl, "PRODUCT_PAIR_BUDGET", budget)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["represent", "--n", "3", "--functional", "(x1+x2)*(x1+x2+x3)"], capsys)
    assert code == expected
    assert ("past the budget" in err) == (expected == 2)


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


@pytest.mark.parametrize("functional", ["1e200*x1", "1e200*h2(x1)", "1.5e154*x1"])
def test_represent_overflowing_moment_exits_two(tmp_path, monkeypatch, capsys, functional):
    # finite coefficients whose energy or residual overflows to inf; the
    # adapted energy of 1.5e154*x1 is 2.25e308, one term past the largest double
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["represent", "--functional", functional, "--n", "1"], capsys)
    assert code == 2
    assert err == f"error: functional {functional!r}: residual or energy overflows a float\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_represent_energy_just_below_overflow(tmp_path, monkeypatch, capsys):
    # the minimal energy 2!/2 * 1.3e154**2 is finite; the residual's sum of
    # squares is past the largest double and its root is not
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        ["represent", "--functional", "1.3e154*h2(x1)", "--n", "1", "--output", "r"], capsys
    )
    assert code == 0, err
    assert "minimal energy 1.69e+308," in out
    [row] = json.loads((tmp_path / "r.json").read_text())["energy"]
    assert row == {
        "component": 1,
        "adapted_energy": 0.0,
        "exact_energy": 1.6899999999999998e308,
        "coincide": False,
    }


def test_represent_functional_with_a_leading_minus(tmp_path, monkeypatch, capsys):
    # argparse takes a separate "-x1" for a flag; attached with "=" it is the value
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["represent", "--functional", "-x1", "--n", "1"], capsys)
    assert code == 2 and out == ""
    assert "--functional: expected one argument" in err
    code, out, err = run(["represent", "--functional=-x1", "--n", "1", "--output", "r"], capsys)
    assert code == 0, err
    assert out.startswith("functional: -x1\n")
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["clark"]["reconstruction"] == ["-1.0 1:1"]
    assert payload["energy"] == [
        {"component": 1, "adapted_energy": 1.0, "exact_energy": 1.0, "coincide": True}
    ]


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


def test_represent_checks_every_factor_against_the_dimension_cap_first(
    tmp_path, monkeypatch, capsys
):
    # m = 16 at n = 4 is within the cap; the error names the first factor past it
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        ["represent", "--n", "4", "--functional", "h8(x1)", "--refine", "16,64"], capsys
    )
    assert out == ""
    assert_input_error(
        code, err, tmp_path, "refined dimension 256 exceeds the dimension cap 128"
    )


def _refuse(*args):
    raise AssertionError("represent built a refined polynomial")


def test_represent_refinement_rows_build_no_refined_polynomial(tmp_path, monkeypatch, capsys):
    # refine(h4(x1)*h4(x2), 64) would hold C(67, 4)**2 = 5.9e11 terms; the
    # table's rows read the grouped block tables, which represent does not
    # read either
    monkeypatch.setattr(wienerlab.chaos, "refine", _refuse)
    monkeypatch.setattr(wienerlab.clark, "_block_groups", _refuse)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        ["represent", "--n", "2", "--functional", "h4(x1)*h4(x2)", "--refine", "64",
         "--output", "r"],
        capsys,
    )
    assert code == 0, err
    assert (tmp_path / "r.csv").read_text().splitlines() == ["m,residual", "64,4.2260353760942415"]


@pytest.mark.parametrize(
    "n, functional, expected",
    [
        # 2! * (1e154)**2 is one term that overflows at m = 1
        ("1", "1e154*h2(x1)", [1.4142135623730953e154, 1e154]),
        # two finite terms of 9.8e307 whose sum overflows at m = 1
        ("2", "7e153*h2(x1) + 7e153*h2(x2)", [1.4e154, math.sqrt(2) * 7e153]),
    ],
    ids=["one_term", "two_terms"],
)
def test_represent_refinement_rows_survive_an_overflowing_sum_of_squares(
    n, functional, expected, tmp_path, monkeypatch, capsys
):
    # the rows are the finite roots of exact sums, not inf or an error
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        ["represent", "--n", n, "--functional", functional, "--refine", "1,2",
         "--output", "r"],
        capsys,
    )
    assert code == 0, err
    rows = [line.split(",") for line in (tmp_path / "r.csv").read_text().splitlines()[1:]]
    assert [m for m, _ in rows] == ["1", "2"]
    v = lower(parse_functional(functional), int(n))
    for (m, got), want in zip(rows, expected):
        assert math.isfinite(float(got))
        assert float(got) == pytest.approx(want, rel=1e-12)
        assert float(got) == refinement_residual(VField((v,)), int(m))


def _functional_text(v: VField) -> str:
    """Expression-language text of v, one ``c*h<k>(x<i>)*...`` product per term."""

    def term(key, c):
        return "*".join([repr(c), *(f"h{key.count(i)}(x{i})" for i in dict.fromkeys(key))])

    items = [" + ".join(term(key, c) for key, c in p.packed_terms.items()) for p in v.components]
    return "[" + ", ".join(items) + "]"


def test_represent_rows_match_the_refined_pipeline(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    draws = open_draws(2101)
    factors = list(range(1, 9))
    for _ in range(6):
        n = 1 + draws.below(3)
        text = _functional_text(random_vfield(draws, n, 2, 4))
        code, _, err = run(
            ["represent", "--n", str(n), "--functional", text,
             "--refine", ",".join(map(str, factors)), "--output", "r"],
            capsys,
        )
        assert code == 0, err
        rows = [line.split(",") for line in (tmp_path / "r.csv").read_text().splitlines()[1:]]
        expected = refine_and_reconstruct(lower(parse_functional(text), n), factors)
        assert [int(m) for m, _ in rows] == factors
        for (_, got), (_, residual) in zip(rows, expected):
            assert abs(float(got) - residual) <= 1e-12 * residual


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
        (["rotate", "--n", "129"], "n must be in [1, 128], got 129"),
        (["rotate", "--n", "200", "--construction", "zero"], "n must be in [1, 128], got 200"),
        (["represent", "--n", "129"], "n must be in [1, 128], got 129"),
        # the batteries' variances and covariances need two samples
        (["rotate", "--n-samples", "1"], "n_samples must be >= 2, got 1"),
    ],
    ids=[
        "seed_not_integer",
        "n_infinite",
        "suites_empty",
        "n_fractional",
        "rotate_n_past_cap",
        "rotate_zero_n_past_cap",
        "represent_n_past_cap",
        "rotate_one_sample",
    ],
)
def test_flag_values_are_checked(tmp_path, monkeypatch, capsys, argv, expected):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv + ["--output", "r.json"], capsys)
    assert out == ""
    assert err == f"error: {expected}\n"
    assert_input_error(code, err, tmp_path, expected)


@pytest.mark.parametrize("command", ["rotate", "represent"])
def test_n_at_the_dimension_cap_is_accepted(command):
    assert build_parser().parse_args([command, "--n", "128"]).n == 128


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
    assert "n must be in [1, 128], got 0" in err


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


@pytest.mark.parametrize(
    "n, N, admitted",
    [(1, 2**22, True), (1, 2**22 + 1, False), (2, 2**22 + 1, False), (2, 2**24, False),
     (8, 2**22, True), (8, 2**22 + 1, False), (16, 2**21, True), (16, 2**21 + 1, False)],
)
def test_rotate_budget_counts_at_least_eight_values_a_sample(tmp_path, monkeypatch, capsys, n, N, admitted):
    # below n = 8 the batteries' vectors of N values weigh as much as the
    # rotated block, so a sample counts as max(n, 8) float64 values: n = 2
    # with 2**24 samples held about 1 GiB against the 256 MiB budget.  An
    # admitted request stops at the construction, before any sampling
    def stop(*args):
        raise wienerlab.cli.UsageError("admitted")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(wienerlab.cli, "build_sequential_isometry", stop)
    code, out, err = run(["rotate", "--n", str(n), "--n-samples", str(N), "--output", "r.json"], capsys)
    assert out == ""
    assert_input_error(code, err, tmp_path, "admitted" if admitted else "block budget")


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


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "wienerlab", "--version"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    version = f"wienerlab {wienerlab.__version__}\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, version, "")


def test_internal_error_exit_code(monkeypatch, capsys):
    def explode(names=None):
        raise RuntimeError("contrived")

    monkeypatch.setattr("wienerlab.cli.run_suites", explode)
    code, _, err = run(["verify"], capsys)
    assert code == 3
    assert "contrived" in err
