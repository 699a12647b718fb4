"""Command line front end.

Three subcommands: ``verify`` runs the deterministic identity suites,
``represent`` computes the adapted representation of a functional written
in the expression language, ``rotate`` builds an adapted rotation and runs
its statistical batteries.  Timings come from the benchmark harness
(``python3 perfbench/run.py --trace 1``), not from this front end.

Each setting has one source, its flag.  argparse fills a flag that is not
given with its default and converts a given one with the setting's
converter, which raises :class:`UsageError` (argparse passes it through
unwrapped), so a bad value exits 2 before any command runs.  The checks
that span two settings run first thing in their command: the ``rotate``
block budget, and the ``represent`` dimension cap on ``n * m``, which
``clark.refine_and_reconstruct`` raises at the first factor past it.
``represent`` takes its refinement table from that function, whose rows
are the closed form ``clark.refinement_residual``, once the functional is
read, and never builds a refined polynomial.  ``--n``
lies in ``[1, DIM_CAP]``, and ``represent`` reads ``--functional @path``
from the file ``path`` and takes any other value as the expression itself.

The report shapes are built here: ``represent`` writes its ``clark``
block from the values ``reconstruct`` returns, ``rotate`` one row per
battery test, and ``verify`` each suite's ``Check.to_json_dict()``.

Reports are written atomically (every temporary file first, then the
renames, so ``represent`` leaves both of its files or neither) and contain
no timestamps, so repeated runs with the same inputs produce byte-identical
output.

Exit codes: 0 all checks passed, 1 a verification or battery failed,
2 usage or input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .chaos import DIM_CAP, AlgebraError
from .clark import ClarkResult, compare_energies, reconstruct, refine_and_reconstruct
from .dsl import PRODUCT_PAIR_BUDGET, DslError, lower, parse_functional
from .malliavin import VField
from .rotations import (
    CONSTRUCTIONS,
    ISOMETRY_TOL,
    build_sequential_isometry,
    check_strict_past_measurability,
    gaussianity_battery,
    independence_battery,
    isometry_check,
    measure_preservation_battery,
)
from .space import GENERATOR_ID, check, sample_batch
from .suites import run_suites, suite_names

# rotate samples with seeds seed + 7, 11, 13 and 17, and every sampling
# seed must stay below 2**64
_SEED_MAX = 2**64 - 1 - 17

#: Largest (n_samples, max(n, 8)) float64 block ``rotate`` accepts, in
#: bytes.  The drawn samples are never built: a run holds the rotated
#: (n_samples, n) block and its batteries' vectors of n_samples values
#: each, plus each worker thread's block buffers.  The vectors weigh most
#: at small n: the traced peak at 10**6 samples is 4.00 (n_samples, n)
#: blocks at n = 1 and 2 (the gaussianity and independence batteries),
#: 2.00 at n = 4 (independence) and 1.40 at n = 8 (the measure battery).
#: So a sample counts as max(n, 8) values, at least 64 B, and a run peaks
#: at no more than about 1.4 budgets, at n = 8.  200000 samples fit at the
#: dimension cap n = 128, and a request past the budget exits 2 before
#: anything is allocated.
ROTATE_BLOCK_BUDGET = 256 * 2**20


class UsageError(Exception):
    """Bad flags or unparseable input."""


class _Parser(argparse.ArgumentParser):
    # route argparse failures through the usage exit code
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _environment_stamp() -> dict:
    return {
        "package": "wienerlab",
        "version": __version__,
        "generator_id": GENERATOR_ID,
    }


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_atomic(*reports: tuple[str, str]) -> None:
    """Write every (path, text) report or none of them.

    All temporary files are written before any is renamed into place; if a
    step fails, the reports already renamed and every temporary are removed.
    """
    temps, renamed = [], []
    try:
        for path, text in reports:
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                temps.append(tmp)
                fh.write(text)
        for path, _ in reports:
            os.replace(f"{path}.tmp", path)
            renamed.append(path)
    except OSError as exc:
        for done in renamed:
            os.unlink(done)
        raise UsageError(f"cannot write report {path}: {exc}") from exc
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _finish(args, passed: bool, payload: dict, lines: list[str]) -> int:
    """Write the report of ``verify`` or ``rotate``, then print its lines and verdict."""
    if args.output:
        stamp = {"command": args.command, "environment": _environment_stamp(), "passed": passed}
        _write_atomic((args.output, _json_text({**payload, **stamp})))
    for line in lines:
        print(line)
    if args.output:
        print(f"report written to {args.output}")
    print(f"{args.command}:", "PASS" if passed else "FAIL")
    return 0 if passed else 1


# --------------------------------------------------------------- settings


def _integer(name: str, low: int = 1, high: int | None = None):
    """Converter of an integer flag that must lie in ``[low, high]``."""

    def convert(text: str) -> int:
        try:
            out = int(text)
        except ValueError as exc:
            raise UsageError(f"{name} must be an integer, got {text!r}") from exc
        if out < low or (high is not None and out > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise UsageError(f"{name} must be {bound}, got {out}")
        return out

    return convert


def _comma_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _refine(text: str) -> tuple[int, ...]:
    try:
        factors = tuple(int(p) for p in _comma_list(text))
    except ValueError as exc:
        raise UsageError(f"refinement factors must be integers, got {text!r}") from exc
    if not factors or any(m < 1 for m in factors):
        raise UsageError("refinement factors must be a nonempty list of integers >= 1")
    return factors


def _choices(names) -> str:
    return f"{', '.join(names[:-1])}, or {names[-1]}"


def _construction(text: str) -> str:
    if text not in CONSTRUCTIONS:
        raise UsageError(f"unknown construction {text!r}; choose {_choices(CONSTRUCTIONS)}")
    return text


def _suites(text: str) -> list[str]:
    names = _comma_list(text)
    if not names:
        raise UsageError(f"suites must name at least one suite, got {text!r}")
    return names


def _read_functional(spec: str | None) -> str:
    if spec is None:
        raise UsageError("represent needs --functional <expression or @file>")
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read functional file {spec[1:]}: {exc}") from exc
    return spec.strip()


# --------------------------------------------------------------- commands


def _cmd_verify(args) -> int:
    try:
        results = run_suites(args.suites)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: worst {r.statistic:.3e}"
        f" (threshold {r.threshold:.1e}; {r.details})"
        for r in results
    ]
    payload = {"results": [r.to_json_dict() for r in results]}
    return _finish(args, all(r.passed for r in results), payload, lines)


def clark_block(v: VField, result: ClarkResult) -> dict:
    """The ``clark`` block of a ``represent`` report for ``result = reconstruct(v)``."""
    return {
        "n": v.ambient_dim,
        "d": v.d,
        "residual_l2": result.residual_l2,
        "integrand": [[p.to_text() for p in row.coords] for row in result.integrand.rows],
        "reconstruction": [p.to_text() for p in result.reconstruction.components],
    }


def _cmd_represent(args) -> int:
    source = _read_functional(args.functional)
    tree = parse_functional(source)
    try:
        # overflow, the dimension cap, a refinement past it: input errors
        lowered = lower(tree, args.n)
        v = lowered if isinstance(lowered, VField) else VField((lowered,))
        # the first factor past the dimension cap fails in refine's words,
        # before the coarse representation is built
        table = refine_and_reconstruct(v, args.refine)
        result = reconstruct(v)
    except AlgebraError as exc:
        raise UsageError(f"functional {source!r}: {exc}") from exc
    energies = [
        {"component": a, **asdict(compare_energies(p))} for a, p in enumerate(v.components, 1)
    ]
    # finite coefficients whose second moment overflows: an input error too
    moments = [result.residual_l2, *(residual for _, residual in table)]
    moments += [row[key] for row in energies for key in ("adapted_energy", "exact_energy")]
    if not all(map(math.isfinite, moments)):
        raise UsageError(f"functional {source!r}: residual or energy overflows a float")

    output = args.output or "clark_report"
    payload = {
        "command": "represent",
        "environment": _environment_stamp(),
        "functional": source,
        "clark": clark_block(v, result),
        "refinement": [[m, residual] for m, residual in table],
        "energy": energies,
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "residual"])
    for m, residual in table:
        writer.writerow([m, repr(residual)])
    # both reports are in place before anything is printed
    _write_atomic((f"{output}.json", _json_text(payload)), (f"{output}.csv", buf.getvalue()))

    print(f"functional: {source}")
    print(f"n = {args.n}, components = {v.d}")
    print(f"residual_l2 = {result.residual_l2:.12g}")
    for m, residual in table:
        print(f"  refine m={m:<3d} residual = {residual:.12g}")
    for row in energies:
        print(
            f"  component {row['component']}:"
            f" adapted energy {row['adapted_energy']:.12g},"
            f" minimal energy {row['exact_energy']:.12g},"
            f" coincide {row['coincide']}"
        )
    print(f"wrote {output}.json and {output}.csv")
    return 0


def _cmd_rotate(args) -> int:
    n, seed, N = args.n, args.seed, args.n_samples
    if N * max(n, 8) * 8 > ROTATE_BLOCK_BUDGET:
        raise UsageError(
            f"n_samples * max(n, 8) = {N * max(n, 8)} float64 values exceed the"
            f" {ROTATE_BLOCK_BUDGET // 2**20} MiB block budget of rotate"
        )
    R = build_sequential_isometry(n, seed, args.construction)

    probe = sample_batch(n, 1000, seed + 7)
    tests = [
        check("pathwise_isometry", isometry_check(R, probe), ISOMETRY_TOL),
        check("strict_past_measurability", check_strict_past_measurability(R, probe), 0.0),
    ]
    batteries = [("output_law_", gaussianity_battery(R, np.ones(n) / math.sqrt(n), N, seed + 11))]
    if n >= 2:
        e1, e2 = np.eye(n)[:2]
        batteries.append(("independence_", independence_battery(R, e1, e2, N, seed + 13)))
    batteries.append(("measure_", measure_preservation_battery(R, N, seed + 17)))
    for prefix, report in batteries:
        tests.extend(replace(t, name=prefix + t.name) for t in report.tests)

    lines = [
        f"{'PASS' if t.passed else 'FAIL'} {t.name}:"
        f" {t.statistic:.4e} (threshold {t.threshold:.4e})"
        for t in tests
    ]
    rows = [
        {"name": t.name, "statistic": t.statistic, "threshold": t.threshold, "pass": t.passed}
        for t in tests
    ]
    payload = {
        "construction": args.construction,
        "n": n,
        "n_samples": N,
        "seed": seed,
        "tests": rows,
    }
    return _finish(args, all(t.passed for t in tests), payload, lines)


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wienerlab",
        description="Exact desk-scale laboratory for adapted Malliavin calculus.",
    )
    parser.add_argument("--version", action="version", version=f"wienerlab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_verify = sub.add_parser("verify", help="run the deterministic identity suites")
    p_verify.add_argument(
        "--suite",
        dest="suites",
        action="extend",
        type=_suites,
        help=f"suite name (repeatable, comma lists ok); known: {', '.join(suite_names())}",
    )
    p_verify.add_argument("--output", help="write a JSON report here")
    p_verify.set_defaults(fn=_cmd_verify)

    n_flag = dict(type=_integer("n", 1, DIM_CAP), default=4, help=f"ambient dimension <= {DIM_CAP}")

    p_rep = sub.add_parser("represent", help="adapted representation of a functional")
    p_rep.add_argument(
        "--functional",
        help="expression text, or @path to read it from a file; attach one that starts with"
        " a minus sign as --functional=-x1; each product p*q may expand at most"
        f" {PRODUCT_PAIR_BUDGET:,} monomial pairs (terms of p times terms of q)",
    )
    p_rep.add_argument("--n", **n_flag)
    p_rep.add_argument(
        "--refine",
        type=_refine,
        default=(1, 2, 4, 8),
        help="comma list of refinement factors, e.g. 1,2,4,8, each with n * m <="
        f" {DIM_CAP}; each row is the closed-form residual after refining by m",
    )
    p_rep.add_argument("--output", help="report path prefix (writes .json and .csv)")
    p_rep.set_defaults(fn=_cmd_represent)

    p_rot = sub.add_parser("rotate", help="build an adapted rotation and test it")
    p_rot.add_argument("--n", **n_flag)
    p_rot.add_argument(
        "--construction",
        type=_construction,
        default="givens",
        help=_choices(CONSTRUCTIONS),
    )
    p_rot.add_argument(
        "--seed",
        type=_integer("seed", 0, _SEED_MAX),
        default=20240601,
        help="construction and battery seed",
    )
    p_rot.add_argument(
        "--n-samples",
        dest="n_samples",
        type=_integer("n_samples", 2),
        default=200_000,
        help="battery sample count, at least 2",
    )
    p_rot.add_argument("--output", help="write a JSON report here")
    p_rot.set_defaults(fn=_cmd_rotate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "fn", None) is None:
            raise UsageError(parser.format_usage().rstrip())
        return args.fn(args)
    except (UsageError, DslError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    except BrokenPipeError:
        return 0
    except Exception:
        traceback.print_exc()
        return 3

