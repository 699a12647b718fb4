"""Command line front end.

Four subcommands: ``verify`` runs the deterministic identity suites,
``represent`` computes the adapted representation of a functional written
in the expression language, ``rotate`` builds an adapted rotation and runs
its statistical batteries, ``bench`` times the algebra kernels.

Configuration can come from a JSON file via ``--config``; explicit flags
always win over file values.  Reports are written atomically (to a
temporary file, then renamed) and contain no timestamps, so repeated runs
with the same inputs produce byte-identical output.

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
import time
import traceback

import numpy as np

from . import __version__
from .chaos import AlgebraError, ChaosPoly, hermite_product, refine
from .clark import compare_energies, reconstruct, refine_and_reconstruct
from .dsl import DslError, lower, parse_functional
from .malliavin import VField, divergence_h, gradient_scalar
from .randgen import make_rng, random_poly
from .rotations import (
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

DEFAULTS = {
    "n": 4,
    "seed": 20240601,
    "n_samples": 200_000,
    "refine": (1, 2, 4, 8),
    "construction": "givens",
}

CONFIG_KEYS = {
    "n",
    "seed",
    "n_samples",
    "refine",
    "construction",
    "functional",
    "suites",
    "output",
}


class UsageError(Exception):
    """Bad flags, bad config, or unparseable input."""


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


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - CONFIG_KEYS)
    if unknown:
        raise UsageError(
            f"unknown config key(s) {', '.join(unknown)};"
            f" known: {', '.join(sorted(CONFIG_KEYS))}"
        )
    return data


def _pick(args, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return DEFAULTS.get(key, default)


def _parse_refine(value) -> tuple[int, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    else:
        parts = list(value)
    try:
        factors = tuple(int(p) for p in parts)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"refinement factors must be integers, got {value!r}") from exc
    if not factors or any(m < 1 for m in factors):
        raise UsageError("refinement factors must be a nonempty list of integers >= 1")
    return factors


def _positive_int(value, name: str) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{name} must be an integer, got {value!r}") from exc
    if out < 1:
        raise UsageError(f"{name} must be >= 1, got {out}")
    return out


def _read_functional(spec) -> str:
    if spec is None:
        raise UsageError("represent needs --functional <file or expression>")
    if isinstance(spec, str) and os.path.isfile(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return str(spec).strip()


# ----------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    wanted = args.suite if args.suite else config.get("suites")
    if wanted is not None:
        names = []
        for entry in wanted:
            names.extend(p for p in str(entry).split(",") if p)
        try:
            results = run_suites(names)
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
    else:
        results = run_suites()
    for r in results:
        print(r.line())
    passed = all(r.passed for r in results)
    output = _pick(args, config, "output")
    if output:
        payload = {
            "command": "verify",
            "environment": _environment_stamp(),
            "passed": passed,
            "results": [r.to_json_dict() for r in results],
        }
        _write_atomic(output, _json_text(payload))
        print(f"report written to {output}")
    print("verify:", "PASS" if passed else "FAIL")
    return 0 if passed else 1


# -------------------------------------------------------------- represent


def _cmd_represent(args) -> int:
    config = _load_config(args.config)
    n = _positive_int(_pick(args, config, "n"), "n")
    factors = _parse_refine(_pick(args, config, "refine"))
    source = _read_functional(_pick(args, config, "functional"))
    tree = parse_functional(source)
    try:
        lowered = lower(tree, n)
    except AlgebraError as exc:
        # e.g. a product of finite literals that overflows: an input error
        raise UsageError(f"functional {source!r}: {exc}") from exc
    v = lowered if isinstance(lowered, VField) else VField((lowered,))

    result = reconstruct(v)
    table = refine_and_reconstruct(v, factors)
    energies = []
    for a in range(1, v.d + 1):
        comp = compare_energies(v.component(a))
        energies.append(
            {
                "component": a,
                "adapted_energy": comp.adapted_energy,
                "exact_energy": comp.exact_energy,
                "coincide": comp.coincide,
            }
        )

    print(f"functional: {source}")
    print(f"n = {n}, components = {v.d}")
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

    output = _pick(args, config, "output") or "clark_report"
    payload = {
        "command": "represent",
        "environment": _environment_stamp(),
        "functional": source,
        "clark": result.to_json_dict(),
        "refinement": [[m, residual] for m, residual in table],
        "energy": energies,
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "residual"])
    for m, residual in table:
        writer.writerow([m, repr(residual)])
    _write_atomic(f"{output}.json", _json_text(payload))
    _write_atomic(f"{output}.csv", buf.getvalue())
    print(f"wrote {output}.json and {output}.csv")
    return 0


# ----------------------------------------------------------------- rotate


def _cmd_rotate(args) -> int:
    config = _load_config(args.config)
    n = _positive_int(_pick(args, config, "n"), "n")
    seed = int(_pick(args, config, "seed"))
    N = _positive_int(_pick(args, config, "n_samples"), "n_samples")
    construction = str(_pick(args, config, "construction"))
    if construction not in ("zero", "sign", "givens", "constant"):
        raise UsageError(
            f"unknown construction {construction!r};"
            " choose zero, sign, givens, or constant"
        )
    spec = {"kind": "constant"} if construction == "constant" else construction
    R = build_sequential_isometry(n, seed, spec)

    probe = sample_batch(n, 1000, seed + 7)
    tests = [
        check("pathwise_isometry", isometry_check(R, probe), ISOMETRY_TOL),
        check("strict_past_measurability", check_strict_past_measurability(R, probe), 0.0),
    ]
    h = np.ones(n) / math.sqrt(n)
    for t in gaussianity_battery(R, h, N, seed + 11).tests:
        tests.append({**t, "name": f"output_law_{t['name']}"})
    if n >= 2:
        e1 = np.eye(n)[0]
        e2 = np.eye(n)[1]
        for t in independence_battery(R, e1, e2, N, seed + 13).tests:
            tests.append({**t, "name": f"independence_{t['name']}"})
    for t in measure_preservation_battery(R, N, seed + 17).tests:
        tests.append({**t, "name": f"measure_{t['name']}"})

    passed = all(t["pass"] for t in tests)
    for t in tests:
        status = "PASS" if t["pass"] else "FAIL"
        print(f"{status} {t['name']}: {t['statistic']:.4e} (threshold {t['threshold']:.4e})")
    output = _pick(args, config, "output")
    if output:
        payload = {
            "command": "rotate",
            "construction": construction,
            "environment": _environment_stamp(),
            "n": n,
            "n_samples": N,
            "passed": passed,
            "seed": seed,
            "tests": tests,
        }
        _write_atomic(output, _json_text(payload))
        print(f"report written to {output}")
    print("rotate:", "PASS" if passed else "FAIL")
    return 0 if passed else 1


# ------------------------------------------------------------------ bench


def _time_call(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _cmd_bench(args) -> int:
    config = _load_config(args.config)
    seed = int(_pick(args, config, "seed"))
    rng = make_rng(seed)
    rows = []

    p = random_poly(rng, 8, 4, n_terms=40)
    q = random_poly(rng, 8, 4, n_terms=40)
    rows.append(("hermite_product_40x40_terms", _time_call(lambda: hermite_product(p, q))))

    he2 = ChaosPoly.hermite(2, 1, 2) + ChaosPoly.hermite(2, 2, 2)
    rows.append(("refine_he2_m16", _time_call(lambda: refine(he2, 16))))

    big = random_poly(rng, 16, 4, n_terms=60)
    rows.append(("gradient_divergence_n16", _time_call(lambda: divergence_h(gradient_scalar(big)))))

    batch = sample_batch(8, 200_000, seed)
    rows.append(("sample_batch_200k_n8", _time_call(lambda: sample_batch(8, 200_000, seed))))
    R = build_sequential_isometry(8, seed, "givens")
    rows.append(("rotation_apply_200k_n8", _time_call(lambda: R.apply_batch(batch.draws))))

    for name, seconds in rows:
        print(f"{name:<32s} {seconds * 1e3:10.3f} ms")
    output = _pick(args, config, "output")
    if output:
        payload = {
            "command": "bench",
            "environment": _environment_stamp(),
            "timings_ms": {name: seconds * 1e3 for name, seconds in rows},
        }
        _write_atomic(output, _json_text(payload))
        print(f"report written to {output}")
    return 0


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wienerlab",
        description="Exact desk-scale laboratory for adapted Malliavin calculus.",
    )
    parser.add_argument("--version", action="version", version=f"wienerlab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_verify = sub.add_parser("verify", help="run the deterministic identity suites")
    p_verify.add_argument("--config", help="JSON config file; flags win over it")
    p_verify.add_argument(
        "--suite",
        action="append",
        help=f"suite name (repeatable, comma lists ok); known: {', '.join(suite_names())}",
    )
    p_verify.add_argument("--output", help="write a JSON report here")
    p_verify.set_defaults(fn=_cmd_verify)

    p_rep = sub.add_parser("represent", help="adapted representation of a functional")
    p_rep.add_argument("--config", help="JSON config file; flags win over it")
    p_rep.add_argument("--functional", help="expression text or a file holding one")
    p_rep.add_argument("--n", type=int, help="ambient dimension")
    p_rep.add_argument("--refine", help="comma list of refinement factors, e.g. 1,2,4,8")
    p_rep.add_argument("--output", help="report path prefix (writes .json and .csv)")
    p_rep.set_defaults(fn=_cmd_represent)

    p_rot = sub.add_parser("rotate", help="build an adapted rotation and test it")
    p_rot.add_argument("--config", help="JSON config file; flags win over it")
    p_rot.add_argument("--n", type=int, help="ambient dimension")
    p_rot.add_argument(
        "--construction",
        help="zero, sign, givens, or constant",
    )
    p_rot.add_argument("--seed", type=int, help="construction and battery seed")
    p_rot.add_argument("--n-samples", dest="n_samples", type=int, help="battery sample count")
    p_rot.add_argument("--output", help="write a JSON report here")
    p_rot.set_defaults(fn=_cmd_rotate)

    p_bench = sub.add_parser("bench", help="time the algebra kernels")
    p_bench.add_argument("--config", help="JSON config file; flags win over it")
    p_bench.add_argument("--seed", type=int, help="instance seed")
    p_bench.add_argument("--output", help="write a JSON report here")
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "fn", None) is None:
            raise UsageError(parser.format_usage().rstrip())
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DslError as exc:
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


if __name__ == "__main__":
    sys.exit(main())
