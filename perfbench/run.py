"""wienerlab benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload verify-suites --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

Each workload is a closed loop with one caller: the next pass starts when
the previous one ends.  Every measurement runs in a fresh interpreter
(``worker.py``) with BLAS pinned to one thread.

``--trace 0`` starts ``PROCESSES`` processes one after another; each
samples set-up time and the cold first pass, then times warm passes for
its share of ``--seconds``.  Pooling the warm passes of every process
spreads them over the whole run.  It prints the ``end_to_end`` metrics of
``BENCHMARK.json``.  Their times are scaled to a fixed host speed: the
host's speed drifts by up to 1.8x over tens of seconds, so each pass is
bracketed by runs of fixed reference blocks that resemble the workload's
work (``worker.Reference``), and its time is reported as its wall time
divided by how many times slower than nominal the reference ran around it.
The raw wall-time medians and the reference slowdowns are printed in the
summary line.  ``--trace 1`` starts one process that times
untraced passes for half the time, traced passes for the other half and
one traced pass under cProfile that cross-checks the call counts,
and prints the ``per_layer`` metrics.

Every pass's output is reduced to a digest, and each distinct output is
checked once, outside the timed region.  The last line of standard output
is one JSON object with ``correct``, ``attempted`` (passes run), ``failed``
(passes whose output failed an exact check or was never checked) and
``metrics``.  The line before it holds the machine and input stamp and a
summary, including statistical alarms, which are reported but do not make
a pass fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Default and held-out seed per workload.  Recheck a gain claimed on the
#: default seed on the held-out one, which was not used to develop it.
SEEDS = {
    "verify-suites": (0, 104729),
    "represent-refine": (0, 104729),
    "rotate-batteries": (20240601, 104729),
}

#: Fresh processes per end-to-end run; each gives one set-up and one cold
#: sample.
PROCESSES = 3

#: Whole-run budget; each worker gets what is left of it.
BUDGET_S = 170.0

#: BLAS and OpenMP pools are pinned to one thread in every worker.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

class BenchError(Exception):
    """The benchmark cannot run here or a worker failed."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found next to {HERE.name}/")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wienerlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def run_worker(workload, seed, mode, seconds, smoke, deadline, known=()) -> dict:
    """Run one worker process; ``known`` digests were checked by an earlier one."""
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--seconds", str(seconds), "--known", ",".join(sorted(known))]
    if smoke:
        argv.append("--smoke")
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time budget spent before the {mode} process of {workload}")
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process of {workload} ran past the time budget") from exc
    if done.returncode != 0:
        raise BenchError(f"{mode} process of {workload} failed:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def scaled(wall: float, slowdown: float) -> float:
    """``wall`` at nominal host speed, given the reference's ``slowdown``."""
    return wall / slowdown


def _metric(spec_entries, values) -> dict:
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in spec_entries}


def _check_summary(checked) -> dict:
    """Pool the checks of every distinct output of a run."""
    checks = [c for output_checks in checked.values() for c in output_checks]
    exact_failed = [name for name, ok, statistical in checks if not ok and not statistical]
    alarms = [name for name, ok, statistical in checks if not ok and statistical]
    return {
        "checks": len(checks),
        "exact_failed": exact_failed,
        "statistical_alarms": alarms,
        "fail_ratio": (len(exact_failed) + len(alarms)) / len(checks),
    }


def _pass_failures(runs, checked) -> tuple[int, int]:
    """(passes attempted, passes failed) over every process of a run.

    A pass fails when its output is not one that was checked, or when an
    exact check failed on it.
    """
    good = {
        digest
        for digest, checks in checked.items()
        if all(ok or statistical for _, ok, statistical in checks)
    }
    digests = [d for r in runs for d in r["digests"]]
    return len(digests), sum(d not in good for d in digests)


def end_to_end(spec, workload, seed, seconds, smoke, deadline):
    runs, checked = [], {}
    for _ in range(PROCESSES):
        runs.append(run_worker(workload, seed, "warm", seconds / PROCESSES, smoke, deadline, checked))
        checked.update(runs[-1]["checked"])
    setup = [scaled(r["setup_s"], r["setup_slowdown"]) for r in runs]
    cold = [scaled(r["cold_pass_s"], r["cold_slowdown"]) for r in runs]
    warm = [scaled(w, x) for r in runs for w, x in zip(r["warm_pass_s"], r["warm_slowdown"])]
    pass_s = statistics.median(warm)
    summary = _check_summary(checked)
    values = {
        "setup_s": statistics.median(setup),
        "cold_pass_s": statistics.median(cold),
        "pass_s": pass_s,
        "items_per_s": runs[0]["items_per_pass"] / pass_s,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in runs) / 1024.0,
        "check_pass_ratio": 1.0 - summary["fail_ratio"],
    }
    attempted, failed = _pass_failures(runs, checked)
    wrappers_found = sorted({w for r in runs for w in r["wrappers_found"]})
    summary.update(
        setup_samples_s=setup,
        cold_samples_s=cold,
        warm_samples_s=warm,
        wall_medians_s={
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "cold_pass_s": statistics.median(r["cold_pass_s"] for r in runs),
            "pass_s": statistics.median(w for r in runs for w in r["warm_pass_s"]),
        },
        reference_slowdown_median=statistics.median(x for r in runs for x in r["warm_slowdown"]),
        items_per_pass=runs[0]["items_per_pass"],
        wrappers_found=wrappers_found,
    )
    correct = failed == 0 and not wrappers_found
    return runs[0], summary, correct, attempted, failed, _metric(spec["end_to_end"], values)


def layer_values(run: dict) -> dict:
    """Per-layer metric values: medians over the traced passes."""
    passes = run["trace_passes"]

    def median_of(pick):
        return statistics.median(pick(p) for p in passes)

    values = {}
    span_names = {name for p in passes for name in p["self_s"]}
    for name in span_names:
        values[f"{name}.self_s"] = median_of(lambda p: p["self_s"].get(name, 0.0))
    # a layer is the module part of a span name
    for layer in {name.split(".")[0] for name in span_names}:
        values[f"{layer}.self_s"] = median_of(
            lambda p: sum(v for n, v in p["self_s"].items() if n.split(".")[0] == layer)
        )
    count_names = {name for p in passes for name in p["counts"]}
    for name in count_names:
        values[name] = median_of(lambda p: p["counts"].get(name, 0))
    for suite, wall in run["suite_wall_s"].items():
        values[f"suites.{suite}.wall_s"] = wall
    values["trace.overhead_ratio"] = statistics.median(run["traced_pass_s"]) / statistics.median(
        run["warm_pass_s"]
    )
    return values


def per_layer(spec, workload, seed, seconds, smoke, deadline):
    run = run_worker(workload, seed, "trace", seconds, smoke, deadline)
    summary = _check_summary(run["checked"])
    negative_spans = sum(p["negative_spans"] for p in run["trace_passes"])
    nested = all(p["nested_ok"] for p in run["trace_passes"])
    values = layer_values(run)
    # entries a workload never reaches read zero
    observed = {e["name"] for e in spec["per_layer"]} & set(values)
    values = {e["name"]: values.get(e["name"], 0) for e in spec["per_layer"]}
    attempted, failed = _pass_failures([run], run["checked"])
    summary.update(
        warm_passes=len(run["warm_pass_s"]),
        traced_passes=len(run["traced_pass_s"]),
        spans_per_pass=statistics.median(p["spans"] for p in run["trace_passes"]),
        negative_spans=negative_spans,
        nested_ok=nested,
        call_mismatches=run["call_mismatches"],
        not_restored=run["not_restored"],
        wrappers_found=run["wrappers_found"],
        observed=sorted(observed),
    )
    correct = (
        failed == 0
        and negative_spans == 0
        and nested
        and not run["call_mismatches"]
        and not run["not_restored"]
        and not run["wrappers_found"]
    )
    return run, summary, correct, attempted, failed, _metric(spec["per_layer"], values)


def measure(spec, workload, seed, seconds, trace, smoke=False):
    """Run one measurement; return (stamp line, result line) as dicts."""
    deadline = time.monotonic() + BUDGET_S
    measure_fn = per_layer if trace else end_to_end
    run, summary, correct, attempted, failed, metrics = measure_fn(
        spec, workload, seed, seconds, smoke, deadline
    )
    default_seed, heldout_seed = SEEDS[workload]
    stamp = {
        "workload": workload,
        "seed": seed,
        "default_seed": default_seed,
        "heldout_seed": heldout_seed,
        "trace": int(trace),
        "seconds": seconds,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "versions": run["versions"],
        "blas_threads": THREAD_ENV,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "sizes": run["sizes"],
        "reference": run["reference"],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"stamp": stamp, "summary": summary}, result


def smoke(spec) -> list[str]:
    """Run every workload once at tiny sizes, untraced then traced.

    Returns the problems found: a metric of BENCHMARK.json missing or with
    the wrong unit, an incorrect run, wrappers left installed by an untraced
    run or not restored by a traced one, or a per-layer metric that no
    workload reached.
    """
    problems = []
    observed = set()
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(SEEDS):
        problems.append(f"BENCHMARK.json workloads {names} differ from {sorted(SEEDS)}")
    for workload in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            info, result = measure(spec, workload, SEEDS[workload][0], 0, trace, smoke=True)
            label = f"{workload} trace={int(trace)}"
            print(json.dumps({"smoke": label, **info["summary"]}, sort_keys=True))
            metrics = result["metrics"]
            for entry in spec[key]:
                got = metrics.get(entry["name"])
                if got is None or got.get("unit") != entry["unit"]:
                    problems.append(f"{label}: metric {entry['name']} missing or without unit")
            if not result["correct"]:
                problems.append(f"{label}: run not correct")
            if info["summary"]["wrappers_found"]:
                problems.append(f"{label}: wrappers installed {info['summary']['wrappers_found']}")
            if trace:
                observed.update(info["summary"]["observed"])
    unreached = [
        e["name"]
        for e in spec["per_layer"]
        if e["name"] not in observed and not e["name"].startswith("suites.")
    ]
    if unreached:
        problems.append(f"per-layer metrics no workload reached: {unreached}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SEEDS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, help="warm-pass time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "wienerlab" / "__init__.py").is_file():
            raise BenchError(f"no wienerlab source under {ROOT / 'src'}")
        spec = load_spec()
        if args.smoke:
            problems = smoke(spec)
            for problem in problems:
                print(f"smoke: {problem}", file=sys.stderr)
            print("smoke:", "FAIL" if problems else "PASS")
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        seed = SEEDS[args.workload][0] if args.seed is None else args.seed
        if seed < 0:
            parser.error("--seed must be >= 0")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        info, result = measure(spec, args.workload, seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
