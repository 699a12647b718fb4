"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import cProfile
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from wienerlab import chaos  # noqa: E402


def test_smoke_mode_emits_every_metric_and_leaves_no_wrappers():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "smoke: PASS"


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-suites",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no wienerlab source" in done.stderr


def test_negative_self_time_catches_a_wrong_parent():
    tracer = tracing.Tracer()
    tracer.begin_pass(1)
    # "c" lies inside "b" but is recorded as a child of "a": nesting still
    # holds, yet "a" loses the time of "c" twice
    tracer._spans.extend([("a", 0.0, 1.0, -1, 1), ("b", 0.1, 0.9, 0, 1), ("c", 0.2, 0.8, 0, 1)])
    folded = tracer.end_pass(0.0, 1.0)
    assert folded["nested_ok"]
    assert folded["negative_spans"] == 1


def test_call_count_check_catches_a_call_that_bypasses_the_wrappers():
    p = chaos.ChaosPoly.hermite(2, 1, 2)
    bypass = chaos.l2_inner
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_pass(1)
        profiler = cProfile.Profile()
        profiler.enable()
        chaos.l2_inner(p, p)
        bypass(p, p)
        profiler.disable()
        counts = tracer.end_pass(0.0, 1.0)["counts"]
    finally:
        assert tracer.uninstall() == []
    profiler.create_stats()
    assert tracer.call_mismatches(profiler.stats, counts) == {"chaos.l2_inner.calls": [1, 2]}


def test_rotation_invariants_battery_alarm_is_classed_statistical():
    # at workload seed 32 the suite fails on its gaussianity battery alone
    assert workloads._rotation_invariants_statistical(1011 + 32)
    assert not workloads._rotation_invariants_statistical(1011)


def test_every_workload_names_reference_blocks_that_exist():
    for cls in (workloads.VerifySuites, workloads.RepresentRefine, workloads.RotateBatteries):
        assert cls.REFERENCE
        assert set(cls.REFERENCE) <= set(worker.Reference.NOMINAL_S)
        reference = worker.Reference(cls.REFERENCE)
        assert reference.nominal_s == sum(worker.Reference.NOMINAL_S[b] for b in cls.REFERENCE)
        assert reference() > 0
