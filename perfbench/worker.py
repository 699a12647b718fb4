"""One benchmark process: set up a workload, run its passes, report JSON.

``run.py`` starts this script in a fresh interpreter for each measurement
and reads the JSON object it prints as its last line.  Modes:

* ``warm``: set up, cold pass, output checks, then warm passes for the
  given seconds (at least one); the set-up is followed, and each pass
  bracketed, by runs of the host-speed reference (``Reference``);
* ``trace``: as ``warm`` with half the time untraced and half traced (at
  least ``MIN_TRACE_PASSES`` each), then one traced pass under
  ``cProfile`` to cross-check call counts.

The clock starts before ``wienerlab`` (and so numpy and scipy) is imported,
so set-up time covers the import plus building the inputs from the seed.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Share of a full reference run that warms the reference up, untimed.
REF_WARMUP_SHARE = 0.02

#: Fewest untraced and traced passes a trace measurement takes, so that
#: its per-layer medians and overhead ratio rest on more than one pass.
MIN_TRACE_PASSES = 3


class Outputs:
    """Digest of every pass's output; each distinct output is checked once.

    Outputs whose digest is in ``known`` were checked by an earlier process
    of the same run and are not checked again.
    """

    def __init__(self, wl, known=()):
        self.wl = wl
        self.known = set(known)
        self.digests: list[str] = []
        self.checked: dict[str, list] = {}
        self.items_per_pass = None

    def record(self, out, check: bool) -> None:
        digest = self.wl.digest(out)
        self.digests.append(digest)
        if check and digest not in self.checked and digest not in self.known:
            checks, items = self.wl.check(out)
            self.checked[digest] = [[c.name, bool(c.ok), c.statistical] for c in checks]
            if self.items_per_pass is None:
                self.items_per_pass = items


class Reference:
    """Fixed blocks of work outside wienerlab that gauge the host's speed.

    On a shared host the speed of the same code drifts by up to 1.8x over
    tens of seconds, and not by the same factor for every kind of work.
    Each workload names the blocks that resemble its own work
    (``REFERENCE``); running them right before and after a pass tells how
    fast the host ran that kind of work during the pass, so ``run.py`` can
    scale the pass's wall time to a fixed host speed.  The blocks allocate
    their arrays per run, between passes, so that they stay below the
    workload's peak memory.
    """

    #: Seconds each block takes on the nominal host (about its median on
    #: the 2-vCPU host of ``BASELINE.md``).
    NOMINAL_S = {"objects": 0.2, "arrays": 0.17}

    def __init__(self, blocks):
        import numpy as np

        self.np = np
        self.blocks = tuple(blocks)
        self.nominal_s = sum(self.NOMINAL_S[name] for name in self.blocks)
        # a short untimed run pays the one-off costs of the first call
        self._run(REF_WARMUP_SHARE)

    def __call__(self) -> float:
        """How many times slower than nominal one run of the blocks was."""
        start = perf_counter()
        self._run(1)
        return (perf_counter() - start) / self.nominal_s

    def _run(self, share):
        for name in self.blocks:
            getattr(self, f"_{name}")(share)

    def _objects(self, share):
        """Dict updates keyed by small tuples and numpy calls on small arrays,
        the kind of work of the chaos algebra."""
        np = self.np
        table = {}
        for i in range(int(400_000 * share)):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0.0) + i * 0.5
        x = np.random.default_rng(0).standard_normal((25_000, 8))
        for _ in range(int(160 * share)):
            np.einsum("si,si->s", x, x).sum()
            np.sort(x[:, 0]).sum()

    def _arrays(self, share):
        """Batched 8x8 matrix-vector products on a 12.8 MB stack and a
        200 000-element sort, the kind of work of the rotation batteries."""
        np = self.np
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((25_000, 8, 8))
        vectors = rng.standard_normal((25_000, 8))
        values = rng.standard_normal(200_000)
        for _ in range(int(24 * share)):
            np.einsum("sij,sj->si", stack, vectors).sum()
            np.sort(values).sum()


def _passes(run, outputs, seconds, min_passes, on_pass=None, reference=None):
    """Run passes until ``seconds`` have gone and ``min_passes`` are done.

    Outputs are recorded and checked after each pass's clock has stopped.
    Returns the pass wall times and, with a ``reference``, the mean
    slowdown of the two reference runs that bracket each pass.
    """
    walls, slowdowns = [], []
    before = reference() if reference is not None else None
    started = perf_counter()
    while len(walls) < min_passes or perf_counter() - started < seconds:
        start = perf_counter()
        out = run()
        end = perf_counter()
        walls.append(end - start)
        if reference is not None:
            after = reference()
            slowdowns.append((before + after) / 2)
            before = after
        if on_pass is not None:
            on_pass(start, end)
        outputs.record(out, check=True)
    return walls, slowdowns


def measure(args, workdir) -> dict:
    import numpy
    import scipy
    import workloads

    wl = workloads.build(args.workload, args.seed, args.smoke, workdir)
    result = {
        "setup_s": perf_counter() - T0,
        "sizes": wl.sizes(),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    reference = Reference(wl.REFERENCE)
    result["reference"] = {"blocks": list(reference.blocks), "nominal_s": reference.nominal_s}
    before = reference()
    outputs = Outputs(wl, args.known.split(",") if args.known else ())
    start = perf_counter()
    out = wl.run()
    result["cold_pass_s"] = perf_counter() - start
    after = reference()
    # set-up is gauged by the reference run that follows it
    result["setup_slowdown"] = before
    result["cold_slowdown"] = (before + after) / 2
    outputs.record(out, check=True)
    tracing_run = args.mode == "trace"
    seconds = args.seconds / 2 if tracing_run else args.seconds
    min_passes = MIN_TRACE_PASSES if tracing_run else 1
    laps = []

    def keep_laps(start, end):
        laps.append(dict(getattr(wl, "laps", {})))

    # per-layer metrics are raw wall times, so trace runs skip the reference
    result["warm_pass_s"], result["warm_slowdown"] = _passes(
        wl.run, outputs, seconds, min_passes, keep_laps, None if tracing_run else reference
    )
    result["suite_wall_s"] = {
        name: statistics.median(lap[name] for lap in laps) for name in laps[0]
    }
    if tracing_run:
        result.update(_traced(wl, outputs, seconds))
    import tracing

    result["wrappers_found"] = tracing.find_wrappers()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["items_per_pass"] = outputs.items_per_pass
    result["digests"] = outputs.digests
    result["checked"] = outputs.checked
    return result


def _traced(wl, outputs, seconds) -> dict:
    import cProfile

    import tracing

    tracer = tracing.Tracer()
    passes = []

    def run():
        tracer.begin_pass(len(passes) + 1)
        return wl.run()

    def on_pass(start, end):
        passes.append(tracer.end_pass(start, end))

    tracer.install()
    try:
        walls, _ = _passes(run, outputs, seconds, MIN_TRACE_PASSES, on_pass)
        # one more traced pass, under cProfile, for the call-count check
        profiler = cProfile.Profile()
        tracer.begin_pass(0)
        start = perf_counter()
        profiler.enable()
        try:
            out = wl.run()
        finally:
            profiler.disable()
        profiled = tracer.end_pass(start, perf_counter())
        outputs.record(out, check=True)
    finally:
        not_restored = tracer.uninstall()
    profiler.create_stats()
    return {
        "traced_pass_s": walls,
        "trace_passes": passes,
        "call_mismatches": tracer.call_mismatches(profiler.stats, profiled["counts"]),
        "not_restored": not_restored,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("warm", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--known", default="", help="comma-separated digests already checked")
    args = parser.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix=".perfbench_tmp_", dir=ROOT)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
