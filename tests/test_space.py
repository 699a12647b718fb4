"""Discretized space: reproducible sampling, Monte Carlo, check verdicts."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from helpers import THREADED_SIZES, ks_full_statistic, with_workers
from wienerlab import space
from wienerlab._kstwo import ndtr
from wienerlab.chaos import ChaosPoly, _pairs_of, evaluate_batch, expectation
from wienerlab.cli import ROTATE_BLOCK_BUDGET
from wienerlab.space import (
    BLOCK_ROWS,
    Check,
    check,
    ks_critical,
    ks_normal,
    mc_estimate,
    moment_normality,
    sample_batch,
)


def test_sample_batch_reproducible():
    a = sample_batch(3, 1000, seed=42)
    b = sample_batch(3, 1000, seed=42)
    assert np.array_equal(a.draws, b.draws)
    c = sample_batch(3, 1000, seed=43)
    assert not np.array_equal(a.draws, c.draws)


def _vstack_reference(n, n_samples, seed):
    # one standard_normal((rows, n)) array per block, stacked
    blocks = []
    for start in range(0, n_samples, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, n_samples - start)
        key = np.array([seed, start // BLOCK_ROWS], dtype=np.uint64)
        blocks.append(np.random.Generator(np.random.Philox(key=key)).standard_normal((rows, n)))
    return np.vstack(blocks)


@pytest.mark.parametrize("n_samples", [1, BLOCK_ROWS - 5, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 17])
def test_sample_batch_bits_equal_the_stacked_blocks(n_samples):
    for n, seed in [(1, 0), (3, 2**64 - 1), (8, 7)]:
        draws = sample_batch(n, n_samples, seed).draws
        want = _vstack_reference(n, n_samples, seed)
        assert draws.shape == want.shape == (n_samples, n)
        assert draws.tobytes() == want.tobytes()
        assert not draws.flags.writeable


def test_sample_batch_block_substreams():
    # a prefix of a longer run equals a shorter run: parallel == serial
    long = sample_batch(2, BLOCK_ROWS + 17, seed=7)
    short = sample_batch(2, BLOCK_ROWS, seed=7)
    assert np.array_equal(long.draws[:BLOCK_ROWS], short.draws)
    with pytest.raises(ValueError):
        sample_batch(0, 10, seed=1)
    with pytest.raises(ValueError):
        sample_batch(2, 0, seed=1)
    with pytest.raises(ValueError):
        sample_batch(2, 10, seed=-1)


@pytest.mark.parametrize(
    "args, what",
    [((2.5, 10, 0), "n 2.5"), ((2, 10.5, 0), "n_samples 10.5"), ((2, 10, 1.5), "seed 1.5"), ((2.0, 10, 0), "n 2.0")],
    ids=["n", "n_samples", "seed", "integral_float"],
)
def test_sample_batch_refuses_a_non_integer_size_or_seed(args, what):
    # nothing is truncated: 2.5 columns are not 2, and seed 1.5 is not seed 1
    with pytest.raises(ValueError, match=f"^{what} is not an integer$"):
        sample_batch(*args)


def test_sample_batch_takes_numpy_ints():
    batch = sample_batch(np.int64(2), np.int32(10), np.uint64(3))
    assert batch.draws.shape == (10, 2)
    assert np.array_equal(batch.draws, sample_batch(2, 10, 3).draws)


@pytest.mark.parametrize("n_samples", THREADED_SIZES)
def test_threaded_sample_batch_equals_one_worker(monkeypatch, n_samples):
    one = with_workers(monkeypatch, 1, lambda: sample_batch(3, n_samples, 11).draws)
    for count in (2, None):
        draws = with_workers(monkeypatch, count, lambda: sample_batch(3, n_samples, 11).draws)
        assert draws.tobytes() == one.tobytes()


@pytest.mark.parametrize("count", [1, 2, None])
def test_block_runner_raises_the_first_failed_block_and_joins_its_threads(monkeypatch, count):
    before = threading.active_count()
    caller = threading.get_ident()
    made, done = [], []

    def make_work():
        made.append(threading.get_ident())

        def work(start):
            if start == BLOCK_ROWS:
                # over threads, block 2 fails first in time
                time.sleep(0.05)
                raise ValueError("block 1")
            if start == 2 * BLOCK_ROWS:
                raise ValueError("block 2")
            done.append(start)

        return work

    with pytest.raises(ValueError, match="block 1"):
        with_workers(monkeypatch, count, lambda: space._over_blocks(5 * BLOCK_ROWS, make_work))
    assert threading.active_count() == before
    # every work function is made on the calling thread
    assert made and set(made) == {caller}
    assert 0 in done and BLOCK_ROWS not in done

    # each block exactly once, with threads switched as often as they can be
    starts = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with_workers(monkeypatch, count, lambda: space._over_blocks(
            64 * BLOCK_ROWS + 1, lambda: starts.append))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(starts) == list(range(0, 64 * BLOCK_ROWS + 1, BLOCK_ROWS))
    assert threading.active_count() == before


@pytest.mark.parametrize("count", [2, 4])
def test_block_threads_keep_the_callers_errstate(monkeypatch, count):
    # numpy keeps its errstate in a context variable, which a new thread
    # starts without: every block must see the caller's, whichever thread
    # takes it.  Each thread holds its block until all have one, so every
    # thread takes exactly one block
    barrier = threading.Barrier(count, timeout=10)
    records = {}

    def make_work():
        def work(start):
            barrier.wait()
            records[start] = (threading.get_ident(), np.geterr())
            np.float64(1.0) / np.float64(0.0)

        return work

    with np.errstate(divide="raise", over="ignore", under="warn", invalid="print"):
        caller = np.geterr()
        with pytest.raises(FloatingPointError):
            with_workers(monkeypatch, count, lambda: space._over_blocks(count * BLOCK_ROWS, make_work))
    assert len({ident for ident, _ in records.values()}) == count
    assert [err for _, err in records.values()] == [caller] * count


def test_alongside_returns_both_results_and_keeps_the_callers_errstate():
    before = threading.active_count()
    with np.errstate(divide="raise", invalid="ignore"):
        caller = np.geterr()
        (side, side_err), main = space._alongside(
            lambda: (threading.get_ident(), np.geterr()), lambda: threading.get_ident()
        )
    assert main == threading.get_ident() != side
    assert side_err == caller
    assert threading.active_count() == before


def test_alongside_raises_and_joins_its_thread():
    before = threading.active_count()
    ran = []

    def fail(what):
        raise ValueError(what)

    # the side's exception reaches the caller
    with pytest.raises(ValueError, match="^side$"):
        space._alongside(lambda: fail("side"), lambda: ran.append("main"))
    assert ran == ["main"] and threading.active_count() == before
    # the main's comes first, as in the serial order, and the side still ran
    # to its end before the call raised
    with pytest.raises(ValueError, match="^main$"):
        space._alongside(lambda: time.sleep(0.05) or ran.append("side"), lambda: fail("main"))
    assert ran == ["main", "side"] and threading.active_count() == before
    with pytest.raises(ValueError, match="^main$"):
        space._alongside(lambda: fail("side"), lambda: fail("main"))
    assert threading.active_count() == before


def test_sample_batch_gaussian_stats():
    batch = sample_batch(4, 100_000, seed=20240812)
    n = batch.n_samples
    var_tol = 4.0 * math.sqrt(2.0 / n)
    corr_tol = 4.0 / math.sqrt(n)
    cov = np.cov(batch.draws.T)
    for i in range(4):
        assert abs(cov[i, i] - 1.0) <= var_tol
        for j in range(i + 1, 4):
            assert abs(cov[i, j]) <= corr_tol
    assert abs(batch.draws.mean()) <= 4.0 / math.sqrt(4 * n)


def test_delta_h_distribution():
    batch = sample_batch(3, 200_000, seed=99991)
    h = np.array([0.5, -1.0, 2.0])
    # the divergence of the constant field h is sum_i h_i eta_i
    vals = batch.draws @ h / np.linalg.norm(h)
    ks = ks_normal(vals)
    assert ks.passed, ks
    moments = moment_normality(vals)
    assert [c.name for c in moments] == ["mean", "variance", "skewness", "excess_kurtosis"]
    for c in moments:
        assert c.passed, c


def test_check_verdict_rule():
    assert check("demo", -0.5, 1.0) == Check("demo", -0.5, 1.0, True)
    assert check("demo", -0.5, 1.0, details="3 cases").details == "3 cases"
    assert not check("demo", 0.5, 1.0, ok=False).passed
    assert not check("demo", 1.5, 1.0).passed
    for bad in (math.nan, math.inf, -math.inf):
        assert not check("demo", bad, 1.0).passed
    assert not check("demo", 0.5, math.nan).passed
    # the strict-past certificate: exactly zero passes, anything else fails
    assert check("demo", 0.0, 0.0).passed
    assert not check("demo", 1e-300, 0.0).passed
    # numpy scalars are stored as Python floats and bools
    c = check("demo", np.float64(0.25), np.float32(0.5))
    assert type(c.statistic) is float and type(c.threshold) is float
    assert type(c.passed) is bool


def test_mc_estimate_matches_algebra():
    # E[He_2 + 3] = 3 exactly; MC should land within 4 stderr
    p = ChaosPoly.hermite(2, 1, 2) + ChaosPoly.constant(2, 3.0)
    batch = sample_batch(2, 100_000, seed=123456)
    est = mc_estimate(p, batch)
    assert abs(est.mean - expectation(p)) <= 4.0 * est.stderr
    again = mc_estimate(p, batch)
    assert again == est  # bit-stable reduction


def _evaluate_fresh(p, draws):
    """The evaluator without shared columns: full tables per call, a fresh array per product."""
    tables = {}
    for key in p.packed_terms:
        for i, k in _pairs_of(key):
            col = draws[:, i - 1]
            table = tables.setdefault(i, [np.ones(len(draws)), col.copy()])
            while len(table) <= k:
                j = len(table) - 1
                table.append(col * table[j] - j * table[j - 1])
    out = np.zeros(len(draws))
    for key, c in p.packed_terms.items():
        v = np.full(len(draws), c)
        for i, k in _pairs_of(key):
            v = v * tables[i][k]
        out += v
    return out


def _bits(est):
    return est.mean.hex(), est.stderr.hex()


def test_shared_columns_give_the_bits_of_a_fresh_batch():
    # each polynomial needs more of the columns than the ones before it left
    c = ChaosPoly.constant
    h = ChaosPoly.hermite
    polys = [
        c(4, 0.75),
        h(4, 1, 1, 0.5) + h(4, 3, 1, -0.25),
        h(4, 1, 3) * h(4, 2, 1) - h(4, 4, 1, 0.3) + c(4, 0.1),
        h(4, 3, 2) * h(4, 2, 2) + h(4, 1, 2) * h(4, 4, 2, -1.5),
    ]
    batch = sample_batch(4, 5000, seed=2718)
    columns = batch.columns
    for p in polys:
        est = mc_estimate(p, batch)
        assert _bits(est) == _bits(mc_estimate(p, sample_batch(4, 5000, seed=2718)))
        shared = evaluate_batch(p, batch.columns)
        assert shared.tobytes() == evaluate_batch(p, batch.draws).tobytes()
        assert shared.tobytes() == _evaluate_fresh(p, batch.draws).tobytes()
        assert float(shared.mean()).hex() == est.mean.hex()
    assert batch.columns is columns


def test_shared_columns_are_read_only_and_owned_by_one_batch():
    p = ChaosPoly.hermite(3, 1, 3) * ChaosPoly.hermite(3, 3, 2)
    a = sample_batch(3, 1000, seed=5)
    b = sample_batch(3, 1000, seed=5)
    mc_estimate(p, a)
    mc_estimate(p, b)
    assert a.columns is not b.columns
    assert not a.draws.flags.writeable
    for i, k in ((1, 1), (1, 2), (1, 3), (3, 1), (3, 2)):
        col = a.columns.column(i, k)
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 0.0
        other = b.columns.column(i, k)
        assert not np.shares_memory(col, other) and not np.shares_memory(col, a.draws)
        assert col.tobytes() == other.tobytes()


# values with ties (a few repeated points) and heavy tails (up to 1e300 and inf)
_KS_VALUES = st.one_of(
    st.sampled_from([-1.5, -0.25, 0.0, 0.25, 1.5]),
    st.floats(-8.0, 8.0),
    st.floats(allow_nan=False),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(values=st.lists(_KS_VALUES, min_size=1, max_size=300))
def test_ks_statistic_is_scipys(values):
    x = np.array(values)
    assert ks_normal(x).statistic == stats.kstest(x, "norm").statistic


def test_ks_statistic_is_scipys_at_battery_size():
    rng = np.random.default_rng(3)
    for x in (rng.standard_normal(200_000), rng.standard_t(2, 200_000)):
        ks = ks_normal(x)
        assert ks.statistic == stats.kstest(x, "norm").statistic
        assert ks.threshold == ks_critical(x.size, 0.01) == math.sqrt(math.log(200.0) / (2 * x.size))
    # the critical value's exact level is at most its alpha at every N of the
    # exact small-n branches (n <= 140) and beyond, and at log-spaced N up to
    # 2**25, past the most samples rotate takes (2**22, counting 8 values a
    # sample): at 0.01, and at the Sidak levels of the measure battery's
    # per-coordinate tests for n = 2, 8, 64 and 128.  Between 10**4 and
    # 1013904 points SciPy's sf sums the exact one-sided series in O(N) steps
    # (0.2 s at N = 200000, over two minutes for the sweep); there the level
    # is 1 - cdf, the Pelz-Good series: fast, and within 1e-5 alpha of the
    # sf where both were run, against a margin of at least 1e-3 alpha
    top = ROTATE_BLOCK_BUDGET // 8
    sizes = np.array([*range(1, 301), *np.unique(np.geomspace(301, top, 300).round().astype(int))])
    assert sizes[-1] == top == 2**25
    slow = (sizes > 10**4) & (sizes <= 1013904)
    for alpha in (0.01, *(-math.expm1(math.log1p(-0.01) / n) for n in (2, 8, 64, 128))):
        thresholds = np.array([ks_critical(n, alpha) for n in sizes.tolist()])
        level = np.empty(sizes.size)
        level[~slow] = stats.kstwo.sf(thresholds[~slow], sizes[~slow])
        level[slow] = 1.0 - stats.kstwo.cdf(thresholds[slow], sizes[slow])
        assert np.all(level <= alpha), (alpha, sizes[level > alpha])
    # D <= 1, so at 0.01 no sample of one or two points can be rejected
    assert ks_critical(2, 0.01) >= 1.0 > ks_critical(3, 0.01)


def test_ks_nan_sample_fails():
    ks = ks_normal(np.array([0.1, np.nan, -0.3]))
    assert math.isnan(ks.statistic)
    assert not ks.passed


def test_ks_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        ks_normal(np.array([]))


def _ks_samples():
    # the bracket edges (1 to 2B + 1 points) and the battery sizes and past
    # them: normals, shifted or scaled ones (large D), ties, +-inf, a NaN,
    # and a sample with its mirror image (D+ and D- tied up to roundoff)
    B = space._KS_BRACKET
    rng = np.random.default_rng(20240601)
    for n in (1, 2, 3, B - 1, B, B + 1, 2 * B + 1, 50_000, 200_000, 1_000_000):
        z = rng.standard_normal(n)
        infs = z.copy()
        infs[rng.integers(0, n, 1 + n // 100)] = math.inf
        infs[rng.integers(0, n, 1 + n // 100)] = -math.inf
        nan = z.copy()
        nan[rng.integers(0, n)] = math.nan
        yield from (z, z + 0.5, z - 0.5, 3.0 * z, 0.2 * z, np.round(z, 1), infs, nan,
                    np.concatenate([z, -z]))


def test_ks_statistic_is_the_full_evaluations_bit_for_bit():
    for x in _ks_samples():
        got, want = ks_normal(x).statistic, ks_full_statistic(x)
        assert got == want or (math.isnan(got) and math.isnan(want)), x.size


def test_ks_keeps_a_bracket_whose_bound_is_within_the_margin(monkeypatch):
    # a vectorised exp 1e-14 high, far inside the margin, moves the one CDF
    # value below -sqrt(2) that uses it.  Runs of tied points start at the
    # anchors 0 and 28B: D- peaks at their first points, where each bracket's
    # bound is the anchor's own term.  The first run's vectorised term is the
    # largest anchor term, but D is the second run's exact term, which lies
    # above the first's exact term and below its vectorised one: only the
    # slack of twice the margin keeps the second bracket
    def high(v):
        return np.exp(v) * (1 + 1e-14)

    def vector_ndtr(a, exp):
        return ndtr(a, high if exp is np.exp else exp)

    n, c, B = 2048, 0.05, space._KS_BRACKET
    # filler with D- = c/2 at most and D+ below 1/n
    x = special.ndtri(c / 2 + (1 - c / 2) * np.arange(n) / n)
    run = math.ceil(c * n)
    x[28 * B:28 * B + run] = special.ndtri(c + 28 * B / n)
    peak = special.ndtr(x[28 * B]) - 28 * B / n
    first = special.ndtri(peak)
    while special.ndtr(first) >= peak:
        first = math.nextafter(first, -math.inf)
    assert first < -math.sqrt(2.0) and vector_ndtr(np.array([first]), np.exp)[0] > peak
    x[:run] = first
    assert np.all(np.diff(x) >= 0)
    monkeypatch.setattr(space, "_ndtr", vector_ndtr)
    assert ks_full_statistic(x) == stats.kstest(x, "norm").statistic == peak
    assert ks_normal(x).statistic == peak


def test_moment_normality_matches_fsum_oracle():
    rng = np.random.default_rng(11)
    samples = (rng.standard_normal(5_000), 2.0 + 3.0 * rng.standard_normal(20_000),
               rng.exponential(size=10_000), rng.standard_t(4, 50_000))
    for x in samples:
        n = x.size
        mean = math.fsum(x) / n
        var = math.fsum((v - mean) ** 2 for v in x) / (n - 1)
        z = [(v - mean) / math.sqrt(var) for v in x]
        skew = math.fsum(v**3 for v in z) / n
        kurt = math.fsum(v**4 for v in z) / n - 3.0
        got = [c.statistic for c in moment_normality(x)]
        for value, oracle in zip(got, (mean, var - 1.0, skew, kurt)):
            assert abs(value - oracle) <= 1e-12
