"""Discretized Gaussian space: sampling, Monte Carlo, and the check verdict.

The ambient space is R^n carrying n i.i.d. standard Gaussian increment
coordinates eta_1 .. eta_n attached to the uniform grid theta_k = k/n.

Sampling is reproducible bit-for-bit: a batch is generated in fixed blocks
of BLOCK_ROWS rows, each block from its own Philox substream keyed by
(seed, block index).  The blocks are filled in parallel, over one thread
per usable CPU (``_over_blocks``), and the batch has the bits of a serial
fill whatever the CPU count.  The rotation batteries share both the runner
and the block fill (``_fill_block``): they draw each block into a buffer
of the thread that rotates it, and never build the batch.  Monte Carlo
reductions go through numpy's fixed-shape pairwise summation, so a
repeated estimate is bit-stable.

A batch owns the Hermite columns He_k(eta_i) of its draws
(``SampleBatch.columns``): ``mc_estimate`` evaluates every polynomial
through them, so the columns are built once per batch, when a polynomial
first needs them, and are freed with the batch.  Each column is the same
recurrence over the same draws whichever polynomial asked first, so an
estimate has the bits of one made on a fresh batch.

Every verdict in the package is one frozen ``Check`` record built by
``check``: the normality tests here, each row of a rotation battery, the
CLI certificates and each verify suite.  A check passes when
|statistic| <= threshold, so a NaN or infinite statistic fails.  The
command line writes the records out; nothing here formats a report.

The module builds on the chaos algebra alone; the field operators of
``malliavin`` are not needed to sample or to estimate.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from ._kstwo import _libm_exp, ks_critical
from ._kstwo import ndtr as _ndtr
from .chaos import ChaosPoly, DimensionMismatch, HermiteColumns, evaluate_batch

#: Rows per Philox substream and per task of the threads that fill and
#: rotate blocks; fixed, so that the bits do not depend on the thread count.
BLOCK_ROWS = 8192

#: Name stamped on reports; identifies the bit-exact generation scheme.
GENERATOR_ID = f"philox2x64-block{BLOCK_ROWS}"

# ks_normal re-evaluates exactly every KS term this close to the largest
_KS_MARGIN = 1e-12
# ks_normal's anchor spacing: it bounds the KS terms between anchors and
# evaluates the CDF only between those where the largest term can lie
_KS_BRACKET = 32


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _over_blocks(n_rows: int, make_work) -> None:
    """Call ``work(start)`` for every block of BLOCK_ROWS rows out of ``n_rows``.

    The blocks are shared out over ``min(blocks, usable CPUs)`` threads, the
    calling thread among them, each taking the next block in order, so a
    ``work`` must write its own block's rows and nothing else.  Each thread
    calls its own ``work = make_work()``, made on the calling thread: the
    buffers ``make_work`` allocates come from the caller's heap, whereas
    what a thread frees stays in its own malloc arena.

    Every thread is joined before this returns.  After a block raises, the
    threads take no new block, and the exception of the first failed block
    in block order is raised.  It is the one a serial loop raises: blocks
    are taken in order and a taken block runs to its end, so every block
    before a failed one was run.
    """
    starts = iter(range(0, n_rows, BLOCK_ROWS))
    n_threads = min(-(-n_rows // BLOCK_ROWS), _usable_cpus())
    lock = threading.Lock()
    failed: dict[int, BaseException] = {}

    def run(work):
        while not failed:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            try:
                work(start)
            except BaseException as exc:
                failed[start] = exc

    threads = [threading.Thread(target=run, args=(make_work(),)) for _ in range(n_threads - 1)]
    for t in threads:
        t.start()
    try:
        run(make_work())
    finally:
        for t in threads:
            t.join()
    if failed:
        raise failed[min(failed)]


@dataclass(frozen=True)
class SampleBatch:
    """N x n matrix of standard Gaussian draws and its Hermite columns."""

    draws: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]

    @cached_property
    def columns(self) -> HermiteColumns:
        """The batch's own read-only ``He_k(eta_i)`` columns, built on first use."""
        return HermiteColumns(self.draws)


def sample_batch(n: int, n_samples: int, seed: int) -> SampleBatch:
    """Draw a reproducible batch; (seed, GENERATOR_ID, N, n) pin the bits.

    Blocks of BLOCK_ROWS rows come from independent Philox streams keyed by
    (seed, block index), so any thread can fill any block alone.
    """
    n, n_samples, seed = _sampling_args(n, n_samples, seed)
    draws = np.empty((n_samples, n))

    def fill(start):
        _fill_block(seed, start, draws[start:start + BLOCK_ROWS])

    _over_blocks(n_samples, lambda: fill)
    draws.setflags(write=False)
    return SampleBatch(draws)


def _integer(value, what: str, error=ValueError) -> int:
    """``operator.index(value)``; a float, even an integral one, raises ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


def _sampling_args(n, n_samples, seed) -> tuple[int, int, int]:
    """``(n, n_samples, seed)`` as ints, refusing a non-integer, no coordinate, no sample or a seed past 64 bits."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"need at least one coordinate, got n={n}")
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    seed = _integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return n, n_samples, seed


def _fill_block(seed: int, start: int, out: np.ndarray) -> None:
    """Fill ``out``, the rows of the block at row ``start``, from its Philox stream."""
    key = np.array([seed, start // BLOCK_ROWS], dtype=np.uint64)
    Generator(Philox(key=key)).standard_normal(out=out)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with its standard error."""

    mean: float
    stderr: float


def mc_estimate(p: ChaosPoly, batch: SampleBatch) -> MonteCarloEstimate:
    """Monte Carlo mean of a chaos polynomial over a batch."""
    if batch.dim != p.dim:
        raise DimensionMismatch(
            f"batch over {batch.dim} coordinates for polynomial of dimension {p.dim}"
        )
    vals = evaluate_batch(p, batch.columns)
    mean = float(vals.mean())
    if batch.n_samples > 1:
        stderr = float(vals.std(ddof=1) / math.sqrt(batch.n_samples))
    else:
        stderr = 0.0
    return MonteCarloEstimate(mean=mean, stderr=stderr)


# ---------------------------------------------------------------------------
# Check verdicts and the normality tests shared with the rotation batteries.


@dataclass(frozen=True)
class Check:
    """One verdict: a named statistic against its threshold.

    ``details`` says what a verify suite covered; battery rows leave it empty.
    """

    name: str
    statistic: float
    threshold: float
    passed: bool
    details: str = ""

    def to_json_dict(self) -> dict:
        """The five fields by name, the form of a ``verify`` report entry."""
        return asdict(self)


def check(
    name: str, statistic: float, threshold: float, ok: bool = True, details: str = ""
) -> Check:
    """The verdict record; it passes iff |statistic| <= threshold and ``ok``.

    NaN compares false, so a NaN statistic or threshold fails the check.
    """
    statistic = float(statistic)
    threshold = float(threshold)
    return Check(name, statistic, threshold, bool(abs(statistic) <= threshold and ok), details)


def moment_normality(samples: np.ndarray) -> tuple[Check, ...]:
    """Moment tests for standard normality at the 4-sigma level.

    Returns the mean, variance, skewness and excess kurtosis checks, in that
    order.  Thresholds use the null standard errors sqrt(6/N) for skewness and
    sqrt(24/N) for excess kurtosis, and sqrt(1/N), sqrt(2/N) for mean and
    variance.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    std = math.sqrt(var)
    z = (x - mean) / std
    z2 = z * z
    skew = float((z2 * z).mean())
    kurt = float((z2 * z2).mean() - 3.0)
    return (
        check("mean", mean, 4.0 * math.sqrt(1.0 / n)),
        check("variance", var - 1.0, 4.0 * math.sqrt(2.0 / n)),
        check("skewness", skew, 4.0 * math.sqrt(6.0 / n)),
        check("excess_kurtosis", kurt, 4.0 * math.sqrt(24.0 / n)),
    )


def ks_normal(samples: np.ndarray) -> Check:
    """Kolmogorov-Smirnov against N(0,1) at level 0.01.

    Computes only the two-sided statistic D = max(D+, D-) of the sorted
    samples x_0 <= ... <= x_(n-1), bit-identical to
    ``scipy.stats.kstest(x, "norm").statistic``; no p-value is computed.
    D is the largest of the terms max((i + 1)/n - F(x_i), F(x_i) - i/n).
    The normal CDF F is ``_kstwo.ndtr``, a port of Cephes ``ndtr`` (Moshier
    1989) that has ``scipy.special.ndtr``'s bits when it calls libm's
    ``exp``; with numpy's vectorised ``exp`` it gives F^, which can differ
    by an ulp (at most 1.1e-16 over 2M draws).  D is taken in three steps:

    1. anchors: F^ and the terms at a_k = 0, B, 2B, ... and at n - 1, with
       B = 32 (``_KS_BRACKET``); L is the largest anchor term.  Bracket k
       holds the indices a_k <= i < a_(k+1).  F is nondecreasing, so each
       term of bracket k is at most
       U_k = max(a_(k+1)/n - F^(a_k), F^(a_(k+1)) - a_k/n),
       up to the error of F^;
    2. brackets: F^ and the terms are evaluated only at the indices of the
       brackets with U_k >= L - 2δ, δ = 1e-12 (``_KS_MARGIN``), and at
       n - 1; their largest term is the vectorised maximum;
    3. re-evaluation: every index whose term lies within δ of that maximum,
       about 1e4 times the error of F^, is evaluated again with libm's
       ``exp``, and D is the largest of those exact terms.

    Had the terms been evaluated at every index, as SciPy does, every index
    within δ of their maximum would have a term of at least L - δ, so its
    bracket is kept (the error of F^ sits in the other δ): steps 1 and 2
    find that maximum and that set of indices, with their bits.  At the
    index of the exact maximum the vectorised term lies within twice the
    error of F^ of the vectorised maximum, so step 3 re-evaluates it, and D
    has SciPy's bits.  A sample of 200k draws keeps 0.2-2% of its
    brackets and re-evaluates about one index.  A NaN sorts last, so it
    makes the anchor term at n - 1, and D, NaN, which fails the check; an
    empty sample raises ``ValueError``.

    The critical value, the 0.99 quantile of the exact distribution of D
    for N samples, comes from ``_kstwo.ks_critical(N)``, an in-package port
    of SciPy's that returns the bits of ``scipy.stats.kstwo.ppf(0.99, N)``.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("ks_normal needs at least one sample")

    def terms(index, cdf):
        # D+ takes (i + 1)/n - F(x_i), D- takes F(x_i) - i/n
        return np.maximum((index + 1) / n - cdf, cdf - index / n)

    anchors = np.arange(0, n, _KS_BRACKET)
    if anchors[-1] != n - 1:
        anchors = np.append(anchors, n - 1)
    cdf = _ndtr(x[anchors], np.exp)
    top = terms(anchors, cdf).max()
    if not np.isnan(top):
        bound = np.maximum(anchors[1:] / n - cdf[:-1], cdf[1:] - anchors[:-1] / n)
        kept = anchors[:-1][bound >= top - 2 * _KS_MARGIN]
        index = (kept[:, None] + np.arange(_KS_BRACKET)).ravel()
        index = np.append(index[index < n - 1], n - 1)
        vector = terms(index, _ndtr(x[index], np.exp))
        near = index[vector >= vector.max() - _KS_MARGIN]
        top = terms(near, _ndtr(x[near], _libm_exp)).max()
    return check("ks", top, ks_critical(n))
