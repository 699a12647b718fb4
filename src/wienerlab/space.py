"""Discretized Gaussian space: sampling, Monte Carlo, and the check verdict.

The ambient space is R^n carrying n i.i.d. standard Gaussian increment
coordinates eta_1 .. eta_n attached to the uniform grid theta_k = k/n.

Sampling is reproducible bit-for-bit: a batch is generated in fixed blocks
of BLOCK_ROWS rows, each block from its own Philox substream keyed by
(seed, block index).  Workers may therefore generate disjoint blocks in
parallel and the concatenated result is identical to a serial run.  Monte
Carlo reductions go through numpy's fixed-shape pairwise summation, so a
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
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from ._kstwo import _libm_exp, ks_critical
from ._kstwo import ndtr as _ndtr
from .chaos import ChaosPoly, DimensionMismatch, HermiteColumns, evaluate_batch

#: Rows per Philox substream; fixed so that parallel == serial.
BLOCK_ROWS = 8192

#: Name stamped on reports; identifies the bit-exact generation scheme.
GENERATOR_ID = f"philox2x64-block{BLOCK_ROWS}"

# ks_normal re-evaluates exactly every KS term this close to the largest
_KS_MARGIN = 1e-12


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
    (seed, block index), so any worker can regenerate any block alone.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least one coordinate, got n={n}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    draws = np.empty((n_samples, n))
    for start in range(0, n_samples, BLOCK_ROWS):
        key = np.array([seed, start // BLOCK_ROWS], dtype=np.uint64)
        gen = Generator(Philox(key=key))
        gen.standard_normal(out=draws[start:start + BLOCK_ROWS])
    draws.setflags(write=False)
    return SampleBatch(draws)


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
    samples, bit-identical to ``scipy.stats.kstest(x, "norm").statistic``;
    no p-value is computed.  The normal CDF is ``_kstwo.ndtr``, a port of
    Cephes ``ndtr`` (Moshier 1989) that has ``scipy.special.ndtr``'s bits
    when it calls libm's ``exp``.  D is taken in two steps:

    1. the CDF with numpy's vectorised ``exp``, which can differ from
       libm's by an ulp (at most 1.1e-16 in the CDF over 2M draws), gives
       every term of D+ and D-;
    2. every index whose term lies within δ = 1e-12 (``_KS_MARGIN``) of their
       maximum, about 1e4 times that error, is evaluated again with libm's
       ``exp``, and D is the largest of those exact terms.

    At the index of the exact maximum the vectorised term lies within twice
    that error of the vectorised maximum, so the index is re-evaluated, and
    D has SciPy's bits; a sample of 200k draws re-evaluates about one index.
    The critical value, the 0.99 quantile of the exact distribution of D
    for N samples, comes from ``_kstwo.ks_critical(N)``, an in-package port
    of SciPy's that returns the bits of ``scipy.stats.kstwo.ppf(0.99, N)``.
    A NaN sample makes D NaN, which fails the check.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = _ndtr(x, np.exp)
    # i/n for i = 0..n: D+ takes (i + 1)/n - F(x_i), D- takes F(x_i) - i/n;
    # the arrays are reused, as fresh ones of this size cost more than the sums
    grid = np.arange(0.0, n + 1)
    grid /= n
    terms = grid[1:] - cdf
    np.maximum(terms, np.subtract(cdf, grid[:-1], out=cdf), out=terms)
    top = terms.max()
    if not np.isnan(top):
        near = np.flatnonzero(terms >= top - _KS_MARGIN)
        exact = _ndtr(x[near], _libm_exp)
        top = np.maximum(grid[near + 1] - exact, exact - grid[near]).max()
    return check("ks", top, ks_critical(n))
