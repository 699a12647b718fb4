"""Discretized Gaussian space: sampling, Monte Carlo, and the check verdict.

The ambient space is R^n carrying n i.i.d. standard Gaussian increment
coordinates eta_1 .. eta_n attached to the uniform grid theta_k = k/n.

Sampling is reproducible bit-for-bit: a batch is generated in fixed blocks
of BLOCK_ROWS rows, each block from its own Philox substream keyed by
(seed, block index).  Workers may therefore generate disjoint blocks in
parallel and the concatenated result is identical to a serial run.  Monte
Carlo reductions go through numpy's fixed-shape pairwise summation, so a
repeated estimate is bit-stable.

Every check in the package (the normality tests here, the rotation
batteries, the CLI certificates and the verify suites) gets its verdict
from ``check``: it passes when |statistic| <= threshold, so a NaN or
infinite statistic fails.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _scipy_stats
from scipy.special import ndtr as _ndtr

from .chaos import ChaosPoly, DimensionMismatch, evaluate_batch
from .malliavin import HField, divergence_h

#: Rows per Philox substream; fixed so that parallel == serial.
BLOCK_ROWS = 8192

#: Name recorded in batches; identifies the bit-exact generation scheme.
GENERATOR_ID = f"philox2x64-block{BLOCK_ROWS}"


@dataclass(frozen=True)
class SampleBatch:
    """N x n matrix of standard Gaussian draws with provenance."""

    draws: np.ndarray
    seed: int
    generator: str

    @property
    def n_samples(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]

    def to_csv(self, path) -> None:
        """Header eta_1..eta_n, one row per sample, repr-exact floats."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"eta_{i}" for i in range(1, self.dim + 1)])
            for row in self.draws:
                writer.writerow([repr(float(v)) for v in row])


def sample_batch(n: int, n_samples: int, seed: int) -> SampleBatch:
    """Draw a reproducible batch; (seed, generator, N, n) pin the bits.

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
    blocks = []
    for start in range(0, n_samples, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, n_samples - start)
        key = np.array([seed, start // BLOCK_ROWS], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        blocks.append(gen.standard_normal((rows, n)))
    draws = np.vstack(blocks)
    draws.setflags(write=False)
    return SampleBatch(draws=draws, seed=seed, generator=GENERATOR_ID)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with its standard error and a 95% normal interval."""

    mean: float
    stderr: float
    n_samples: int
    seed: int

    @property
    def ci95(self) -> tuple[float, float]:
        half = 1.96 * self.stderr
        return (self.mean - half, self.mean + half)

    def to_json_dict(self) -> dict:
        lo, hi = self.ci95
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "ci95_lo": lo,
            "ci95_hi": hi,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def mc_estimate(p: ChaosPoly, batch: SampleBatch) -> MonteCarloEstimate:
    """Monte Carlo mean of a chaos polynomial over a batch."""
    if batch.dim != p.dim:
        raise DimensionMismatch(
            f"batch over {batch.dim} coordinates for polynomial of dimension {p.dim}"
        )
    vals = evaluate_batch(p, batch.draws)
    mean = float(vals.mean())
    if batch.n_samples > 1:
        stderr = float(vals.std(ddof=1) / math.sqrt(batch.n_samples))
    else:
        stderr = 0.0
    return MonteCarloEstimate(
        mean=mean, stderr=stderr, n_samples=batch.n_samples, seed=batch.seed
    )


def identity_divergence_growth(ns) -> list[tuple[int, float]]:
    """Exact L2 norm of the divergence of the identity field u(w) = w.

    Coordinate i carries eta_i, so the divergence is sum_i He_2(eta_i) with
    squared norm 2n.  Computed through the operator machinery, not the
    closed form; callers compare against sqrt(2n).
    """
    rows = []
    for n in ns:
        n = int(n)
        u = HField(tuple(ChaosPoly.coordinate(n, i) for i in range(1, n + 1)))
        rows.append((n, divergence_h(u).norm_l2()))
    return rows


# ---------------------------------------------------------------------------
# Check verdicts and the normality tests shared with the rotation batteries.


def check(name: str, statistic: float, threshold: float, ok: bool = True) -> dict:
    """One check record; it passes iff |statistic| <= threshold and ``ok``.

    NaN compares false, so a NaN statistic or threshold fails the check.
    """
    statistic = float(statistic)
    threshold = float(threshold)
    return {
        "name": name,
        "statistic": statistic,
        "threshold": threshold,
        "pass": bool(abs(statistic) <= threshold and ok),
    }


def moment_normality(samples: np.ndarray) -> dict:
    """Moment tests for standard normality at the 4-sigma level.

    Thresholds use the null standard errors sqrt(6/N) for skewness and
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
    checks = {
        "mean": (mean, 4.0 * math.sqrt(1.0 / n)),
        "variance": (var - 1.0, 4.0 * math.sqrt(2.0 / n)),
        "skewness": (skew, 4.0 * math.sqrt(6.0 / n)),
        "excess_kurtosis": (kurt, 4.0 * math.sqrt(24.0 / n)),
    }
    return {name: check(name, stat, thr) for name, (stat, thr) in checks.items()}


def ks_normal(samples: np.ndarray) -> dict:
    """Kolmogorov-Smirnov against N(0,1) at level 0.01.

    Computes only the two-sided statistic D = max(D+, D-) of the sorted
    samples, with the same expressions as ``scipy.stats.kstest(x, "norm")``
    so D is bit-identical to its ``statistic``; no p-value is computed.
    The critical value is ``scipy.stats.kstwo.ppf(0.99, N)``.  A NaN sample
    makes D NaN, which fails the check.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = _ndtr(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    critical = _scipy_stats.kstwo.ppf(0.99, n)
    return check("ks", np.maximum(d_plus, d_minus), critical)
