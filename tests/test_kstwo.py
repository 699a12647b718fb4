"""The KS layer's port of SciPy's normal CDF, against SciPy itself.

``_kstwo`` ports Cephes ``ndtr``; ``space.ks_normal`` takes D from the
vectorised CDF and re-evaluates the terms near its maximum with libm's exp.
"""

import math

import numpy as np
import pytest
from scipy import special, stats

from wienerlab import space
from wienerlab._kstwo import _MAXLOG, _SQRT1_2, _libm_exp, ndtr

# where Cephes changes branch, in a = x sqrt(2): |x| = 1/sqrt(2), 1 and 8,
# and the underflow edge x**2 = MAXLOG
_EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * _MAXLOG))


def _ulp_walk(start: float, steps: int) -> list[float]:
    out = [start]
    for _ in range(steps):
        out.append(math.nextafter(out[-1], math.inf))
    return out


def _edge_points() -> np.ndarray:
    # 2000 doubles below and above each edge, on both sides of zero
    points = []
    for edge in _EDGES:
        walk = _ulp_walk(edge - 2000 * math.ulp(edge), 4000)
        points += walk + [-a for a in walk]
    return np.array(points)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    # NaN payloads aside, every double is the same
    nan = np.isnan(want)
    return bool(np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes())


def test_ndtr_with_libm_exp_is_scipys_bit_for_bit():
    rng = np.random.default_rng(2011)
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
    x = np.sort(np.concatenate([
        rng.standard_normal(100_000),
        3.0 * rng.standard_normal(100_000),
        10.0 * rng.standard_normal(100_000),
        _edge_points(),
        specials,
    ]))
    # the walks cross every branch edge of x = a/sqrt(2)
    scaled = x * _SQRT1_2
    for edge in (_SQRT1_2, 1.0, 8.0, math.sqrt(_MAXLOG)):
        for side in (1, -1):
            assert np.any(side * scaled < edge) and np.any(side * scaled >= edge)
    want = special.ndtr(x)
    assert _same_bits(ndtr(x, _libm_exp), want)
    # numpy's vectorised exp is within a few ulp: far below ks_normal's margin
    fast = ndtr(x)
    finite = ~np.isnan(want)
    assert np.array_equal(np.isnan(fast), ~finite)
    assert np.abs(fast[finite] - want[finite]).max() <= 1e-15 <= space._KS_MARGIN / 1000


@pytest.mark.parametrize("scale", [1 + 4e-16, 1 - 4e-16])
def test_ks_statistic_is_kstests_with_a_perturbed_vectorised_exp(monkeypatch, scale):
    # every vectorised exp is off by 4e-16 relative, past numpy's own error.
    # A sample with its mirror image ties D+ at x with D- at -x up to
    # roundoff, so the perturbation can move the maximum to the wrong index;
    # the margin re-evaluates both, and D is still SciPy's
    def perturbed(v):
        return np.exp(v) * scale

    def vector_ndtr(a, exp):
        return ndtr(a, perturbed if exp is np.exp else exp)

    monkeypatch.setattr(space, "_ndtr", vector_ndtr)
    rng = np.random.default_rng(104729)
    samples = [rng.standard_normal(200_000), rng.standard_t(2, 200_000)]
    for s in (1.0, 1.5, 2.0, 3.0, 4.0):
        for _ in range(40):
            y = s * rng.standard_normal(int(rng.integers(5, 2000)))
            samples.append(np.concatenate([y, -y]))
    want = [stats.kstest(x, "norm").statistic for x in samples]
    assert [space.ks_normal(x).statistic for x in samples] == want
    # with no margin only the perturbed maximum is re-evaluated: some move
    monkeypatch.setattr(space, "_KS_MARGIN", 0.0)
    assert [space.ks_normal(x).statistic for x in samples] != want
