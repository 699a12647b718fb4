"""The KS layer's ports of SciPy's special functions, against SciPy itself.

``_kstwo`` ports Cephes ``ndtr`` and ``lgam`` and stores ``kolmogi`` and the
``smirnov``-reached critical values; ``space.ks_normal`` takes D from the
vectorised CDF and re-evaluates the terms near its maximum with libm's exp.
"""

import math

import numpy as np
import pytest
from scipy import special, stats

from wienerlab import _kstwo, space
from wienerlab._kstwo import _MAXLOG, _SQRT1_2, LEVEL, _libm_exp, ks_critical, ndtr
from wienerlab.cli import ROTATE_BLOCK_BUDGET

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


def test_lgam_is_scipys_loggamma_at_every_reached_argument():
    # loggamma(n + 1) for every n <= 2**21, then log-spaced n up to 2**25,
    # past the most samples rotate takes (2**22), and a few past Cephes'
    # last branch edge at 1e8
    top = ROTATE_BLOCK_BUDGET // 8
    assert top == 2**25
    every = np.arange(2.0, 2**21 + 2)
    spaced = np.unique(np.geomspace(2**21, top, 20_000).round()) + 1
    beyond = np.array([1e8, 1e8 + 1, 1e9, 2.0**52])
    for x in (every, spaced, beyond):
        got = np.array([_kstwo._lgam(v) for v in x.tolist()])
        assert got.tobytes() == special.loggamma(x).tobytes()


def test_stored_constants_are_scipys():
    assert _kstwo._LIMIT_QUANTILE.tobytes() == special.kolmogi(1 - LEVEL).tobytes()
    # kolmogi(0.01) is one ulp away: 1 - 0.99 is not 0.01
    assert special.kolmogi(0.01) == np.nextafter(_kstwo._LIMIT_QUANTILE, 2.0)
    assert sorted(_kstwo._SMALL_N_CRITICAL) == list(range(4, 11))
    for n, value in _kstwo._SMALL_N_CRITICAL.items():
        assert type(value) is np.float64
        assert value.tobytes() == stats.kstwo.ppf(LEVEL, n).tobytes()


def test_root_search_never_reaches_the_smirnov_branch(monkeypatch):
    # the bracket ends below 1/2 from n = 11 on, and n <= 3 never searches:
    # x >= 1/2, SciPy's smirnov branch, is only met at the stored n = 4..10
    q = _kstwo._LIMIT_QUANTILE
    assert q / np.sqrt(11) < 0.5 <= q / np.sqrt(10)
    seen = []
    kolmogn = _kstwo._kolmogn

    def recorded(n, x):
        seen.append((n, x))
        return kolmogn(n, x)

    monkeypatch.setattr(_kstwo, "_kolmogn", recorded)
    # the uncached search: an n cached by an earlier test would not search
    for n in [*range(1, 2001), 5000, 20_000, 50_000, 100_000, 200_000, 10**6, 2**25]:
        ks_critical.__wrapped__(n)
    searched = {n for n, _ in seen}
    assert min(searched) == 11 and searched.isdisjoint(_kstwo._SMALL_N_CRITICAL)
    assert max(x for _, x in seen) < 0.5


def test_cached_critical_values_are_fresh_ones():
    # each size's value is searched once; a cached call returns its bits
    for n in (3, 7, 11, 140, 2000, 20_000, 200_000, 2**25):
        first = ks_critical(n)
        hits = ks_critical.cache_info().hits
        assert ks_critical(n) is first and ks_critical.cache_info().hits == hits + 1
        fresh = ks_critical.__wrapped__(n)
        assert type(fresh) is np.float64 and fresh.tobytes() == first.tobytes()
