"""The Kolmogorov-Smirnov layer without SciPy: the normal CDF and D_n's 0.99 quantile.

``ndtr`` is the standard normal CDF of the Cephes library,

    S. L. Moshier, "Methods and Programs for Mathematical Functions",
    Prentice-Hall (1989); Cephes ``ndtr.c`` as SciPy ships it,

ported with its coefficient tables, its ``polevl``/``p1evl`` Horner order and
its branch edges, and evaluated on a sorted sample one slice per branch.
Given libm's ``exp`` (``_libm_exp``, Python's ``math.exp``) it returns the
bits of ``scipy.special.ndtr``; numpy's vectorised ``np.exp`` can differ
from libm's by an ulp, and ``space.ks_normal`` uses it only to locate the
terms of D within a margin of the maximum (see there).

``ks_critical(n)`` is, bit for bit and as an ``np.float64``, the value of
``scipy.stats.kstwo.ppf(0.99, n)``: the critical value of the level-0.01
KS test against a continuous law, from the exact finite-n distribution of
Simard and L'Ecuyer,

    R. Simard, P. L'Ecuyer, "Computing the two-sided Kolmogorov-Smirnov
    distribution", Journal of Statistical Software 39(11), 1-18 (2011).

It is a port of SciPy's ``scipy/stats/_ksstats.py`` (``_kolmogni`` and the
CDF branch of ``_kolmogn``) and of the C loop behind
``scipy.optimize.brentq``.  The expressions, their order and their numpy
types (the long-double rescaling included) are SciPy's.  Of the three
``scipy.special`` functions SciPy calls there, ``loggamma(n + 1)`` is Cephes
``lgam`` (``_lgam``, the integer arguments only), ``kolmogi(1 - 0.99)`` is
the constant ``_LIMIT_QUANTILE``, and ``smirnov`` is replaced by the
critical values of the seven n that reach it (``_SMALL_N_CRITICAL``).

Only what the root search reaches is ported.  The level is fixed at 0.99,
and Brent's method starts at ``1/n`` and at the limit quantile
``kolmogi(1 - 0.99)/sqrt(n)`` (capped at ``1 - 1/n``), then evaluates the
CDF only near the root, inside that bracket.  SciPy's ``smirnov`` branch
(x >= 1/2) is reached only for n = 4..10: n <= 3 never gets to the search,
and for n >= 11 the top of the bracket, 1.6276.../sqrt(n), is below 1/2.
Those seven values are stored, and with x < 1/2 <= 1 - 1/n the upper
Ruben-Gambino end (n x >= n - 1) is never met.  Every other evaluation past
the lower end (n x <= 1) has ``n x**2`` between 2.3 and 2.65, for every n up to
100000 and for 3000 random n up to 2**25.  So that part of the CDF is
Pomeranz's recursion for n <= 140 and the Pelz-Good series above; SciPy's
Durbin-matrix branch (n x**2 <= 0.754693 for n <= 140, n x**1.5 <= 1.4 for
n <= 100000) and the Pelz-Good underflow guard (n x**2 below about 0.0017)
are never reached and are left out.  A level other than 0.99 needs the
limit quantile and the small-n table at that level, and the sweep re-run.
"""

# Ported from SciPy, which is distributed under this licence.  The Cephes
# routines in it (ndtr, erf, erfc, lgam; Cephes Math Library Release 2.x,
# copyright 1984-2000 Stephen L. Moshier) are distributed with SciPy under
# the same 3-clause BSD licence, with the author's permission.
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: CDF level of the critical value.
LEVEL = 0.99

# ---------------------------------------------------------------------------
# Cephes ndtr, erf and erfc: the branches ndtr reaches, in Cephes' order.

_SQRT1_2 = 0.70710678118654752440
# log(2**1024): past it Cephes' erfc underflows to 0 without calling exp
_MAXLOG = 7.09782712893383996843e2

# erfc(x) = exp(-x**2) P(x)/Q(x) for 1 <= x < 8, R(x)/S(x) for x >= 8; the
# leading 1 of Q and S is implicit (p1evl)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x**2)/U(x**2) for |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)


def _libm_exp(v: np.ndarray) -> np.ndarray:
    """libm's exp, the one Cephes calls, of each entry."""
    return np.array([math.exp(t) for t in v.tolist()])


def _polevl(x, coeffs):
    # Cephes polevl: Horner from the leading coefficient, in place on arrays
    out = coeffs[0] * x
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


def _p1evl(x, coeffs):
    # Cephes p1evl: polevl with an implicit leading 1
    out = x + coeffs[0]
    for c in coeffs[1:]:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| <= 1."""
    z = x * x
    out = _polevl(z, _T)
    out *= x
    out /= _p1evl(z, _U)
    return out


def _erfc(z: np.ndarray, exp, num, den) -> np.ndarray:
    """Cephes erfc for z >= 1 and z**2 <= MAXLOG: exp(-z**2) num(z)/den(z)."""
    out = exp(-(z * z))
    out *= _polevl(z, num)
    out /= _p1evl(z, den)
    return out


def ndtr(a: np.ndarray, exp=np.exp) -> np.ndarray:
    """Cephes ndtr of a sorted 1-d float64 array, one slice per branch.

    With x = a/sqrt(2), Cephes takes 0.5 + erf(x)/2 for |x| < 1/sqrt(2), and
    erfc(|x|)/2 (one minus it for x > 0) beyond, where erfc is 1 - erf for
    |x| < 1, exp(-x**2) P/Q for |x| < 8, exp(-x**2) R/S above, and 0 once
    x**2 > MAXLOG.  x is sorted like ``a``, so each branch is one slice,
    found by ``np.searchsorted``; a NaN sorts last and gives NaN.  ``exp``
    is ``np.exp``, or ``_libm_exp`` for SciPy's bits.  The array is taken
    in blocks of ``_BLOCK`` points, which keep the Horner passes in cache.
    """
    out = np.empty_like(a)
    for start in range(0, a.size, _BLOCK):
        _ndtr_block(a[start:start + _BLOCK], exp, out[start:start + _BLOCK])
    return out


# 32768 doubles (256 KiB) per array: on 200k sorted draws the fastest of
# 8k..128k points; one block of all of them took more than twice as long
_BLOCK = 32768


def _ndtr_block(a: np.ndarray, exp, out: np.ndarray) -> None:
    x = a * _SQRT1_2
    # seven slices: x <= -8, -8 < x <= -1, -1 < x <= -1/sqrt2, |x| < 1/sqrt2,
    # and their mirror images 1/sqrt2 <= x < 1, 1 <= x < 8, x >= 8
    cuts = [0, *np.searchsorted(x, (-8.0, -1.0, -_SQRT1_2), "right"),
            *np.searchsorted(x, (_SQRT1_2, 1.0, 8.0), "left"), x.size]
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if lo == hi:
            continue
        if k == 3:
            np.multiply(_erf(x[lo:hi]), 0.5, out=out[lo:hi])
            out[lo:hi] += 0.5
            continue
        z = np.abs(x[lo:hi])
        if k in (2, 4):
            y = 1.0 - _erf(z)
        elif k in (1, 5):
            y = _erfc(z, exp, _P, _Q)
        else:
            y = np.zeros_like(z)
            with np.errstate(over="ignore"):
                live = ~(z * z > _MAXLOG)
            y[live] = _erfc(z[live], exp, _R, _S)
        y *= 0.5
        out[lo:hi] = 1.0 - y if k > 3 else y


# ---------------------------------------------------------------------------
# The critical value.

# Cephes lgam from 13 on: Stirling's series A(1/x**2)/x below 1000 and its
# first three terms above (Cephes stops adding them past 1e8, where they are
# below half an ulp of the sum)
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178


def _lgam(x: float) -> float:
    """Cephes lgam at an integer x >= 2 (up to 2**53), that is log((x - 1)!)."""
    if x < 13.0:
        z, u = 1.0, x
        while u >= 3.0:
            u -= 1.0
            z *= u
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _A) / x
    return q


# the Kolmogorov limit quantile kolmogi(1 - LEVEL), SciPy's _kolmogci(0.01);
# 1 - 0.99 is 0.010000000000000009, and kolmogi(0.01) is one ulp above this
_LIMIT_QUANTILE = np.float64(1.6276236115189502)

# ks_critical(n) for the seven n whose root search reaches SciPy's smirnov
# branch (x >= 1/2)
_SMALL_N_CRITICAL = {
    4: np.float64(0.7342382428166682),
    5: np.float64(0.6685311015147539),
    6: np.float64(0.616607254385054),
    7: np.float64(0.5758120914333914),
    8: np.float64(0.5417925243600995),
    9: np.float64(0.5133172837207423),
    10: np.float64(0.48893165941109273),
}

# the root search: scipy.optimize.brentq as _kolmogni calls it
_XTOL = 1e-14
_RTOL = 4 * np.finfo(float).eps
_MAXITER = 100

# rescaling by 2**128 keeps the exact recursions in range; mixing these
# long-double factors into float64 values is SciPy's arithmetic, kept as is
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6

# B_{2j}/(2j)/(2j-1) for j = 8, ..., 1 (B_m the Bernoulli numbers)
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


@lru_cache(maxsize=64)
def ks_critical(n: int) -> np.float64:
    """The x with Pr(D_n <= x) = 0.99 for a sample of n >= 1 points.

    Cached per n: the KS tests of one battery share their sample size, and
    the root search would otherwise repeat for each.  A run meets few sizes;
    the bound keeps a sweep over many from growing the cache.
    """
    if n in _SMALL_N_CRITICAL:
        return _SMALL_N_CRITICAL[n]
    p, q = LEVEL, 1 - LEVEL
    delta = np.exp((np.log(p) - _lgam(n + 1.0)) / n)
    if delta <= 1.0 / n:
        return np.float64((delta + 1.0 / n) / 2)
    x = -np.expm1(np.log(q / 2.0) / n)
    if x >= 1 - 1.0 / n:
        return np.float64(x)
    x1 = min(_LIMIT_QUANTILE / np.sqrt(n), 1.0 - 1.0 / n)
    return np.float64(_brentq(lambda x: float(_kolmogn(n, x) - p), 1.0 / n, float(x1)))


def _brentq(f, xpre: float, xcur: float) -> float:
    """A root of f between xpre and xcur, step for step SciPy's C brentq."""
    fpre, fcur = f(xpre), f(xcur)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"brentq did not converge in {_MAXITER} iterations")


def _kolmogn(n: int, x: float):
    """Pr(D_n <= x) for 1/n <= x <= the top of the root bracket, x < 1/2.

    SciPy takes x >= 1/2 from the exact one-sided tail, 1 - 2 smirnov(n, x).
    The search reaches that branch only for n = 4..10 (for n >= 11 the
    bracket ends below 1/2), and ``ks_critical`` stores those seven values,
    so the branch is left out.  So is SciPy's Ruben-Gambino upper end,
    ``n x >= n - 1``: it needs x >= 1 - 1/n >= 1/2.
    """
    t = n * x
    if t <= 1.0:
        # Ruben-Gambino: n!/n**n (2t - 1)**n
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
    elif n <= 140:
        prob = _kolmogn_pomeranz(n, x)
    else:
        prob = _kolmogn_pelz_good(n, x)
    return np.clip(prob, 0.0, 1.0)


def _log_nfactorial_div_n_pow_n(n: int):
    # log(n!/n**n) by Stirling's series, with n log(n) removed up front
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _pomeranz_compute_j1j2(i: int, n: int, ll: int, ceilf: int, roundf: int):
    """The first and last nonzero entries of row i of the Pomeranz recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_pomeranz(n: int, x: float):
    """Pr(D_n <= x) by Pomeranz's recursion.

    Each of the 2n + 1 rows is the previous row convolved with one of three
    truncated Poisson weight vectors; two rows are kept, each with the
    offset of its first nonzero entry, and the answer is n! times the last
    entry of the last row.
    """
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)
    # (g/n)**m/m!, (2g/n)**m/m! and ((1 - 2g)/n)**m/m!
    gpower = np.empty(npwrs)
    twogpower = np.empty(npwrs)
    onem2gpower = np.empty(npwrs)
    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s : k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start : conv_start + conv_len]
            if 0 < V1.max() < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return ans


def _kolmogn_pelz_good(n: int, x: float):
    """The Pelz-Good approximation to Pr(D_n <= x).

    The Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n**1.5 in z = sqrt(n) x, each K_i carried by Jacobi's theta
    transformation into a series that converges fast for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    q = np.exp(-_PI_SQUARED / 8 / zsquared)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner in q**8 over the odd integers m = 2k - 1 of sum c_m q**(m**2)
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the sums over all integers k, (pi k)**2 q**(k**2) for K2 and
    # (3 (pi k z)**2 - (pi k)**4) q**(k**2) for K3, summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)
