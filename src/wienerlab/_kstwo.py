"""The 0.99 quantile of the two-sided Kolmogorov-Smirnov statistic D_n.

``ks_critical(n)`` is, bit for bit and as an ``np.float64``, the value of
``scipy.stats.kstwo.ppf(0.99, n)``: the critical value of the level-0.01
KS test against a continuous law, from the exact finite-n distribution of
Simard and L'Ecuyer,

    R. Simard, P. L'Ecuyer, "Computing the two-sided Kolmogorov-Smirnov
    distribution", Journal of Statistical Software 39(11), 1-18 (2011).

It is a port of SciPy's ``scipy/stats/_ksstats.py`` (``_kolmogni`` and the
CDF branch of ``_kolmogn``) and of the C loop behind
``scipy.optimize.brentq``, so that the package needs neither
``scipy.stats`` nor ``scipy.optimize``: it calls only the ``scipy.special``
ufuncs ``smirnov``, ``loggamma`` and ``kolmogi``.  The expressions, their
order and their numpy types (the long-double rescaling included) are
SciPy's.

Only what the root search reaches is ported.  The level is fixed at 0.99,
and Brent's method starts at ``1/n`` and at the limit quantile
``kolmogi(0.01)/sqrt(n)`` (capped at ``1 - 1/n``), then evaluates the CDF
only near the root.  Every evaluation past the Ruben-Gambino ends and the
``smirnov`` branch (x >= 1/2) has ``n x**2`` between 2.3 and 2.65, for
every n up to 100000 and for 3000 random n up to 2**25.  So that part of
the CDF is Pomeranz's recursion for n <= 140 and the Pelz-Good series
above; SciPy's Durbin-matrix branch (n x**2 <= 0.754693 for n <= 140,
n x**1.5 <= 1.4 for n <= 100000) and the Pelz-Good underflow guard
(n x**2 below about 0.0017) are never reached and are left out.
"""

# Ported from SciPy, which is distributed under this licence:
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

import numpy as np
from scipy.special import kolmogi, loggamma, smirnov

#: CDF level of the critical value.
LEVEL = 0.99

# the Kolmogorov limit quantile; kolmogi(1 - p) is SciPy's _kolmogci(p)
_LIMIT_QUANTILE = kolmogi(1 - LEVEL)

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


def ks_critical(n: int) -> np.float64:
    """The x with Pr(D_n <= x) = 0.99 for a sample of n >= 1 points."""
    p, q = LEVEL, 1 - LEVEL
    delta = np.exp((np.log(p) - loggamma(n + 1)) / n)
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
    """Pr(D_n <= x) for 1/n <= x <= the top of the root bracket."""
    t = n * x
    if t <= 1.0:
        # Ruben-Gambino: n!/n**n (2t - 1)**n
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
    elif t >= n - 1:
        # Ruben-Gambino
        prob = 1 - 2 * (1.0 - x) ** n
    elif x >= 0.5:
        # exact: twice the one-sided tail
        prob = 1.0 - 2 * smirnov(n, x)
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
