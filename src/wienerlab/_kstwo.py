"""The normal CDF of the Kolmogorov-Smirnov layer, without SciPy.

``ndtr`` is the standard normal CDF of the Cephes library,

    S. L. Moshier, "Methods and Programs for Mathematical Functions",
    Prentice-Hall (1989); Cephes ``ndtr.c`` as SciPy ships it,

ported with its coefficient tables, its ``polevl``/``p1evl`` Horner order and
its branch edges, and evaluated on a sorted sample one slice per branch.
Given libm's ``exp`` (``_libm_exp``, Python's ``math.exp``) it returns the
bits of ``scipy.special.ndtr``; numpy's vectorised ``np.exp`` can differ
from libm's by an ulp, and ``space.ks_normal`` uses it only to bound the
terms of D between anchors 32 points apart and to locate, in the brackets
where the maximum can lie, the terms within a margin of it (see there).
The critical value of D needs no port: ``space.ks_critical`` is a closed
form.
"""

# Ported from SciPy, which is distributed under this licence.  The Cephes
# routines in it (ndtr, erf, erfc; Cephes Math Library Release 2.x,
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

import numpy as np

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
