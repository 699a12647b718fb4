"""Independent oracles shared by the test modules.

Everything here deliberately avoids the package's own evaluation and algebra
paths: Hermite values come from numpy.polynomial.hermite_e, expectations from
Gauss quadrature with the exp(-x^2/2) weight, derivatives from finite
differences, and distributions from plain Monte Carlo.  Tests compare the
package against these.  ``ks_full_statistic`` is the KS statistic from the
CDF at every sorted point, the evaluation ``space.ks_normal`` narrows to a
few brackets.  Only ``draw_poly`` and ``draw_hfield`` are the
package's own: its seeded draws, at sizes its public builders do not take.
``with_workers`` sets how many CPUs the package's block runner sees, and
``stages`` which stage table its filtration decisions read.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as cartesian

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from wienerlab import adapted, randgen, space
from wienerlab._kstwo import _libm_exp
from wienerlab.chaos import DIM_CAP, ChaosPoly
from wienerlab.malliavin import HField
from wienerlab.space import BLOCK_ROWS

# 12-point Gauss quadrature on the exp(-x^2/2) weight: exact for polynomial
# integrands up to degree 23, far past anything the algebra can hold.
_NODES, _WEIGHTS = hermite_e.hermegauss(12)
_WEIGHTS = _WEIGHTS / math.sqrt(2.0 * math.pi)


#: batch sizes for the threaded block runner: one row, two, one short
#: block, and a last block of one row
THREADED_SIZES = [1, 2, BLOCK_ROWS - 5, 3 * BLOCK_ROWS + 1]


def with_workers(monkeypatch, count, fn):
    """``fn()`` with the block runner's CPU count set to ``count``, or left as is."""
    with monkeypatch.context() as m:
        if count is not None:
            m.setattr(space, "_usable_cpus", lambda: count)
        return fn()


#: ``adapted._PAST`` tables, entry i the last coordinate before coordinate
#: i's stage: one stage per coordinate, as the package has it, and the
#: stages {1, 2}, {3, 4}, ...
STAGE_TABLES = {
    "identity": bytes((0, *range(DIM_CAP))),
    "pairs": bytes((0, *(i - 1 - (i - 1) % 2 for i in range(1, DIM_CAP + 1)))),
}


@contextmanager
def stages(table: bytes):
    """Plant ``table`` as the package's one stage table while the block runs."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(adapted, "_PAST", table)
        yield


def packed(index=()) -> bytes:
    """Packed term key of ``(coordinate, order)`` pairs or a ``{coordinate: order}`` dict.

    One byte per coordinate occurrence, sorted ascending: ``{1: 2, 3: 1}``
    packs to ``b"\\x01\\x01\\x03"`` and ``()`` to the constant's ``b""``.
    """
    pairs = index.items() if isinstance(index, dict) else index
    return bytes(sorted(i for i, k in pairs for _ in range(k)))


def ks_full_statistic(samples) -> float:
    """KS statistic D against N(0,1), with the CDF evaluated at every sorted point.

    The vectorised CDF gives every term of D+ and D-, and each index within
    ``space._KS_MARGIN`` of their maximum is evaluated again with libm's
    exp; D is the largest of those exact terms, or NaN for a NaN sample.
    ``space._ndtr`` and the margin are read when called, so a test that
    patches them patches this evaluation too.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = space._ndtr(x, np.exp)
    grid = np.arange(0.0, n + 1) / n
    terms = np.maximum(grid[1:] - cdf, cdf - grid[:-1])
    top = terms.max()
    if np.isnan(top):
        return float(top)
    near = np.flatnonzero(terms >= top - space._KS_MARGIN)
    exact = space._ndtr(x[near], _libm_exp)
    return float(np.maximum(grid[near + 1] - exact, exact - grid[near]).max())


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def draw_poly(rng, n: int, degree: int, n_terms: int, coords=None) -> ChaosPoly:
    """``n_terms`` seeded terms over ``coords`` (default ``1 .. n``), summed.

    The draw behind ``randgen.random_poly``, which always takes four terms
    over every coordinate, at any term count and support.
    """
    with randgen._Draws(rng) as draws:
        return randgen._poly(draws, n, degree, n_terms, coords)


def draw_hfield(rng, n: int, degree: int) -> HField:
    """A seeded field of two terms per coordinate: the one row of ``random_operator``."""
    return randgen.random_operator(rng, n, 1, degree).rows[0]


def he_value(k: int, x):
    """He_k(x) via the library evaluator, independent of the package."""
    coeffs = [0.0] * k + [1.0]
    return hermite_e.hermeval(x, coeffs)


def eval_poly_indep(p: ChaosPoly, point) -> float:
    """Evaluate a ChaosPoly using only its term dict and the library Hermite."""
    point = np.asarray(point, dtype=float)
    total = 0.0
    for idx, c in p.terms.items():
        v = c
        for i, k in idx.pairs:
            v *= float(he_value(k, point[i - 1]))
        total += v
    return total


def quad_expectation(f, coords: list[int], dim: int) -> float:
    """E[f(eta)] by tensor Gauss quadrature over the listed coordinates.

    ``f`` maps a length-``dim`` point to a float and must depend only on the
    listed coordinates.  Exact for polynomials of per-coordinate degree < 24.
    """
    if not coords:
        return f(np.zeros(dim))
    total = 0.0
    grids = np.meshgrid(*[_NODES] * len(coords), indexing="ij")
    weights = np.ones_like(grids[0])
    for g in np.meshgrid(*[_WEIGHTS] * len(coords), indexing="ij"):
        weights = weights * g
    flat = [g.ravel() for g in grids]
    wflat = weights.ravel()
    point = np.zeros(dim)
    for row in range(wflat.size):
        for c, grid in zip(coords, flat):
            point[c - 1] = grid[row]
        total += wflat[row] * f(point)
    return total


def quad_poly_expectation(p: ChaosPoly) -> float:
    coords = sorted({i for idx in p.terms for i, _ in idx.pairs})
    return quad_expectation(lambda x: eval_poly_indep(p, x), coords, p.dim)


def mc_poly_mean(p: ChaosPoly, n_samples: int, seed: int) -> tuple[float, float]:
    """(mean, stderr) of the polynomial under plain Monte Carlo.

    Evaluates whole columns in the term and factor order of eval_poly_indep,
    so every sample value equals the row-by-row evaluation bit for bit.
    """
    rng = make_rng(seed)
    draws = rng.standard_normal((n_samples, p.dim))
    vals = np.zeros(n_samples)
    for idx, c in p.terms.items():
        v = np.full(n_samples, c)
        for i, k in idx.pairs:
            v *= he_value(k, draws[:, i - 1])
        vals += v
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


def fd_partial(p: ChaosPoly, i: int, point, h: float = 1e-5) -> float:
    """Central finite difference of the independent evaluator."""
    up = np.array(point, dtype=float)
    dn = np.array(point, dtype=float)
    up[i - 1] += h
    dn[i - 1] -= h
    return (eval_poly_indep(p, up) - eval_poly_indep(p, dn)) / (2.0 * h)


def refine_monomial_oracle(dim: int, i: int, k: int, m: int) -> ChaosPoly:
    """Exact multinomial expansion of He_k over an m-fold block average.

    Independent derivation (generating-function route) of what refine() must
    produce for a single-coordinate monomial:
    He_k(sum_j c eta'_j) = sum_{|beta|=k} k!/prod(beta!) c^k prod He_{beta_j}.
    """
    block = list(range((i - 1) * m + 1, i * m + 1))
    scale = m ** (-k / 2.0)
    terms = {}
    for beta in cartesian(range(k + 1), repeat=m):
        if sum(beta) != k:
            continue
        w = math.factorial(k) * scale
        for b in beta:
            w /= math.factorial(b)
        key = packed((block[j], b) for j, b in enumerate(beta))
        terms[key] = terms.get(key, 0.0) + w
    return ChaosPoly(dim * m, terms)


def _refined_top_mass(k: int, m: int) -> Fraction:
    """``R(k, m) = k! (1 - k m**-k sum_{j<m} j**(k-1))``, with ``0**0 = 1``.

    The squared norm left unrepresentable when ``He_k`` of the top coordinate
    is refined into ``m`` cells: ``R(1, m) = 0`` and ``R(2, m) = 2/m``.
    """
    tail = sum(Fraction(j) ** (k - 1) for j in range(m))
    return math.factorial(k) * (1 - k * tail / Fraction(m) ** k)


def refinement_residual(v, m: int) -> float:
    """Closed-form residual of ``reconstruct`` after refining ``v`` by ``m``.

    The square root of :func:`refinement_mass`, rounded once by
    :func:`exact_root`.
    """
    return exact_root(refinement_mass(v, m))


def refinement_mass(v, m: int) -> Fraction:
    """Squared residual of ``reconstruct`` after refining ``v`` by ``m``, exact.

    Refinement maps coarse coordinate i to the unit-norm average of fine
    block i, so distinct coarse monomials keep orthogonal fine expansions,
    lower blocks keep their full mass and only the top block decides what is
    representable.  For ``v = sum_alpha c_alpha He_alpha`` with top
    coordinate ``t``, ``residual**2 = sum_alpha c_alpha**2 prod_{i<t}
    alpha_i! R(alpha_t, m)`` over every component, summed in ``Fraction``s
    from the stored coefficients.  At ``m = 1`` that is ``alpha! c**2`` over
    the terms whose top order is at least 2.  Reads only the packed keys.
    """
    total = Fraction(0)
    for p in v.components:
        for key, c in p.packed_terms.items():
            if not key:
                continue
            *lower, (_, top) = [(i, key.count(i)) for i in sorted(set(key))]
            mass = Fraction(c) ** 2 * math.prod(math.factorial(k) for _, k in lower)
            total += mass * _refined_top_mass(top, m)
    return total


def exact_root(total: Fraction) -> float:
    """``sqrt(total)`` rounded once to the nearest double; ``inf`` past the largest.

    ``math.sqrt`` of a ``Fraction`` rounds it to a double first, which loses
    a sum below the smallest one (2e-400 becomes 0.0) or above the largest.
    Here the integer square root is taken at a power-of-two scale that gives
    it about 60 bits, and an inexact root is made odd, so that it rounds to
    the same double as the exact root.
    """
    s = 60 - (total.numerator.bit_length() - total.denominator.bit_length()) // 2
    scaled = total * Fraction(4) ** s
    root = math.isqrt(math.floor(scaled))
    try:
        return float((root | (root * root != scaled)) / Fraction(2) ** s)
    except OverflowError:
        return math.inf


def exact_float(total: Fraction) -> float:
    """``total`` rounded once to the nearest double; ``inf`` past the largest."""
    try:
        return float(total)
    except OverflowError:
        return math.inf


def l2_mass(polys) -> Fraction:
    """``sum alpha! c**2`` over the terms of ``polys``, exact in ``Fraction``s.

    The squared L2 norm of one polynomial, or of a field's stored
    polynomials taken together.  Reads only the packed keys.
    """
    total = Fraction(0)
    for p in polys:
        for key, c in p.packed_terms.items():
            total += Fraction(c) ** 2 * math.prod(math.factorial(key.count(i)) for i in set(key))
    return total


def energies(phi: ChaosPoly) -> tuple[float, float]:
    """Adapted and minimal integrand energies of ``phi``, exact in ``Fraction``s.

    For ``phi = sum_alpha c_alpha He_alpha``: the adapted energy is
    ``sum alpha! c_alpha**2`` over the terms whose top coordinate has order
    1, and the minimal one ``sum alpha! c_alpha**2 / |alpha|`` over the
    non-constant terms.  Both are summed exactly from the stored
    coefficients and rounded once by :func:`exact_float`.  Reads only the
    packed keys.
    """
    adapted = minimal = Fraction(0)
    for key, c in phi.packed_terms.items():
        if not key:
            continue
        orders = [key.count(i) for i in sorted(set(key))]
        mass = Fraction(c) ** 2 * math.prod(map(math.factorial, orders))
        if orders[-1] == 1:
            adapted += mass
        minimal += mass / len(key)
    return exact_float(adapted), exact_float(minimal)


def split_integrand(p: ChaosPoly) -> HField:
    """Independent construction of the adapted integrand for representable p.

    Each monomial with top coordinate j at order 1 is the stage-j integral
    of the same monomial with that factor removed, placed in coordinate j.
    """
    rows = [ChaosPoly.zero(p.dim) for _ in range(p.dim)]
    for idx, c in p.terms.items():
        if not idx.pairs:
            continue
        *lower, (j, order) = idx.pairs
        assert order == 1
        rows[j - 1] = rows[j - 1] + ChaosPoly(p.dim, {packed(lower): c})
    return HField(tuple(rows))


def _linearization(m: int, n: int):
    # He_m * He_n = sum_k C(m,k) C(n,k) k! He_{m+n-2k}, exact integers
    return [
        (m + n - 2 * k, math.comb(m, k) * math.comb(n, k) * math.factorial(k))
        for k in range(min(m, n) + 1)
    ]


def generic_product_pairs(p: ChaosPoly, q: ChaosPoly):
    """``(packed key, coefficient)`` pairs of ``p * q`` by the generic linearization.

    A copy of the product kernel without its degree-1 shortcut: disjoint
    monomials concatenate, and overlapping ones expand every shared
    coordinate through the linearization, the first one slowest, with the
    weight accumulated as a float product scaled by ``ca * cb``.
    """
    for ka, ca in p.packed_terms.items():
        for kb, cb in q.packed_terms.items():
            if not ka or not kb or ka[-1] < kb[0]:
                yield ka + kb, ca * cb
                continue
            if kb[-1] < ka[0]:
                yield kb + ka, ca * cb
                continue
            scale = ca * cb
            shared = sorted(set(ka) & set(kb))
            base = bytes(c for c in sorted(ka + kb) if c not in shared)
            options = [
                [(bytes((i,)) * order, weight) for order, weight in _linearization(ka.count(i), kb.count(i))]
                for i in shared
            ]
            for combo in cartesian(*options):
                weight = 1.0
                extra = b""
                for piece, w in combo:
                    weight *= w
                    extra += piece
                yield bytes(sorted(base + extra)), scale * weight
