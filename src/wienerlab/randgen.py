"""Seeded random instances for the verification suites and tests.

All generators take an explicit numpy Generator so callers control
reproducibility; :func:`make_rng` builds the canonical Philox stream.
"""

from __future__ import annotations

import numpy as np

from .adapted import PredictableHField, WeaklyAdaptedOperator
from .chaos import ChaosPoly, _pack
from .malliavin import HField, OperatorField, VField


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _uniform(rng: np.random.Generator) -> float:
    """``float(rng.uniform(-1, 1))``: numpy forms ``-1 + 2 * u`` from one double ``u``.

    Doubling is exact, so a fused multiply-add gives the same bits.
    """
    return -1.0 + 2.0 * rng.random()


def _sample(rng: np.random.Generator, coords, width: int) -> list:
    """``rng.choice(coords, size=width, replace=False)`` by numpy's own sampler.

    Floyd's algorithm picks ``width`` positions of ``P = len(coords)``: for
    ``j = P - width .. P - 1`` it draws ``v`` in ``0..j`` and takes ``j``
    instead when ``v`` was already picked.  A Fisher-Yates pass then swaps
    position ``i = width - 1 .. 1`` with one drawn in ``0..i``.  The draws,
    the picks and the stream left behind are those of ``Generator.choice``,
    without its per-call array set-up.  A bound of one draws nothing.
    """
    size = len(coords)
    picked: list[int] = []
    for j in range(size - width, size):
        v = int(rng.integers(0, j + 1))
        picked.append(j if v in picked else v)
    for i in range(width - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        picked[i], picked[j] = picked[j], picked[i]
    return [coords[k] for k in picked]


def _random_key(rng: np.random.Generator, n: int, degree: int, coords=None) -> bytes:
    """Packed key of a sparse index over the allowed coordinates, total degree <= degree."""
    if coords is None:
        coords = list(range(1, n + 1))
    if not coords or degree == 0:
        return b""
    width = min(len(coords), int(rng.integers(1, 4)))
    support = _sample(rng, coords, width)
    orders = {}
    budget = degree
    for c in support:
        if budget == 0:
            break
        k = int(rng.integers(0, budget + 1))
        if k:
            orders[int(c)] = k
            budget -= k
    return _pack(sorted(orders.items()))


def random_poly(rng: np.random.Generator, n: int, degree: int,
                n_terms: int = 4, coords=None) -> ChaosPoly:
    return ChaosPoly(n, [
        (_random_key(rng, n, degree, coords), _uniform(rng))
        for _ in range(n_terms)
    ])


def random_hfield(rng, n: int, degree: int) -> HField:
    """Two terms per coordinate."""
    return HField(tuple(random_poly(rng, n, degree, 2) for _ in range(n)))


def random_vfield(rng, n: int, d: int, degree: int) -> VField:
    """Three terms per component."""
    return VField(tuple(random_poly(rng, n, degree, 3) for _ in range(d)))


def random_operator(rng, n: int, d: int, degree: int) -> OperatorField:
    return OperatorField(tuple(random_hfield(rng, n, degree) for _ in range(d)))


def random_predictable_field(rng, n: int, degree: int) -> PredictableHField:
    """Coordinate i draws two terms from eta_1 .. eta_{i-1} only."""
    coords = []
    for i in range(1, n + 1):
        allowed = list(range(1, i))
        if allowed:
            coords.append(random_poly(rng, n, degree, 2, coords=allowed))
        else:
            coords.append(ChaosPoly.constant(n, _uniform(rng)))
    return PredictableHField(tuple(coords))


def random_weakly_adapted(rng, n: int, d: int, degree: int) -> WeaklyAdaptedOperator:
    return WeaklyAdaptedOperator(
        tuple(random_predictable_field(rng, n, degree) for _ in range(d))
    )


def random_finite_rank_adapted(rng, n: int, d: int) -> WeaklyAdaptedOperator:
    """sum_t y_t (x) q_t over two terms: predictable q_t, y_t uniform in [-1, 1]^d."""
    fields, functionals = [], []
    for _ in range(2):
        fields.append(random_predictable_field(rng, n, 2))
        functionals.append(rng.uniform(-1, 1, size=d))
    Q, Y = OperatorField(tuple(fields)), np.array(functionals)
    return WeaklyAdaptedOperator(tuple(Q.transpose_apply(Y[:, a]) for a in range(d)))


def random_representable_poly(rng, n: int, degree: int) -> ChaosPoly:
    """Four terms; every monomial's top coordinate carries order exactly 1."""
    terms = []
    for _ in range(4):
        top = int(rng.integers(1, n + 1))
        orders = {top: 1}
        budget = degree - 1
        below = list(range(1, top))
        rng.shuffle(below)
        for c in below:
            if budget == 0:
                break
            k = int(rng.integers(0, budget + 1))
            if k:
                orders[c] = k
                budget -= k
        terms.append((_pack(sorted(orders.items())), _uniform(rng)))
    return ChaosPoly(n, terms)


def random_representable_vfield(rng, n: int, d: int, degree: int) -> VField:
    return VField(tuple(random_representable_poly(rng, n, degree) for _ in range(d)))


def random_skew_matrix(rng, n: int) -> np.ndarray:
    A = rng.uniform(-1, 1, size=(n, n))
    A = A - A.T
    np.fill_diagonal(A, 0.0)
    return A


def random_orthogonal(rng, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix via QR with a fixed sign convention."""
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    return Q * np.sign(np.diag(R))
