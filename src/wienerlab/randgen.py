"""Seeded random instances for the verification suites and tests.

The polynomial and field builders draw from a :class:`_Draws` reader opened
on a Philox generator from :func:`make_rng`, which still returns numpy's
``Generator`` (``rotations.build_sequential_isometry`` draws from it
directly, and so do :func:`random_skew_matrix` and
:func:`random_orthogonal`).  A verification suite opens one reader for its
whole loop and passes it to every builder it calls.

The reader forms from the raw 64-bit Philox words the draws numpy would
make: bounded integers ``Generator.integers(a, b)`` by Lemire's
multiply-and-reject method (Lemire, ACM TOMACS 2019) over 32-bit halves,
the low half of a fresh word first and the high half on the next draw;
uniforms ``Generator.uniform(-1, 1)`` from one word's top 53 bits; and
``Generator.shuffle`` of a list by masked rejection.  It keeps the buffered
high half while open and hands it back to the generator on close, so every
instance and the stream it leaves behind are numpy's, bit for bit, without
numpy's per-call overhead.  The reader does not take numpy's per-generator
lock, so a generator must not be drawn from by another thread while a
reader on it is open.
"""

from __future__ import annotations

import numpy as np

from . import adapted as _adapted
from .adapted import PredictableHField, WeaklyAdaptedOperator
from .chaos import DIM_CAP, ChaosPoly, _ambient_dim, _kept, _pack, _sum_pairs
from .malliavin import HField, OperatorField, VField
from .space import _seed

#: ``_COORDS[n]`` is the coordinate tuple ``(1, ..., n)``.
_COORDS = tuple(tuple(range(1, n + 1)) for n in range(DIM_CAP + 1))


def make_rng(seed: int) -> np.random.Generator:
    """numpy's ``Generator`` over the Philox stream keyed by ``seed``.

    ``seed`` must be an integer in 0 .. 2**64 - 1, as for sampling
    (``space._seed``): a float, even an integral one, or a seed outside that
    range raises ``ValueError`` and is never truncated.
    """
    return np.random.Generator(np.random.Philox(key=_seed(seed)))


class _Draws:
    """numpy's draws from one Philox generator, read straight off its raw words.

    One reader serves a whole verification suite: the suite opens it on its
    generator, passes it to every builder, and closes it after its loop.
    numpy draws a bound ``b <= 2**32`` from ``next_uint32``: Philox returns
    the low 32 bits of a fresh 64-bit word and keeps the high 32 for the
    next call (its ``has_uint32`` and ``uinteger`` state).  The reader takes
    that buffer from the state when it opens, keeps it while open, and
    writes it back on :meth:`close` when it changed.  While it is open the
    generator ``rng`` may make only draws of whole words, which leave the
    buffer alone: ``random``, ``uniform`` and ``standard_normal``.
    ``integers``, ``shuffle`` and ``choice`` read the buffer, so they go
    through the reader (:meth:`below`, :meth:`shuffle`) or wait for close.
    """

    __slots__ = ("rng", "_bitgen", "_raw", "_has", "_upper", "_opened")

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.Philox:
            raise TypeError(f"seeded instances need a Philox generator, got {type(bitgen).__name__}")
        state = bitgen.state
        self.rng = rng
        self._bitgen = bitgen
        self._raw = bitgen.random_raw
        self._has, self._upper = state["has_uint32"], state["uinteger"]
        self._opened = (self._has, self._upper)

    def __enter__(self) -> _Draws:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Hand the 32-bit buffer back to the generator, if it changed."""
        if (self._has, self._upper) != self._opened:
            state = self._bitgen.state
            state["has_uint32"], state["uinteger"] = self._has, self._upper
            self._bitgen.state = state
            self._opened = (self._has, self._upper)

    def _next32(self) -> int:
        """Philox's ``next_uint32``: the buffered high half, else a fresh word's low half."""
        if self._has:
            self._has = 0
            return self._upper
        word = self._raw()
        self._has, self._upper = 1, word >> 32
        return word & 0xFFFFFFFF

    def below(self, b: int) -> int:
        """``int(rng.integers(0, b))`` for ``1 <= b <= 2**32``; a bound of one draws nothing.

        ``int(rng.integers(a, a + b))`` is ``a + below(b)``.  Lemire's
        method: the high 32 bits of ``x * b`` for a 32-bit ``x``, drawn
        again while the low 32 bits fall below ``2**32 mod b``.  numpy
        returns ``x`` itself for ``b = 2**32``, which the exact product gives.
        """
        if b == 1:
            return 0
        m = self._next32() * b
        if (m & 0xFFFFFFFF) < b:
            threshold = (0x100000000 - b) % b
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * b
        return m >> 32

    def uniform(self) -> float:
        """``float(rng.uniform(-1, 1))``: ``-1 + 2 * u`` for numpy's double ``u``.

        ``u`` is the top 53 bits of the next word over ``2**53``, Philox's
        ``next_double``; it leaves the 32-bit buffer alone.  Doubling is
        exact, so a fused multiply-add gives the same bits.
        """
        return -1.0 + 2.0 * ((self._raw() >> 11) * 2.0**-53)

    def shuffle(self, items: list) -> None:
        """``rng.shuffle(items)`` for a list, in place.

        numpy swaps position ``i = len - 1 .. 1`` with one drawn in ``0..i``
        by ``random_interval``: 32-bit draws masked to the bits of ``i`` and
        drawn again while above ``i``.
        """
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            items[i], items[j] = items[j], items[i]


def _sample(draws: _Draws, coords, width: int) -> list:
    """``rng.choice(coords, size=width, replace=False)`` by numpy's own sampler.

    Floyd's algorithm picks ``width`` positions of ``P = len(coords)``: for
    ``j = P - width .. P - 1`` it draws ``v`` in ``0..j`` and takes ``j``
    instead when ``v`` was already picked.  A Fisher-Yates pass then swaps
    position ``i = width - 1 .. 1`` with one drawn in ``0..i``.  The draws,
    the picks and the stream left behind are those of ``Generator.choice``,
    without its per-call array set-up.
    """
    below = draws.below
    size = len(coords)
    picked: list[int] = []
    for j in range(size - width, size):
        v = below(j + 1)
        picked.append(j if v in picked else v)
    for i in range(width - 1, 0, -1):
        j = below(i + 1)
        picked[i], picked[j] = picked[j], picked[i]
    return [coords[k] for k in picked]


def _key(draws: _Draws, coords, degree: int) -> bytes:
    """Packed key of a sparse index over ``coords``, total degree <= degree.

    Each picked coordinate in turn draws its order in ``0 .. budget``; the
    key is the coordinates repeated by their orders, sorted.
    """
    if not coords or degree == 0:
        return b""
    below = draws.below
    width = min(len(coords), 1 + below(3))
    repeated: list = []
    budget = degree
    for c in _sample(draws, coords, width):
        if budget == 0:
            break
        k = below(budget + 1)
        if k:
            repeated += (c,) * k
            budget -= k
    return bytes(sorted(repeated))


def _poly(draws: _Draws, n: int, degree: int, n_terms: int, coords=None) -> ChaosPoly:
    """``n_terms`` drawn terms over ``coords`` (default ``1 .. n``), summed.

    ``_key`` sorts each key and draws it from coordinates inside ``1 .. n``,
    so only ``n``, the degree cap and the value rules are checked.
    """
    n = _ambient_dim(n)
    if coords is None:
        coords = _COORDS[n]
    uniform = draws.uniform
    pairs = [(_key(draws, coords, degree), uniform()) for _ in range(n_terms)]
    return ChaosPoly._of(n, _kept(_sum_pairs(pairs), capped=True))


def _predictable(draws: _Draws, n: int, degree: int) -> PredictableHField:
    """Coordinate i draws two terms over its strict past, or a constant when that is empty."""
    return PredictableHField(tuple(
        _poly(draws, n, degree, 2, _COORDS[past]) if past else ChaosPoly.constant(n, draws.uniform())
        for past in _adapted._PAST[1 : n + 1]
    ))


def random_poly(draws: _Draws, n: int, degree: int) -> ChaosPoly:
    """Four terms over ``eta_1 .. eta_n``."""
    return _poly(draws, n, degree, 4)


def random_vfield(draws: _Draws, n: int, d: int, degree: int) -> VField:
    """Three terms per component."""
    return VField(tuple(_poly(draws, n, degree, 3) for _ in range(d)))


def random_operator(draws: _Draws, n: int, d: int, degree: int) -> OperatorField:
    """Two terms per entry."""
    return OperatorField(tuple(
        HField(tuple(_poly(draws, n, degree, 2) for _ in range(n))) for _ in range(d)
    ))


def random_predictable_field(draws: _Draws, n: int, degree: int) -> PredictableHField:
    """Coordinate i draws two terms from its strict past only."""
    return _predictable(draws, n, degree)


def random_weakly_adapted(draws: _Draws, n: int, d: int, degree: int) -> WeaklyAdaptedOperator:
    return WeaklyAdaptedOperator(tuple(_predictable(draws, n, degree) for _ in range(d)))


def random_finite_rank_adapted(draws: _Draws, n: int, d: int) -> WeaklyAdaptedOperator:
    """sum_t y_t (x) q_t over two terms: predictable q_t, y_t uniform in [-1, 1]^d."""
    fields, functionals = [], []
    for _ in range(2):
        fields.append(_predictable(draws, n, 2))
        functionals.append([draws.uniform() for _ in range(d)])
    Q, Y = OperatorField(tuple(fields)), np.array(functionals)
    return WeaklyAdaptedOperator(tuple(Q.transpose_apply(Y[:, a]) for a in range(d)))


def random_representable_poly(draws: _Draws, n: int, degree: int) -> ChaosPoly:
    """Four terms; every monomial has order exactly 1 in its last stage.

    Each term draws its largest coordinate, with order 1, and then orders
    over the strict past of that coordinate's stage.
    """
    terms = []
    for _ in range(4):
        top = 1 + draws.below(n)
        orders = {top: 1}
        budget = degree - 1
        below = list(_COORDS[_adapted._PAST[top]])
        draws.shuffle(below)
        for c in below:
            if budget == 0:
                break
            k = draws.below(budget + 1)
            if k:
                orders[c] = k
                budget -= k
        terms.append((_pack(sorted(orders.items())), draws.uniform()))
    return ChaosPoly(n, terms)


def random_representable_vfield(draws: _Draws, n: int, d: int, degree: int) -> VField:
    return VField(tuple(random_representable_poly(draws, n, degree) for _ in range(d)))


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
