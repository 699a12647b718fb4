"""Exact Wiener-chaos polynomial algebra over independent standard Gaussians.

A square-integrable polynomial functional of n independent standard Gaussian
coordinates ``eta_1 .. eta_n`` is stored as a sparse linear combination of
Hermite monomials ``prod_i He_{k_i}(eta_i)``.  The probabilists' convention
is used throughout::

    He_0 = 1,   He_1 = x,   He_{k+1}(x) = x * He_k(x) - k * He_{k-1}(x)

so that ``E[He_j(eta) He_k(eta)] = k! * [j == k]`` and the L2 inner product
of two chaos polynomials is ``sum_alpha alpha! * p_alpha * q_alpha`` with
``alpha! = prod_i k_i!``.

Each stored term is keyed by one packed multi-index: the ``bytes`` string of
the index's coordinate occurrences, sorted ascending, one byte per
occurrence.  ``{1: 2, 3: 1}`` is ``b"\x01\x01\x03"`` and the constant is
``b""``; a byte holds any coordinate up to :data:`DIM_CAP`.  Every index
property is one byte operation: the total degree is ``len(key)``, the
largest coordinate ``key[-1]``, the order at ``i`` ``key.count(i)``, a
derivative drops one occurrence of ``i`` and a coordinate product inserts
one.  :class:`MultiIndex` is the public view of a key: ``ChaosPoly.terms``
builds the views on demand in stored order, and the text form sorts them by
:meth:`MultiIndex.sort_key` (degree, then coordinates, then orders).

Every operation here is exact up to double rounding: expectation, inner
product, product (Hermite linearization), coordinate derivative, conditional
expectation with respect to the coordinate filtration, chaos-grade
projection, number-operator scaling and its inverse, grid refinement, and
evaluation on a batch of samples.

A product is expanded monomial pair by monomial pair.  A left monomial of
degree 1, ``eta_i``, applies the three-term rule
``eta_i He_beta = He_{beta+e_i} + beta_i He_{beta-e_i}`` directly: insert
one ``i`` into the key and, when ``i`` occurs, also remove one with weight
``beta_i``.  That yields the pairs of the general Hermite linearization, in
the same order and with the same floats.

Two kernels build a table once and read it many times.  :func:`refine`
builds the Hermite expansions of one block average per call and relabels
them for every block.  :func:`evaluate_batch` reads the columns
``He_k(eta_i)`` from a :class:`HermiteColumns`: a ``space.SampleBatch``
owns one for its draws, and a call on a plain array builds its own and drops
it.  Neither table outlives its call or its batch, and both give the bits
of the unshared computation, because each float is formed by the same
operations in the same order.

Every operation passes its ``(key, coefficient)`` pairs to the
:class:`ChaosPoly` constructor, whose one term gate sums them, checks each
summed index against the ambient dimension and the degree cap, rejects a
NaN or infinite coefficient with :class:`AlgebraError` instead of storing
or dropping it, and prunes coefficients at or below ``PRUNE_EPS``, so a
stored coefficient is never an exact zero.  The degree cap is fixed: no
operation can build a term past it.

Values are immutable and operations are pure functions, so they are safe to
share across threads or workers without locking.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping
from functools import lru_cache
from itertools import product as _cartesian
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

#: Largest total degree a stored term may have.  Fixed: nothing overrides it.
DEGREE_CAP = 8

#: Hard upper bound on the ambient Gaussian dimension.
DIM_CAP = 128

#: Coefficients with absolute value at or below this are dropped.
PRUNE_EPS = 1e-14


class AlgebraError(ValueError):
    """Invalid operation on chaos-algebra values."""


class DimensionMismatch(AlgebraError):
    """Operands live over different ambient Gaussian dimensions."""


class DegreeCapExceeded(AlgebraError):
    """A term's total degree went past :data:`DEGREE_CAP`."""

    def __init__(self, degree: int):
        super().__init__(
            f"term of total degree {degree} exceeds the degree cap {DEGREE_CAP}"
        )
        self.degree = degree


class NotCentered(AlgebraError):
    """Inverse number-operator applied to a functional with nonzero mean."""


class MultiIndex:
    """Sparse exponent vector: 1-based coordinate index -> positive order.

    The public view of a packed key.  Canonical form stores only nonzero
    orders, sorted by coordinate.  The empty multi-index denotes the
    constant monomial ``He_0 = 1``.
    """

    __slots__ = ("_pairs", "_degree", "_factorial")

    def __init__(self, orders: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = []
        for coord, order in orders.items() if hasattr(orders, "items") else orders:
            coord = int(coord)
            order = int(order)
            if order == 0:
                continue
            if coord < 1:
                raise AlgebraError(f"coordinate index {coord} is not >= 1")
            if order < 0:
                raise AlgebraError(f"negative Hermite order {order} at coordinate {coord}")
            pairs.append((coord, order))
        pairs.sort()
        for (i, _), (j, _) in zip(pairs, pairs[1:]):
            if i == j:
                raise AlgebraError(f"coordinate {i} appears more than once")
        self._pairs = tuple(pairs)
        self._degree = sum(k for _, k in pairs)
        self._factorial = math.prod(math.factorial(k) for _, k in pairs)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    @property
    def total_degree(self) -> int:
        return self._degree

    @property
    def factorial(self) -> int:
        """``prod_i k_i!`` for the stored orders."""
        return self._factorial

    @property
    def max_coordinate(self) -> int:
        """Largest coordinate carrying a positive order; 0 for the constant."""
        return self._pairs[-1][0] if self._pairs else 0

    def sort_key(self) -> tuple:
        # deterministic serialization order: degree, then coordinates, then orders
        return (self._degree, tuple(i for i, _ in self._pairs), tuple(k for _, k in self._pairs))

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"MultiIndex({dict(self._pairs)!r})"


# ---- packed keys ---------------------------------------------------------


def _pack(pairs) -> bytes:
    """Key of canonical ``(coordinate, order)`` pairs, coordinates <= 255."""
    return b"".join(bytes((i,)) * k for i, k in pairs)


def _pairs_of(key: bytes) -> list[tuple[int, int]]:
    """``(coordinate, order)`` pairs of a key, by ascending coordinate."""
    return [(i, key.count(i)) for i in dict.fromkeys(key)]


def _factorial(key: bytes) -> int:
    """``alpha!`` of a key: the factorials of its run lengths, multiplied."""
    f = run = 1
    prev = -1
    for c in key:
        if c == prev:
            run += 1
            f *= run
        else:
            run = 1
            prev = c
    return f


def _top_order_above_one(key: bytes) -> bool:
    """Whether the largest coordinate of a key carries Hermite order >= 2."""
    return len(key) > 1 and key[-1] == key[-2]


def _entry_key(idx, dim: int) -> bytes:
    """Key of a :class:`MultiIndex`, a mapping or a pair list entering the gate.

    A coordinate past :data:`DIM_CAP` lies outside every ambient dimension
    and has no one-byte digit, so it is refused here, on entry.
    """
    if not isinstance(idx, MultiIndex):
        idx = MultiIndex(idx)
    if idx.max_coordinate > DIM_CAP:
        raise DimensionMismatch(
            f"coordinate {idx.max_coordinate} outside ambient dimension {dim}"
        )
    return _pack(idx.pairs)


def _canonical_terms(terms, dim: int) -> dict[bytes, float]:
    """The term gate: sum, check and prune ``(index, coefficient)`` pairs.

    An index is a packed key, or a :class:`MultiIndex`, mapping or pair list
    that is packed on entry.  Pairs are summed in arrival order.  Every
    summed index, also one whose coefficients cancel to zero, is checked
    against ``dim`` and :data:`DEGREE_CAP` before any coefficient is checked
    for finiteness.
    """
    acc: dict[bytes, float] = {}
    get = acc.get
    for key, coeff in terms.items() if hasattr(terms, "items") else terms:
        if key.__class__ is not bytes:
            key = _entry_key(key, dim)
        acc[key] = get(key, 0.0) + float(coeff)
    for key in acc:
        if key and key[-1] > dim:
            raise DimensionMismatch(f"coordinate {key[-1]} outside ambient dimension {dim}")
        if len(key) > DEGREE_CAP:
            raise DegreeCapExceeded(len(key))
    return _finite_pruned(acc)


def _finite_pruned(acc: dict[bytes, float]) -> dict[bytes, float]:
    """The last two steps of the term gate: refuse a non-finite sum, then prune."""
    if not all(map(math.isfinite, acc.values())):
        bad = next(c for c in acc.values() if not math.isfinite(c))
        raise AlgebraError(f"non-finite coefficient {bad!r}")
    return {key: c for key, c in acc.items() if abs(c) > PRUNE_EPS}


def _view(key: bytes) -> MultiIndex:
    return MultiIndex(_pairs_of(key))


class _TermsView(Mapping):
    """Read-only ``MultiIndex -> coefficient`` view of a key store.

    Iterates in stored order and builds each :class:`MultiIndex` on demand;
    ``len`` reads the store without building any.
    """

    __slots__ = ("_store",)

    def __init__(self, store: dict[bytes, float]):
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self):
        return map(_view, self._store)

    def __getitem__(self, idx: MultiIndex) -> float:
        if isinstance(idx, MultiIndex) and idx.max_coordinate <= DIM_CAP:
            key = _pack(idx.pairs)
            if key in self._store:
                return self._store[key]
        raise KeyError(idx)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class ChaosPoly:
    """Immutable polynomial functional in its Hermite-monomial expansion.

    ``dim`` is the ambient number of Gaussian coordinates.  The terms are
    stored by packed key (see the module docstring); ``terms`` views them
    as :class:`MultiIndex` -> float coefficient.  The empty index carries
    the expectation.
    """

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms=()):
        dim = int(dim)
        if not 1 <= dim <= DIM_CAP:
            raise AlgebraError(f"ambient dimension {dim} outside 1..{DIM_CAP}")
        self._dim = dim
        self._terms = _canonical_terms(terms, dim)

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "ChaosPoly":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: float) -> "ChaosPoly":
        return cls(dim, {b"": value})

    @classmethod
    def coordinate(cls, dim: int, i: int) -> "ChaosPoly":
        """The coordinate functional ``eta_i = He_1(eta_i)``."""
        return cls.hermite(dim, i, 1)

    @classmethod
    def hermite(cls, dim: int, i: int, k: int, coeff: float = 1.0) -> "ChaosPoly":
        """The single monomial ``coeff * He_k(eta_i)``."""
        if not 1 <= i <= dim:
            raise AlgebraError(f"coordinate {i} outside 1..{dim}")
        i, k = int(i), int(k)
        if k < 0:
            raise AlgebraError(f"negative Hermite order {k} at coordinate {i}")
        return cls(dim, {bytes((i,)) * k: coeff})

    # ---- basic views ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> Mapping[MultiIndex, float]:
        return _TermsView(self._terms)

    @property
    def packed_terms(self) -> Mapping[bytes, float]:
        """Read-only packed key -> coefficient store, in stored order."""
        return MappingProxyType(self._terms)

    def max_coordinate(self) -> int:
        """Largest coordinate any term depends on (0 for constants and zero)."""
        return max(b"".join(self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self) -> list[tuple[MultiIndex, float]]:
        return sorted(
            ((_view(key), c) for key, c in self._terms.items()),
            key=lambda kv: kv[0].sort_key(),
        )

    # ---- arithmetic sugar (delegates to the module-level operations) ---

    def __add__(self, other: "ChaosPoly") -> "ChaosPoly":
        return linear_combine([1.0, 1.0], [self, other])

    def __sub__(self, other: "ChaosPoly") -> "ChaosPoly":
        return linear_combine([1.0, -1.0], [self, other])

    def __neg__(self) -> "ChaosPoly":
        return linear_combine([-1.0], [self])

    def __mul__(self, other):
        if isinstance(other, ChaosPoly):
            return hermite_product(self, other)
        return linear_combine([float(other)], [self])

    def __rmul__(self, other):
        return linear_combine([float(other)], [self])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChaosPoly)
            and self._dim == other._dim
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self._dim, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"ChaosPoly(dim={self._dim}, 0)"
        body = ", ".join(
            f"{dict(idx.pairs)!r}: {c!r}" for idx, c in self.sorted_terms()
        )
        return f"ChaosPoly(dim={self._dim}, {{{body}}})"

    # ---- convenience ----------------------------------------------------

    def expectation(self) -> float:
        return expectation(self)

    def norm_l2(self) -> float:
        return norm_l2(self)

    # ---- canonical text form --------------------------------------------

    def to_text(self) -> str:
        """One line per term: ``coeff i1:k1 i2:k2 ...`` in canonical order.

        The zero polynomial serializes to the empty string; a constant term
        serializes as the bare coefficient.  Coefficients use ``repr``, so the
        text holds every bit of each coefficient.
        """
        lines = []
        for idx, coeff in self.sorted_terms():
            parts = [repr(coeff)] + [f"{i}:{k}" for i, k in idx.pairs]
            lines.append(" ".join(parts))
        return "\n".join(lines)


def _require_same_dim(*polys: ChaosPoly) -> int:
    dims = {p.dim for p in polys}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed ambient dimensions {sorted(dims)}")
    return polys[0].dim


def linear_combine(coeffs: Sequence[float], polys: Sequence[ChaosPoly]) -> ChaosPoly:
    """``sum_j coeffs[j] * polys[j]`` over a shared ambient dimension."""
    if len(coeffs) != len(polys):
        raise AlgebraError(
            f"{len(coeffs)} coefficients for {len(polys)} polynomials"
        )
    if not polys:
        raise AlgebraError("empty linear combination has no ambient dimension")
    dim = _require_same_dim(*polys)
    return ChaosPoly(
        dim,
        (
            (key, c * pc)
            for c, p in zip(map(float, coeffs), polys)
            if c != 0.0
            for key, pc in p._terms.items()
        ),
    )


@lru_cache(maxsize=None)
def _linearization(m: int, n: int) -> tuple[tuple[int, int], ...]:
    # He_m * He_n = sum_k C(m,k) C(n,k) k! He_{m+n-2k}, exact integers
    return tuple(
        (m + n - 2 * k, math.comb(m, k) * math.comb(n, k) * math.factorial(k))
        for k in range(min(m, n) + 1)
    )


def _shared_product(a: bytes, b: bytes):
    """Yield ``(key, weight)`` for ``He_a * He_b`` when the supports overlap.

    Each shared coordinate expands through :func:`_linearization`; the
    shared coordinates vary in ascending order, the first one slowest.
    """
    shared = sorted(set(a).intersection(b))
    if not shared:
        yield bytes(sorted(a + b)), 1.0
        return
    base = bytes(c for c in sorted(a + b) if c not in shared)
    options = [
        [(bytes((i,)) * order, weight) for order, weight in _linearization(a.count(i), b.count(i))]
        for i in shared
    ]
    for combo in _cartesian(*options):
        coeff = 1.0
        extra = b""
        for piece, weight in combo:
            coeff *= weight
            extra += piece
        yield bytes(sorted(base + extra)), coeff


def _coordinate_terms(digit: bytes, ca: float, q: dict[bytes, float]):
    """``(key, coefficient)`` pairs of ``ca * eta_i * q`` for ``digit = bytes((i,))``.

    ``He_1 He_k = He_{k+1} + k He_{k-1}`` at coordinate ``i``: each term
    yields its key with one ``i`` inserted, then, when ``i`` occurs in it,
    its key with one ``i`` removed and weight ``k``.  These are the pairs,
    order and float products of the generic linearization.
    """
    i = digit[0]
    for kb, cb in q.items():
        c = ca * cb
        at = bisect_right(kb, i)
        yield kb[:at] + digit + kb[at:], c
        if at and kb[at - 1] == i:
            yield kb.replace(digit, b"", 1), c * kb.count(i)


def _product_terms(p: dict[bytes, float], q: dict[bytes, float]):
    """``(key, coefficient)`` pairs of ``p * q``, monomial pair by pair."""
    for ka, ca in p.items():
        if len(ka) == 1:
            yield from _coordinate_terms(ka, ca, q)
            continue
        for kb, cb in q.items():
            if not ka or not kb or ka[-1] < kb[0]:
                yield ka + kb, ca * cb
            elif kb[-1] < ka[0]:
                yield kb + ka, ca * cb
            else:
                scale = ca * cb
                for key, w in _shared_product(ka, kb):
                    yield key, scale * w


def hermite_product(p: ChaosPoly, q: ChaosPoly) -> ChaosPoly:
    """Exact product in the algebra via Hermite linearization.

    Raises :class:`DegreeCapExceeded` rather than silently producing terms
    past the cap.
    """
    dim = _require_same_dim(p, q)
    return ChaosPoly(dim, _product_terms(p._terms, q._terms))


def expectation(p: ChaosPoly) -> float:
    """``E[p]``: the coefficient of the empty index."""
    return p._terms.get(b"", 0.0)


def l2_inner(p: ChaosPoly, q: ChaosPoly) -> float:
    """``E[p q] = sum_alpha alpha! p_alpha q_alpha`` without forming the product."""
    _require_same_dim(p, q)
    small, large = (p._terms, q._terms) if len(p._terms) <= len(q._terms) else (q._terms, p._terms)
    total = 0.0
    for key, c in small.items():
        other = large.get(key)
        if other is not None:
            total += _factorial(key) * c * other
    return total


def norm_l2(p: ChaosPoly) -> float:
    """``sqrt(E[p^2])``, finite whenever the norm is a finite double."""
    return _root_of_squares(l2_inner(p, p), (p,))


def _root_of_squares(square: float, polys: Iterable[ChaosPoly]) -> float:
    """``sqrt(square)``, where ``square`` is the sum of ``E[p^2]`` over ``polys``.

    The plain sum of squares is used when it is finite and nonzero; when it
    overflows (or underflows) the coefficients are first divided by the
    largest of them, as ``math.hypot`` does.
    """
    if 0.0 < square < math.inf:
        return math.sqrt(square)
    terms = [(key, c) for p in polys for key, c in p._terms.items()]
    if not terms:
        return 0.0
    big = max(abs(c) for _, c in terms)
    return big * math.sqrt(sum(_factorial(key) * (c / big) ** 2 for key, c in terms))


def partial_derivative(p: ChaosPoly, i: int) -> ChaosPoly:
    """Coordinate derivative: ``He_k(eta_i) -> k He_{k-1}(eta_i)`` per term."""
    if not 1 <= i <= p.dim:
        raise AlgebraError(f"coordinate {i} outside 1..{p.dim}")
    digit = bytes((i,))
    return ChaosPoly(
        p.dim,
        (
            (key.replace(digit, b"", 1), k * c)
            for key, c in p._terms.items()
            if (k := key.count(digit))
        ),
    )


def multiply_by_coordinate(p: ChaosPoly, i: int) -> ChaosPoly:
    """Exact product with ``eta_i``: ``He_1 He_k = He_{k+1} + k He_{k-1}``."""
    if not 1 <= i <= p.dim:
        raise AlgebraError(f"coordinate {i} outside 1..{p.dim}")
    return ChaosPoly(p.dim, _coordinate_terms(bytes((i,)), 1.0, p._terms))


def conditional_expectation(p: ChaosPoly, k: int) -> ChaosPoly:
    """Projection onto functionals of ``eta_1 .. eta_k``.

    Exact in this representation: a Hermite monomial has zero mean in every
    coordinate it touches, so conditioning on the first ``k`` coordinates
    keeps exactly the terms supported there.  ``k = 0`` returns the
    expectation as a constant; ``k = dim`` is the identity.
    """
    if not 0 <= k <= p.dim:
        raise AlgebraError(f"stage {k} outside 0..{p.dim}")
    kept = {key: c for key, c in p._terms.items() if not key or key[-1] <= k}
    return ChaosPoly(p.dim, kept)


def chaos_projection(p: ChaosPoly, m: int) -> ChaosPoly:
    """Grade projection: keep terms of total degree exactly ``m``."""
    if m < 0:
        raise AlgebraError(f"chaos grade {m} is negative")
    kept = {key: c for key, c in p._terms.items() if len(key) == m}
    return ChaosPoly(p.dim, kept)


def ou_apply(p: ChaosPoly) -> ChaosPoly:
    """Number operator: scale each grade-m term by m (constants vanish)."""
    return ChaosPoly(p.dim, {key: len(key) * c for key, c in p._terms.items() if key})


def ou_inverse(p: ChaosPoly) -> ChaosPoly:
    """Inverse number operator on centered functionals (grade-m term / m).

    The expectation must be within 1e-12 of zero.
    """
    mean = expectation(p)
    if abs(mean) > 1e-12:
        raise NotCentered(f"expectation {mean!r} exceeds centering tolerance 1e-12")
    return ChaosPoly(p.dim, {key: c / len(key) for key, c in p._terms.items() if key})


def _block_average_tables(m: int, top: int) -> list[dict[bytes, float]]:
    """Term stores of ``He_0 .. He_top`` of ``(eta_1 + ... + eta_m) / sqrt(m)``.

    ``He_{j+1} = z He_j - j He_{j-1}`` sums the pairs of ``z He_j`` in
    arrival order, then those of ``-j He_{j-1}``, and passes the sums once
    through the finiteness check and pruning of the term gate.  No key can
    leave the block or pass the degree cap, so those checks are skipped.
    """
    inv_root = 1.0 / math.sqrt(m)
    digits = [bytes((j,)) for j in range(1, m + 1)]
    tables = [{b"": 1.0}, dict.fromkeys(digits, inv_root)]
    for j in range(1, top):
        acc: dict[bytes, float] = {}
        get = acc.get
        for digit in digits:
            for key, c in _coordinate_terms(digit, inv_root, tables[j]):
                acc[key] = get(key, 0.0) + c
        for key, c in tables[j - 1].items():
            acc[key] = get(key, 0.0) + -j * c
        tables.append(_finite_pruned(acc))
    return tables[: top + 1]


def refine(p: ChaosPoly, m: int) -> ChaosPoly:
    """Replace each coordinate by the mean of ``m`` finer coordinates.

    Coordinate ``i`` of the coarse grid becomes
    ``(eta'_{(i-1)m+1} + ... + eta'_{im}) / sqrt(m)`` on a grid of dimension
    ``dim * m``.  Because that block average is again standard Gaussian the
    substitution preserves the law, grade, expectation, and every L2 inner
    product.  ``m = 1`` returns ``p`` itself.

    Each call builds ``He_0 .. He_K`` of the average of fine coordinates
    ``1 .. m`` once, by the three-term recurrence, where ``K`` is the largest
    order any coordinate of ``p`` carries, and drops the tables when it
    returns.  Block ``i`` reads them relabeled by ``bytes.translate``; the
    shift is monotone, so every ``bisect`` position and insertion order, and
    with them every float, is the one the block's own recurrence gives.  A
    coarse monomial expands as the cartesian product of its blocks' tables
    with coefficient ``((1.0 * c1) * c2) * ...``, and the sums pass the term
    gate once.  Partial products are not pruned: one block's coefficient has
    passed the gate, and under the degree cap a product over two or more
    blocks is at least ``64**-4`` (about 6e-8) in every table of up to three
    million terms, m = 2 .. 128, far above ``PRUNE_EPS``.
    """
    m = int(m)
    if m < 1:
        raise AlgebraError(f"refinement factor {m} is not >= 1")
    new_dim = p.dim * m
    if new_dim > DIM_CAP:
        raise AlgebraError(
            f"refined dimension {new_dim} exceeds the dimension cap {DIM_CAP}"
        )
    if m == 1:
        return p

    orders = [_pairs_of(key) for key in p._terms]
    base = _block_average_tables(m, max((k for pairs in orders for _, k in pairs), default=0))
    blocks: dict[tuple[int, int], list[tuple[bytes, float]]] = {}

    def block_terms(i: int, k: int) -> list[tuple[bytes, float]]:
        terms = blocks.get((i, k))
        if terms is None:
            shift = bytes.maketrans(bytes(range(1, m + 1)), bytes(range((i - 1) * m + 1, i * m + 1)))
            terms = blocks[i, k] = [(key.translate(shift), c) for key, c in base[k].items()]
        return terms

    def block_monomial(pairs) -> list[tuple[bytes, float]]:
        partial = [(b"", 1.0)]
        for i, k in pairs:
            partial = [(ka + kb, ca * cb) for ka, ca in partial for kb, cb in block_terms(i, k)]
        return partial

    return ChaosPoly(
        new_dim,
        (
            (pkey, c * pc)
            for pairs, c in zip(orders, p._terms.values())
            for pkey, pc in block_monomial(pairs)
        ),
    )


class HermiteColumns:
    """The columns ``He_k(eta_i)`` of one ``(N, dim)`` sample array.

    Coordinate ``i``'s columns are built on first use by the recurrence
    ``He_{k+1} = x He_k - k He_{k-1}`` (``He_0`` is the scalar 1.0, never a
    row) and kept, read-only, for as long as this object lives, so
    ``evaluate_batch`` reads each column once however many polynomials it
    evaluates.  The values do not depend on which calls asked for them.
    A longer list of columns replaces the shorter one whole and is never
    changed once stored, so threads may share the object without a lock.
    """

    __slots__ = ("samples", "_rows")

    def __init__(self, samples):
        self.samples = np.asarray(samples, dtype=float)
        self._rows: dict[int, list] = {}

    def column(self, i: int, k: int) -> np.ndarray:
        """``He_k`` of coordinate ``i`` (1-based) at every row, for ``k >= 1``."""
        rows = self._rows.get(i, [])
        if len(rows) <= k:
            rows = rows[:] or [1.0, np.array(self.samples[:, i - 1])]
            x = rows[1]
            while len(rows) <= k:
                j = len(rows) - 1
                rows.append(x * rows[j] - j * rows[j - 1])
            for row in rows[1:]:
                row.setflags(write=False)
            self._rows[i] = rows
        return rows[k]


def evaluate_batch(p: ChaosPoly, samples) -> np.ndarray:
    """Evaluate at an ``(N, dim)`` batch of samples, vectorized per term.

    ``samples`` is the array, or the :class:`HermiteColumns` of one, which a
    caller keeps to share the columns across polynomials.  Each term is
    ``((c * He_k1) * He_k2) * ...`` formed in one reused buffer and added to
    the running sum in stored order; the floats do not depend on whether
    the columns were shared.
    """
    columns = samples if isinstance(samples, HermiteColumns) else HermiteColumns(samples)
    shape = columns.samples.shape
    if len(shape) != 2 or shape[1] != p.dim:
        raise DimensionMismatch(f"batch of shape {shape} for ambient dimension {p.dim}")
    out = np.zeros(shape[0])
    buf = np.empty(shape[0])
    for key, c in p._terms.items():
        if not key:
            out += c
            continue
        (i, k), *rest = _pairs_of(key)
        np.multiply(columns.column(i, k), c, out=buf)
        for i, k in rest:
            np.multiply(buf, columns.column(i, k), out=buf)
        out += buf
    return out
