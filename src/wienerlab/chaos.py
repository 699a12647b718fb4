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
one.  Packed keys are the only index format: the constructor takes them and
nothing else, and the text form sorts them by degree, then coordinates,
then orders, read off each key.  :class:`MultiIndex` is a read-only view of
one key, which ``ChaosPoly.terms`` builds on demand in stored order.

Every operation here is exact up to double rounding: expectation, inner
product, product (Hermite linearization), coordinate derivative, conditional
expectation with respect to the coordinate filtration, number-operator
scaling and its inverse, grid refinement, and evaluation on a batch of
samples.  A sum of weighted squares of coefficients, such as the L2 norm,
is exact before its one rounding: :func:`norm_l2`, the field norms and the
Clark residuals and energies all add in integers in one kernel.

A product is expanded monomial pair by monomial pair.  A left monomial of
degree 1, ``eta_i``, applies the three-term rule
``eta_i He_beta = He_{beta+e_i} + beta_i He_{beta-e_i}`` directly: insert
one ``i`` into the key and, when ``i`` occurs, also remove one with weight
``beta_i``.  That yields the pairs of the general Hermite linearization, in
the same order and with the same floats.

Two kernels build a table and read it many times.  :func:`refine` reads
the Hermite expansions of one block average, from their closed form
``He_k(u . eta) = sum_{|alpha| = k} k!/alpha! u^alpha He_alpha(eta)`` for a
unit vector ``u``, as digit matrices with their coefficient and ``alpha!``
columns (:func:`_block_average_table`), built once per call for each order,
and shifts their digits for every block.  ``clark``'s refinement rows read
the same tables as a few groups of equal coefficients, one pair per
``alpha!`` (:func:`_block_groups`): the groups, not the tables, are held
for the life of the process, so a repeated refinement builds no table.
:func:`evaluate_batch` reads the columns ``He_k(eta_i)`` from a
:class:`HermiteColumns`: a ``space.SampleBatch`` owns one for its draws,
and a call on a plain array builds its own and drops it; that table does
not outlive its call or its batch.  Both give the bits of the unshared computation, because each float
is formed by the same operations in the same order.

Outside input passes one term gate, :func:`_canonical_terms`, in the
:class:`ChaosPoly` constructor and its named constructors: it sums the
``(key, coefficient)`` pairs, checks that each summed index is a ``bytes``
key, sorted ascending, with coordinates in ``1 .. dim`` and degree within the
cap, rejects a NaN or infinite coefficient with :class:`AlgebraError` instead
of storing or dropping it, and drops only the sums that are exactly zero.
The kernels build their keys from stored ones by operations that keep a key
sorted and inside the dimension, so they store their results directly
(``ChaosPoly._of``) and keep only the gate's value rules, :func:`_kept`: a
non-finite sum is refused and only exact zeros are dropped, with the degree
checked first where the operation can raise it.  A stored coefficient is
therefore exactly a nonzero sum: the algebra has no absolute cutoff, so
scaling an operand by a power of two scales the result by it, bit for bit,
while every coefficient stays in the normal range of doubles.  The degree
cap is fixed: no operation can build a term past it.

Values are immutable and operations are pure functions, so they are safe to
share across threads or workers without locking.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Mapping
from functools import lru_cache
from itertools import chain
from itertools import combinations_with_replacement as _multisets
from itertools import product as _cartesian
from types import MappingProxyType
from typing import Sequence

import numpy as np

#: Largest total degree a stored term may have.  Fixed: nothing overrides it.
DEGREE_CAP = 8

#: Hard upper bound on the ambient Gaussian dimension.
DIM_CAP = 128

#: Most terms one :func:`refine` call may build; also the most monomial
#: pairs one lowered product may expand (``dsl.PRODUCT_PAIR_BUDGET``).
_TERM_BUDGET = 10**7


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


class MultiIndex:
    """Read-only view of one packed key: 1-based coordinate -> positive order.

    Holds the key alone and reads every property off it.  The empty key
    denotes the constant monomial ``He_0 = 1``.
    """

    __slots__ = ("key",)

    def __init__(self, key: bytes):
        self.key = key

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """``(coordinate, order)`` pairs by ascending coordinate."""
        return tuple(_pairs_of(self.key))

    @property
    def total_degree(self) -> int:
        return len(self.key)

    @property
    def factorial(self) -> int:
        """``prod_i k_i!`` for the stored orders."""
        return _factorial(self.key)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"MultiIndex({dict(_pairs_of(self.key))!r})"


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


def _index(value, low: float, high: float, what: str) -> int:
    """``operator.index(value)`` inside ``low .. high``; anything else raises ``AlgebraError``.

    A float, even an integral one, is refused rather than truncated.
    """
    try:
        if low <= (index := operator.index(value)) <= high:
            return index
    except TypeError:
        raise AlgebraError(f"{what} {value!r} is not an integer") from None
    raise AlgebraError(f"{what} {index} outside {low}..{high}")


def _ambient_dim(dim) -> int:
    """``dim`` as an int, refusing one outside ``1 .. DIM_CAP``."""
    return _index(dim, 1, DIM_CAP, "ambient dimension")


def _sum_pairs(pairs) -> dict[bytes, float]:
    """Sum ``(key, coefficient)`` pairs into one store, in arrival order."""
    acc: dict[bytes, float] = {}
    get = acc.get
    for key, coeff in pairs:
        acc[key] = get(key, 0.0) + coeff
    return acc


def _kept(store: dict[bytes, float], capped: bool = False) -> dict[bytes, float]:
    """The term gate's value rules on a summed store, which every result passes.

    With ``capped``, the first key past :data:`DEGREE_CAP` in stored order is
    refused first, also one whose coefficients cancel to zero.  A non-finite
    coefficient is refused, and only the exact zeros are dropped; however
    small, a nonzero sum is kept.  ``store`` is returned itself when it holds
    no zero.
    """
    if capped and max(map(len, store), default=0) > DEGREE_CAP:
        raise DegreeCapExceeded(next(n for n in map(len, store) if n > DEGREE_CAP))
    values = store.values()
    # a NaN or an infinity makes the float sum non-finite, as an overflow
    # may: only a non-finite sum needs each value checked
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        bad = next(c for c in values if not math.isfinite(c))
        raise AlgebraError(f"non-finite coefficient {bad!r}")
    if all(values):
        return store
    return {key: c for key, c in store.items() if c}


def _canonical_terms(terms, dim: int) -> dict[bytes, float]:
    """The term gate for outside input: sum and check pairs, drop exact zeros.

    Pairs are summed in arrival order.  Every summed index, also one whose
    coefficients cancel to zero, must be a packed ``bytes`` key, sorted
    ascending, with coordinates in ``1 .. dim`` and degree within
    :data:`DEGREE_CAP`, before any coefficient is checked by :func:`_kept`.
    """
    acc = _sum_pairs((key, float(c)) for key, c in (terms.items() if hasattr(terms, "items") else terms))
    for key in acc:
        if key.__class__ is not bytes:
            raise AlgebraError(f"term index {key!r} is not a packed bytes key")
        if not key:
            continue
        if len(key) > 1 and bytes(sorted(key)) != key:
            raise AlgebraError(f"term index {key!r} is not sorted ascending")
        if key[0] == 0:
            raise AlgebraError(f"term index {key!r} holds coordinate 0; coordinates start at 1")
        if key[-1] > dim:
            raise DimensionMismatch(f"coordinate {key[-1]} outside ambient dimension {dim}")
    return _kept(acc, capped=True)


def _text_sort_key(key: bytes) -> bytes:
    """Text-form rank of a key: degree, coordinates, ``0``, orders, one byte each.

    Bytes compare as the tuple (degree, coordinate list, order list) does:
    coordinates are at least 1, so the ``0`` ends a shorter coordinate list
    below any longer one that it begins.
    """
    coords = bytes(dict.fromkeys(key))
    return bytes((len(key),)) + coords + b"\0" + bytes(map(key.count, coords))


def _text_pairs(terms: dict[bytes, float]):
    """Each term's ``(coordinate, order)`` pairs and coefficient, in text-form order."""
    for rank, coeff in sorted((_text_sort_key(key), c) for key, c in terms.items()):
        # the rank holds the pairs: width coordinates after the degree byte,
        # width orders after the 0
        width = len(rank) // 2 - 1
        yield zip(rank[1:1 + width], rank[2 + width:]), coeff


class _TermsView(Mapping):
    """Read-only ``MultiIndex -> coefficient`` view of a key store.

    Iterates in stored order and builds each :class:`MultiIndex` on demand;
    ``len`` reads the store without building any, and a lookup reads the
    view's key.
    """

    __slots__ = ("_store",)

    def __init__(self, store: dict[bytes, float]):
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self):
        return map(MultiIndex, self._store)

    def __getitem__(self, idx: MultiIndex) -> float:
        if isinstance(idx, MultiIndex) and idx.key in self._store:
            return self._store[idx.key]
        raise KeyError(idx)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class ChaosPoly:
    """Immutable polynomial functional in its Hermite-monomial expansion.

    ``dim`` is the ambient number of Gaussian coordinates.  ``terms`` is a
    mapping or an iterable of ``(packed key, coefficient)`` pairs (see the
    module docstring); any other key raises :class:`AlgebraError`.  The
    ``terms`` property views the store as :class:`MultiIndex` -> float
    coefficient.  The empty key carries the expectation.
    """

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms=()):
        dim = _ambient_dim(dim)
        self._dim = dim
        self._terms = _canonical_terms(terms, dim)

    @classmethod
    def _of(cls, dim: int, store: dict[bytes, float]) -> "ChaosPoly":
        """A polynomial that holds ``store`` itself, past the term gate.

        For the kernels: ``store`` is a fresh dict whose keys are sorted,
        inside ``1 .. dim`` and the degree cap, with finite nonzero
        coefficients, as :func:`_kept` leaves them.
        """
        poly = object.__new__(cls)
        poly._dim = dim
        poly._terms = store
        return poly

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
        """The single monomial ``coeff * He_k(eta_i)``; ``i`` and ``k`` are integers."""
        i, k = _index(i, 1, dim, "coordinate"), _index(k, 0, math.inf, "Hermite order")
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

    def is_zero(self) -> bool:
        return not self._terms

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
        body = ", ".join(f"{dict(pairs)!r}: {c!r}" for pairs, c in _text_pairs(self._terms))
        return f"ChaosPoly(dim={self._dim}, {{{body}}})"

    # ---- convenience ----------------------------------------------------

    def expectation(self) -> float:
        return expectation(self)

    def norm_l2(self) -> float:
        return norm_l2(self)

    # ---- canonical text form --------------------------------------------

    def to_text(self) -> str:
        """One line per term: ``coeff i1:k1 i2:k2 ...`` in canonical order.

        Terms are ranked by total degree, then coordinates, then orders, read
        off each key.  That is not the bytes order of the keys:
        ``b"\\x01\\x01\\x03"`` sorts before ``b"\\x01\\x02\\x02"`` as bytes and
        after it here.  The zero polynomial serializes to the empty string; a
        constant term serializes as the bare coefficient.  Coefficients use
        ``repr``, so the text holds every bit of each coefficient.
        """
        return "\n".join(
            " ".join([repr(coeff)] + [f"{i}:{k}" for i, k in pairs])
            for pairs, coeff in _text_pairs(self._terms)
        )


def _require_same_dim(*polys: ChaosPoly) -> int:
    """The one ambient dimension of ``polys``; none, or several, raise."""
    dim = polys[0]._dim if polys else None
    for p in polys:
        if p._dim != dim:
            dim = None
            break
    if dim is None:
        raise DimensionMismatch(f"mixed ambient dimensions {sorted({p._dim for p in polys})}")
    return dim


def linear_combine(coeffs: Sequence[float], polys: Sequence[ChaosPoly]) -> ChaosPoly:
    """``sum_j coeffs[j] * polys[j]`` over a shared ambient dimension."""
    if len(coeffs) != len(polys):
        raise AlgebraError(
            f"{len(coeffs)} coefficients for {len(polys)} polynomials"
        )
    if not polys:
        raise AlgebraError("empty linear combination has no ambient dimension")
    dim = _require_same_dim(*polys)
    pairs = (
        (key, c * pc)
        for c, p in zip(map(float, coeffs), polys)
        if c != 0.0
        for key, pc in p._terms.items()
    )
    return ChaosPoly._of(dim, _kept(_sum_pairs(pairs)))


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
    return ChaosPoly._of(dim, _kept(_sum_pairs(_product_terms(p._terms, q._terms)), capped=True))


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
    """``sqrt(E[p^2])``, correctly rounded; ``inf`` past the largest double."""
    return _square_sum(p._terms.items(), root=True)


def _square_sum(terms, weight=_factorial, den: int = 1, root: bool = False) -> float:
    """``sum weight(key) * c**2 / den`` over ``(key, c)`` pairs, exact, rounded once.

    ``terms`` is an iterable of ``(key, c)`` pairs, such as the items of one
    or more term stores.  ``weight`` maps a key to a nonnegative integer,
    ``alpha!`` by default, so that the sum over the terms of polynomials is
    the sum of their ``E[p^2]``; ``den`` is a positive integer.  Each
    coefficient is ``n * 2**(e - 53)`` with an integer ``n`` of at most 53
    bits (``math.frexp``), so the sum is accumulated exactly as one integer
    ``weight * n**2`` per exponent ``e``.  The integers are brought to the
    smallest ``e`` and the total is rounded once to the nearest double, or
    with ``root`` its square root is: however tiny or huge the sum, and
    ``inf`` past the largest double.
    """
    acc: dict[int, int] = {}
    for key, c in terms:
        if w := weight(key):
            m, e = math.frexp(c)
            acc[e] = acc.get(e, 0) + w * int(m * 2.0**53) ** 2
    return _rounded(acc, den, root)


def _rounded(acc: dict[int, int], den: int, root: bool) -> float:
    """``sum_e acc[e] * 4**(e - 53) / den``, or its root, rounded once."""
    low = min(acc, default=53)
    num = sum(s << 2 * (e - low) for e, s in acc.items())
    # the sum is num * 4**(low - 53) / den
    num, den = (num, den << 106 - 2 * low) if low <= 53 else (num << 2 * low - 106, den)
    if root:
        # at the scale 4**s the integer root of num / den has about 60 bits,
        # past a double's 53; an inexact root is made odd, so that it rounds
        # as the exact root does
        s = 60 - (num.bit_length() - den.bit_length()) // 2
        whole, rest = divmod(num << max(2 * s, 0), den << max(-2 * s, 0))
        r = math.isqrt(whole)
        num, den = (r | bool(rest or r * r != whole)) << max(-s, 0), 1 << max(s, 0)
    try:
        return num / den
    except OverflowError:
        return math.inf


def partial_derivative(p: ChaosPoly, i: int) -> ChaosPoly:
    """Coordinate derivative: ``He_k(eta_i) -> k He_{k-1}(eta_i)`` per term."""
    digit = bytes((_index(i, 1, p.dim, "coordinate"),))
    # dropping one i keeps distinct keys distinct: nothing to sum
    lowered = {key.replace(digit, b"", 1): k * c for key, c in p._terms.items() if (k := key.count(digit))}
    return ChaosPoly._of(p._dim, _kept(lowered))


def multiply_by_coordinate(p: ChaosPoly, i: int) -> ChaosPoly:
    """Exact product with ``eta_i``: ``He_1 He_k = He_{k+1} + k He_{k-1}``."""
    pairs = _coordinate_terms(bytes((_index(i, 1, p.dim, "coordinate"),)), 1.0, p._terms)
    return ChaosPoly._of(p._dim, _kept(_sum_pairs(pairs), capped=True))


def conditional_expectation(p: ChaosPoly, k: int) -> ChaosPoly:
    """Projection onto functionals of ``eta_1 .. eta_k``.

    Exact in this representation: a Hermite monomial has zero mean in every
    coordinate it touches, so conditioning on the first ``k`` coordinates
    keeps exactly the terms supported there.  ``k = 0`` returns the
    expectation as a constant; ``k = dim`` is the identity.  ``k`` is an
    integer.
    """
    k = _index(k, 0, p.dim, "stage")
    # a subset of a stored store: nothing to check
    return ChaosPoly._of(p._dim, {key: c for key, c in p._terms.items() if not key or key[-1] <= k})


def ou_apply(p: ChaosPoly) -> ChaosPoly:
    """Number operator: scale each grade-m term by m (constants vanish)."""
    return ChaosPoly._of(p._dim, _kept({key: len(key) * c for key, c in p._terms.items() if key}))


def ou_inverse(p: ChaosPoly) -> ChaosPoly:
    """Pseudo-inverse of the number operator: grade-m term / m, constant dropped.

    ``L^-1 F = sum_{m >= 1} J_m F / m`` is defined on all of L2 (Nualart,
    *The Malliavin Calculus and Related Topics*, 2006, section 1.4): the
    expectation is not inverted but discarded, so ``ou_inverse(c + p)`` equals
    ``ou_inverse(p)`` for any constant ``c``, and ``ou_apply(ou_inverse(p))``
    is ``p`` less its expectation.
    """
    return ChaosPoly._of(p._dim, _kept({key: c / len(key) for key, c in p._terms.items() if key}))


def _block_average_table(m: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``He_k`` of ``(eta_1 + ... + eta_m) / sqrt(m)`` in closed form, as arrays.

    For a unit vector ``u``, ``He_k(u . eta) = sum_{|alpha| = k} k!/alpha!
    u^alpha He_alpha(eta)`` (Nualart, *The Malliavin Calculus and Related
    Topics*, 2006, section 1.1).  Every ``u_j`` is ``1/sqrt(m)``, so the table
    holds one row of ``k`` digits per multiset of ``k`` digits from
    ``1 .. m``, in ``combinations_with_replacement`` order (the ``uint8``
    digit matrix, one sorted key per row), and next to it the coefficient
    vector: the exact integer ``k!/alpha!`` divided by ``m**(k/2)``, and the
    int64 ``alpha!`` column of the rows.  That denominator is the exact
    integer ``m**(k//2)``, times ``math.sqrt(m)`` when ``k`` is odd, and
    every operation is correctly rounded, so the bits are the same on every
    IEEE platform.  A coefficient is correctly rounded for even ``k``; for
    odd ``k`` its three roundings keep it within 3 ulp (at most 1.2 ulp for
    m <= 16 and 1.55 ulp for m <= 128, against 50 digits).  Each one is
    finite and at least ``m**(-k/2)``, so none needs the term gate.

    ``alpha!`` comes from :func:`_row_factorials`; numpy's int64 quotient
    and float division are the exact and correctly rounded ones of Python's
    ints and floats, so every bit is the one of ``top // _factorial(key) /
    root``.  The arrays are built afresh on each call: no two calls share one.
    """
    digits = np.frombuffer(bytes(chain.from_iterable(_multisets(range(1, m + 1), k))), np.uint8)
    digits = digits.reshape(math.comb(m + k - 1, k), k)
    factorials = _row_factorials(digits)
    return digits, _block_coefficients(m, k, factorials), factorials


def _row_factorials(digits: np.ndarray) -> np.ndarray:
    """``alpha!`` of each row of a matrix of sorted digit rows, as int64.

    The rows are sorted, so ``alpha!`` is the product of each digit's place
    in its run of equal digits, formed for all rows at once column by
    column: the integers of ``_factorial`` on each row's bytes, at most
    ``DEGREE_CAP!``.
    """
    run = fact = np.ones(len(digits), np.int64)
    for same in (digits[:, 1:] == digits[:, :-1]).T:
        run = run * same + 1
        fact = fact * run
    return fact


def _block_coefficients(m: int, k: int, factorials: np.ndarray) -> np.ndarray:
    """``k! // alpha! / m**(k/2)`` for an int64 array of ``alpha!``: a block table's coefficients."""
    root = m ** (k // 2) * math.sqrt(m) if k % 2 else m ** (k // 2)
    return math.factorial(k) // factorials / root


#: Grouped block tables kept for the life of the process
#: (:func:`_block_groups`), each of at most 22 pairs.
_KEPT_GROUPS = 1024


@lru_cache(maxsize=_KEPT_GROUPS)
def _block_groups(m: int, k: int, past: bytes = b"", top: int = 0) -> tuple[tuple[float, int], ...]:
    """The ``(m, k)`` block table's rows by equal ``alpha!``: one ``(coefficient, weight)`` each.

    A row's coefficient ``k! // alpha! / m**(k/2)`` depends on its
    ``alpha!`` alone, and distinct ``alpha!`` give distinct coefficients,
    so one pair per ``alpha!`` holds the table's distinct coefficients: the
    float of its rows, bit for bit (:func:`_block_coefficients`), and the
    exact integer weight ``alpha!`` times its row count.  The pairs run by
    ascending ``alpha!``, so with every row in, the first holds the table's
    largest coefficient.  A group per partition of ``k <= DEGREE_CAP`` is
    at most 22 pairs.

    Two rules keep fewer rows.  ``past`` is a local stage table, byte ``b``
    for digit ``b`` (byte 0 unused): a row is kept when its second largest
    digit exceeds ``past`` at its largest, for ``k >= 2``.  ``top`` keeps
    the rows whose largest digit exceeds it.  With neither rule no table is
    read: the rows of one ``alpha!`` are the multisets whose orders make a
    partition of ``k`` into at most ``m`` parts, ``m!/(m - r)!`` placements
    of its ``r`` parts on the digits over the orderings of equal parts.
    With either, the table is built (:func:`_block_average_table`) and its
    kept rows are counted by ``alpha!`` (``np.bincount``), with no sort.
    Every result is held for the life of the process, up to
    :data:`_KEPT_GROUPS` of them, whatever the size of its table: the one
    cache of the refinement layer, so a repeated refinement builds no table.
    """
    if not (past or top):
        weights: dict[int, int] = {}
        for parts in _partitions(k, m):
            alpha = math.prod(map(math.factorial, parts))
            orderings = math.prod(math.factorial(parts.count(j)) for j in set(parts))
            rows = math.perm(m, len(parts)) // orderings
            weights[alpha] = weights.get(alpha, 0) + alpha * rows
        alphas = np.array(sorted(weights), np.int64)
        weights = [weights[alpha] for alpha in alphas.tolist()]
    else:
        digits, _, factorials = _block_average_table(m, k)
        kept = digits[:, -1] > top
        if past:
            kept &= digits[:, -2] > np.frombuffer(past, np.uint8)[digits[:, -1]]
        counts = np.bincount(factorials[kept])
        alphas = np.flatnonzero(counts)
        weights = (alphas * counts[alphas]).tolist()
    return tuple(zip(_block_coefficients(m, k, alphas).tolist(), weights))


def _partitions(k: int, parts: int, largest: int = DEGREE_CAP):
    """The partitions of ``k`` into at most ``parts`` parts of at most ``largest``, descending."""
    if not k:
        yield ()
    elif parts:
        for first in range(min(k, largest), 0, -1):
            for rest in _partitions(k - first, parts - 1, first):
                yield (first, *rest)


def _refinement_factor(dim: int, m) -> int:
    """``m`` as an int, refusing a non-integer, a factor below 1 or a refined dimension past the cap."""
    m = _index(m, -math.inf, math.inf, "refinement factor")
    if m < 1:
        raise AlgebraError(f"refinement factor {m} is not >= 1")
    if dim * m > DIM_CAP:
        raise AlgebraError(f"refined dimension {dim * m} exceeds the dimension cap {DIM_CAP}")
    return m


def refine(p: ChaosPoly, m: int) -> ChaosPoly:
    """Replace each coordinate by the mean of ``m`` finer coordinates.

    Coordinate ``i`` of the coarse grid becomes
    ``(eta'_{(i-1)m+1} + ... + eta'_{im}) / sqrt(m)`` on a grid of dimension
    ``dim * m``.  Because that block average is again standard Gaussian the
    substitution preserves the law, grade, expectation, and every L2 inner
    product.  ``m = 1`` returns ``p`` itself.  A factor that is not an
    integer (a float is refused, not truncated), is below 1 or takes the
    dimension past ``DIM_CAP`` raises :class:`AlgebraError`; so does a
    refinement past :data:`_TERM_BUDGET` fine terms in all, before any
    table is built (:func:`_refinement_monomials`).

    ``He_k`` of the average of fine coordinates ``1 .. m`` is built in
    closed form (:func:`_block_average_table`), once per call for each
    order ``k`` that some coordinate of ``p`` carries.  Block ``i`` reads
    the digits plus ``(i - 1) m``; the shift is monotone, so every row stays
    sorted.  A coarse monomial's fine terms are its blocks' tables joined by
    broadcasting, the earlier block outer, from one row of no digits: each
    fine row is the blocks' digit rows side by side, a sorted ``uint8`` row
    of the fine key's bytes, and its coefficient ``c * ((c1 * c2) * ...)``,
    the floats of the term-by-term product (the leading ``1.0 * c1`` is
    exact).  The keys come from one ``S`` view of each digit matrix; numpy's
    ``S`` strings drop trailing NUL bytes, but every digit is a coordinate,
    at least 1, so no byte is lost.  Distinct coarse monomials refine to
    disjoint fine keys, so the terms are stored as they come, with no sums;
    a coefficient that overflows raises and one that underflows to zero is
    dropped (:func:`_kept`).  ``clark.refine_and_reconstruct`` builds no
    fine term: its rows read the grouped tables of :func:`_block_groups`.
    """
    m = _refinement_factor(p.dim, m)
    if m == 1:
        return p
    monomials = _refinement_monomials(p, m)
    tables = {k: _block_average_table(m, k) for k in {k for pairs, _ in monomials for _, k in pairs}}
    store = {}
    for pairs, c in monomials:
        digits, coeffs = np.empty((1, 0), np.uint8), np.ones(1)
        for i, k in pairs:
            d, w, _ = tables[k]
            # every row so far beside every row of block i
            joined = np.empty((len(digits), len(d), digits.shape[1] + k), np.uint8)
            joined[:, :, :-k], joined[:, :, -k:] = digits[:, None], d + (i - 1) * m
            digits = joined.reshape(len(digits) * len(d), -1)
            coeffs = np.multiply.outer(coeffs, w).ravel()
        # _kept refuses an overflow and drops an underflow: neither is
        # numpy's to report
        with np.errstate(over="ignore", under="ignore"):
            coeffs = coeffs * c
        width = digits.shape[1]
        keys = digits.view(f"S{width}").ravel().tolist() if width else [b""]
        store.update(zip(keys, coeffs.tolist()))
    return ChaosPoly._of(p.dim * m, _kept(store))


def _refinement_monomials(p: ChaosPoly, m: int) -> list[tuple[list[tuple[int, int]], float]]:
    """``(pairs, c)`` per term of ``p``, once a refinement by ``m`` is within the term budget.

    A coarse monomial ``prod_i He_{k_i}`` spreads over ``prod_i C(m + k_i -
    1, k_i)`` fine monomials; past :data:`_TERM_BUDGET` of them in all,
    :class:`AlgebraError` is raised, before any table is built or read.
    """
    monomials = [(_pairs_of(key), c) for key, c in p._terms.items()]
    count = sum(math.prod(math.comb(m + k - 1, k) for _, k in pairs) for pairs, _ in monomials)
    if count > _TERM_BUDGET:
        raise AlgebraError(
            f"refine by {m} would build {count:,} terms, past the budget of {_TERM_BUDGET:,}"
        )
    return monomials


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
