"""Gradient, divergence, and pairings for vector-valued chaos functionals.

Three field types over an ambient dimension n:

* :class:`HField` - one chaos polynomial per coordinate direction of R^n
  (a random element of the space the Gaussian lives on);
* :class:`VField` - d chaos-polynomial components (a random vector in R^d);
* :class:`OperatorField` - a d x n matrix of chaos polynomials; entry (a, i)
  is the pairing of output direction a with input direction i, so row a is
  the HField obtained by composing with the a-th output functional.

All three share one arithmetic (``add``, ``sub``, ``norm``) over their stored
tuple, and every pairing below is one sum of products or one sum of inner
products.

The gradient of a scalar is the HField of coordinate derivatives; the
gradient of a VField stacks those rows into an OperatorField.  The
divergence of an HField is the adjoint of the scalar gradient::

    div(u) = sum_i (eta_i * u_i - d_i u_i)

In the Hermite basis this is the creation operator, one map over terms:
``eta_i He_beta = He_{beta+e_i} + beta_i He_{beta-e_i}`` and
``d_i He_beta = beta_i He_{beta-e_i}``, so the lowering parts cancel
exactly and each term ``c He_beta`` of ``u_i`` contributes
``c He_{beta+e_i}`` alone: its key with one ``i`` inserted.  The
divergence of an OperatorField acts row by row, producing a VField.
The residual checks at the bottom verify the defining integration-by-parts
identities exactly in the algebra.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .chaos import (
    ChaosPoly,
    DimensionMismatch,
    _kept,
    _require_same_dim,
    _square_sum,
    _sum_pairs,
    hermite_product,
    l2_inner,
    linear_combine,
    partial_derivative,
)


class _Field:
    """Arithmetic shared by the field containers over their stored tuple.

    A container names its tuple with ``class X(_Field, parts="...")``.  The
    results of ``add`` and ``sub`` take that declaring class, so a checked
    subclass such as ``PredictableHField`` gives a plain, unchecked field.
    """

    def __init_subclass__(cls, parts: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if parts is not None:
            cls._parts_name = parts
            cls._plain = cls

    def __post_init__(self):
        parts = tuple(getattr(self, self._parts_name))
        if not parts:
            raise ValueError(f"{self._plain.__name__} needs at least one entry")
        object.__setattr__(self, self._parts_name, parts)

    @property
    def _parts(self) -> tuple:
        return getattr(self, self._parts_name)

    @property
    def shape(self) -> tuple[int, ...]:
        """Lengths of the nested tuples: (n,), (d,) or (d, n)."""
        head = self._parts[0]
        return (len(self._parts),) + (head.shape if isinstance(head, _Field) else ())

    def _matched(self, other) -> zip:
        """The two stored tuples zipped, after checking that the shapes agree."""
        if self.shape != other.shape:
            raise DimensionMismatch(
                f"{self._plain.__name__} shapes {self.shape} vs {other.shape}"
            )
        return zip(self._parts, other._parts)

    def add(self, other):
        return self._plain(tuple(p + q for p, q in self._matched(other)))

    def sub(self, other):
        return self._plain(tuple(p - q for p, q in self._matched(other)))

    # operator rows are fields themselves, so ``p + q`` above must work on them
    __add__ = add
    __sub__ = sub

    def norm(self) -> float:
        """Square root of the summed second moments of the stored polynomials.

        Nested rows included; one exact sum of ``alpha! c**2``, correctly
        rounded as in ``chaos.norm_l2``.
        """
        rows = (part._parts if isinstance(part, _Field) else (part,) for part in self._parts)
        terms = chain.from_iterable(p._terms.items() for row in rows for p in row)
        return _square_sum(terms, root=True)


def _sum_of_products(pairs) -> ChaosPoly:
    """sum_j p_j q_j over (p_j, q_j) pairs, as one linear combination."""
    parts = [hermite_product(p, q) for p, q in pairs]
    return linear_combine([1.0] * len(parts), parts)


def _sum_of_inner(pairs) -> float:
    """sum_j E[p_j q_j] over (p_j, q_j) pairs, without forming products."""
    return sum(l2_inner(p, q) for p, q in pairs)


def gram(polys) -> np.ndarray:
    """Gram matrix G_ab = E[p_a p_b]; each pair a <= b is computed once."""
    d = len(polys)
    G = np.empty((d, d))
    for a in range(d):
        for b in range(a, d):
            G[a, b] = G[b, a] = l2_inner(polys[a], polys[b])
    return G


@dataclass(frozen=True)
class HField(_Field, parts="coords"):
    """Coordinate fields (u_1, .., u_n); the length equals the ambient dim."""

    coords: tuple[ChaosPoly, ...]

    def __post_init__(self):
        super().__post_init__()
        n = _require_same_dim(*self.coords)
        if len(self.coords) != n:
            raise DimensionMismatch(
                f"{len(self.coords)} coordinate fields over ambient dimension {n}"
            )

    @property
    def n(self) -> int:
        return len(self.coords)

    def inner(self, other: "HField") -> float:
        """E(u, v) = sum_i E[u_i v_i]."""
        return _sum_of_inner(self._matched(other))

    @classmethod
    def constant(cls, h) -> "HField":
        """The deterministic field with value h in R^n."""
        h = np.asarray(h, dtype=float)
        n = h.size
        return cls(tuple(ChaosPoly.constant(n, float(v)) for v in h))


@dataclass(frozen=True)
class VField(_Field, parts="components"):
    """Random vector in R^d with chaos-polynomial components."""

    components: tuple[ChaosPoly, ...]

    def __post_init__(self):
        super().__post_init__()
        _require_same_dim(*self.components)

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def ambient_dim(self) -> int:
        return self.components[0].dim

    def component(self, a: int) -> ChaosPoly:
        return self.components[a - 1]

    def expectation(self) -> np.ndarray:
        return np.array([f.expectation() for f in self.components])

    @classmethod
    def constant(cls, dim: int, values) -> "VField":
        values = np.asarray(values, dtype=float)
        return cls(tuple(ChaosPoly.constant(dim, float(v)) for v in values))


@dataclass(frozen=True)
class OperatorField(_Field, parts="rows"):
    """d x n matrix of chaos polynomials, stored as d HField rows."""

    rows: tuple[HField, ...]

    def __post_init__(self):
        super().__post_init__()
        ns = {row.n for row in self.rows}
        if len(ns) != 1:
            raise DimensionMismatch(f"rows of mixed length {sorted(ns)}")

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return self.rows[0].n

    def transpose_apply(self, y) -> HField:
        """K^T y for a constant output functional y in R^d."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.d,):
            raise DimensionMismatch(f"functional of shape {y.shape} for d={self.d}")
        coords = []
        for i in range(self.n):
            coords.append(
                linear_combine(list(y), [row.coords[i] for row in self.rows])
            )
        return HField(tuple(coords))

    def apply_field(self, F: VField) -> HField:
        """K^T F with a random F: coordinate i is sum_a K_{a,i} F_a."""
        if F.d != self.d:
            raise DimensionMismatch(f"field with {F.d} components for d={self.d}")
        return HField(
            tuple(
                _sum_of_products(zip(column, F.components))
                for column in zip(*(row.coords for row in self.rows))
            )
        )

    @classmethod
    def constant(cls, matrix) -> "OperatorField":
        """Deterministic operator from a d x n matrix."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"matrix of shape {matrix.shape}")
        return cls(tuple(HField.constant(row) for row in matrix))


def skew_symmetric_field(A) -> HField:
    """The linear field u_i = sum_j A_{ij} eta_j for skew-symmetric A.

    Divergence-free by antisymmetry: the diagonal correction vanishes and the
    off-diagonal products cancel in pairs, exactly, including in floats.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"square matrix required, got {A.shape}")
    if np.max(np.abs(A + A.T)) != 0.0:
        raise ValueError("matrix is not exactly skew-symmetric")
    etas = [ChaosPoly.coordinate(n, j + 1) for j in range(n)]
    return HField(tuple(linear_combine(list(row), etas) for row in A))


# ---------------------------------------------------------------- operators


def gradient_scalar(p: ChaosPoly) -> HField:
    """Coordinatewise derivative field of a scalar functional."""
    return HField(tuple(partial_derivative(p, i) for i in range(1, p.dim + 1)))


def gradient_vector(v: VField) -> OperatorField:
    """Stack the component gradients as rows of an OperatorField."""
    return OperatorField(tuple(gradient_scalar(f) for f in v.components))


def divergence_h(u: HField) -> ChaosPoly:
    """Adjoint of the scalar gradient: sum_i (eta_i u_i - d_i u_i).

    Computed in its creation form, one sum over the terms: each term
    ``c He_beta`` of ``u_i`` becomes ``c He_{beta+e_i}``.  The
    ``beta_i He_{beta-e_i}`` parts of ``eta_i u_i`` and ``d_i u_i`` cancel
    in exact arithmetic, so they are never built.  Inserting ``i`` keeps a
    key sorted and inside the dimension, so only the degree and the value
    rules are checked (``chaos._kept``).
    """

    def raised():
        for i, ui in enumerate(u.coords, start=1):
            digit = bytes((i,))
            for key, c in ui._terms.items():
                at = bisect_right(key, i)
                yield key[:at] + digit + key[at:], c

    return ChaosPoly._of(u.n, _kept(_sum_pairs(raised()), capped=True))


def divergence_op(K: OperatorField) -> VField:
    """Row-by-row divergence: component a is div of row a."""
    return VField(tuple(divergence_h(row) for row in K.rows))


def _entry_pairs(K: OperatorField, D: OperatorField):
    """Matching entries of two operators of one shape, row by row."""
    return (pair for kr, dr in K._matched(D) for pair in zip(kr.coords, dr.coords))


def trace_pairing(K: OperatorField, D: OperatorField) -> ChaosPoly:
    """The random trace pairing sum_{a,i} K_{a,i} D_{a,i} as a ChaosPoly."""
    return _sum_of_products(_entry_pairs(K, D))


def trace_pairing_expectation(K: OperatorField, D: OperatorField) -> float:
    """E of the trace pairing, summed term-by-term without forming products."""
    return _sum_of_inner(_entry_pairs(K, D))


def dual_pairing(F: VField, G: VField) -> ChaosPoly:
    """The random scalar sum_a F_a G_a."""
    return _sum_of_products(F._matched(G))


def dual_pairing_expectation(F: VField, G: VField) -> float:
    return _sum_of_inner(F._matched(G))


# ------------------------------------------------------------------- checks


def check_duality(K: OperatorField, F: VField) -> float:
    """|E<trace pairing of K with grad F> - E<F, div K>|; zero in exact arithmetic."""
    lhs = trace_pairing_expectation(K, gradient_vector(F))
    rhs = dual_pairing_expectation(F, divergence_op(K))
    return abs(lhs - rhs)


def check_weakb(K: OperatorField, F: VField) -> float:
    """L2 residual of div(K^T F) = <F, div K> - <<K, grad F>> in the algebra."""
    lhs = divergence_h(K.apply_field(F))
    rhs = dual_pairing(F, divergence_op(K)) - trace_pairing(K, gradient_vector(F))
    return (lhs - rhs).norm_l2()


def check_rowwise_divergence(K: OperatorField, y) -> float:
    """L2 gap between div(K^T y) and <y, div K> for a constant functional y."""
    y = np.asarray(y, dtype=float)
    lhs = divergence_h(K.transpose_apply(y))
    rhs = linear_combine(list(y), list(divergence_op(K).components))
    return (lhs - rhs).norm_l2()


def check_cbound(K: OperatorField) -> float:
    """Smallest C with ||div(K^T y)||_2 <= C |y| for every y in R^d.

    The squared norm is the quadratic form y -> y^T G y with Gram matrix
    G_{ab} = E[div(row_a) div(row_b)], so C is the square root of the top
    eigenvalue of G.
    """
    top = float(np.linalg.eigvalsh(gram([divergence_h(row) for row in K.rows]))[-1])
    return math.sqrt(max(top, 0.0))
