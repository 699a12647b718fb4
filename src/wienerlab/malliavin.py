"""Gradient, divergence, and pairings for vector-valued chaos functionals.

Three field types over an ambient dimension n:

* :class:`HField` - one chaos polynomial per coordinate direction of R^n
  (a random element of the space the Gaussian lives on);
* :class:`VField` - d chaos-polynomial components (a random vector in R^d);
* :class:`OperatorField` - a d x n matrix of chaos polynomials; entry (a, i)
  is the pairing of output direction a with input direction i, so row a is
  the HField obtained by composing with the a-th output functional.

The gradient of a scalar is the HField of coordinate derivatives; the
gradient of a VField stacks those rows into an OperatorField.  The
divergence of an HField is the adjoint of the scalar gradient::

    div(u) = sum_i (eta_i * u_i - d_i u_i)

and the divergence of an OperatorField acts row by row, producing a VField.
The residual checks at the bottom verify the defining integration-by-parts
identities exactly in the algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import (
    ChaosPoly,
    DimensionMismatch,
    hermite_product,
    l2_inner,
    linear_combine,
    multiply_by_coordinate,
    partial_derivative,
)


def _shared_dim(polys) -> int:
    dims = {p.dim for p in polys}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed ambient dimensions {sorted(dims)}")
    return dims.pop()


@dataclass(frozen=True)
class HField:
    """Coordinate fields (u_1, .., u_n); the length equals the ambient dim."""

    coords: tuple[ChaosPoly, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("HField needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(self.coords))
        n = _shared_dim(self.coords)
        if len(self.coords) != n:
            raise DimensionMismatch(
                f"{len(self.coords)} coordinate fields over ambient dimension {n}"
            )

    @property
    def n(self) -> int:
        return len(self.coords)

    def coord(self, i: int) -> ChaosPoly:
        """1-based coordinate access."""
        return self.coords[i - 1]

    def energy(self) -> float:
        """E|u|^2 = sum_i E[u_i^2]."""
        return sum(l2_inner(u, u) for u in self.coords)

    def norm(self) -> float:
        return math.sqrt(self.energy())

    def inner(self, other: "HField") -> float:
        """E(u, v) = sum_i E[u_i v_i]."""
        if self.n != other.n:
            raise DimensionMismatch(f"HField lengths {self.n} vs {other.n}")
        return sum(l2_inner(u, v) for u, v in zip(self.coords, other.coords))

    def add(self, other: "HField") -> "HField":
        if self.n != other.n:
            raise DimensionMismatch(f"HField lengths {self.n} vs {other.n}")
        return HField(tuple(u + v for u, v in zip(self.coords, other.coords)))

    def sub(self, other: "HField") -> "HField":
        if self.n != other.n:
            raise DimensionMismatch(f"HField lengths {self.n} vs {other.n}")
        return HField(tuple(u - v for u, v in zip(self.coords, other.coords)))

    def scale(self, c: float) -> "HField":
        return HField(tuple(linear_combine([float(c)], [u]) for u in self.coords))

    @classmethod
    def constant(cls, h) -> "HField":
        """The deterministic field with value h in R^n."""
        h = np.asarray(h, dtype=float)
        n = h.size
        return cls(tuple(ChaosPoly.constant(n, float(v)) for v in h))

    @classmethod
    def zero(cls, n: int) -> "HField":
        return cls(tuple(ChaosPoly.zero(n) for _ in range(n)))


@dataclass(frozen=True)
class VField:
    """Random vector in R^d with chaos-polynomial components."""

    components: tuple[ChaosPoly, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("VField needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))
        _shared_dim(self.components)

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def ambient_dim(self) -> int:
        return self.components[0].dim

    def component(self, a: int) -> ChaosPoly:
        return self.components[a - 1]

    def energy(self) -> float:
        return sum(l2_inner(f, f) for f in self.components)

    def norm(self) -> float:
        return math.sqrt(self.energy())

    def sub(self, other: "VField") -> "VField":
        if self.d != other.d:
            raise DimensionMismatch(f"component counts {self.d} vs {other.d}")
        return VField(tuple(f - g for f, g in zip(self.components, other.components)))

    def add(self, other: "VField") -> "VField":
        if self.d != other.d:
            raise DimensionMismatch(f"component counts {self.d} vs {other.d}")
        return VField(tuple(f + g for f, g in zip(self.components, other.components)))

    def expectation(self) -> np.ndarray:
        return np.array([f.expectation() for f in self.components])

    @classmethod
    def constant(cls, dim: int, values) -> "VField":
        values = np.asarray(values, dtype=float)
        return cls(tuple(ChaosPoly.constant(dim, float(v)) for v in values))


@dataclass(frozen=True)
class OperatorField:
    """d x n matrix of chaos polynomials, stored as d HField rows."""

    rows: tuple[HField, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("OperatorField needs at least one row")
        object.__setattr__(self, "rows", tuple(self.rows))
        ns = {row.n for row in self.rows}
        if len(ns) != 1:
            raise DimensionMismatch(f"rows of mixed length {sorted(ns)}")

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return self.rows[0].n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d, self.n)

    def entry(self, a: int, i: int) -> ChaosPoly:
        """1-based entry (output direction a, input direction i)."""
        return self.rows[a - 1].coords[i - 1]

    def row(self, a: int) -> HField:
        return self.rows[a - 1]

    def column(self, i: int) -> VField:
        return VField(tuple(row.coords[i - 1] for row in self.rows))

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
        coords = []
        for i in range(self.n):
            parts = [
                hermite_product(row.coords[i], F.components[a])
                for a, row in enumerate(self.rows)
            ]
            coords.append(linear_combine([1.0] * len(parts), parts))
        return HField(tuple(coords))

    def sub(self, other: "OperatorField") -> "OperatorField":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} vs {other.shape}")
        return OperatorField(tuple(r.sub(s) for r, s in zip(self.rows, other.rows)))

    def add(self, other: "OperatorField") -> "OperatorField":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} vs {other.shape}")
        return OperatorField(tuple(r.add(s) for r, s in zip(self.rows, other.rows)))

    def energy(self) -> float:
        """E of the squared Hilbert-Schmidt norm."""
        return sum(row.energy() for row in self.rows)

    def max_entry_norm(self) -> float:
        return max(p.norm_l2() for row in self.rows for p in row.coords)

    def to_json_rows(self) -> list[list[str]]:
        """Array-of-rows of the canonical text form, for JSON payloads."""
        return [[p.to_text() for p in row.coords] for row in self.rows]

    @classmethod
    def from_json_rows(cls, dim: int, rows: list[list[str]]) -> "OperatorField":
        return cls(
            tuple(
                HField(tuple(ChaosPoly.from_text(dim, cell) for cell in row))
                for row in rows
            )
        )

    @classmethod
    def constant(cls, matrix) -> "OperatorField":
        """Deterministic operator from a d x n matrix."""
        matrix = np.asarray(matrix, dtype=float)
        d, n = matrix.shape
        return cls(
            tuple(
                HField(tuple(ChaosPoly.constant(n, float(matrix[a, i])) for i in range(n)))
                for a in range(d)
            )
        )


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
    coords = []
    for i in range(n):
        coords.append(
            linear_combine(list(A[i]), [ChaosPoly.coordinate(n, j + 1) for j in range(n)])
        )
    return HField(tuple(coords))


# ---------------------------------------------------------------- operators


def gradient_scalar(p: ChaosPoly) -> HField:
    """Coordinatewise derivative field of a scalar functional."""
    return HField(tuple(partial_derivative(p, i) for i in range(1, p.dim + 1)))


def gradient_vector(v: VField) -> OperatorField:
    """Stack the component gradients as rows of an OperatorField."""
    return OperatorField(tuple(gradient_scalar(f) for f in v.components))


def divergence_h(u: HField) -> ChaosPoly:
    """Adjoint of the scalar gradient: sum_i (eta_i u_i - d_i u_i)."""
    parts = []
    for i, ui in enumerate(u.coords, start=1):
        parts.append(multiply_by_coordinate(ui, i))
        parts.append(partial_derivative(ui, i))
    coeffs = [1.0, -1.0] * u.n
    return linear_combine(coeffs, parts)


def divergence_op(K: OperatorField) -> VField:
    """Row-by-row divergence: component a is div of row a."""
    return VField(tuple(divergence_h(row) for row in K.rows))


def trace_pairing(K: OperatorField, D: OperatorField) -> ChaosPoly:
    """The random trace pairing sum_{a,i} K_{a,i} D_{a,i} as a ChaosPoly."""
    if K.shape != D.shape:
        raise DimensionMismatch(f"shapes {K.shape} vs {D.shape}")
    parts = [
        hermite_product(kr.coords[i], dr.coords[i])
        for kr, dr in zip(K.rows, D.rows)
        for i in range(K.n)
    ]
    return linear_combine([1.0] * len(parts), parts)


def trace_pairing_expectation(K: OperatorField, D: OperatorField) -> float:
    """E of the trace pairing, summed term-by-term without forming products."""
    if K.shape != D.shape:
        raise DimensionMismatch(f"shapes {K.shape} vs {D.shape}")
    return sum(
        l2_inner(kr.coords[i], dr.coords[i])
        for kr, dr in zip(K.rows, D.rows)
        for i in range(K.n)
    )


def dual_pairing(F: VField, G: VField) -> ChaosPoly:
    """The random scalar sum_a F_a G_a."""
    if F.d != G.d:
        raise DimensionMismatch(f"component counts {F.d} vs {G.d}")
    parts = [hermite_product(f, g) for f, g in zip(F.components, G.components)]
    return linear_combine([1.0] * len(parts), parts)


def dual_pairing_expectation(F: VField, G: VField) -> float:
    if F.d != G.d:
        raise DimensionMismatch(f"component counts {F.d} vs {G.d}")
    return sum(l2_inner(f, g) for f, g in zip(F.components, G.components))


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
    divs = [divergence_h(row) for row in K.rows]
    d = len(divs)
    gram = np.empty((d, d))
    for a in range(d):
        for b in range(a, d):
            gram[a, b] = gram[b, a] = l2_inner(divs[a], divs[b])
    top = float(np.linalg.eigvalsh(gram)[-1])
    return math.sqrt(max(top, 0.0))
