"""Coordinate filtration, strict-past predictability, adapted projections.

The filtration is generated coordinate by coordinate: stage k knows
eta_1 .. eta_k, and conditioning on it is conditional_expectation(p, k).
An HField u is *predictable* when coordinate u_i depends only on the
strict past eta_1 .. eta_{i-1}; in the Hermite representation that is a
pure term-support condition, so membership is decidable exactly.

Strict past (rather than "up to and including i") is the convention that
makes the discrete divergence of a predictable field equal the plain
pathwise sum  sum_i u_i eta_i  and gives the exact isometry
E[div u div v] = E(u, v).  Including stage i breaks it: u = eta_1 e_1 has
div u = He_2(eta_1) with second moment 2, not E|u|^2 = 1.

An OperatorField is *weakly adapted* when every row is predictable, i.e.
entry (a, i) depends only on eta_1 .. eta_{i-1}.  The projection of an
HField applies the stage-(i-1) conditional expectation to coordinate i;
the operator projection applies that rowwise.  Both are exact orthogonal
projections here.

The test operators of the operator-level checks are weakly adapted
operators too: a finite-rank adapted operator sum_t y_t (x) q_t, with
predictable q_t and constant y_t in R^d, is the WeaklyAdaptedOperator with
entries (a, i) = sum_t y_{t,a} q_{t,i}, and it pairs and diverges like any
other.
"""

from __future__ import annotations

from .chaos import conditional_expectation, l2_inner
from .malliavin import (
    HField,
    OperatorField,
    divergence_h,
    divergence_op,
    dual_pairing_expectation,
    trace_pairing_expectation,
)


class NotPredictable(ValueError):
    """A field failed the strict-past support condition."""


def is_predictable(u: HField) -> bool:
    """True iff coordinate i has no positive order at any coordinate >= i."""
    return all(ui.max_coordinate() < i for i, ui in enumerate(u.coords, start=1))


class PredictableHField(HField):
    """HField with a checked strict-past certificate."""

    def __post_init__(self):
        super().__post_init__()
        if not is_predictable(self):
            raise NotPredictable("coordinate fields reach into their own present or future")


class WeaklyAdaptedOperator(OperatorField):
    """OperatorField whose rows are all predictable."""

    def __post_init__(self):
        super().__post_init__()
        for a, row in enumerate(self.rows, start=1):
            if not is_predictable(row):
                raise NotPredictable(f"row {a} is not predictable")


def project_adapted(u: HField) -> PredictableHField:
    """Orthogonal projection onto predictable fields, coordinate by coordinate.

    Coordinate i becomes its stage-(i-1) conditional expectation.  Idempotent,
    self-adjoint, an L2 contraction, and the identity on predictable input.
    """
    coords = tuple(
        conditional_expectation(ui, i - 1) for i, ui in enumerate(u.coords, start=1)
    )
    return PredictableHField(coords)


def project_operator(K: OperatorField) -> WeaklyAdaptedOperator:
    """Rowwise adapted projection of an OperatorField."""
    return WeaklyAdaptedOperator(tuple(project_adapted(row) for row in K.rows))


def check_ito_isometry(u: HField, v: HField) -> float:
    """|E[div u div v] - E(u, v)| for predictable u, v; exact zero in theory."""
    if not (is_predictable(u) and is_predictable(v)):
        raise NotPredictable("isometry holds for predictable fields")
    return abs(l2_inner(divergence_h(u), divergence_h(v)) - u.inner(v))


def check_weak_orthogonality(K: OperatorField, Q: WeaklyAdaptedOperator) -> float:
    """|E<<K, Q>> - E<<projected K, Q>>|: only the adapted part of K pairs with Q."""
    lhs = trace_pairing_expectation(K, Q)  # checks the shapes before projecting
    return abs(lhs - trace_pairing_expectation(project_operator(K), Q))


def check_operator_isometry(K: WeaklyAdaptedOperator, D: WeaklyAdaptedOperator) -> float:
    """|E<div D, div K> - E<<K, D>>| for two weakly adapted operators."""
    rhs = trace_pairing_expectation(K, D)
    lhs = dual_pairing_expectation(divergence_op(D), divergence_op(K))
    return abs(lhs - rhs)


def check_divergence_free_uniqueness(K: WeaklyAdaptedOperator) -> bool:
    """div K = 0 forces K = 0 on weakly adapted operators.

    Returns True iff the implication holds for this K: either the divergence
    is visibly nonzero, or every entry vanishes within 1e-12.
    """
    if divergence_op(K).norm() > 1e-12:
        return True
    return K.max_entry_norm() <= 1e-12
