"""The filtration, strict-past predictability, adapted projections.

This docstring is the package's one statement of the filtration.  It is
generated by a resolution of the identity in stages: each stage reveals a
run of consecutive coordinates, and conditioning on everything revealed up
to coordinate k is ``conditional_expectation(p, k)``.  One private, monotone
table holds the rule: ``_PAST[i]`` is the last coordinate of the strict past
of coordinate i's stage, that is of the stages before it, so the stage of
i runs from ``_PAST[i] + 1`` to the last coordinate with the same entry.
Each stage here reveals one coordinate, ``eta_i``, and ``_PAST[i] = i - 1``.
The table is a constant, not an option.  Every strict-past and last-stage
decision of the package reads it when it is called (``clark``'s
integrand, reconstruction, residuals and energies, ``randgen``'s adapted
instances and ``rotations``' strict-past certificate), so replacing it
moves every decision at once.

An HField u is *predictable* when coordinate u_i depends only on the
strict past eta_1 .. eta_{_PAST[i]}; in the Hermite representation that is
a pure term-support condition, so membership is decidable exactly.

Strict past (rather than "up to and including i") is the convention that
makes the discrete divergence of a predictable field equal the plain
pathwise sum  sum_i u_i eta_i  and gives the exact isometry
E[div u div v] = E(u, v).  Including stage i breaks it: u = eta_1 e_1 has
div u = He_2(eta_1) with second moment 2, not E|u|^2 = 1.

An OperatorField is *weakly adapted* when every row is predictable, i.e.
entry (a, i) depends only on the strict past of i.  The projection of an
HField conditions coordinate i on that strict past; the operator
projection applies that rowwise.  Both are exact orthogonal projections
here.

The projection of a gradient keeps, of ``d_i He_alpha``, only what the
strict past of i determines.  So a monomial keeps a derivative exactly when
its order in its last stage, the stage of its largest coordinate t, is 1,
and then only ``d_t``: :func:`_last_stage_order` is that order.  On a
sorted key it exceeds 1 exactly when ``key[-2] > _PAST[key[-1]]``, the
byte test the Clark scans make first.

The test operators of the operator-level checks are weakly adapted
operators too: a finite-rank adapted operator sum_t y_t (x) q_t, with
predictable q_t and constant y_t in R^d, is the WeaklyAdaptedOperator with
entries (a, i) = sum_t y_{t,a} q_{t,i}, and it pairs and diverges like any
other.
"""

from __future__ import annotations

from bisect import bisect_right

from .chaos import DIM_CAP, conditional_expectation, l2_inner
from .malliavin import (
    HField,
    OperatorField,
    divergence_h,
    divergence_op,
    dual_pairing_expectation,
    trace_pairing_expectation,
)


#: ``_PAST[i]``: the last coordinate of the strict past of coordinate i's
#: stage, one stage per coordinate (``_PAST[0]`` is unused).
_PAST = bytes((0, *range(DIM_CAP)))


def _last_stage_order(key: bytes) -> int:
    """Order of a packed key in the stage of its largest coordinate; 0 for the constant."""
    return len(key) - bisect_right(key, _PAST[key[-1]]) if key else 0


class NotPredictable(ValueError):
    """A field failed the strict-past support condition."""


def is_predictable(u: HField) -> bool:
    """True iff no coordinate u_i depends on a coordinate past its strict past."""
    return all(max(b"".join(ui._terms), default=0) <= p for p, ui in zip(_PAST[1:], u.coords))


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

    Coordinate i becomes its conditional expectation given its strict past.
    Idempotent, self-adjoint, an L2 contraction, and the identity on
    predictable input.
    """
    coords = tuple(conditional_expectation(ui, p) for p, ui in zip(_PAST[1:], u.coords))
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
    return max(p.norm_l2() for row in K.rows for p in row.coords) <= 1e-12
