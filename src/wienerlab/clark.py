"""Predictable-integrand representation and the minimal-energy representation.

A vector functional v is reconstructed from its adapted derivative data as

    v  ~  E[v] + div( K ),   K_{a,i} = E[ d_i v_a | strict past of i ]

which is exact precisely when every Hermite monomial of every component has
order 1 in its last stage.  The filtration, its strict past and that rule
are stated once, in the ``adapted`` module docstring, and every decision
here reads ``adapted``'s stage table.  In the Hermite basis the integrand
K is one map over terms: a monomial of last-stage order 1 with top
coordinate j moves to entry (a, j) with that factor removed and the same
coefficient, and every other monomial is dropped.  The divergence of that
entry puts the factor back, so the reconstruction is read off v too: it is
v's monomials of last-stage order <= 1, which
``reconstruct`` takes without forming the divergence (the
``clark_exactness`` suite forms it and checks it against v).  The dropped
monomials are lost entirely: v minus the reconstruction holds exactly them,
so the residual is the L2 norm of the dropped terms, read off v without
forming the reconstruction's difference.  Grid refinement spreads that mass
over finer cells and shrinks the residual.  Every residual is one sum,
:func:`refinement_residual`, which gives the residual after refining by m in
closed form from v's own terms and builds no fine term; ``reconstruct``
reports it at m = 1, and the rows of :func:`refine_and_reconstruct` are it
at each factor.  The residuals and both energies below are exact sums of
squares of the coefficients, added in ``chaos._square_sum``'s integers and
rounded once.

Separately, any square-integrable scalar phi has the exact divergence
representation phi - E phi = div(vbar) with integrand

    vbar = grad( Linv phi )

where Linv inverts the number operator gradewise and drops the constant
term.  Among all fields whose divergence is phi - E phi this one has
minimal energy, because gradients are L2-orthogonal to divergence-free
fields.  The adapted (projected-gradient) integrand and vbar coincide
exactly when phi - E phi sits in the first chaos grade.  For
``phi = sum_alpha c_alpha He_alpha`` both energies are sums over the
coefficients, which :func:`compare_energies` reads off phi without building
either field:

    E|K|^2    = sum alpha! c_alpha^2            over the terms of last-stage order 1
    E|vbar|^2 = sum alpha! c_alpha^2 / |alpha|  over alpha != 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import adapted as _adapted
from .adapted import PredictableHField, WeaklyAdaptedOperator, _last_stage_order
from .chaos import (
    DEGREE_CAP,
    ChaosPoly,
    _factorial,
    _refinement_factor,
    _rounded,
    _square_sum,
    ou_inverse,
)
from .malliavin import (
    HField,
    VField,
    gradient_scalar,
)


@dataclass(frozen=True)
class ClarkResult:
    """Adapted integrand, reconstruction, and the exact L2 residual."""

    integrand: WeaklyAdaptedOperator
    reconstruction: VField
    residual_l2: float


@dataclass(frozen=True)
class EnergyComparison:
    """Energies of the adapted and the minimal-energy integrands for a scalar."""

    adapted_energy: float
    exact_energy: float
    coincide: bool


def clark_integrand(v: VField) -> WeaklyAdaptedOperator:
    """Adapted projection of the gradient operator of v, by the last-stage rule.

    One scan over each component's terms: a key of last-stage order 1 (see
    ``adapted``) with top coordinate i goes to entry (a, i) as ``key[:-1]``,
    with the same coefficient.  Every other nonzero derivative ``d_i`` of a
    term still depends on a coordinate past the strict past of i, so the
    projection removes it.  Keys, coefficients and stored order equal those
    of ``project_operator(gradient_vector(v))``.
    """
    n, past = v.ambient_dim, _adapted._PAST
    rows = []
    for p in v.components:
        entries = [{} for _ in range(n)]
        for key, c in p._terms.items():
            # last-stage order 1: one byte, or key[-2] in the strict past
            if key and (len(key) == 1 or key[-2] <= past[key[-1]]):
                entries[key[-1] - 1][key[:-1]] = c
        # entries hold stored terms less their top factor: no gate
        rows.append(PredictableHField(tuple(ChaosPoly._of(n, e) for e in entries)))
    return WeaklyAdaptedOperator(tuple(rows))


def reconstruct(v: VField) -> ClarkResult:
    """E[v] + div(adapted integrand), read off v; residual ``refinement_residual(v, 1)``.

    The divergence of entry (a, i) of ``clark_integrand`` appends i to each
    of its keys, which gives back the terms of v_a of last-stage order 1 and
    top coordinate i, with the same coefficients.  So component a of the
    reconstruction is v_a's terms of last-stage order <= 1, the constant
    first and the rest stably ordered by top coordinate: the keys,
    coefficients and stored order of ``E[v] + divergence_op(K)``, which the
    ``clark_exactness`` suite builds and checks against v.  At m = 1 the
    closed form weighs a term by ``alpha!`` exactly when its last-stage
    order is 2 or more, so the residual is the norm of the dropped terms,
    ``||v - reconstruction||``, summed exactly and rounded once.
    """
    past = _adapted._PAST
    rec = VField(tuple(
        # a stable sort by the last key byte: the constant, then column 1, 2, ...
        ChaosPoly._of(p.dim, dict(sorted(
            ((key, c) for key, c in p._terms.items()
             if len(key) < 2 or key[-2] <= past[key[-1]]),
            key=lambda term: term[0][-1:],
        )))
        for p in v.components
    ))
    return ClarkResult(
        integrand=clark_integrand(v), reconstruction=rec, residual_l2=refinement_residual(v, 1)
    )


def is_representable(v: VField | ChaosPoly) -> bool:
    """True iff every monomial has order at most 1 in its last stage."""
    polys = v.components if isinstance(v, VField) else (v,)
    return not any(_last_stage_order(key) > 1 for p in polys for key in p._terms)


def residual_mass_oracle(v: VField) -> float:
    """The residual of ``reconstruct``, exact: an oracle independent of its float sum.

    Adds ``alpha! c**2`` over the terms whose last-stage order is 2 or more
    in ``Fraction``s and rounds the square root once, however tiny or huge
    the sum; ``inf`` past the largest double.
    """
    total = sum(
        _factorial(key) * Fraction(c) ** 2
        for p in v.components for key, c in p._terms.items() if _last_stage_order(key) > 1
    )
    # sqrt(total) * 2**s has about 60 bits, well past a double's 53; an
    # inexact root is made odd, so that it rounds as the exact root does
    s = 60 - (total.numerator.bit_length() - total.denominator.bit_length()) // 2
    scaled = total * Fraction(4) ** s
    root = math.isqrt(math.floor(scaled))
    try:
        return float((root | (root * root != scaled)) / Fraction(2) ** s)
    except OverflowError:
        return math.inf


def refinement_residual(v: VField, m: int) -> float:
    """Residual of ``reconstruct`` after ``refine`` by ``m``, without refining.

    Refinement maps coordinate i to the unit-norm average of fine block i,
    so distinct monomials keep orthogonal refinements, the blocks below a
    monomial's top coordinate t keep their whole mass, and only block t
    decides what is representable.  Of ``He_k`` spread over m cells, the
    fine monomials whose last cell j carries order 1 hold the mass
    ``k! k sum_{j<m} j**(k-1) / m**k`` (``0**0 = 1``), so for
    ``v = sum_alpha c_alpha He_alpha`` with top order ``k = alpha_t``, the
    last-stage order of ``adapted`` when each stage reveals one coordinate::

        residual(m)**2 = sum_alpha alpha! c_alpha**2 (m**k - k S) / m**k,
        S = sum_{j<m} j**(k-1)

    with the exact integer ``S``.  Each weight is an integer over the fixed
    ``m**DEGREE_CAP``, so one scan over v's packed keys sums the weights of
    each distinct coefficient, and ``chaos._square_sum`` adds their squares
    exactly and rounds the square root once: the row is the correctly
    rounded residual, ``inf`` past the largest double.
    ``m * residual**2`` tends to ``sum alpha! c_alpha**2 k / 2`` over the
    terms with ``k >= 2``: the discrete representation converges at rate
    ``1/m``.  At m = 1 a term weighs ``alpha!`` when its last-stage order
    is 2 or more and nothing otherwise, whatever the stages; the weights for
    m > 1 assume one coordinate per stage.  Raises ``refine``'s
    ``AlgebraError`` for an ``m`` that is not an integer, ``m < 1`` or a
    refined dimension past ``DIM_CAP``.
    """
    m = _refinement_factor(v.ambient_dim, m)
    # (m**k - k S) m**(DEGREE_CAP - k) by last-stage order k, over
    # m**DEGREE_CAP; it is 0 for k = 0 and k = 1, so only the terms of
    # last-stage order >= 2 are summed, found by the byte test of the
    # ``adapted`` docstring before ``_last_stage_order`` reads k
    lost = [0] + [
        (m**k - k * sum(j ** (k - 1) for j in range(m))) * m ** (DEGREE_CAP - k)
        for k in range(1, DEGREE_CAP + 1)
    ]
    # a refined functional holds few distinct coefficients, each over many
    # keys: their weights are summed first, and each is squared once
    weights: dict[float, int] = {}
    past = _adapted._PAST
    for p in v.components:
        for key, c in p._terms.items():
            if len(key) > 1 and key[-2] > past[key[-1]]:
                weights[c] = weights.get(c, 0) + _factorial(key) * lost[_last_stage_order(key)]
    # each pair leads with its own integer weight
    return _square_sum(zip(weights.values(), weights), int, m**DEGREE_CAP, root=True)


def refine_and_reconstruct(v: VField, factors) -> list[tuple[int, float]]:
    """Residual table over refinement factors; rows are ``(m, refinement_residual(v, m))``.

    Each factor is checked just before its row (``chaos._refinement_factor``),
    and each row is the closed form that ``represent`` prints: the residual
    of ``reconstruct`` after refining by ``m``, read off v's own terms, with
    no refined term built.  So a row is correctly rounded, ``inf`` past the
    largest double, and is not refused for a refinement too large to build.
    At m = 1 the row follows any stage table; the rows for m > 1 assume one
    coordinate per stage, as :func:`refinement_residual` does.
    """
    rows = []
    for f in factors:
        m = _refinement_factor(v.ambient_dim, f)
        rows.append((m, refinement_residual(v, m)))
    return rows


def minimal_energy_integrand(phi: ChaosPoly) -> HField:
    """grad(Linv phi): the exact minimal-energy field representing phi - E phi.

    ``ou_inverse`` is the pseudo-inverse, which drops phi's constant term, so
    phi need not be centered first.
    """
    return gradient_scalar(ou_inverse(phi))


def compare_energies(phi: ChaosPoly) -> EnergyComparison:
    """Adapted-integrand energy vs minimal-energy integrand energy for a scalar.

    Both are closed forms in the Hermite coefficients of
    ``phi = sum_alpha c_alpha He_alpha`` (Nualart, *The Malliavin Calculus
    and Related Topics*, 2006, sections 1.2-1.4), each summed exactly and
    rounded once to the nearest double (``inf`` past the largest), without
    building either integrand::

        adapted = sum alpha! c_alpha**2            over the terms of last-stage order 1
        exact   = sum alpha! c_alpha**2 / |alpha|  over alpha != 0

    The first is the energy of ``clark_integrand``, which moves each such
    term unchanged to its top coordinate.  The second is the energy of
    ``minimal_energy_integrand``: the ``d_i`` of ``c He_alpha / |alpha|``
    has second moment ``alpha! c**2 alpha_i / |alpha|**2``, and the
    ``alpha_i`` add to ``|alpha|``.  ``coincide`` is decided structurally:
    the two integrands agree exactly when the centered functional is pure
    first chaos, that is when every term of phi has degree at most 1.
    """
    # every |alpha| divides the lcm of 1 .. DEGREE_CAP: alpha! / |alpha| is an
    # integer over it
    lcm = math.lcm(*range(1, DEGREE_CAP + 1))
    # one scan, one accumulator per energy, in _square_sum's integers
    exact: dict[int, int] = {}
    adapted: dict[int, int] = {}
    past = _adapted._PAST
    for key, c in phi._terms.items():
        if key:
            m, e = math.frexp(c)
            square = int(m * 2.0**53) ** 2
            f = _factorial(key)
            exact[e] = exact.get(e, 0) + f * lcm // len(key) * square
            if len(key) == 1 or key[-2] <= past[key[-1]]:
                adapted[e] = adapted.get(e, 0) + f * square
    return EnergyComparison(
        adapted_energy=_rounded(adapted, 1, False),
        exact_energy=_rounded(exact, lcm, False),
        coincide=all(len(key) <= 1 for key in phi._terms),
    )
