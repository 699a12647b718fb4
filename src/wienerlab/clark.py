"""Predictable-integrand representation and the minimal-energy representation.

A vector functional v is reconstructed from its adapted derivative data as

    v  ~  E[v] + div( project_operator( grad v ) )

which is exact precisely when every Hermite monomial of every component has
order 1 at its highest-index coordinate: conditioning at stage j-1 kills a
derivative He_{k-1}(eta_j) unless k = 1.  Monomials violating that are lost
entirely, so the squared residual is their exact coefficient mass.  Grid
refinement spreads that mass over finer cells and shrinks the residual.

Separately, any centered square-integrable scalar phi has the exact
divergence representation with integrand

    vbar = grad( Linv (phi - E phi) )

where Linv inverts the number operator gradewise.  Among all fields whose
divergence is phi - E phi this one has minimal energy, because gradients are
L2-orthogonal to divergence-free fields.  The adapted (projected-gradient)
integrand and vbar coincide exactly when phi - E phi sits in the first
chaos grade.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .adapted import WeaklyAdaptedOperator, project_operator
from .chaos import (
    ChaosPoly,
    _factorial,
    _top_order_above_one,
    chaos_projection,
    ou_inverse,
    refine,
)
from .malliavin import (
    HField,
    VField,
    divergence_h,
    divergence_op,
    gradient_scalar,
    gradient_vector,
)


class RepresentationError(ValueError):
    """A claimed integrand fails its representation precondition."""


@dataclass(frozen=True)
class ClarkResult:
    """Adapted integrand, reconstruction, and the exact L2 residual."""

    integrand: WeaklyAdaptedOperator
    reconstruction: VField
    residual_l2: float
    n: int

    @property
    def d(self) -> int:
        return self.reconstruction.d

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "residual_l2": self.residual_l2,
            "integrand": self.integrand.to_json_rows(),
            "reconstruction": [p.to_text() for p in self.reconstruction.components],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


@dataclass(frozen=True)
class EnergyComparison:
    """Energies of the adapted and the minimal-energy integrands for a scalar."""

    adapted_energy: float
    exact_energy: float
    coincide: bool


def clark_integrand(v: VField) -> WeaklyAdaptedOperator:
    """Adapted projection of the gradient operator of v."""
    return project_operator(gradient_vector(v))


def reconstruct(v: VField) -> ClarkResult:
    """E[v] + div(adapted integrand), with the exact L2 residual."""
    K = clark_integrand(v)
    mean = VField.constant(v.ambient_dim, v.expectation())
    rec = mean.add(divergence_op(K))
    residual = v.sub(rec).norm()
    return ClarkResult(integrand=K, reconstruction=rec, residual_l2=residual, n=v.ambient_dim)


def is_representable(v: VField | ChaosPoly) -> bool:
    """True iff every monomial's top coordinate carries Hermite order 1."""
    polys = v.components if isinstance(v, VField) else (v,)
    return not any(_top_order_above_one(key) for p in polys for key in p.packed_terms)


def residual_mass_oracle(v: VField) -> float:
    """Exact residual predicted from the unrepresentable coefficient mass."""
    total = 0.0
    for p in v.components:
        for key, c in p.packed_terms.items():
            if _top_order_above_one(key):
                total += _factorial(key) * c * c
    return math.sqrt(total)


def refine_and_reconstruct(v: VField, factors) -> list[tuple[int, float]]:
    """Residual table over refinement factors; rows are (factor, residual)."""
    rows = []
    for m in factors:
        m = int(m)
        refined = VField(tuple(refine(p, m) for p in v.components))
        rows.append((m, reconstruct(refined).residual_l2))
    return rows


def check_uniqueness(v: VField, K_alt: WeaklyAdaptedOperator) -> bool:
    """Any weakly adapted integrand representing v equals the projected gradient.

    Precondition: div K_alt must reproduce v - E[v] to 1e-10 in L2; violations
    raise :class:`RepresentationError` rather than returning False.  The two
    integrands must then agree entry by entry to 1e-10.
    """
    mean = VField.constant(v.ambient_dim, v.expectation())
    gap = divergence_op(K_alt).sub(v.sub(mean)).norm()
    if gap > 1e-10:
        raise RepresentationError(
            f"claimed integrand misses the target by {gap:.3e} in L2"
        )
    K = clark_integrand(v)
    diff = K.sub(K_alt)
    return all(p.norm_l2() <= 1e-10 for row in diff.rows for p in row.coords)


def minimal_energy_integrand(phi: ChaosPoly) -> HField:
    """grad(Linv(phi - E phi)): the exact minimal-energy representing field."""
    centered = phi - ChaosPoly.constant(phi.dim, phi.expectation())
    return gradient_scalar(ou_inverse(centered))


def compare_energies(phi: ChaosPoly) -> EnergyComparison:
    """Adapted-integrand energy vs minimal-energy integrand energy for a scalar.

    ``coincide`` is decided structurally: the two integrands agree exactly
    when the centered functional is pure first chaos.
    """
    centered = phi - ChaosPoly.constant(phi.dim, phi.expectation())
    adapted = clark_integrand(VField((phi,)))
    adapted_energy = adapted.energy()
    exact = minimal_energy_integrand(phi)
    exact_energy = exact.energy()
    pure_first = (centered - chaos_projection(centered, 1)).is_zero()
    return EnergyComparison(
        adapted_energy=adapted_energy,
        exact_energy=exact_energy,
        coincide=pure_first,
    )


def representation_residual(phi: ChaosPoly, field: HField) -> float:
    """L2 gap between div(field) and phi - E phi."""
    centered = phi - ChaosPoly.constant(phi.dim, phi.expectation())
    return (divergence_h(field) - centered).norm_l2()
