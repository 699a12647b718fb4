"""Desk-scale exact laboratory for Malliavin calculus on a discretized Gaussian space."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .chaos import (
    DEGREE_CAP,
    DIM_CAP,
    AlgebraError,
    ChaosPoly,
    DegreeCapExceeded,
    DimensionMismatch,
    MultiIndex,
    conditional_expectation,
    evaluate_batch,
    expectation,
    hermite_product,
    l2_inner,
    linear_combine,
    multiply_by_coordinate,
    norm_l2,
    ou_apply,
    ou_inverse,
    partial_derivative,
    refine,
)
from .space import (
    BLOCK_ROWS,
    GENERATOR_ID,
    Check,
    MonteCarloEstimate,
    SampleBatch,
    ks_normal,
    mc_estimate,
    moment_normality,
    sample_batch,
)
from .malliavin import (
    HField,
    OperatorField,
    VField,
    divergence_h,
    divergence_op,
    dual_pairing,
    dual_pairing_expectation,
    gradient_scalar,
    gradient_vector,
    skew_symmetric_field,
    trace_pairing,
    trace_pairing_expectation,
)
from .adapted import (
    NotPredictable,
    PredictableHField,
    WeaklyAdaptedOperator,
    is_predictable,
    project_adapted,
    project_operator,
)
from .clark import (
    ClarkResult,
    EnergyComparison,
    clark_integrand,
    compare_energies,
    is_representable,
    minimal_energy_integrand,
    reconstruct,
    refine_and_reconstruct,
    refinement_residual,
    residual_mass_oracle,
)
from .rotations import (
    ISOMETRY_TOL,
    AdaptedIsometry,
    RotationError,
    RotationReport,
    build_sequential_isometry,
    check_strict_past_measurability,
    gaussianity_battery,
    independence_battery,
    isometry_check,
    measure_preservation_battery,
    mix_outputs,
    scale_output,
)
from .dsl import (
    DslError,
    DslSemanticError,
    DslSyntaxError,
    lower,
    parse_functional,
)
from .suites import run_suites, suite_names

#: Every public name bound above, in import order; submodules are not exports.
__all__ = [
    name
    for name, value in globals().items()
    if name == "__version__" or not (name.startswith("_") or isinstance(value, _ModuleType))
]
