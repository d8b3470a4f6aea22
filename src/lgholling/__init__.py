"""Simulation and analysis toolkit for a two-species predator-prey system
with time-dependent delays (Leslie-Gower predator limitation, Holling-II
functional response, time-varying coefficients).

Main entry points:

- expression layer: parse_expression, evaluate, estimate_bounds
- model: ModelSpec (frozen), InitialHistory, validate_model, eval_rhs
- integration: Trajectory, integrate, integrate_batch, sample_state, order_check
- coefficient sup/inf and permanence box: CoefficientBounds, compute_permanence_bounds_from_values,
  verify_permanence(trajectory)
- attractivity: eval_alpha_beta, estimate_liminf, run_attractivity(two trajectories)
- almost-periodicity diagnostics: ergodic_mean, shift_defect, pap0_trend
- integral operator: apply_upsilon, iterate_fixed_point, dde_residual
- orchestration: run_preset, run_config (also the `lgholling` CLI)
"""

from .errors import (
    ConfigError,
    ExprDomainError,
    ExprSyntaxError,
    IntegrationError,
    LagInversionError,
    LgError,
    NumericalError,
    QuadratureError,
    ValidationError,
)
from .expr import (
    BoundsEstimate,
    CoefficientExpr,
    estimate_bounds,
    evaluate,
    evaluate_array,
    parse_expression,
    serialize,
)
from .model import InitialHistory, ModelSpec, ValidationReport, eval_rhs, validate_model
from .integrator import (
    OrderCheck,
    Trajectory,
    integrate,
    integrate_batch,
    order_check,
    sample_state,
)
from .permanence import (
    CoefficientBounds,
    PermanenceBounds,
    PermanenceVerification,
    check_c0,
    compute_permanence_bounds_from_values,
    verify_permanence,
)
from .stability import (
    AttractivityResult,
    LiminfEstimate,
    alpha_beta_from_gaps,
    estimate_liminf,
    eval_alpha_beta,
    lag_inverse_gap,
    run_attractivity,
)
from .pap import PapReport, PapTrend, ergodic_mean, pap0_trend, shift_defect, solution_window_report
from .fixedpoint import (
    FixedPointResult,
    GridFunctionPair,
    apply_upsilon,
    dde_residual,
    eval_f,
    iterate_fixed_point,
    kernel_identity_check,
)
from .presets import PRESET_NAMES, preset_config
from .cli import RunConfig, emit_report, load_config, run_config, run_pipeline, run_preset

__version__ = "0.1.0"
