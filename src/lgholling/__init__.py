"""Simulation and analysis toolkit for a two-species predator-prey system
with time-dependent delays (Leslie-Gower predator limitation, Holling-II
functional response, time-varying coefficients).

Main entry points:

- expression layer: parse_expression, evaluate, evaluate_array
- model: ModelSpec (frozen), InitialHistory, validate_model, delayed_term
- integration: Trajectory (with its dense output Trajectory.at), integrate, integrate_batch
- coefficient sup/inf and permanence box: CoefficientBounds, compute_permanence_bounds_from_values,
  verify_permanence(trajectory)
- attractivity: lag_inverse_gap, estimate_liminf, run_attractivity(two trajectories)
- almost-periodicity diagnostics: ergodic_mean, pap0_trend, solution_window_report
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
    evaluate,
    evaluate_array,
    parse_expression,
    serialize,
)
from .model import InitialHistory, ModelSpec, ValidationReport, delayed_term, validate_model
from .integrator import Trajectory, integrate, integrate_batch
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
    lag_inverse_gap,
    run_attractivity,
)
from .pap import PapReport, PapTrend, ergodic_mean, pap0_trend, solution_window_report
from .fixedpoint import (
    FixedPointResult,
    GridFunctionPair,
    apply_upsilon,
    dde_residual,
    eval_f,
    iterate_fixed_point,
)
from .presets import PRESET_NAMES, preset_config
from .cli import RunConfig, load_config, run_config, run_pipeline, run_preset

__version__ = "0.1.0"
