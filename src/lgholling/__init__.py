"""Simulation and analysis toolkit for a two-species predator-prey system
with time-dependent delays (Leslie-Gower predator limitation, Holling-II
functional response, time-varying coefficients).

Main entry points (each module's __all__ is its public API; the package
republishes every one):

- expression layer: parse_expression, evaluate, evaluate_array
- model: ModelSpec and InitialHistory (both frozen), validate_model, delayed_term
- integration: Trajectory (with its dense output Trajectory.at), integrate, integrate_batch
- coefficient sup/inf and permanence box: CoefficientBounds, compute_permanence_bounds_from_values,
  verify_permanence(trajectory)
- attractivity: lag_inverse_gap, estimate_liminf, run_attractivity(two trajectories)
- almost-periodicity diagnostics: ergodic_mean, pap0_trend, solution_window_report
- integral operator: apply_upsilon, iterate_fixed_point, dde_residual
- orchestration: load_config, and run_pipeline, the one library entry (also the `lgholling` CLI)
"""

from .errors import *
from .expr import *
from .model import *
from .integrator import *
from .permanence import *
from .stability import *
from .pap import *
from .fixedpoint import *
from .presets import *
from .cli import *

__version__ = "0.1.0"
