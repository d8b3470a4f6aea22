"""System specification: the eleven time-varying coefficients, validation,
and the right-hand side of the delayed predator-prey equations

    u'(t) = (a1(t) - b(t) u(t) - c1(t) v(t-tau1(t)) / (u(t-sigma1(t)) + k1(t))) u(t)
    v'(t) = (a2(t) - c2(t) v(t-tau2(t)) / (u(t-sigma2(t)) + k2(t))) v(t)

The coefficient written b and b1 elsewhere is one and the same function here.
A ModelSpec is frozen (validate_model returns its sup/inf in a report); eval_rhs is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .expr import BoundsEstimate, CoefficientExpr, parse_expression, _scan

__all__ = [
    "SYMBOLS",
    "DELAY_SYMBOLS",
    "ModelSpec",
    "InitialHistory",
    "ValidationReport",
    "validate_model",
    "eval_rhs",
]

SYMBOLS = ("a1", "a2", "b", "c1", "c2", "k1", "k2", "tau1", "tau2", "sigma1", "sigma2")
DELAY_SYMBOLS = ("tau1", "tau2", "sigma1", "sigma2")
_HISTORY_SAMPLES = 256  # points on [-r, 0] where a history is checked for sign


@dataclass(frozen=True)
class ModelSpec:
    a1: CoefficientExpr
    a2: CoefficientExpr
    b: CoefficientExpr
    c1: CoefficientExpr
    c2: CoefficientExpr
    k1: CoefficientExpr
    k2: CoefficientExpr
    tau1: CoefficientExpr
    tau2: CoefficientExpr
    sigma1: CoefficientExpr
    sigma2: CoefficientExpr

    @classmethod
    def from_strings(cls, coefficients: dict[str, str]) -> "ModelSpec":
        missing = [s for s in SYMBOLS if s not in coefficients]
        if missing:
            raise ValidationError(f"missing coefficients: {', '.join(missing)}")
        return cls(**{s: parse_expression(coefficients[s]) for s in SYMBOLS})

    def expr(self, symbol: str) -> CoefficientExpr:
        return getattr(self, symbol)


def _history_value(phi: float | CoefficientExpr, theta):
    if isinstance(phi, CoefficientExpr):
        return phi(theta)
    return phi if np.ndim(theta) == 0 else np.full(np.shape(theta), phi)


@dataclass
class InitialHistory:
    """Initial data on [-r, 0]; each component is a positive constant or an
    expression in the shifted time variable."""

    phi1: float | CoefficientExpr
    phi2: float | CoefficientExpr

    def value1(self, theta):
        """phi1 at a time or over an array of times."""
        return _history_value(self.phi1, theta)

    def value2(self, theta):
        """phi2 at a time or over an array of times."""
        return _history_value(self.phi2, theta)

    def validate(self, r: float) -> None:
        if self.value1(0.0) <= 0.0 or self.value2(0.0) <= 0.0:
            raise ValidationError("history must satisfy phi1(0) > 0 and phi2(0) > 0")
        thetas = np.linspace(-r, 0.0, _HISTORY_SAMPLES) if r > 0 else np.array([0.0])
        for name, vals in (("phi1", self.value1(thetas)), ("phi2", self.value2(thetas))):
            if (vals < 0.0).any():
                raise ValidationError(f"history {name} negative at theta={float(thetas[vals < 0.0][0])}")


@dataclass
class ValidationReport:
    ok: bool
    bounds: dict[str, BoundsEstimate]
    max_lag_r: float
    failures: list[tuple[str, float, float]]  # (symbol, t, value)


def validate_model(spec: ModelSpec, horizon: float = 1000.0, samples: int = 100_000) -> ValidationReport:
    """Check positivity of all eleven coefficients on a sampling grid and
    estimate their sup/inf; computes the maximal lag r."""
    bounds: dict[str, BoundsEstimate] = {}
    failures: list[tuple[str, float, float]] = []
    grid = np.linspace(0.0, horizon, samples)
    for sym in SYMBOLS:
        est, raw_min, t_min = _scan(spec.expr(sym), horizon, grid)
        bounds[sym] = est
        if raw_min <= 0.0:
            failures.append((sym, t_min, raw_min))
    r = max(bounds[s].sup_value for s in DELAY_SYMBOLS)
    return ValidationReport(ok=not failures, bounds=bounds, max_lag_r=r, failures=failures)


def eval_rhs(spec: ModelSpec, t, u, v, u_sigma1, u_sigma2, v_tau1, v_tau2):
    """Right-hand side given current state and delayed state values, at one
    time or elementwise over an array of times (with matching state arrays).

    The axes are invariant: u = 0 forces du = 0 and v = 0 forces dv = 0.
    """
    a1, a2, b, c1, c2, k1, k2 = (spec.expr(sym)(t) for sym in ("a1", "a2", "b", "c1", "c2", "k1", "k2"))
    du = (a1 - b * u - c1 * v_tau1 / (u_sigma1 + k1)) * u
    dv = (a2 - c2 * v_tau2 / (u_sigma2 + k2)) * v
    return du, dv
