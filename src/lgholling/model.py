"""System specification: the eleven time-varying coefficients, validation,
and the one division of both delayed terms of the predator-prey equations

    u'(t) = (a1(t) - b(t) u(t) - c1(t) v(t-tau1(t)) / (u(t-sigma1(t)) + k1(t))) u(t)
    v'(t) = (a2(t) - c2(t) v(t-tau2(t)) / (u(t-sigma2(t)) + k2(t))) v(t)

The coefficient written b and b1 elsewhere is one and the same function here.
A ModelSpec is frozen (validate_model returns its sup/inf in a report), and
so is an InitialHistory, a pair of expressions.  Both build their fields in
_name_fields, from expressions, text or numbers, and give each expression its
field's name as its symbol, which names its failures anywhere.
The integrator, the integral operator and the residual check all divide by
u(t - sigma) + k through delayed_term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ExprSyntaxError, NumericalError, ValidationError
from .expr import BoundsEstimate, CoefficientExpr, parse_expression, _search

__all__ = [
    "SYMBOLS",
    "DELAY_SYMBOLS",
    "ModelSpec",
    "InitialHistory",
    "ValidationReport",
    "validate_model",
    "delayed_term",
]

SYMBOLS = ("a1", "a2", "b", "c1", "c2", "k1", "k2", "tau1", "tau2", "sigma1", "sigma2")
DELAY_SYMBOLS = ("tau1", "tau2", "sigma1", "sigma2")


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

    def __post_init__(self):
        _name_fields(self, SYMBOLS)

    @classmethod
    def from_strings(cls, coefficients: dict[str, str]) -> "ModelSpec":
        missing = [s for s in SYMBOLS if s not in coefficients]
        if missing:
            raise ValidationError(f"missing coefficients: {', '.join(missing)}")
        return cls(**{s: coefficients[s] for s in SYMBOLS})


def _name_fields(holder, names) -> None:
    """Make each field of the frozen holder named in names an expression with its field's name as
    its symbol: an expression as it is, text parsed, a finite number v the program
    (("const", float(v)),).  Text that does not parse raises ExprSyntaxError, anything else that
    is not a finite number ValidationError, each message starting with the field's name."""
    for name in names:
        try:
            if isinstance(value := getattr(holder, name), str):
                value = parse_expression(value)
            elif not isinstance(value, CoefficientExpr):
                if not math.isfinite(v := float(value)):
                    raise ValueError  # refused below, as a value that is not a number is
                value = CoefficientExpr((("const", v),))
        except ExprSyntaxError as exc:
            reason = str(exc).removesuffix(f" at position {exc.position}")
            raise ExprSyntaxError(f"{name}: {reason}", exc.position) from None
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{name}: expected an expression, text or a finite number, got {value!r}") from None
        object.__setattr__(holder, name, replace(value, symbol=name))


@dataclass(frozen=True)
class InitialHistory:
    """Initial data on [-r, 0]: two expressions in the shifted time variable, each given, as
    a coefficient of a ModelSpec is, as one, as text or as a finite number."""

    phi1: CoefficientExpr
    phi2: CoefficientExpr

    def __post_init__(self):
        _name_fields(self, ("phi1", "phi2"))

    def validate(self, r: float) -> None:
        if self.phi1(0.0) <= 0.0 or self.phi2(0.0) <= 0.0:
            raise ValidationError("history must satisfy phi1(0) > 0 and phi2(0) > 0")
        for name in ("phi1", "phi2"):
            least, _, _, _, theta = _search(getattr(self, name), -r, 0.0)
            if least < 0.0:
                raise ValidationError(f"history {name} negative at theta={theta}")


@dataclass
class ValidationReport:
    bounds: dict[str, BoundsEstimate]
    max_lag_r: float
    failures: list[tuple[str, float, float]]  # (symbol, time of its inf, inf)


def validate_model(spec: ModelSpec, horizon: float = 1000.0) -> ValidationReport:
    """Estimate the sup/inf of all eleven coefficients over [0, horizon]
    with certified brackets, check that each is positive (its certified
    lower bound above 0), and compute the maximal lag r.  A failure names
    the time of the coefficient's inf.  A search's ExprDomainError names its
    coefficient's symbol."""
    bounds: dict[str, BoundsEstimate] = {}
    failures: list[tuple[str, float, float]] = []
    for sym in SYMBOLS:
        inf_value, inf_lower, sup_value, sup_upper, t_inf = _search(getattr(spec, sym), 0.0, horizon)
        bounds[sym] = BoundsEstimate(inf_value, sup_value, inf_lower, sup_upper)
        if not inf_lower > 0.0:
            failures.append((sym, t_inf, inf_value))
    r = max(bounds[s].sup_value for s in DELAY_SYMBOLS)
    return ValidationReport(bounds=bounds, max_lag_r=r, failures=failures)


def delayed_term(num, u_delayed, k, t, name: str):
    """num / (u_delayed + k), num being c v(t - tau) times any factor taken
    before the division, at a time t or elementwise over arrays broadcasting
    against t; NumericalError naming `name` at the first t where u_delayed + k <= 0."""
    den = u_delayed + k
    bad = np.asarray(den <= 0.0)
    if bad.any():
        t_bad = float(np.broadcast_to(t, bad.shape)[bad][0])
        raise NumericalError(f"{name} not positive at t={t_bad!r}")
    return num / den
