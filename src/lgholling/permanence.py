"""Explicit permanence bounds for the delayed system and their empirical
verification against trajectories.

With f^s / f^i denoting sup / inf of a coefficient, the box is

    M1 = a1^s / b^i
    M2 = a2^s (M1 + k2^s) exp(a2^s tau2^s) / c2^i
    m1 = (a1^i k1^i - M2 c1^s) / (b^s k1^i)   if (C0) holds, else 0
    m2 = a2^i (m1 + k2^i) / (c2^s exp(c2^s M2 tau2^s / (k2^i + m1)))

where (C0) is a1^i k1^i - M2 c1^s > 0.  The sup/inf inputs can come either
from numeric estimation of the coefficient expressions or from hand-entered
table values; preset runs compute both and report the differences.

All computations here are pure; sweeping parameter grids in parallel is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .integrator import Trajectory

__all__ = [
    "CoefficientBounds",
    "PermanenceBounds",
    "PermanenceVerification",
    "check_c0",
    "compute_permanence_bounds_from_values",
    "verify_permanence",
]


@dataclass(frozen=True)
class CoefficientBounds:
    """Sup/inf values of the eleven coefficients (delays: sup only matters)."""

    a1_inf: float
    a1_sup: float
    a2_inf: float
    a2_sup: float
    b_inf: float
    b_sup: float
    c1_inf: float
    c1_sup: float
    c2_inf: float
    c2_sup: float
    k1_inf: float
    k1_sup: float
    k2_inf: float
    k2_sup: float
    tau1_sup: float
    tau2_sup: float
    sigma1_sup: float
    sigma2_sup: float

    @classmethod
    def from_table(cls, values: dict[str, float]) -> "CoefficientBounds":
        fields = cls.__dataclass_fields__.keys()
        missing = [f for f in fields if f not in values]
        if missing:
            raise ValidationError(f"missing table bounds: {', '.join(missing)}")
        return cls(**{f: float(values[f]) for f in fields})

    @classmethod
    def from_validation(cls, bounds: dict) -> "CoefficientBounds":
        """From validate_model's estimates: a1_inf is bounds["a1"].inf_value."""
        split = (f.partition("_") for f in cls.__dataclass_fields__)
        return cls(**{f"{sym}_{side}": getattr(bounds[sym], f"{side}_value") for sym, _, side in split})


@dataclass(frozen=True)
class PermanenceBounds:
    M1: float
    M2: float
    m1: float
    m2: float
    c0_holds: bool
    inputs_used: CoefficientBounds


def check_c0(bounds_in: CoefficientBounds, M2: float) -> bool:
    """Strict prey-floor condition a1^i k1^i - M2 c1^s > 0."""
    return bounds_in.a1_inf * bounds_in.k1_inf - M2 * bounds_in.c1_sup > 0.0


def compute_permanence_bounds_from_values(cb: CoefficientBounds) -> PermanenceBounds:
    """Evaluate the bound formulas from explicit sup/inf values."""
    if cb.b_inf <= 0.0 or cb.c2_inf <= 0.0 or cb.b_sup <= 0.0 or cb.k1_inf <= 0.0 or cb.c2_sup <= 0.0:
        raise ValidationError("permanence formulas need positive b^i, b^s, c2^i, c2^s, k1^i")
    M1 = cb.a1_sup / cb.b_inf
    M2 = cb.a2_sup * (M1 + cb.k2_sup) * math.exp(cb.a2_sup * cb.tau2_sup) / cb.c2_inf
    c0 = check_c0(cb, M2)
    m1 = (cb.a1_inf * cb.k1_inf - M2 * cb.c1_sup) / (cb.b_sup * cb.k1_inf) if c0 else 0.0
    denom = cb.k2_inf + m1
    if denom <= 0.0:
        raise ValidationError("k2^i + m1 must be positive")
    # negative exponent: extreme parameters underflow toward 0 instead of
    # overflowing the denominator
    m2 = cb.a2_inf * (m1 + cb.k2_inf) / cb.c2_sup * math.exp(-cb.c2_sup * M2 * cb.tau2_sup / denom)
    return PermanenceBounds(M1=M1, M2=M2, m1=m1, m2=m2, c0_holds=c0, inputs_used=cb)


@dataclass
class PermanenceVerification:
    t_settle: float
    t_end: float
    slack: float
    u_min: float
    u_max: float
    v_min: float
    v_max: float
    checks: dict[str, bool]
    all_ok: bool


def verify_permanence(
    traj: Trajectory,
    bounds: PermanenceBounds,
    t_settle: float,
    t_end: float,
    slack: float = 0.05,
) -> PermanenceVerification:
    """Check that a trajectory covering [t_settle, t_end] settles into the
    permanence box there.

    The bounds are asymptotic (limsup/liminf statements), so a finite-horizon
    check needs the slack.
    """
    mask = traj.window(t_settle, t_end)
    u = traj.u[mask]
    v = traj.v[mask]
    u_min, u_max = float(u.min()), float(u.max())
    v_min, v_max = float(v.min()), float(v.max())
    checks = {
        "u_below_M1": u_max <= bounds.M1 + slack,
        "v_below_M2": v_max <= bounds.M2 + slack,
        "u_above_m1": u_min >= bounds.m1 - slack,
        "v_above_m2": v_min >= bounds.m2 - slack,
    }
    return PermanenceVerification(
        t_settle=t_settle, t_end=t_end, slack=slack,
        u_min=u_min, u_max=u_max, v_min=v_min, v_max=v_max,
        checks=checks, all_ok=all(checks.values()),
    )
