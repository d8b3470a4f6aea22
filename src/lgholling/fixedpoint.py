"""Integral operator whose fixed points are bounded solutions of the system,
Picard iteration toward the distinguished solution, a residual check against
the differential equations, and the exponential-kernel difference identity.

The operator applied to a candidate pair (phi, psi) is

    U_1(phi, psi)(t) = int_t^inf exp(int_s^t a1) [b phi^2(s)
                        + c1 psi(s - tau1(s)) phi(s) / (phi(s - sigma1(s)) + k1)] ds
    U_2(phi, psi)(t) = int_t^inf exp(int_s^t a2) c2 psi(s - tau2(s)) psi(s)
                        / (phi(s - sigma2(s)) + k2) ds

The kernel decays like exp(-a_j^i (s - t)), which bounds the truncation
tail: the improper integral is cut at L = ln(sup f / (a^i tol)) / a^i.

Picard iteration is plain (no damping) and reports non-convergence honestly:
existence of a fixed point does not make the iteration contractive, and
divergence is a reported outcome, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import NumericalError, QuadratureError
from .expr import CoefficientExpr, evaluate_array
from .model import ModelSpec, eval_rhs
from .permanence import CoefficientBounds, PermanenceBounds

__all__ = [
    "GridFunctionPair",
    "FixedPointResult",
    "eval_f",
    "apply_upsilon",
    "iterate_fixed_point",
    "dde_residual",
    "kernel_identity_check",
]


@dataclass(eq=False)
class GridFunctionPair:
    """Candidate solution pair on a uniform grid, interpolated cubically and
    extended by its boundary values outside [t_lo, t_hi]."""

    t_lo: float
    t_hi: float
    step: float
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        n = int(round((self.t_hi - self.t_lo) / self.step))
        if len(self.phi) != n + 1 or len(self.psi) != n + 1:
            raise ValueError("grid arrays must have (t_hi - t_lo)/step + 1 points")

    @classmethod
    def from_constants(cls, t_lo: float, t_hi: float, step: float,
                       phi_value: float, psi_value: float) -> "GridFunctionPair":
        n = int(round((t_hi - t_lo) / step))
        return cls(t_lo, t_hi, step,
                   np.full(n + 1, float(phi_value)), np.full(n + 1, float(psi_value)))

    def grid(self) -> np.ndarray:
        return self.t_lo + self.step * np.arange(len(self.phi))

    @cached_property
    def _phi_spline(self):
        return CubicSpline(self.grid(), self.phi, bc_type="natural")

    @cached_property
    def _psi_spline(self):
        return CubicSpline(self.grid(), self.psi, bc_type="natural")

    def phi_at(self, s) -> np.ndarray:
        return self._phi_spline(np.clip(s, self.t_lo, self.t_hi))

    def psi_at(self, s) -> np.ndarray:
        return self._psi_spline(np.clip(s, self.t_lo, self.t_hi))

    def in_box(self, bounds: PermanenceBounds, tol: float = 0.0) -> bool:
        return bool(
            (self.phi >= bounds.m1 - tol).all() and (self.phi <= bounds.M1 + tol).all()
            and (self.psi >= bounds.m2 - tol).all() and (self.psi <= bounds.M2 + tol).all()
        )


@dataclass(eq=False)
class FixedPointResult:
    pair: GridFunctionPair
    iterations: int
    final_delta: float
    residual: float | None
    converged: bool
    status: str  # converged | max_iter | diverged


def eval_f(spec: ModelSpec, j: int, s, phi_s, phi_shifted, psi_s, psi_shifted):
    """Literal inhomogeneity f_j at time s, or elementwise over an array of
    times (with matching value arrays).

    For j=1 the shifted arguments are phi(s - sigma1(s)) and psi(s - tau1(s));
    for j=2 they are phi(s - sigma2(s)) and psi(s - tau2(s)).  f_1 does not
    read psi_s and f_2 does not read phi_s.
    """
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    den = phi_shifted + (spec.k1 if j == 1 else spec.k2)(s)
    bad = np.asarray(den <= 0.0)
    if bad.any():
        s_bad = float(np.broadcast_to(s, bad.shape)[bad][0])
        raise NumericalError(f"f_{j} denominator not positive at s={s_bad!r}")
    if j == 1:
        return spec.b(s) * phi_s * phi_s + spec.c1(s) * psi_shifted * phi_s / den
    return spec.c2(s) * psi_shifted * psi_s / den


def _f_values(spec: ModelSpec, pair: GridFunctionPair, j: int, s: np.ndarray) -> np.ndarray:
    if j == 1:
        return eval_f(spec, 1, s, pair.phi_at(s), pair.phi_at(s - spec.sigma1(s)),
                      None, pair.psi_at(s - spec.tau1(s)))
    return eval_f(spec, 2, s, None, pair.phi_at(s - spec.sigma2(s)),
                  pair.psi_at(s), pair.psi_at(s - spec.tau2(s)))


def _prefix_simpson(nodes: np.ndarray, mids: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral at the nodes via per-interval Simpson increments."""
    inc = (dx / 6.0) * (nodes[:-1] + 4.0 * mids + nodes[1:])
    out = np.empty(nodes.size)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def _simpson_weights(n: int, dx: float) -> np.ndarray:
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (dx / 3.0)


def _growth_infs(spec: ModelSpec, coeff_bounds: CoefficientBounds | None) -> tuple[float, float]:
    if coeff_bounds is not None:
        return coeff_bounds.a1_inf, coeff_bounds.a2_inf
    if spec.bounds:
        cb = CoefficientBounds.from_validation(spec.bounds)
        return cb.a1_inf, cb.a2_inf
    from .expr import estimate_bounds

    return (
        estimate_bounds(spec.a1, horizon=200.0, samples=20_001).inf_value,
        estimate_bounds(spec.a2, horizon=200.0, samples=20_001).inf_value,
    )


_MAX_TAIL_NODES = 4_000_000


def apply_upsilon(
    spec: ModelSpec,
    pair: GridFunctionPair,
    quad_step: float = 0.05,
    tail_tol: float = 1e-6,
    coeff_bounds: CoefficientBounds | None = None,
    tail_len: float | None = None,
) -> GridFunctionPair:
    """One application of the integral operator on the pair's grid.

    For every grid point t the improper integral is evaluated by composite
    Simpson on [t, t + L] with the exponential weight accumulated by the
    same per-interval quadrature; L comes from the kernel decay bound unless
    tail_len overrides it.  Beyond its grid the pair is continued by its
    boundary values (the tail weight is exponentially small there).
    """
    p = int(round(pair.step / quad_step))
    if p < 1 or abs(p * quad_step - pair.step) > 1e-9 * pair.step:
        raise QuadratureError("quad_step must divide the pair's grid step")
    q = pair.step / p
    npts = len(pair.phi)
    nint = npts - 1
    a1_inf, a2_inf = _growth_infs(spec, coeff_bounds)
    if a1_inf <= 0.0 or a2_inf <= 0.0:
        raise QuadratureError("kernel decay rates a1^i, a2^i must be positive")

    outputs = []
    for j, aj_inf, aj_expr in ((1, a1_inf, spec.a1), (2, a2_inf, spec.a2)):
        f_span = _f_values(spec, pair, j, pair.grid())
        supf = float(np.abs(f_span).max())
        if tail_len is not None:
            L = float(tail_len)
        else:
            # factor 2: the constant-extended tail can slightly exceed the
            # span sup through coefficient oscillation
            L = math.log(max(2.0 * supf, 1e-12) / (aj_inf * tail_tol)) / aj_inf
            L = max(L, 4.0 * q)
        N = int(math.ceil(L / q))
        N += N % 2
        N = max(N, 8)
        if N > _MAX_TAIL_NODES:
            raise QuadratureError(
                f"tail needs {N} nodes at quad_step={q}; grid too short for requested tail_tol"
            )
        K = nint * p + N
        s = pair.t_lo + q * np.arange(K + 1)
        smid = s[:-1] + 0.5 * q
        A = _prefix_simpson(evaluate_array(aj_expr, s), evaluate_array(aj_expr, smid), q)
        f = _f_values(spec, pair, j, s)
        w = _simpson_weights(N, q)
        out = np.empty(npts)
        for i in range(npts):
            lo = i * p
            sl = slice(lo, lo + N + 1)
            out[i] = float(np.dot(np.exp(A[lo] - A[sl]) * f[sl], w))
        outputs.append(out)
    return GridFunctionPair(pair.t_lo, pair.t_hi, pair.step, outputs[0], outputs[1])


def iterate_fixed_point(
    spec: ModelSpec,
    seed: GridFunctionPair,
    tol: float = 1e-6,
    max_iter: int = 200,
    quad_step: float = 0.05,
    tail_tol: float = 1e-6,
    coeff_bounds: CoefficientBounds | None = None,
    escape_factor: float = 50.0,
) -> FixedPointResult:
    """Plain Picard iteration of the operator from a seed pair.

    Stops when the sup-norm update drops to tol (converged), after max_iter
    sweeps, or as soon as the iterates blow past escape_factor times the
    seed scale (diverged).  Non-convergence is a reported outcome.
    """
    if coeff_bounds is None and spec.bounds:
        coeff_bounds = CoefficientBounds.from_validation(spec.bounds)
    scale = max(float(np.abs(seed.phi).max()), float(np.abs(seed.psi).max()), 1.0)
    pair = seed
    delta = math.inf
    status = "max_iter"
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new = apply_upsilon(spec, pair, quad_step, tail_tol, coeff_bounds)
        delta = max(
            float(np.abs(new.phi - pair.phi).max()),
            float(np.abs(new.psi - pair.psi).max()),
        )
        pair = new
        top = max(float(np.abs(pair.phi).max()), float(np.abs(pair.psi).max()))
        if not math.isfinite(top) or top > escape_factor * scale:
            status = "diverged"
            break
        if delta <= tol:
            status = "converged"
            break
    converged = status == "converged"
    try:
        residual = dde_residual(spec, pair)
    except (NumericalError, OverflowError, FloatingPointError):
        residual = None
    return FixedPointResult(
        pair=pair,
        iterations=iterations,
        final_delta=delta,
        residual=residual,
        converged=converged,
        status=status,
    )


def dde_residual(spec: ModelSpec, pair: GridFunctionPair) -> float:
    """Max over the grid interior of |phi' - rhs_u| + |psi' - rhs_v| with
    central-difference derivatives and interpolated delayed values."""
    if len(pair.phi) < 5:
        raise QuadratureError("grid too coarse for a residual estimate (need >= 5 points)")
    g = pair.step
    grid = pair.grid()
    s = grid[1:-1]
    dphi = (pair.phi[2:] - pair.phi[:-2]) / (2.0 * g)
    dpsi = (pair.psi[2:] - pair.psi[:-2]) / (2.0 * g)
    phi_s = pair.phi[1:-1]
    psi_s = pair.psi[1:-1]
    rhs_u, rhs_v = eval_rhs(spec, s, phi_s, psi_s,
                            pair.phi_at(s - spec.sigma1(s)), pair.phi_at(s - spec.sigma2(s)),
                            pair.psi_at(s - spec.tau1(s)), pair.psi_at(s - spec.tau2(s)))
    return float((np.abs(dphi - rhs_u) + np.abs(dpsi - rhs_v)).max())


def kernel_identity_check(
    a_expr: CoefficientExpr,
    b_expr: CoefficientExpr,
    alpha_shift: float,
    s: float,
    t: float,
    quad_n: int = 4096,
) -> tuple[float, float, float]:
    """Check the exponential-kernel difference identity

        e^{-int_s^t a(u+alpha) du} - e^{-int_s^t b(u) du}
          = int_s^t e^{-int_r^t a(u+alpha) du} e^{-int_s^r b(u) du}
                    (b(r) - a(r+alpha)) dr

    by composite Simpson with quad_n subintervals; returns (lhs, rhs, gap).
    """
    if not s < t:
        raise ValueError("need s < t")
    if quad_n < 2 or quad_n % 2:
        raise ValueError("quad_n must be even and >= 2")
    r = np.linspace(s, t, quad_n + 1)
    dx = (t - s) / quad_n
    rmid = r[:-1] + 0.5 * dx
    a_nodes = evaluate_array(a_expr, r + alpha_shift)
    a_mids = evaluate_array(a_expr, rmid + alpha_shift)
    b_nodes = evaluate_array(b_expr, r)
    b_mids = evaluate_array(b_expr, rmid)
    A = _prefix_simpson(a_nodes, a_mids, dx)  # int_s^r a(u+alpha) du
    B = _prefix_simpson(b_nodes, b_mids, dx)
    lhs = math.exp(-A[-1]) - math.exp(-B[-1])
    integrand = np.exp(-(A[-1] - A)) * np.exp(-B) * (b_nodes - a_nodes)
    rhs = float(np.dot(integrand, _simpson_weights(quad_n, dx)))
    return lhs, rhs, abs(lhs - rhs)
