"""Integral operator whose fixed points are bounded solutions of the system,
Picard iteration toward the distinguished solution, and a residual check
against the differential equations.

The operator applied to a candidate pair (phi, psi) is

    U_1(phi, psi)(t) = int_t^inf exp(int_s^t a1) [b phi^2(s)
                        + c1 psi(s - tau1(s)) phi(s) / (phi(s - sigma1(s)) + k1)] ds
    U_2(phi, psi)(t) = int_t^inf exp(int_s^t a2) c2 psi(s - tau2(s)) psi(s)
                        / (phi(s - sigma2(s)) + k2) ds

f_j, the integrand past the kernel, is written once, in _f_values, which the
operator and the residual check phi' = a1 phi - f_1 etc. both call.

With A = int_{t_lo} a_j, the kernel exp(A(t) - A(s)) decays at least like
exp(-a_j^i (s - t)), so once A has risen by Lambda = ln(sup f / (a^i tol))
past t, the rest of the improper integral is at most tol.  With
A_k = int_{t_lo}^{s_k} a_j on the nodes s_k = t_lo + k q, each point s_k's
window ends at the first even offset N_k >= 8 where A_{k+N_k} >= A_k + Lambda,
and never past the N nodes of L = Lambda / a^i, where the decay floor alone
would cut it.  The Simpson integral R_k from s_k to the last node obeys the
backward (variation-of-constants) step R_k = e^{A_k - A_{k+2}} R_{k+2} +
(q/3)(f_k + 4 e^{A_k - A_{k+1}} f_{k+1} + e^{A_k - A_{k+2}} f_{k+2}), so the
window [s_k, s_{k+N_k}] is R_k - e^{A_k - A_{k+N_k}} R_{k+N_k}: O(K) work for
K nodes in all.  The nodes reach past the grid only as far as A needs: a
first tail sized from the window's mean rate of A, doubled until A has risen
by Lambda past every grid point.

A candidate pair is the natural cubic spline through its grid values, equal
bit for bit to scipy's CubicSpline(bc_type="natural") without importing scipy,
and constant beyond [t_lo, t_hi].

Picard iteration is plain (no damping) and reports non-convergence honestly:
existence of a fixed point does not make the iteration contractive, and
divergence is a reported outcome, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, QuadratureError
from .expr import evaluate_array
from .model import ModelSpec, delayed_term
from .permanence import CoefficientBounds

__all__ = [
    "GridFunctionPair",
    "FixedPointResult",
    "apply_upsilon",
    "iterate_fixed_point",
    "dde_residual",
]


class _NaturalSpline:
    """Natural cubic spline through (x, y), with the operations of scipy's
    CubicSpline(x, y, bc_type="natural") and PPoly evaluation in their order,
    extrapolating its end cubics beyond [x[0], x[-1]]."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        if not np.isfinite(y).all():
            raise ValueError("spline values must be finite")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # slope system with diagonals d, du (super), dl (sub); the end rows set y'' = 0.0
        d = (2 * np.concatenate((dx[:1], dx[:-1] + dx[1:], dx[-1:]))).tolist()
        du, dl = np.concatenate((dx[:1], dx[:-1])).tolist(), np.concatenate((dx[1:], dx[-1:])).tolist()
        ends = [-0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0]), 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])]
        b = np.concatenate((ends[:1], 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]), ends[1:])).tolist()
        # LAPACK dgtsv's elimination for one right-hand side: a uniform grid's system is
        # strictly diagonally dominant, so dgtsv never swaps rows and no pivot branch is needed
        for i in range(len(b) - 1):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
        b[-1] /= d[-1]
        b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
        for i in range(len(b) - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - 0.0 * b[i + 2]) / d[i]
        s = np.array(b)
        # CubicHermiteSpline's coefficients; PPoly's sum starts from 0.0, which turns a -0.0 value into 0.0
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x, self.c0, self.c1, self.c2, self.c3 = x, t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1] + 0.0

    def __call__(self, xv: np.ndarray) -> np.ndarray:
        i = np.searchsorted(self.x[1:-1], xv, side="right")  # PPoly's interval, clamped to 0 .. n-2
        s = xv - self.x[i]
        s2 = s * s
        out = self.c3[i] + self.c2[i] * s
        out += self.c1[i] * s2
        out += self.c0[i] * (s2 * s)
        return out


@dataclass(eq=False)
class GridFunctionPair:
    """Candidate pair on a uniform grid of >= 2 points: the natural cubic spline
    through its values (scipy's, bit for bit) on [t_lo, t_hi], constant beyond."""

    t_lo: float
    t_hi: float
    step: float
    phi: np.ndarray
    psi: np.ndarray

    @staticmethod
    def _intervals(t_lo: float, t_hi: float, step: float) -> int:
        count = (t_hi - t_lo) / step if all(map(math.isfinite, (t_lo, t_hi, step))) and step > 0.0 else 0.0
        if not 0.5 < count < math.inf:  # at least 1 interval after rounding, and a finite count
            raise ValueError(f"need finite t_lo, t_hi, step > 0 and at least 2 grid points, got {t_lo}, {t_hi}, {step}")
        # whole steps to 1e-9 relative, as load_config's rule for fp_step, give or take the rounding of the times
        slack = 1e-9 * (t_hi - t_lo) + 2.0 * math.ulp(max(abs(t_lo), abs(t_hi)))
        if abs(round(count) * step - (t_hi - t_lo)) > slack:
            raise ValueError(f"step {step!r} does not divide the span [{t_lo!r}, {t_hi!r}] into whole steps")
        return round(count)

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        n = self._intervals(self.t_lo, self.t_hi, self.step)
        if len(self.phi) != n + 1 or len(self.psi) != n + 1:
            raise ValueError("grid arrays must have (t_hi - t_lo)/step + 1 points")
        if not (np.diff(self.grid()) > 0.0).all():
            raise ValueError("step too small for distinct grid points")

    @classmethod
    def from_constants(cls, t_lo: float, t_hi: float, step: float,
                       phi_value: float, psi_value: float) -> "GridFunctionPair":
        n = cls._intervals(t_lo, t_hi, step)
        return cls(t_lo, t_hi, step,
                   np.full(n + 1, float(phi_value)), np.full(n + 1, float(psi_value)))

    def grid(self) -> np.ndarray:
        return self.t_lo + self.step * np.arange(len(self.phi))

    @cached_property
    def _phi_spline(self):
        return _NaturalSpline(self.grid(), self.phi)

    @cached_property
    def _psi_spline(self):
        return _NaturalSpline(self.grid(), self.psi)

    def phi_at(self, s) -> np.ndarray:
        return self._phi_spline(np.clip(s, self.t_lo, self.t_hi))

    def psi_at(self, s) -> np.ndarray:
        return self._psi_spline(np.clip(s, self.t_lo, self.t_hi))


@dataclass(eq=False)
class FixedPointResult:
    pair: GridFunctionPair
    iterations: int
    final_delta: float
    residual: float | None
    status: str  # converged | max_iter | diverged


def _f_values(spec: ModelSpec, pair: GridFunctionPair, j: int, s: np.ndarray) -> np.ndarray:
    """f_j of the pair at the times s, f_1 = b phi^2 + c1 psi(s - tau1) phi / (phi(s - sigma1) + k1)
    and f_2 = c2 psi(s - tau2) psi / (phi(s - sigma2) + k2); NumericalError unless all finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        if j == 1:
            phi, phi_lag, psi_lag = pair.phi_at(s), pair.phi_at(s - spec.sigma1(s)), pair.psi_at(s - spec.tau1(s))
            f = spec.b(s) * phi * phi + delayed_term(spec.c1(s) * psi_lag * phi, phi_lag, spec.k1(s),
                                                     s, "f_1 denominator")
        else:
            phi_lag, psi, psi_lag = pair.phi_at(s - spec.sigma2(s)), pair.psi_at(s), pair.psi_at(s - spec.tau2(s))
            f = delayed_term(spec.c2(s) * psi_lag * psi, phi_lag, spec.k2(s), s, "f_2 denominator")
    if not np.isfinite(f).all():
        raise NumericalError(f"f_{j} not finite on the pair's grid")
    return f


def _prefix_simpson(nodes: np.ndarray, mids: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral at the nodes via per-interval Simpson increments."""
    return np.concatenate(([0.0], np.cumsum((dx / 6.0) * (nodes[:-1] + 4.0 * mids + nodes[1:]))))


_MAX_TAIL_NODES = 4_000_000
_ESCAPE_FACTOR = 50.0  # Picard iterates past this multiple of the seed scale count as diverged
_CHUNK_SPAN = 500.0  # largest rise of A within one rescaled chunk; e^500 is finite
_EPS = float(np.finfo(float).eps)


def _tail_integrals(A: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """R_m = sum_{j >= m} e^{A_m - A_j} inc_j (len(A) = len(inc) + 1, R_M = 0), the
    backward recursion R_m = e^{A_m - A_{m+1}} R_{m+1} + inc_m run as reversed
    cumsums over chunks of A-span <= _CHUNK_SPAN, each rescaled by its first A."""
    R = np.zeros(A.size)
    hi = inc.size
    while hi > 0:
        lo = min(int(np.searchsorted(A, A[hi - 1] - _CHUNK_SPAN)), hi - 1)
        part = np.cumsum((np.exp(A[lo] - A[lo:hi]) * inc[lo:hi])[::-1])[::-1]
        R[lo:hi] = np.exp(A[lo:hi] - A[lo]) * part + np.exp(A[lo:hi] - A[hi]) * R[hi]
        hi = lo
    return R


def apply_upsilon(
    spec: ModelSpec,
    pair: GridFunctionPair,
    quad_step: float,
    tail_tol: float,
    coeff_bounds: CoefficientBounds,
) -> GridFunctionPair:
    """One application of the integral operator on the pair's grid: each
    grid point s_k gets composite Simpson on [s_k, s_{k+N_k}] through the
    backward recursion of the module docstring, one per node parity when the
    grid step is an odd number of quad steps.  N_k is the first even offset
    from 8 on where A has risen by Lambda = ln(2 sup f / (a^i tail_tol)), with
    sup f over the window's nodes and the decay floors a1^i, a2^i read from
    coeff_bounds, and at most the N nodes of L = Lambda / a^i.  Beyond its
    grid the pair is continued by its boundary values (the tail weight is
    exponentially small there)."""
    p = int(round(pair.step / quad_step)) if quad_step > 0 else 0  # a quad_step not > 0, NaN too, is refused below
    if p < 1 or abs(p * quad_step - pair.step) > 1e-9 * pair.step:
        raise QuadratureError("quad_step must divide the pair's grid step")
    q = pair.step / p
    npts = len(pair.phi)
    K0 = (npts - 1) * p  # the last grid point's node
    lo, hi = sorted((coeff_bounds.a1_inf, coeff_bounds.a2_inf))
    if not (lo > 0.0 and 0.0 < lo * tail_tol and hi * tail_tol < math.inf):  # tail_tol > 0 follows
        raise QuadratureError("kernel decay rates a1^i, a2^i and a^i tail_tol must be positive and finite")

    outputs = []
    for j, aj_inf, aj_expr in ((1, coeff_bounds.a1_inf, spec.a1), (2, coeff_bounds.a2_inf, spec.a2)):
        s = pair.t_lo + q * np.arange(K0 + 1)
        f = _f_values(spec, pair, j, s)
        # factor 2: the constant-extended tail can slightly exceed the
        # window's sup through coefficient oscillation
        lam = math.log(max(2.0 * float(np.abs(f).max()), 1e-12) / (aj_inf * tail_tol))
        L = max(lam / aj_inf, 4.0 * q)
        N = max(8, 2 * math.ceil(L / (2.0 * q)))  # even, for Simpson pairs
        if N > _MAX_TAIL_NODES:
            raise QuadratureError(f"tail needs {N} nodes at quad_step={q}; grid too short for requested tail_tol")
        # the first pass takes the window alone and sizes the tail from A's
        # mean rate there; the tail then doubles until A has risen by lam
        # past every grid point, or holds N nodes
        a_s = a_mid = np.empty(0)
        n = 0
        while True:
            s = pair.t_lo + q * np.arange(K0 + n + 1)
            a = evaluate_array(aj_expr, np.concatenate((s[a_s.size:], s[a_mid.size:-1] + 0.5 * q)))
            m = s.size - a_s.size
            a_s, a_mid = np.concatenate((a_s, a[:m])), np.concatenate((a_mid, a[m:]))
            A = _prefix_simpson(a_s, a_mid, q)
            if n == 0:
                rate = A[-1] / (pair.t_hi - pair.t_lo)
                n = min(N, max(8, 2 * math.ceil(min(1.25 * lam / (2.0 * q * rate), N)))) if rate > 0.0 else N
            elif n == N or A[-2:].min() >= A[:K0 + 1].max() + lam:
                break
            else:
                n = min(2 * n, N)
        f = np.concatenate((f, _f_values(spec, pair, j, s[K0 + 1:])))
        lo = p * np.arange(npts)
        out = np.empty(npts)
        # an a_j that falls far makes the kernel overflow or R[c] dwarf the
        # image; the check below turns either into an error
        with np.errstate(over="ignore", invalid="ignore"):
            # Simpson on [s_k, s_{k+2}] with the kernel taken relative to s_k
            inc = (q / 3.0) * (f[:-2] + 4.0 * np.exp(A[:-2] - A[1:-1]) * f[1:-1] + np.exp(A[:-2] - A[2:]) * f[2:])
            for parity in np.unique(lo % 2):
                B = A[parity::2]
                R = _tail_integrals(B, inc[parity::2])
                at = lo % 2 == parity
                c = lo[at] // 2
                # first node from c + 4 on whose B reaches B[c] + lam, through the
                # running max; where a_j < 0 makes B fall, the running max can
                # pass the target early, and those points walk on
                target, cap = B[c] + lam, c + N // 2
                e = np.minimum(np.maximum(np.searchsorted(np.maximum.accumulate(B), target), c + 4), cap)
                late = (B[e] < target) & (e < cap)
                while late.any():
                    e[late] += 1
                    late &= (B[e] < target) & (e < cap)
                beyond = np.exp(B[c] - B[e]) * R[e]
                image = out[at] = R[c] - beyond
                # the difference's rounding error is about eps (|R[c]| + |beyond|):
                # refuse it past both tail_tol and half the image's digits
                size = np.abs(R[c]) + np.abs(beyond)
                if not (np.isfinite(image) & ((_EPS * size <= tail_tol) | (size <= 2.0**26 * np.abs(image)))).all():
                    raise QuadratureError(f"f_{j}: a{j} falls so far that the tail integrals of the kernel "
                                          f"exp(int a{j}) cannot be resolved to tail_tol={tail_tol!r}")
        outputs.append(out)
    return GridFunctionPair(pair.t_lo, pair.t_hi, pair.step, outputs[0], outputs[1])


def iterate_fixed_point(
    spec: ModelSpec,
    seed: GridFunctionPair,
    tol: float,
    max_iter: int,
    quad_step: float,
    tail_tol: float,
    coeff_bounds: CoefficientBounds,
) -> FixedPointResult:
    """Plain Picard iteration of the operator from a seed pair.

    Stops when the sup-norm update drops to tol (converged), after max_iter
    sweeps, or as soon as the iterates blow past _ESCAPE_FACTOR times the
    seed scale (diverged).  Non-convergence is a reported outcome.  Converged
    means a fixed point of the operator, which can be the extinction pair
    (0, 0) rather than the paper's positive solution.
    """
    scale = max(float(np.abs(seed.phi).max()), float(np.abs(seed.psi).max()), 1.0)
    pair = seed
    delta = math.inf
    status = "max_iter"
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new = apply_upsilon(spec, pair, quad_step, tail_tol, coeff_bounds)
        delta = max(float(np.abs(new.phi - pair.phi).max()), float(np.abs(new.psi - pair.psi).max()))
        pair = new
        top = max(float(np.abs(pair.phi).max()), float(np.abs(pair.psi).max()))
        if not math.isfinite(top) or top > _ESCAPE_FACTOR * scale:
            status = "diverged"
            break
        if delta <= tol:
            status = "converged"
            break
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            residual = dde_residual(spec, pair)
        residual = residual if math.isfinite(residual) else None  # report.json holds no Infinity or NaN
    except (NumericalError, OverflowError, FloatingPointError):
        residual = None
    return FixedPointResult(pair=pair, iterations=iterations, final_delta=delta, residual=residual, status=status)


def dde_residual(spec: ModelSpec, pair: GridFunctionPair) -> float:
    """Max over the grid interior of |phi' - rhs_u| + |psi' - rhs_v| with central-difference
    derivatives, rhs_u = a1 phi - f_1 and rhs_v = a2 psi - f_2, f_j through _f_values
    (NumericalError unless all finite)."""
    if len(pair.phi) < 5:
        raise QuadratureError("grid too coarse for a residual estimate (need >= 5 points)")
    g = pair.step
    s = pair.grid()[1:-1]
    dphi = (pair.phi[2:] - pair.phi[:-2]) / (2.0 * g)
    dpsi = (pair.psi[2:] - pair.psi[:-2]) / (2.0 * g)
    rhs_u = spec.a1(s) * pair.phi[1:-1] - _f_values(spec, pair, 1, s)
    rhs_v = spec.a2(s) * pair.psi[1:-1] - _f_values(spec, pair, 2, s)
    return float((np.abs(dphi - rhs_u) + np.abs(dpsi - rhs_v)).max())
