"""Attractivity coefficients alpha(t), beta(t), their liminf estimates, and
empirical global-attractivity experiments.

Each delay enters the coefficients through its lag inverse gap: with
theta(s) = s - delay(s), the gap at time t is s* - t where theta(s*) = t,
i.e. how far ahead of t one must look so that the delayed argument lands
on t.  For a constant delay the gap equals the delay.

beta(t) has a known ambiguity in its leading term: the displayed formula
divides c2^i by (M2 + k2^s) while the derivation it comes from divides by
(M1 + k2^s).  Both variants are computed; ``beta_denominator`` selects which
one a run treats as active ("M2" is the default).

Everything here is pure given a spec and bounds; attractivity pairs may be
integrated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LagInversionError
from .expr import CoefficientExpr, evaluate
from .integrator import Trajectory, integrate
from .model import InitialHistory, ModelSpec
from .permanence import CoefficientBounds, PermanenceBounds

__all__ = [
    "StabilityReport",
    "LiminfEstimate",
    "AttractivityResult",
    "lag_inverse_gap",
    "alpha_beta_from_gaps",
    "eval_alpha_beta",
    "estimate_liminf",
    "run_attractivity",
]


def lag_inverse_gap(delay: CoefficientExpr, t: float, tol: float = 1e-12) -> float:
    """Solve theta(s) = s - delay(s) = t for s and return s - t.

    theta must be strictly increasing on the bracket (checked by sampling);
    the root is located by bisection until |theta(s) - t| <= tol.
    """

    def theta(s):
        return s - evaluate(delay, s)

    def check_increasing(a, b):
        samples = np.linspace(a, b, 65)
        values = [theta(s) for s in samples]
        for i in range(len(samples) - 1):
            if values[i + 1] <= values[i] + 1e-9 * (samples[i + 1] - samples[i]):
                raise LagInversionError(
                    f"s - delay(s) is not strictly increasing near s={float(samples[i])!r}"
                )

    lo = t
    width = max(2.0 * evaluate(delay, t), 1.0)
    check_increasing(lo, lo + width)
    hi = t + width
    for _ in range(64):
        if theta(hi) >= t:
            break
        check_increasing(hi, hi + width)
        hi += width
        width *= 2.0
    else:
        raise LagInversionError(f"could not bracket the lag inverse near t={t!r}")

    a, b = lo, hi
    fa = theta(a) - t
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = theta(mid) - t
        if abs(fm) <= tol:
            return mid - t
        if (fa <= 0.0) == (fm <= 0.0):
            a, fa = mid, fm
        else:
            b = mid
        if b - a < 1e-17 * max(1.0, abs(t)):
            break
    s = 0.5 * (a + b)
    if abs(theta(s) - t) > max(tol, 4.0 * np.finfo(float).eps * max(1.0, abs(t))):
        raise LagInversionError(f"bisection stalled at t={t!r}")
    return s - t


def alpha_beta_from_gaps(
    cb: CoefficientBounds,
    pb: PermanenceBounds,
    gaps: tuple[float, float, float, float],
    beta_denominator: str = "M2",
) -> tuple[float, float]:
    """Literal evaluation of the two attractivity coefficients.

    gaps = (g_zeta1, g_zeta2, g_sigma1, g_sigma2): lag inverse gaps of
    tau1, tau2, sigma1, sigma2 at the evaluation time.
    """
    g_z1, g_z2, g_s1, g_s2 = gaps
    M1, M2, m1 = pb.M1, pb.M2, pb.m1
    c1s, c2s, c2i = cb.c1_sup, cb.c2_sup, cb.c2_inf
    K1 = m1 + cb.k1_inf
    K2 = m1 + cb.k2_inf
    alpha = (
        cb.b_inf
        - c1s * M2 / K1**2
        - c2s * M2 / K2**2
        - (c1s * c2s * M2**2 / (K1 * K2**2)) * g_z1
        - (
            c1s * cb.a1_sup * M2 / K1**2
            + 2.0 * c1s * cb.b_sup * M1 * M2 / K1**2
            + c1s**2 * M2**2 / K1**3
            + c1s**2 * M1 * M2**2 / K1**4
        ) * g_s1
        - (
            c2s**2 * M2**2 / K2**3
            + 2.0 * c2s * cb.b_sup * M1 * M2 / K2**2
            + c2s * c1s * M2**2 / (K2**2 * K1**2)
            + c2s * cb.a1_sup * M2 / K2**2
        ) * g_s2
    )
    if beta_denominator not in ("M1", "M2"):
        raise ValueError("beta_denominator must be 'M1' or 'M2'")
    lead = c2i / ((M2 if beta_denominator == "M2" else M1) + cb.k2_sup)
    beta = (
        lead
        - c1s / K1
        - (c1s / K1) * (cb.a2_sup + c2s * M2 / K2 + c1s * c2s * M2 / (K1 * K2)) * g_z1
        - (c1s**2 * M1 * M2 / K1**3) * g_s1
        - (c2s * cb.a2_sup / K2 + 2.0 * c2s**2 * M2 / K2**2) * g_z2
        - (c2s * M1 * M2 / (K2**2 * K1) + c2s * c1s * M1 * M2**2 / (K2**2 * K1**2)) * g_s2
    )
    return alpha, beta


def eval_alpha_beta(
    spec: ModelSpec,
    bounds: PermanenceBounds,
    t: float,
    beta_denominator: str = "M2",
) -> tuple[float, float]:
    """alpha(t), beta(t) with every lag gap obtained by lag inversion."""
    return alpha_beta_from_gaps(bounds.inputs_used, bounds, _lag_gaps(spec, t), beta_denominator)


def _lag_gaps(spec: ModelSpec, t: float) -> tuple[float, float, float, float]:
    """Lag inverse gaps of tau1, tau2, sigma1, sigma2 at time t."""
    return tuple(lag_inverse_gap(spec.expr(sym), t) for sym in ("tau1", "tau2", "sigma1", "sigma2"))


@dataclass
class LiminfEstimate:
    alpha_liminf: float
    beta_liminf: float
    tail_start: float
    alpha_samples: list[tuple[float, float]]
    beta_samples: list[tuple[float, float]]
    beta_liminf_alt: float  # the other beta denominator, from the same gaps


def estimate_liminf(
    spec: ModelSpec,
    bounds: PermanenceBounds,
    t_grid: np.ndarray,
    beta_denominator: str = "M2",
) -> LiminfEstimate:
    """Tail-minimum surrogate for liminf alpha(t), liminf beta(t).

    Samples on t_grid and takes the running minimum over the tail
    [T1/2, T1]; representative when the coefficients are (pseudo) almost
    periodic.  The four lag gaps are found once per grid point and serve
    both beta denominators.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    alt = "M1" if beta_denominator == "M2" else "M2"
    cb = bounds.inputs_used
    times = t_grid.tolist()
    alphas, betas, betas_alt = [], [], []
    for t in times:
        gaps = _lag_gaps(spec, t)
        a, b = alpha_beta_from_gaps(cb, bounds, gaps, beta_denominator)
        alphas.append(a)
        betas.append(b)
        betas_alt.append(alpha_beta_from_gaps(cb, bounds, gaps, alt)[1])
    tail_start = times[-1] / 2.0
    tail = [i for i, t in enumerate(times) if t >= tail_start] or range(len(times))
    return LiminfEstimate(
        alpha_liminf=min(alphas[i] for i in tail),
        beta_liminf=min(betas[i] for i in tail),
        tail_start=tail_start,
        alpha_samples=list(zip(times, alphas)),
        beta_samples=list(zip(times, betas)),
        beta_liminf_alt=min(betas_alt[i] for i in tail),
    )


@dataclass(eq=False)
class AttractivityResult:
    times: np.ndarray
    distances: np.ndarray  # |u_a - u_b| + |v_a - v_b|
    final_distance: float
    tail_nonincreasing: bool
    passed: bool
    threshold: float


def run_attractivity(
    spec: ModelSpec,
    history_a: InitialHistory,
    history_b: InitialHistory,
    t_end: float,
    threshold: float,
    h: float = 0.01,
    t0: float = 0.0,
    traj_a: Trajectory | None = None,
) -> AttractivityResult:
    """Integrate two admissible histories on a shared grid and watch the
    distance d(t) = |u_a - u_b| + |v_a - v_b| contract.

    Pass requires d(t_end) < threshold and a nonincreasing envelope over the
    last quarter of the run (window maxima of the tail must not grow).
    The curve is symmetric under swapping the two histories.  A trajectory
    of history_a already integrated on the same grid may be passed as
    traj_a to avoid re-integration.
    """
    ta = traj_a if traj_a is not None else integrate(spec, history_a, t0, t_end, h)
    tb = integrate(spec, history_b, t0, t_end, h)
    d = np.abs(ta.u - tb.u) + np.abs(ta.v - tb.v)
    n = d.size
    tail = d[3 * n // 4:]
    windows = np.array_split(tail, 4)
    maxima = [float(w.max()) for w in windows if w.size]
    eps = 1e-12 + 1e-9 * max(maxima, default=0.0)
    tail_ok = all(maxima[i + 1] <= maxima[i] + eps for i in range(len(maxima) - 1))
    final = float(d[-1])
    return AttractivityResult(
        times=ta.t,
        distances=d,
        final_distance=final,
        tail_nonincreasing=tail_ok,
        passed=(final < threshold) and tail_ok,
        threshold=threshold,
    )


@dataclass
class StabilityReport:
    alpha_samples: list[tuple[float, float]]
    beta_samples: list[tuple[float, float]]
    alpha_liminf: float
    beta_liminf: float
    hypothesis_holds: bool
    attractivity_curves: list[AttractivityResult]
    beta_denominator: str
    beta_liminf_alt: float  # the other denominator variant, for the record


def build_stability_report(
    spec: ModelSpec,
    bounds: PermanenceBounds,
    t_grid: np.ndarray,
    beta_denominator: str = "M2",
    attractivity: AttractivityResult | None = None,
) -> StabilityReport:
    """Liminf estimation under the active beta denominator, with the other
    variant recorded alongside."""
    est = estimate_liminf(spec, bounds, t_grid, beta_denominator)
    return StabilityReport(
        alpha_samples=est.alpha_samples,
        beta_samples=est.beta_samples,
        alpha_liminf=est.alpha_liminf,
        beta_liminf=est.beta_liminf,
        hypothesis_holds=est.alpha_liminf > 0.0 and est.beta_liminf > 0.0,
        attractivity_curves=[attractivity] if attractivity is not None else [],
        beta_denominator=beta_denominator,
        beta_liminf_alt=est.beta_liminf_alt,
    )
