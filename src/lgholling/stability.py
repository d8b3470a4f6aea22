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

Everything here is pure given a spec and bounds; the attractivity
experiment reads two trajectories integrated elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LagInversionError, ValidationError
from .expr import CoefficientExpr, evaluate_array
from .integrator import Trajectory
from .model import ModelSpec
from .permanence import CoefficientBounds, PermanenceBounds

__all__ = [
    "LiminfEstimate",
    "AttractivityResult",
    "lag_inverse_gap",
    "small_denominator",
    "alpha_beta_from_gaps",
    "estimate_liminf",
    "run_attractivity",
]

_LAG_TOL = 1e-12  # bisection stops once |theta(s) - t| <= _LAG_TOL
_K_FLOOR = np.finfo(float).tiny ** 0.25  # K**4 of a K below it is not a normal float


def lag_inverse_gap(delay: CoefficientExpr, t):
    """Solve theta(s) = s - delay(s) = t for s and return s - t, for one
    time or elementwise for an array of times.

    theta must be strictly increasing on the bracket (checked by sampling);
    the root is located by bisection until |theta(s) - t| <= _LAG_TOL.  All
    times are bracketed and bisected together, each with its own stopping
    point; when some fail, the error raised is the one the first failing
    time (in array order) meets first.
    """
    times = np.asarray(t, dtype=float)
    tv = times.reshape(-1)
    faults: dict[int, str] = {}  # first failure per position in tv

    def theta(s):
        return s - evaluate_array(delay, s)

    def check_increasing(idx, a, b):
        # mask of the brackets [a, b] (of times tv[idx]) where theta increases
        samples = np.linspace(a, b, 65, axis=-1)
        values = theta(samples)
        bad = values[:, 1:] <= values[:, :-1] + 1e-9 * np.diff(samples, axis=-1)
        ok = ~bad.any(axis=-1)
        for row in np.flatnonzero(~ok):
            s_bad = float(samples[row, np.argmax(bad[row])])
            faults.setdefault(int(idx[row]), f"s - delay(s) is not strictly increasing near s={s_bad!r}")
        return ok

    width = np.maximum(2.0 * evaluate_array(delay, tv), 1.0)
    hi = tv + width
    looking = check_increasing(np.arange(tv.size), tv, hi)  # for a bracket
    for _ in range(64):
        idx = np.flatnonzero(looking)
        if idx.size == 0:
            break
        idx = idx[theta(hi[idx]) < tv[idx]]
        looking[:] = False
        looking[idx] = check_increasing(idx, hi[idx], hi[idx] + width[idx])
        hi[idx] += width[idx]
        width[idx] *= 2.0
    for i in np.flatnonzero(looking):
        faults.setdefault(int(i), f"could not bracket the lag inverse near t={float(tv[i])!r}")

    hi[list(faults)] = tv[list(faults)]  # failed times take no further part
    a, b = tv.copy(), hi
    fa = theta(a) - tv
    active = np.ones(tv.size, dtype=bool)
    for _ in range(200):
        k = np.flatnonzero(active)
        if k.size == 0:
            break
        mid = 0.5 * (a[k] + b[k])
        fm = theta(mid) - tv[k]
        hit = np.abs(fm) <= _LAG_TOL  # close the bracket on mid, so that s = mid below
        lower = (fa[k] <= 0.0) == (fm <= 0.0)
        a[k] = np.where(hit | lower, mid, a[k])
        fa[k] = np.where(lower, fm, fa[k])
        b[k] = np.where(hit | ~lower, mid, b[k])
        active[k] = b[k] - a[k] >= 1e-17 * np.maximum(1.0, np.abs(tv[k]))
    s = 0.5 * (a + b)
    stalled = np.abs(theta(s) - tv) > np.maximum(_LAG_TOL, 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(tv)))
    for i in np.flatnonzero(stalled):
        faults.setdefault(int(i), f"bisection stalled at t={float(tv[i])!r}")
    if faults:
        raise LagInversionError(faults[min(faults)])
    gap = s - tv
    return float(gap[0]) if times.ndim == 0 else gap.reshape(times.shape)


def small_denominator(cb: CoefficientBounds, pb: PermanenceBounds) -> str | None:
    """The first of "k1", "k2" whose m1 + k^i is so small that its 4th power,
    which alpha divides by, underflows (1e-300 squares to 0); else None."""
    return next((sym for sym in ("k1", "k2") if not pb.m1 + getattr(cb, f"{sym}_inf") >= _K_FLOOR), None)


def alpha_beta_from_gaps(cb: CoefficientBounds, pb: PermanenceBounds, gaps: tuple,
                         beta_denominator: str = "M2") -> tuple:
    """Literal evaluation of the two attractivity coefficients.

    gaps = (g_zeta1, g_zeta2, g_sigma1, g_sigma2): lag inverse gaps of
    tau1, tau2, sigma1, sigma2 at the evaluation time, as floats or as
    arrays over many times (the formulas work elementwise).  Raises
    ValidationError when small_denominator names k1 or k2.
    """
    if sym := small_denominator(cb, pb):
        raise ValidationError(f"m1 + {sym}^i = {pb.m1 + getattr(cb, f'{sym}_inf'):.6g} is too small: its 4th power underflows")
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
    periodic.  The four lag gaps are found once, over the whole grid, and
    serve both beta denominators.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    alt = "M1" if beta_denominator == "M2" else "M2"
    cb = bounds.inputs_used
    gaps = tuple(lag_inverse_gap(spec.expr(sym), t_grid) for sym in ("tau1", "tau2", "sigma1", "sigma2"))
    alphas, betas = alpha_beta_from_gaps(cb, bounds, gaps, beta_denominator)
    betas_alt = alpha_beta_from_gaps(cb, bounds, gaps, alt)[1]
    times = t_grid.tolist()
    tail_start = times[-1] / 2.0
    tail = t_grid >= tail_start
    if not tail.any():
        tail[:] = True
    return LiminfEstimate(
        alpha_liminf=float(alphas[tail].min()),
        beta_liminf=float(betas[tail].min()),
        tail_start=tail_start,
        alpha_samples=list(zip(times, alphas.tolist())),
        beta_samples=list(zip(times, betas.tolist())),
        beta_liminf_alt=float(betas_alt[tail].min()),
    )


@dataclass(eq=False)
class AttractivityResult:
    times: np.ndarray
    distances: np.ndarray  # |u_a - u_b| + |v_a - v_b|
    final_distance: float
    tail_nonincreasing: bool
    passed: bool
    threshold: float


def run_attractivity(traj_a: Trajectory, traj_b: Trajectory, threshold: float) -> AttractivityResult:
    """Watch the distance d(t) = |u_a - u_b| + |v_a - v_b| between two runs
    on the same grid contract.

    Pass requires d(t_end) < threshold and a nonincreasing envelope over the
    last quarter of the run (window maxima of the tail must not grow).
    The curve is symmetric under swapping the two runs.
    """
    if not np.array_equal(traj_a.t, traj_b.t):
        raise ValidationError(f"runs on different grids: [{traj_a.t0}, {traj_a.t_end}] step {traj_a.h} "
                              f"and [{traj_b.t0}, {traj_b.t_end}] step {traj_b.h}")
    d = np.abs(traj_a.u - traj_b.u) + np.abs(traj_a.v - traj_b.v)
    n = d.size
    tail = d[3 * n // 4:]
    windows = np.array_split(tail, 4)
    maxima = [float(w.max()) for w in windows if w.size]
    eps = 1e-12 + 1e-9 * max(maxima, default=0.0)
    tail_ok = all(maxima[i + 1] <= maxima[i] + eps for i in range(len(maxima) - 1))
    final = float(d[-1])
    return AttractivityResult(
        times=traj_a.t,
        distances=d,
        final_distance=final,
        tail_nonincreasing=tail_ok,
        passed=(final < threshold) and tail_ok,
        threshold=threshold,
    )
