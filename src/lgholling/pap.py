"""Numerical diagnostics for almost-periodic / ergodic structure: ergodic
means, their trend over growing windows, and the report on one computed
solution's settled window that the pipeline writes.

None of these verdicts are proofs: membership of the relevant function
classes is not decidable from finite data, so the diagnostics report
numerical evidence only, including an explicit ``inconclusive``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .errors import ValidationError
from .integrator import Trajectory

__all__ = [
    "PapReport",
    "PapTrend",
    "ergodic_mean",
    "pap0_trend",
    "solution_window_report",
]

_SHIFT_CANDIDATES = 3  # shifts a window report keeps, those with the smallest defects


def _sample(f, grid: np.ndarray) -> np.ndarray:
    """f over the grid; f takes an array of times (a constant result is
    broadcast)."""
    return np.broadcast_to(np.asarray(f(grid), dtype=float), grid.shape)


def ergodic_mean(f, T: float, n: int = 200_000) -> float:
    """Composite-Simpson estimate of (1/2T) * integral of |f| over [-T, T]."""
    if T <= 0.0:
        raise ValueError("T must be > 0")
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    grid = np.linspace(-T, T, n + 1)
    vals = np.abs(_sample(f, grid))
    return float(simpson(vals, dx=2.0 * T / n) / (2.0 * T))


@dataclass
class PapTrend:
    verdict: str  # vanishing | non-vanishing | inconclusive
    means: list[tuple[float, float]]


def pap0_trend(f, T_list, n_per_T=None) -> PapTrend:
    """Fit the trend of ergodic means over increasing windows.

    vanishing: the means decay below 10% of the first entry by the last T
    (or are zero outright); non-vanishing: they stabilize above an absolute
    floor of 1e-3; anything else is inconclusive.  The 10% / 1e-3 thresholds
    are engineering choices, not theory.
    """
    T_list = [float(T) for T in T_list]
    if len(T_list) < 2 or any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise ValueError("T_list must be increasing with at least 2 entries")
    means = []
    for T in T_list:
        n = n_per_T(T) if n_per_T else int(min(2_000_000, max(2_000, 200.0 * T)))
        n += (-n) % 4  # keep 0 an even node so kinks of |f| at 0 stay harmless
        means.append((T, ergodic_mean(f, T, n)))
    first = means[0][1]
    last = means[-1][1]
    if last < 1e-12 or last < 0.1 * first:
        verdict = "vanishing"
    elif last > 1e-3 and abs(last - means[-2][1]) <= 0.25 * last:
        verdict = "non-vanishing"
    else:
        verdict = "inconclusive"
    return PapTrend(verdict=verdict, means=means)


@dataclass
class PapReport:
    ergodic_means: list[tuple[float, float]]
    shift_defects: list[tuple[float, float]]
    trend_verdict: str
    window: tuple[float, float]  # solution window the diagnostics were run on


def solution_window_report(traj: Trajectory, t_settle: float, t_end: float) -> PapReport:
    """Diagnostics for a computed solution on [t_settle, t_end].

    The window is re-centered so its midpoint plays the role of 0; the
    deviation of u from its window mean is fed to the ergodic-mean trend
    (persistent oscillation shows up as a non-vanishing mean), and a grid
    search reports the shifts with the smallest sup-distance defects.  A
    batch, a window off the run, or one holding fewer than 2 of its knots
    raises ValidationError.
    """
    mask = traj.window(t_settle, t_end)
    if mask.sum() < 2:
        raise ValidationError(f"window [{t_settle}, {t_end}] holds {mask.sum()} knot(s) of the run; need at least 2")
    times = traj.t[mask]
    u = traj.u[mask]
    mid = 0.5 * (t_settle + t_end)
    half = 0.5 * (t_end - t_settle)
    dev_mean = float(u.mean())

    def centered(th):
        return np.interp(np.asarray(th) + mid, times, u) - dev_mean

    T_list = [half / 8.0, half / 4.0, half / 2.0, half]
    trend = pap0_trend(centered, T_list, n_per_T=lambda T: 4_000)

    # shift search on the raw window signal: shift_defect's max |u(t + tau) - u(t)|
    # over base, with u(t) interpolated once for all the shifts
    base = times[times <= t_end - half]
    u_base = np.interp(base, times, u)
    candidates = np.linspace(0.25, half, 200)
    defects = [(float(tau), float(np.abs(np.interp(base + tau, times, u) - u_base).max())) for tau in candidates]
    defects.sort(key=lambda p: p[1])
    best = sorted(defects[:_SHIFT_CANDIDATES])
    return PapReport(
        ergodic_means=trend.means,
        shift_defects=best,
        trend_verdict=trend.verdict,
        window=(t_settle, t_end),
    )
