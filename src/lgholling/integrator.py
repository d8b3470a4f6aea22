"""Fixed-step RK4 integration of the delay system in log-space with cubic
Hermite dense output.

The state advanced is (x, y) = (ln u, ln v), so u = exp(x) and v = exp(y)
are positive by construction.  Each delayed value is read from the dense
trajectory (cubic Hermite between knots, using the stored derivatives) or
from the initial history for times before t0.  The step size must not
exceed the smallest delay, so a delayed lookup never needs a knot that has
not been computed yet.

The kernel follows the method of steps.  Consecutive steps are grouped into
windows [k0, k1) in which every RK4 stage reads delayed values at or before
knot k0; with constant delays a window is W = floor(min delay / h) steps.  Per
window the delayed values, the predator slope (which depends on delayed
values only, so y advances by a running sum) and the prey forcing
q = c1 e^{y(t-tau1)} / (e^{x(t-sigma1)} + k1) are computed at once with
numpy, both delayed terms through model.delayed_term.  A delayed value
depends only on the component read and the delay, so each distinct delayed
argument is read once: channels with the same component and the same delay
text share one Hermite plan, one gather and one exponential pass (both
presets set all four delays equal, so u(t-sigma1) serves for u(t-sigma2)
and v(t-tau1) for v(t-tau2)).  What stays sequential is the scalar prey
recurrence x' = a1 - b e^x - q.  Every exponential goes through math.exp, so
the knots are the same floats as those of a plain per-step RK4 loop.  Every run is a batch: integrate is column(0) of a batch
of one, and a column is bit-identical to the single run from its history.

Stages are planned per block of _PLAN_STEPS steps, in one pass.  A block
evaluates its distinct delays once, keeps running minima of the delays and
of the delayed times (the history reach), checks the step against the
smallest delay so far, then plans its coefficients, Hermite weights and
indices and history values and steps through them.  A window ends at its
block's end at the latest, which repeats the same additions in the same
order, so the knots do not depend on the block size.  A run keeps its knots,
32 bytes per step per column; its working memory is one block's plan.  An
error met in a block is raised only after the replay of a whole-run plan,
one whole-grid array at a time: each distinct delay in channel order, the
step checks on their minimum, every coefficient, then the history.

A single integration is sequential; distinct integrations are independent
and a finished Trajectory is immutable and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, ValidationError
from .expr import CoefficientExpr, evaluate_array, serialize
from .model import InitialHistory, ModelSpec, delayed_term

__all__ = [
    "Trajectory",
    "integrate",
    "integrate_batch",
    "sample_state",
]

_LOG_LIMIT = 700.0  # beyond this exp overflows
# delayed channels in lookup order, and the component (0 = x, 1 = y) each reads
_CHANNELS = ("sigma1", "sigma2", "tau1", "tau2")
_COMPONENT = (0, 0, 1, 1)
# coefficients in the order a run evaluates them; a1 and b drive the prey steps
_COEFFS = ("a1", "b", "a2", "c1", "c2", "k1", "k2")
_PLAN_STEPS = 4096  # steps per block of the stage plan: a run's working memory is one block's plan


@dataclass(eq=False)
class Trajectory:
    """Dense log-space solution on a uniform knot grid; the knot arrays are
    (n+1,) for one run and (n+1, m) for a batch, one column per history."""

    t0: float
    t_end: float
    h: float
    t: np.ndarray
    x: np.ndarray  # ln u at knots
    y: np.ndarray  # ln v at knots
    dx: np.ndarray
    dy: np.ndarray
    histories: tuple[InitialHistory, ...]
    r: float  # history reach actually used by delayed lookups

    @property
    def u(self) -> np.ndarray:
        return np.exp(self.x)

    @property
    def v(self) -> np.ndarray:
        return np.exp(self.y)

    def min_uv(self) -> np.ndarray:
        """Minimum of min(u, v) over all knots, per column."""
        return np.exp(np.minimum(self.x.min(axis=0), self.y.min(axis=0)))

    def column(self, i: int) -> Trajectory:
        """The run of a batch from histories[i], as integrate() gives it."""
        x, y, dx, dy = (np.ascontiguousarray(a[:, i]) for a in (self.x, self.y, self.dx, self.dy))
        return Trajectory(self.t0, self.t_end, self.h, self.t, x, y, dx, dy, (self.histories[i],), self.r)

    def window(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Mask of the knots in [t_lo, t_hi]; ValidationError for a batch,
        and naming the window unless it lies on the run and holds a knot."""
        if self.x.ndim != 1:
            raise ValidationError("a window reads one run; take a batch's run with column(i)")
        mask = (self.t >= t_lo) & (self.t <= t_hi)
        # half a step of slop: the last knot t0 + n h may fall an ulp short of the t_end the run was asked for
        if not (self.t0 <= t_lo < t_hi <= self.t_end + 0.5 * self.h and mask.any()):
            raise ValidationError(f"window [{t_lo}, {t_hi}] is empty or off the run [{self.t0}, {self.t_end}]")
        return mask


def _log_or_neginf(value: float, what: str) -> float:
    if value > 0.0:
        return math.log(value)
    if value == 0.0:
        return -math.inf
    raise IntegrationError(f"{what} must be >= 0, got {value!r}")


def _snap_interval(pos):
    """Map fractional grid positions to (interval index, theta in [0, 1]),
    preferring the completed left interval at exact knots."""
    idx = np.floor(pos)
    theta = pos - idx
    theta = np.where(theta < 1e-9, 0.0, theta)
    up = theta > 1.0 - 1e-9
    idx = np.where(up, idx + 1.0, idx)
    theta = np.where(up, 0.0, theta)
    left = (theta == 0.0) & (idx >= 1.0)
    return np.where(left, idx - 1.0, idx).astype(np.intp), np.where(left, 1.0, theta)


def _hermite_weights(theta, h):
    """Cubic Hermite basis (value left, slope left, value right, slope right)."""
    om = 1.0 - theta
    return (
        (1.0 + 2.0 * theta) * om * om,
        h * theta * om * om,
        theta * theta * (3.0 - 2.0 * theta),
        h * theta * theta * (theta - 1.0),
    )


def _exp(a: np.ndarray) -> np.ndarray:
    """Elementwise math.exp (np.exp may differ from it in the last ulp)."""
    return np.fromiter(map(math.exp, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _prey_steps(x: float, kx1: float, a1: list, b: list, q: list, h: float) -> tuple[list, list]:
    """RK4 on x' = a1 - b e^x - q over the steps of one window, for one column.

    x and kx1 are the knot k0 and its slope; a1, b and q hold the values at
    the stages after 2k0, two per step (mid-step, end of step).  Returns the
    knots x[k0+1 ..] and their slopes; the lists stop short at the first
    knot whose |x| reaches the overflow guard or whose stages overflow exp."""
    exp = math.exp
    hh = 0.5 * h
    h6 = h / 6.0
    xs, dxs = [], []
    try:
        # zip stops with q, which may cover fewer steps than a1 and b
        for am, bm, qm, ae, be, qe in zip(a1[0::2], b[0::2], q[0::2], a1[1::2], b[1::2], q[1::2]):
            kx2 = am - bm * exp(x + hh * kx1) - qm
            kx3 = am - bm * exp(x + hh * kx2) - qm
            kx4 = ae - be * exp(x + h * kx3) - qe
            x = x + h6 * (kx1 + 2.0 * (kx2 + kx3) + kx4)
            if not abs(x) < _LOG_LIMIT:
                break
            kx1 = ae - be * exp(x) - qe
            xs.append(x)
            dxs.append(kx1)
    except OverflowError:
        pass
    return xs, dxs


def _log_history(phi, thetas: np.ndarray, what: str) -> list:
    """ln phi at the shifted times thetas, through math.log (np.log may
    differ from it in the last ulp); a constant is taken once."""
    if isinstance(phi, CoefficientExpr):
        return [_log_or_neginf(v, what) for v in phi(thetas).tolist()]
    return [_log_or_neginf(phi, what)] * len(thetas)


def _rk4(spec: ModelSpec, t0: float, t_end: float, h: float, log_hist):
    """The RK4 kernel on m columns sharing one model and grid.

    log_hist(component, thetas) gives the log-history of component 0 (u) or
    1 (v) at the shifted times thetas, as an array of shape (len(thetas), m).
    Returns the knot arrays (x, y, dx, dy), each of shape (n+1, m), and the
    history reach r.
    """
    for name, value in (("t0", t0), ("t_end", t_end), ("step h", h)):
        if not math.isfinite(value):
            raise IntegrationError(f"{name} must be finite, got {value!r}")
    if h <= 0.0:
        raise IntegrationError("step h must be > 0")
    if t_end < t0:
        raise IntegrationError("t_end must be >= t0")
    span = t_end - t0
    n = int(round(span / h))

    def stage_times(lo: int, hi: int) -> np.ndarray:
        """Times t0 + j*h/2 of the stages j = lo..hi-1 (the same floats for any split)."""
        return t0 + 0.5 * h * np.arange(lo, hi)

    # blocks of steps [s0, s1), each with its stages [lo, hi): the stages
    # 2k+1 and 2k+2 of each step k, and in the first block also stage 0
    blocks = []
    for s0 in range(0, max(n, 1), _PLAN_STEPS):
        s1 = min(s0 + _PLAN_STEPS, n)
        blocks.append((s0, s1, 2 * s0 + (s0 > 0), 2 * s1 + 1))
    # a delayed read depends only on its component and its delay, so the
    # channels sharing both (key: component, canonical text, which keeps 0.0
    # and -0.0 apart) share every read: the U distinct keys, in the order
    # they first occur, are planned, read and exponentiated once each
    keys = [(comp, serialize(spec.expr(sym))) for sym, comp in zip(_CHANNELS, _COMPONENT)]
    distinct = list(dict.fromkeys(keys))
    slot = [distinct.index(key) for key in keys]
    delay_exprs = [spec.expr(_CHANNELS[keys.index(key)]) for key in distinct]

    def check_delays(min_delay: float) -> None:
        # the delay checks come before the divisibility check, so a too-large step gets the actionable error
        if min_delay <= 0.0:
            raise IntegrationError("delays must stay positive on the integration window")
        if n > 0 and h > min_delay * (1.0 + 1e-12):
            raise IntegrationError(
                f"step h={h!r} exceeds the smallest delay {min_delay!r}; "
                "choose h <= min delay so delayed lookups never outrun the solution"
            )
        if abs(n * h - span) > 1e-9 * max(1.0, span):  # malformed input, not a numerical failure
            raise ValidationError(f"step h={h!r} does not divide t_end - t0 = {span!r} into whole steps")

    x0 = log_hist(0, np.zeros(1))[0]
    y0 = log_hist(1, np.zeros(1))[0]
    m = len(x0)
    # knots per component: z[0] = x, z[1] = y (zeros: a zero-weight Hermite
    # term may touch a knot not computed yet, and 0.0 * 0.0 must stay 0.0)
    z = np.zeros((2, n + 1, m))
    dz = np.zeros((2, n + 1, m))
    z[0, 0], z[1, 0] = x0, y0
    z_rows, dz_rows = z.reshape(-1, m), dz.reshape(-1, m)
    # as rows of the flat knot arrays: row c*(n+1) + i is knot i of component c
    comp_row = (n + 1) * np.array([[comp] for comp, _ in distinct])
    h6 = h / 6.0

    # plan one block of stages at a time and step through it
    min_delay = min_delayed = math.inf  # over the blocks so far; min_delayed gives the history reach
    try:
        for s0, s1, lo, hi in blocks:
            t = stage_times(lo, hi)
            delays = np.array([evaluate_array(expr, t) for expr in delay_exprs])
            delayed = t - delays  # shape (U, hi-lo)
            min_delay = min(min_delay, float(delays.min()))
            min_delayed = min(min_delayed, float(delayed.min()))
            check_delays(min_delay)
            a1, b = (evaluate_array(spec.expr(sym), t).tolist() for sym in ("a1", "b"))
            a2, c1, c2, k1, k2 = (evaluate_array(spec.expr(sym), t)[:, None] for sym in _COEFFS[2:])

            # Hermite plan of the block's stages for every distinct key
            in_history = delayed < t0
            idx, theta = _snap_interval((delayed - t0) / h)
            weights = [w[..., None] for w in _hermite_weights(theta, h)]
            # the knot each stage reads last with a nonzero weight (-1: history only)
            reads = np.where(in_history, -1, idx + (theta > 0.0)).max(axis=0)
            i0 = np.where(in_history, 0, idx)
            i1 = np.minimum(i0 + 1, n)
            i0 += comp_row
            i1 += comp_row
            hist_stages = [np.flatnonzero(row) for row in in_history]
            hist_values = [log_hist(comp, row[stages] - t0)
                           for (comp, _), stages, row in zip(distinct, hist_stages, delayed)]

            def forcing(first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
                """Prey forcing q and predator slope ky at stages first..last, each (last-first+1, m)."""
                sl = slice(first - lo, last - lo + 1)
                j0, j1 = i0[:, sl], i1[:, sl]
                w00, w10, w01, w11 = (w[:, sl] for w in weights)
                vals = (w00 * z_rows.take(j0, axis=0) + w10 * dz_rows.take(j0, axis=0)
                        + w01 * z_rows.take(j1, axis=0) + w11 * dz_rows.take(j1, axis=0))
                for u, stages in enumerate(hist_stages):
                    a, e = np.searchsorted(stages, (sl.start, sl.stop))
                    if a < e:
                        vals[u, stages[a:e] - sl.start] = hist_values[u][a:e]
                exps = _exp(vals)
                es1, es2, et1, et2 = (exps[u] for u in slot)
                return (delayed_term(c1[sl] * et1, es1, k1[sl], t[sl, None], "u(t - sigma1) + k1"),
                        a2[sl] - delayed_term(c2[sl] * et2, es2, k2[sl], t[sl, None], "u(t - sigma2) + k2"))

            if lo == 0:
                q, ky = forcing(0, 0)
                dz[0, 0] = [a1[0] - b[0] * math.exp(x) - qc for x, qc in zip(z[0, 0].tolist(), q[0].tolist())]
                dz[1, 0] = ky[0]

            # the window [k0, k_next) holds the steps whose stages 2k+1, 2k+2
            # read no knot past k0 (stage 2k0 was done with the window before),
            # and ends at the block's end at the latest.  Rounding at |t|/h
            # beyond ~1e7 may put a stage a hair past the knot it may read;
            # such a step gets a window of its own.
            step_reads = np.maximum(reads[2 * s0 + 1 - lo::2], reads[2 * s0 + 2 - lo::2])
            # (a step before k0 reads a knot before k0, so no running max need
            # cross a block's start)
            reach = np.maximum.accumulate(np.minimum(step_reads, np.arange(s0, s1)))
            k0 = s0
            while k0 < s1:
                k_next = s0 + int(np.searchsorted(reach, k0, side="right"))
                q, ky = forcing(2 * k0 + 1, 2 * k_next)
                ky = np.concatenate([dz[1, k0][None], ky])
                mid = ky[1::2]
                inc = h6 * (ky[0:-1:2] + 2.0 * (mid + mid) + ky[2::2])
                y = np.cumsum(np.concatenate([z[1, k0][None], inc]), axis=0)[1:]
                bad = np.flatnonzero(~(np.abs(y) < _LOG_LIMIT).all(axis=1))
                steps = int(bad[0]) + 1 if bad.size else k_next - k0  # up to the first bad y knot
                a1w, bw = a1[2 * k0 + 1 - lo:2 * k_next + 1 - lo], b[2 * k0 + 1 - lo:2 * k_next + 1 - lo]
                cols = [_prey_steps(x, kx1, a1w, bw, qc, h)
                        for x, kx1, qc in zip(z[0, k0].tolist(), dz[0, k0].tolist(), q[:2 * steps].T.tolist())]
                done = min(len(xs) for xs, _ in cols)
                if bad.size or done < steps:
                    raise IntegrationError(f"log-state overflow at t={t0 + (k0 + min(done, steps - 1) + 1) * h!r}")
                z[0, k0 + 1:k_next + 1] = np.array([xs for xs, _ in cols]).T
                dz[0, k0 + 1:k_next + 1] = np.array([dxs for _, dxs in cols]).T
                z[1, k0 + 1:k_next + 1] = y
                dz[1, k0 + 1:k_next + 1] = ky[2::2]
                k0 = k_next
    except Exception as exc:  # re-raised below unless an up-front error outranks it, whatever its kind
        failure = exc
    else:
        return z[0], z[1], dz[0], dz[1], max(0.0, t0 - min_delayed)
    # a whole-run plan evaluated each distinct delay, checked the step, then
    # evaluated every coefficient and the history over the whole stage grid
    # before the first step: their first error outranks the one met in a block
    tgrid = stage_times(0, 2 * n + 1)
    check_delays(min(float(evaluate_array(expr, tgrid).min()) for expr in delay_exprs))
    for sym in _COEFFS:
        evaluate_array(spec.expr(sym), tgrid)
    for (comp, _), expr in zip(distinct, delay_exprs):
        delayed = tgrid - evaluate_array(expr, tgrid)
        log_hist(comp, delayed[delayed < t0] - t0)
    raise failure


def integrate_batch(spec: ModelSpec, histories, t0: float, t_end: float, h: float) -> Trajectory:
    """Integrate many runs of one model on a shared grid, in one kernel call.

    histories: a nonempty sequence of InitialHistory, one column each.
    column(i) of the result is bit-identical to the single integrate() run
    from histories[i].
    """
    histories = tuple(histories)
    if not histories or any(hist.value1(0.0) <= 0.0 or hist.value2(0.0) <= 0.0 for hist in histories):
        raise IntegrationError("need at least one history, each with phi1(0) > 0 and phi2(0) > 0")

    def log_hist(comp, thetas):
        return np.array([_log_history((hist.phi1, hist.phi2)[comp], thetas, f"history phi{comp + 1}")
                         for hist in histories]).T

    x, y, dx, dy, r = _rk4(spec, t0, t_end, h, log_hist)
    n = len(x) - 1
    return Trajectory(t0, t0 + n * h, h, t0 + h * np.arange(n + 1), x, y, dx, dy, histories, r)


def integrate(spec: ModelSpec, history: InitialHistory, t0: float, t_end: float, h: float) -> Trajectory:
    """Integrate the system from an initial history; deterministic for fixed
    inputs (two identical calls give bit-identical knots).  The run is a
    batch of one."""
    return integrate_batch(spec, [history], t0, t_end, h).column(0)


def sample_state(traj: Trajectory, t: float) -> tuple[float, float]:
    """Dense evaluation of a single run: exp of the Hermite-interpolated
    log-state, exact at knots; initial history for t < t0."""
    if traj.x.ndim != 1:
        raise IntegrationError("sample_state reads one run; take a batch's run with column(i)")
    if t < traj.t0 - traj.r - 1e-9 or t > traj.t_end + 1e-9:
        raise IntegrationError(f"t={t!r} outside trajectory domain [{traj.t0 - traj.r}, {traj.t_end}]")
    if t < traj.t0:
        return traj.histories[0].value1(t - traj.t0), traj.histories[0].value2(t - traj.t0)
    if traj.t_end == traj.t0:
        return math.exp(traj.x[0]), math.exp(traj.y[0])
    n = len(traj.t) - 1
    idx, theta = _snap_interval((t - traj.t0) / traj.h)
    idx = min(max(int(idx), 0), n - 1)
    w00, w10, w01, w11 = _hermite_weights(float(theta), traj.h)
    x = w00 * traj.x[idx] + w10 * traj.dx[idx] + w01 * traj.x[idx + 1] + w11 * traj.dx[idx + 1]
    y = w00 * traj.y[idx] + w10 * traj.dy[idx] + w01 * traj.y[idx + 1] + w11 * traj.dy[idx + 1]
    return math.exp(x), math.exp(y)
