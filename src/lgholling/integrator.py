"""Fixed-step integration of the delay system in log-space on RK4's stage
grid, with cubic Hermite dense output.

The state advanced is (x, y) = (ln u, ln v), so u = exp(x) and v = exp(y)
are positive by construction.  Each delayed value is read from the dense
trajectory (cubic Hermite between knots, using the stored derivatives) or
from the initial history for times before t0.  The step size must not
exceed the smallest delay, so a delayed lookup never needs a knot that has
not been computed yet.

The kernel follows the method of steps.  Consecutive steps are grouped into
windows [k0, k1) in which every stage (a step's start, middle and end)
reads delayed values at or before knot k0; with constant delays a window is
W = floor(min delay / h) steps.  Per window, for every column at once, one
take gathers the delayed values' Hermite terms and one np.exp pass gives the
predator slope and the prey's Holling term q = c1 e^{y(t-tau1)} / (e^{x(t-sigma1)} + k1),
both delayed terms in one model.delayed_term call.  Channels with the same
component and the same program share one plan, gather and exponential
(both presets set all four delays equal).  The predator slope depends on
delayed values only, so y advances by RK4's running sum.  The prey
u' = (a1 - q) u - b u^2 is a Bernoulli equation: w = 1/u solves the linear
w' = -(a1 - q) w + b and takes an integrating-factor step (Hochbruck &
Ostermann, Acta Numerica 19, 2010), w <- e^{-P} w + f, with P the integral
of a1 - q over the step and f Simpson's rule for the b term.  Over a window
that is running sums, x_k = S_k - log(w_k0 + sum e^{S_j+1} f_j) with S the
running sum of P, taken in log space so that no a1 overflows them: no step
loops in Python.  A step whose P passes _STIFF_LIMIT raises an
IntegrationError, for Simpson's weights fail there; below it the prey's
equilibrium is off by (P/6)(1 + 4e^{-P/2} + e^{-P})/(1 - e^{-P}) - 1, 3e-4
at P = 1 and 1.5% at P = 2.7.  Every run is a batch: integrate is column(0)
of a batch of one, and a column is bit-identical to the single run.

The knot table is column-major and the Hermite plan tap-first (see _rk4),
so every array of a window has its stages last and numpy's inner loops run
along the window, not along the columns.  A window works in place, one
np.add.accumulate giving both S and y, and a Trajectory keeps the table,
its knot arrays (n+1, m) transposed views of it.

Stages are planned per block of _PLAN_STEPS steps [s0, s1), in one pass:
its stages 2 s0 .. 2 s1, so blocks share their boundary stage.  A block
evaluates its distinct delays once, keeps a running minimum of the delayed
times (the history reach), checks the step against its smallest delay,
then plans its coefficients, Hermite weights and indices and steps through
them, each chunk of a window reading all its stages, its first one too.  A
window cut by its block's end goes on in the next block with the same
running sums, so the knots do not depend on the block size.  A run keeps
its knots, 32 bytes per step per column; its working memory is one block's
plan and one window's scratch, whether the run succeeds or fails.  A
failing run raises the first error of its first failing block, in the
order the block checks: each distinct delay in channel order, the step
checks, the coefficients, then its steps in time order, each window's
history reads, then its Holling denominators (sigma1's row first, each at
its earliest stage over all columns), then its stiffness and log-state
guard.  Those two run once per block, but an error met mid-block first
checks the steps already taken, so they report in time order.

Trajectory.at reads a finished run the way the kernel reads its delayed
values, through the same plan, gather and history read, so at a stage's
time it gives the value the kernel used.  A single integration is
sequential; distinct integrations are independent and a finished
Trajectory is immutable and safe to share.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, NumericalError, ValidationError
from .expr import evaluate_array
from .model import InitialHistory, ModelSpec, delayed_term

__all__ = [
    "Trajectory",
    "integrate",
    "integrate_batch",
]

_LOG_LIMIT = 700.0  # beyond this exp overflows
# largest integral of a1 - q over one step, about RK4's stability limit on the
# real axis: past it Simpson's weights for the prey's b term fail (at a1 h = 1e4
# the prey would settle at 6/(b h), not at a1/b)
_STIFF_LIMIT = 2.79
# delayed channels in lookup order, and the component (0 = x, 1 = y) each reads
_CHANNELS = ("sigma1", "sigma2", "tau1", "tau2")
_COMPONENT = (0, 0, 1, 1)
# coefficients in the order a run evaluates them; a1 and b drive the prey steps
_COEFFS = ("a1", "b", "a2", "c1", "c2", "k1", "k2")
# the denominators of the two Holling rows
_DENOMINATORS = ("u(t - sigma1) + k1", "u(t - sigma2) + k2")
_PLAN_STEPS = 4096  # steps per block of the stage plan: a run's working memory is one block's plan


@dataclass(eq=False)
class Trajectory:
    """Dense log-space solution on a uniform knot grid: the kernel's knot table
    (see _rk4), (2, 2, n+2) for one run and (m, 2, 2, n+2) for a batch, and
    its views x, y, dx and dy, (n+1,) for one run and (n+1, m) for a batch,
    one column per history."""

    t0: float
    t_end: float
    h: float
    t: np.ndarray
    knots: np.ndarray
    histories: tuple[InitialHistory, ...]
    r: float  # history reach actually used by delayed lookups

    def __post_init__(self):
        # ln u, its slope, ln v and its slope at the knots
        self.x, self.dx, self.y, self.dy = (self.knots[..., comp, part, :-1].T for comp in (0, 1) for part in (0, 1))

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
        return Trajectory(self.t0, self.t_end, self.h, self.t, self.knots.reshape(-1, *self.knots.shape[-3:])[i],
                          (self.histories[i],), self.r)

    def window(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Mask of the knots in [t_lo, t_hi], up to the last knot when t_hi is within half a step of it;
        ValidationError for a batch, and naming the window unless it lies on the run and holds a knot."""
        if self.x.ndim != 1:
            raise ValidationError("a window reads one run; take a batch's run with column(i)")
        # half a step of slop: the last knot t0 + n h may fall an ulp either side of the t_end asked for
        reach = max(t_hi, self.t_end) if t_hi >= self.t_end - 0.5 * self.h else t_hi
        mask = (self.t >= t_lo) & (self.t <= reach)
        if not (self.t0 <= t_lo < t_hi <= self.t_end + 0.5 * self.h and mask.any()):
            raise ValidationError(f"window [{t_lo}, {t_hi}] is empty or off the run [{self.t0}, {self.t_end}]")
        return mask

    def at(self, times, column: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Log-state (x, y) of a column at times in [t0 - r, t_end], each shaped like times: the Hermite
        cubic between knots, exact at knots, and the log-history before t0; IntegrationError outside."""
        t = np.asarray(times, dtype=float)
        if not ((t >= self.t0 - self.r - 1e-9) & (t <= self.t_end + 1e-9)).all():
            raise IntegrationError(f"times outside the trajectory's domain [{self.t0 - self.r}, {self.t_end}]")
        n = len(self.t) - 1
        both = np.broadcast_to(np.minimum(t.ravel(), self.t_end), (2, t.size))  # within the slop: the last knot
        in_history, _, _, taps, weights = _hermite_plan(both, self.t0, self.h, n, np.arange(2))
        vals = _hermite_sum(self.knots.reshape(-1, 4 * (n + 2))[column, None], taps, weights)  # the column's table
        _read_history(vals, in_history, both, range(2), (self.histories[column],), self.t0)
        return vals[0, 0].reshape(t.shape), vals[0, 1].reshape(t.shape)


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


def _hermite_plan(times, t0, h, n, comps):
    """Plan of Hermite reads at times (one row per component in comps) from the knot table of an
    n-step run (see _rk4): the mask of the times before t0, which read the history instead, the
    interval index and theta, and the taps (flat table indices) of each read's four terms and
    their weights, both tap-first, shaped (4,) + times.shape."""
    in_history = times < t0
    idx, theta = _snap_interval((times - t0) / h)
    taps = np.where(in_history, 0, idx) + 2 * (n + 2) * comps[:, None] + np.array([0, n + 2, 1, n + 3])[:, None, None]
    return in_history, idx, theta, taps, np.stack(_hermite_weights(theta, h))


def _hermite_sum(table, taps, weights):
    """The Hermite cubics that a plan's taps and weights read from the knot table, one row per
    column: shaped (m,) + taps.shape[1:]."""
    terms = table.take(taps, axis=1)
    terms *= weights
    vals = terms[:, 0] + terms[:, 1]
    vals += terms[:, 2]
    vals += terms[:, 3]
    return vals


def _log_history(histories, comp: int, thetas: np.ndarray) -> np.ndarray:
    """ln phi1 (comp 0) or ln phi2 (comp 1) of each history at the shifted times thetas, one
    row each; -inf where phi is 0."""
    rows = []
    for hist in histories:
        values = (hist.phi1, hist.phi2)[comp](thetas)
        bad = ~(values >= 0.0)
        if bad.any():
            raise IntegrationError(f"history phi{comp + 1} must be >= 0, got {float(values[bad][0])!r}")
        with np.errstate(divide="ignore"):
            rows.append(np.log(values))
    return np.array(rows)


def _read_history(vals, in_history, times, comps, histories, t0) -> None:
    """Overwrite the Hermite reads vals (m, U, stages), one key per component in comps, at the
    times before t0, marked in in_history, with the log-history of each column."""
    for key, (comp, past, when) in enumerate(zip(comps, in_history, times)):
        if past.any():
            vals[:, key, past] = _log_history(histories, comp, when[past] - t0)


def _check_steps(p_max, kn, s0: int, k: int, t0: float, h: float) -> None:
    """Raise for the first of the steps s0 .. k-1, in time order, that is too stiff (p_max, the
    largest integral of a1 - q over the step in any column, past _STIFF_LIMIT) or whose end knot
    passes the log-state guard; a step failing both is too stiff.  The first block (s0 = 0)
    guards knot 0 before its steps."""
    if s0 == 0 and not ((kn[:, :, 0, 0] < _LOG_LIMIT) & (kn[:, :, 0, 0] > -_LOG_LIMIT)).all():
        raise IntegrationError(f"log-state overflow at t={float(t0)!r}")
    stiff = p_max[:k - s0] > _STIFF_LIMIT
    knots = kn[:, :, 0, s0 + 1:k + 1]  # reduced over the columns first, so no array of the block's knots is made
    fail = stiff | ~((knots.max(axis=(0, 1)) < _LOG_LIMIT) & (knots.min(axis=(0, 1)) > -_LOG_LIMIT))
    if fail.any():
        j = int(fail.argmax())
        if stiff[j]:
            raise IntegrationError(
                f"prey too stiff for step h={h!r} at t={t0 + (s0 + j) * h!r}: a1 - q integrates to "
                f"{float(p_max[j])!r} over the step, above {_STIFF_LIMIT}; choose a smaller h")
        raise IntegrationError(f"log-state overflow at t={t0 + (s0 + j + 1) * h!r}")


def _rk4(spec: ModelSpec, t0: float, t_end: float, h: float, histories):
    """The kernel on m columns, one per history, sharing one model and grid:
    RK4's stage grid, with the Bernoulli step for the prey and RK4's
    quadrature for the predator.  Returns the knot table kn, of shape
    (m, 2, 2, n+2), and the history reach r.
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

    # blocks of steps [s0, s1), each with its stages 2 s0 .. 2 s1: a block
    # shares its first stage with the block before
    blocks = [(s0, min(s0 + _PLAN_STEPS, n)) for s0 in range(0, max(n, 1), _PLAN_STEPS)]
    # a delayed read depends only on its component and its delay, so the
    # channels sharing both (key: component and the same program, compared by
    # its repr, which keeps 0.0 and -0.0 apart) share every read: the U distinct
    # keys, in the order they first occur, are planned, read and exponentiated once each
    keys = [(comp, repr(getattr(spec, sym).program)) for sym, comp in zip(_CHANNELS, _COMPONENT)]
    distinct = list(dict.fromkeys(keys))
    slot = [distinct.index(key) for key in keys]
    delay_exprs = [getattr(spec, _CHANNELS[keys.index(key)]) for key in distinct]
    # the keys of (sigma1, sigma2) and of (tau1, tau2), each one key or two adjacent ones
    sigmas, taus = slice(slot[0], slot[1] + 1), slice(slot[2], slot[3] + 1)

    x0 = _log_history(histories, 0, np.zeros(1))[:, 0]
    y0 = _log_history(histories, 1, np.zeros(1))[:, 0]
    m = len(x0)
    # kn[j, c, 0, i] and kn[j, c, 1, i] are the value and slope of knot i of component c (0 = x,
    # 1 = y) in column j, so one take of a column's flat row reads a Hermite cubic's four terms;
    # knot n+1 pads the last read (zeros: a zero-weight term may touch a knot not computed yet,
    # 0.0 * 0.0 = 0.0)
    kn = np.zeros((m, 2, 2, n + 2))
    kn[:, 0, 0, 0], kn[:, 1, 0, 0] = x0, y0
    table = kn.reshape(m, -1)
    comps = np.array([comp for comp, _ in distinct])
    h6, h24 = h / 6.0, h / 24.0
    # each block's coefficient rows and the largest p of each of its steps over the columns, in
    # buffers of the first, longest block: no block holds its predecessor's
    coefs, p_maxes = np.empty((len(_COEFFS), 2 * blocks[0][1] + 1)), np.empty(blocks[0][1])

    # plan one block of stages at a time and step through it
    min_delayed = math.inf  # over the blocks so far: it gives the history reach
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a bad knot is caught below
        for s0, s1 in blocks:
            t = t0 + 0.5 * h * np.arange(2 * s0, 2 * s1 + 1)  # the same floats for any split
            delays = np.array([evaluate_array(expr, t) for expr in delay_exprs])
            min_delay = float(delays.min())
            delayed = np.subtract(t, delays, out=delays)  # shape (U, 2 (s1 - s0) + 1)
            min_delayed = min(min_delayed, float(delayed.min()))
            # a block checks its own smallest delay (an earlier block's smaller one raised there), and
            # before the divisibility check, so a too-large step gets the actionable error
            if min_delay <= 0.0:
                raise IntegrationError("delays must stay positive on the integration window")
            if n > 0 and h > min_delay * (1.0 + 1e-12):
                raise IntegrationError(
                    f"step h={h!r} exceeds the smallest delay {min_delay!r}; "
                    "choose h <= min delay so delayed lookups never outrun the solution"
                )
            if abs(n * h - span) > 1e-9 * max(1.0, span):  # malformed input, not a numerical failure
                raise ValidationError(f"step h={h!r} does not divide t_end - t0 = {span!r} into whole steps")
            coef, p_max = coefs[:, :len(t)], p_maxes[:s1 - s0]
            for row, sym in enumerate(_COEFFS):
                coef[row] = evaluate_array(getattr(spec, sym), t)
            a, b, c, k = coef[0:3:2], coef[1], coef[3:5], coef[5:7]  # a, c and k: (prey, predator) rows
            negative_b = bool((b < 0.0).any())  # elsewhere the prey's f is never negative

            # Hermite plan of the block's stages for every distinct key
            in_history, idx, theta, taps, weights = _hermite_plan(delayed, t0, h, n, comps)
            # the stages up to hist_end read the history for some key
            hist_end = len(t) - int(in_history[:, ::-1].any(axis=0).argmax()) if in_history.any() else 0
            # the knot each stage reads last with a nonzero weight (-1: history only)
            reads = np.where(in_history, -1, idx + (theta > 0.0)).max(axis=0)
            # the window [start, k_next) holds the steps whose stages 2k+1,
            # 2k+2 read no knot past start; stage 2*start reads knots before
            # start.  Rounding at |t|/h beyond ~1e7 may put a stage a hair
            # past the knot it may read; such a step gets a window of its own.
            step_reads = np.maximum(reads[1::2], reads[2::2])
            # (a step before start reads a knot before start, so no running
            # max need cross a block's start, and a window cut by a block's
            # end goes on in the next block, with the same sums)
            reach = np.maximum.accumulate(np.minimum(step_reads, np.arange(s0, s1))).tolist()
            k0 = s0
            try:
                while True:  # at least once: a zero-step run still reads stage 0 for knot 0's slopes
                    i0 = k0 - s0
                    if k0 == 0 or reach[i0] > start:  # step k0 reads past the window's first knot
                        # a new window: its first knot, its prey sum S and log W (and log W-, see below)
                        start, s_carry, logs = k0, 0.0, -kn[:, 0, 0, k0, None]
                    i1 = bisect.bisect_right(reach, start)
                    k_next, w = s0 + i1, i1 - i0
                    # the chunk reads its stages 2 k0 .. 2 k_next, the first one again and
                    # to the same floats: it reads knots that were final when the chunk before did
                    sl = slice(2 * i0, 2 * i1 + 1)
                    vals = _hermite_sum(table, taps[:, :, sl], weights[:, :, sl])  # (m, U, stages)
                    if sl.start < hist_end:
                        _read_history(vals, in_history[:, sl], delayed[:, sl], comps, histories, t0)
                    np.exp(vals, out=vals)
                    # both Holling rows at once: G[:, 0] = a1 - q is the prey's g, G[:, 1] the predator's slope
                    num = np.multiply(c[:, sl], vals[:, taus])
                    try:
                        G = delayed_term(num, vals[:, sigmas], k[:, sl], t[sl], _DENOMINATORS[0])
                    except NumericalError:  # name the sigma1 row's earliest bad stage over all columns, else sigma2's
                        u_delayed = np.broadcast_to(vals[:, sigmas], num.shape)
                        for row, name in enumerate(_DENOMINATORS):
                            delayed_term(num[:, row].T, u_delayed[:, row].T, k[row, sl, None], t[sl, None], name)
                        raise
                    np.subtract(a[:, sl], G, out=G)
                    # running sums along the stages, each carry first: row 0 the prey's S, the sum of
                    # p = h/6 (g0 + 4 gm + ge), the integral of g's quadratic through the
                    # step's stages, and row 1 the predator's y, summing ky the same way
                    # (RK4's h/6 (k0 + 2 (km + km) + ke): 4 km is 2 (km + km) bit for bit)
                    acc = np.empty((m, 2, w + 1))
                    acc[:, 0, 0], acc[:, 1, 0] = s_carry, kn[:, 1, 0, k0]
                    inc = acc[:, :, 1:]
                    np.multiply(G[:, :, 1::2], 4.0, out=inc)
                    inc += G[:, :, :-1:2]
                    inc += G[:, :, 2::2]
                    inc *= h6
                    p = inc[:, 0]
                    np.fmax.reduce(p, axis=0, out=p_max[i0:i1])
                    # prey: w = e^-x solves w' = -g w + b.  Per step, p and p2 integrate
                    # g's quadratic through its stages over the step and its second half,
                    # and w <- e^-p w + f.  In a window W = e^S w, S the running sum of p,
                    # grows by e^S f; x = S - log W.  Where b < 0, W's negative part has a
                    # sum of its own (log W-, from the first f < 0); W <= 0 gives x = inf or nan.
                    g, bw = G[:, 0], b[sl]
                    e = np.empty((m, 2, w))  # e^-p, e^-p2
                    e2 = e[:, 1]  # -p2 = -h/24 (5 ge + 8 gm - g0), row 0 holding 8 gm until it takes -p
                    np.multiply(g[:, 2::2], 5.0, out=e2)
                    e2 += np.multiply(g[:, 1::2], 8.0, out=e[:, 0])
                    e2 -= g[:, :-1:2]
                    e2 *= -h24
                    np.negative(p, out=e[:, 0])
                    np.exp(e, out=e)
                    f = e[:, 0]
                    f *= bw[:-1:2]
                    e2 *= 4.0
                    e2 *= bw[1::2]
                    f += e2
                    f += bw[2::2]
                    f *= h6
                    np.add.accumulate(acc, axis=2, out=acc)
                    s_run = acc[:, 0, 1:]
                    if negative_b and logs.shape[1] == 1 and (f < 0.0).any():
                        logs = np.column_stack([logs, np.full(m, -math.inf)])
                    signed = logs.shape[1] == 2
                    # log W (row 0) and log W- (row 1, once there is one), each carry first
                    la = np.empty((m, logs.shape[1], w + 1))
                    la[:, :, 0] = logs
                    np.log(np.maximum(f, 0.0) if signed else f, out=la[:, 0, 1:])
                    if signed:
                        np.log(np.maximum(f, 0.0) - f, out=la[:, 1, 1:])
                    la[:, :, 1:] += s_run[:, None]
                    np.logaddexp.accumulate(la, axis=2, out=la)
                    x = np.subtract(s_run, la[:, 0, 1:], out=kn[:, 0, 0, k0 + 1:k_next + 1])
                    if signed:
                        x -= np.log1p(-np.exp(la[:, 1, 1:] - la[:, 0, 1:]))
                    s_carry, logs = acc[:, 0, -1], la[:, :, -1]
                    kn[:, 1, 0, k0 + 1:k_next + 1] = acc[:, 1, 1:]
                    # the slopes of the knots k0 .. k_next, knot k0's again, the same floats
                    done = slice(k0, k_next + 1)
                    kn[:, :, 1, done] = G[:, :, ::2]
                    kn[:, 0, 1, done] -= np.exp(kn[:, 0, 0, done]) * bw[::2]
                    k0 = k_next
                    if k0 >= s1:
                        break
            except NumericalError:  # met mid-block: a failure of a step already taken comes first
                _check_steps(p_max, kn, s0, k0, t0, h)
                raise
            _check_steps(p_max, kn, s0, s1, t0, h)
            del delays, delayed, in_history, idx, theta, taps, weights, reads, step_reads, reach  # before the next plan
    return kn, max(0.0, t0 - min_delayed)


def integrate_batch(spec: ModelSpec, histories, t0: float, t_end: float, h: float) -> Trajectory:
    """Integrate many runs of one model on a shared grid, in one kernel call.

    histories: a nonempty sequence of InitialHistory, one column each.
    column(i) of the result is bit-identical to the single integrate() run
    from histories[i].
    """
    histories = tuple(histories)
    if not histories or any(hist.phi1(0.0) <= 0.0 or hist.phi2(0.0) <= 0.0 for hist in histories):
        raise IntegrationError("need at least one history, each with phi1(0) > 0 and phi2(0) > 0")
    knots, r = _rk4(spec, t0, t_end, h, histories)
    n = knots.shape[-1] - 2
    return Trajectory(t0, t0 + n * h, h, t0 + h * np.arange(n + 1), knots, histories, r)


def integrate(spec: ModelSpec, history: InitialHistory, t0: float, t_end: float, h: float) -> Trajectory:
    """Integrate the system from an initial history; deterministic for fixed
    inputs (two identical calls give bit-identical knots).  The run is a
    batch of one."""
    return integrate_batch(spec, [history], t0, t_end, h).column(0)
