import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from lgholling import (
    CoefficientBounds,
    CoefficientExpr,
    ExprDomainError,
    GridFunctionPair,
    InitialHistory,
    LagInversionError,
    ModelSpec,
    PermanenceBounds,
    Trajectory,
    compute_permanence_bounds_from_values,
    evaluate,
    evaluate_array,
    integrate,
    run_pipeline,
)
from lgholling.expr import _parse
from lgholling.fixedpoint import _f_values, _prefix_simpson
from lgholling.pap import _sample
from lgholling.presets import preset_config


def make_spec(name: str) -> ModelSpec:
    return ModelSpec.from_strings(preset_config(name)["model"])


def table_bounds(name: str) -> CoefficientBounds:
    return CoefficientBounds.from_table(preset_config(name)["table_bounds"])


def table_permanence(name: str):
    return compute_permanence_bounds_from_values(table_bounds(name))


@pytest.fixture(scope="session")
def example1_spec():
    return make_spec("example1")


@pytest.fixture(scope="session")
def example2_spec():
    return make_spec("example2")


@pytest.fixture(scope="session")
def example2_bounds():
    return table_permanence("example2")


@pytest.fixture(scope="session")
def example1_bounds():
    return table_permanence("example1")


@pytest.fixture(scope="session")
def unit_spec():
    consts = {s: "1" for s in ("a1", "a2", "b", "c1", "c2", "k1", "k2")}
    delays = {s: "0.5" for s in ("tau1", "tau2", "sigma1", "sigma2")}
    return ModelSpec.from_strings(consts | delays)


@pytest.fixture(scope="session")
def unit_coeff_bounds():
    return CoefficientBounds.from_table({f: 1.0 for f in CoefficientBounds.__dataclass_fields__})


@pytest.fixture(scope="session")
def example1_run(tmp_path_factory):
    """Full example1 pipeline, run once per session."""
    out = tmp_path_factory.mktemp("example1")
    report = run_pipeline(preset_config("example1"), out)
    return report, out


@pytest.fixture(scope="session")
def example2_run(tmp_path_factory):
    """Full example2 pipeline, run once per session."""
    out = tmp_path_factory.mktemp("example2")
    report = run_pipeline(preset_config("example2"), out)
    return report, out


def known_answer_config() -> dict:
    """Example2's config with constant coefficients, all four delays 0.92,
    and no paper table: its distinguished solution is the positive
    equilibrium KNOWN_EQUILIBRIUM (see tests/test_known_answer.py)."""
    config = preset_config("example2")
    config["model"].update(a1="5", b="8.4", c1="0.32", k1="16.7", a2="0.155", c2="3.6", k2="5.7",
                           tau1="0.92", tau2="0.92", sigma1="0.92", sigma2="0.92")
    config["table_bounds"] = config["paper_values"] = None
    return config


# (u*, v*) of known_answer_config: u* the positive root of
# b u^2 + (b k1 - a1 + c1 a2 / c2) u + (c1 a2 k2 / c2 - a1 k1) = 0, and v* = a2 (u* + k2) / c2
KNOWN_EQUILIBRIUM = (0.5946411158870899, 0.27101927026736083)


def load_report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


def trapz(y: np.ndarray, dx: float) -> float:
    """Trapezoid rule on a uniform grid, without the numpy>=2 name dependency."""
    return float(dx * (y.sum() - 0.5 * (y[0] + y[-1])))


def example2_constant_pair_u2(phi0: float, psi0: float, t_ref: float) -> float:
    """Independent oracle for the predator component of the integral operator
    on example2 at a constant pair (phi0, psi0):

        U2(t) = c2 psi0^2 / (phi0 + k2) * G2(t),  G2(t) = int_t^inf exp(-int_t^s a2)

    with a2, c2 and k2 written out by hand (not parsed from the preset) and
    G2 by brute fine trapezoid over a 700-unit tail (a2 >= 0.03, so the cut
    tail weighs less than exp(-21))."""
    q = 0.005
    s = t_ref + np.arange(int(700.0 / q) + 1) * q
    a2 = 0.03 + 0.125 * (np.abs(np.sin(np.sqrt(2.0) * s)) + np.abs(np.cos(np.sqrt(5.0) * s)))
    A = np.concatenate([[0.0], np.cumsum(0.5 * (a2[:-1] + a2[1:]) * q)])
    return 3.6 * psi0 * psi0 / (phi0 + 5.7) * trapz(np.exp(-A), q)


def hermite_plan(pos: float, h: float):
    """The scalar Hermite read at the grid position pos (time - t0 over h):
    (interval index, weight of its left value, left slope, right value,
    right slope), taking the completed left interval at an exact knot."""
    idx = math.floor(pos)
    theta = pos - idx
    if theta < 1e-9:
        theta = 0.0
    elif theta > 1.0 - 1e-9:
        idx += 1
        theta = 0.0
    if theta == 0.0 and idx >= 1:
        idx -= 1
        theta = 1.0
    om = 1.0 - theta
    return (int(idx), (1.0 + 2.0 * theta) * om * om, h * theta * om * om,
            theta * theta * (3.0 - 2.0 * theta), h * theta * theta * (theta - 1.0))


def _reference_forcing(spec: ModelSpec, history: InitialHistory, t0: float, t_end: float, h: float):
    """The stage grid t0 + j h/2 of the reference oracles: n, a1 and b at the
    stages, and forcing(j, xs, ys, dxs, dys), the prey forcing
    q = c1 v(t - tau1) / (u(t - sigma1) + k1) and the predator slope at stage
    j, with every delayed value read from the cubic Hermite interpolant of
    the knots computed so far (or from the history before t0)."""
    n = int(round((t_end - t0) / h))
    tgrid = t0 + 0.5 * h * np.arange(2 * n + 1)
    a1, a2, b, c1, c2, k1, k2 = (evaluate_array(getattr(spec, s), tgrid).tolist()
                                 for s in ("a1", "a2", "b", "c1", "c2", "k1", "k2"))

    def log_hist(value, theta):
        v = value(theta)
        return math.log(v) if v > 0.0 else -math.inf

    def channel_plan(sym, value):
        plan = []
        for s in tgrid - evaluate_array(getattr(spec, sym), tgrid):
            if s < t0:
                plan.append((True, log_hist(value, s - t0)))
                continue
            plan.append((False, *hermite_plan((s - t0) / h, h)))
        return plan

    p_s1 = channel_plan("sigma1", history.phi1)
    p_s2 = channel_plan("sigma2", history.phi1)
    p_t1 = channel_plan("tau1", history.phi2)
    p_t2 = channel_plan("tau2", history.phi2)
    exp = math.exp

    def lookup(p, vals, dvals):
        if p[0]:
            return p[1]
        _, i, w00, w10, w01, w11 = p
        return w00 * vals[i] + w10 * dvals[i] + w01 * vals[i + 1] + w11 * dvals[i + 1]

    def forcing(j, xs, ys, dxs, dys):
        xs1 = lookup(p_s1[j], xs, dxs)
        xs2 = lookup(p_s2[j], xs, dxs)
        yt1 = lookup(p_t1[j], ys, dys)
        yt2 = lookup(p_t2[j], ys, dys)
        return c1[j] * exp(yt1) / (exp(xs1) + k1[j]), a2[j] - c2[j] * exp(yt2) / (exp(xs2) + k2[j])

    return n, a1, b, forcing


def reference_rk4(spec: ModelSpec, history: InitialHistory, t0: float, t_end: float, h: float):
    """Reference oracle for RK4: classical RK4 on the log-state, one Python
    step at a time, with _reference_forcing's delayed reads.  Returns the
    knot arrays (x, y, dx, dy)."""
    n, a1, b, forcing = _reference_forcing(spec, history, t0, t_end, h)
    xs = [0.0] * (n + 1)
    ys = [0.0] * (n + 1)
    dxs = [0.0] * (n + 1)
    dys = [0.0] * (n + 1)
    xs[0] = math.log(history.phi1(0.0))
    ys[0] = math.log(history.phi2(0.0))
    exp = math.exp

    def stage(j, xv):
        q, ky = forcing(j, xs, ys, dxs, dys)
        return a1[j] - b[j] * exp(xv) - q, ky

    hh = 0.5 * h
    h6 = h / 6.0
    for k in range(n):
        x0, y0 = xs[k], ys[k]
        j0 = 2 * k
        k1x, k1y = stage(j0, x0)
        dxs[k], dys[k] = k1x, k1y
        k2x, k2y = stage(j0 + 1, x0 + hh * k1x)
        k3x, k3y = stage(j0 + 1, x0 + hh * k2x)
        k4x, k4y = stage(j0 + 2, x0 + h * k3x)
        xs[k + 1] = x0 + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
        ys[k + 1] = y0 + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
    dxs[n], dys[n] = stage(2 * n, xs[n])
    return np.array(xs), np.array(ys), np.array(dxs), np.array(dys)


def reference_bernoulli(spec: ModelSpec, history: InitialHistory, t0: float, t_end: float, h: float):
    """Reference oracle for the integrator: one Python step at a time, with
    _reference_forcing's delayed reads.  The prey takes the Bernoulli step:
    w = e^-x solves w' = -g w + b with g = a1 - q, and with P and P_half the
    integrals of g's quadratic through its three stages over the step and
    its first half,

        w <- e^-P w + (h/6)(e^-P b0 + 4 e^-(P - P_half) bm + be),

    written for x as x + P - log1p(f e^P e^x), f the b term.  The predator takes RK4,
    whose two mid-step stages coincide.  Returns the knot arrays (x, y, dx, dy)."""
    n, a1, b, forcing = _reference_forcing(spec, history, t0, t_end, h)
    xs = [0.0] * (n + 1)
    ys = [0.0] * (n + 1)
    dxs = [0.0] * (n + 1)
    dys = [0.0] * (n + 1)
    xs[0] = math.log(history.phi1(0.0))
    ys[0] = math.log(history.phi2(0.0))
    exp = math.exp
    h6 = h / 6.0
    q0, ky0 = forcing(0, xs, ys, dxs, dys)
    for k in range(n):
        j0 = 2 * k
        g0 = a1[j0] - q0
        dxs[k], dys[k] = g0 - b[j0] * exp(xs[k]), ky0  # the later stages may read these slopes
        qm, kym = forcing(j0 + 1, xs, ys, dxs, dys)
        qe, kye = forcing(j0 + 2, xs, ys, dxs, dys)
        gm, ge = a1[j0 + 1] - qm, a1[j0 + 2] - qe
        p = h6 * (g0 + 4.0 * gm + ge)
        p_half = h / 24.0 * (5.0 * g0 + 8.0 * gm - ge)
        f_ep = h6 * (b[j0] + 4.0 * exp(p_half) * b[j0 + 1] + exp(p) * b[j0 + 2])  # f e^P
        xs[k + 1] = xs[k] + p - math.log1p(f_ep * exp(xs[k]))
        ys[k + 1] = ys[k] + h6 * (ky0 + 2.0 * (kym + kym) + kye)
        q0, ky0 = qe, kye
    dxs[n], dys[n] = a1[2 * n] - q0 - b[2 * n] * exp(xs[n]), ky0
    return np.array(xs), np.array(ys), np.array(dxs), np.array(dys)


def reference_upsilon(spec: ModelSpec, pair, quad_step: float, tail_tol: float,
                      coeff_bounds: CoefficientBounds, tail_len=None):
    """Reference oracle for the integral operator: for every grid point
    t = s_lo separately, one composite Simpson dot product over its window
    [s_lo, s_lo + n q], with the kernel e^{A_lo - A_k} exponentiated per node.
    Its own walk finds n: from 8 up in steps of 2 until A_{lo+n} reaches
    A_lo + Lambda, but not past the N nodes of the decay-floor L (every n is
    N when tail_len is given).  Same nodes, exponent A, f values, Lambda and
    N as apply_upsilon; returns the (phi, psi) image arrays."""
    p = int(round(pair.step / quad_step))
    q = pair.step / p
    npts = len(pair.phi)
    outputs = []
    for j, aj_inf, aj_expr in ((1, coeff_bounds.a1_inf, spec.a1), (2, coeff_bounds.a2_inf, spec.a2)):
        window = pair.t_lo + q * np.arange((npts - 1) * p + 1)
        supf = float(np.abs(_f_values(spec, pair, j, window)).max())
        lam = math.log(max(2.0 * supf, 1e-12) / (aj_inf * tail_tol))
        L = float(tail_len) if tail_len is not None else max(lam / aj_inf, 4.0 * q)
        N = int(math.ceil(L / q))
        N += N % 2
        N = max(N, 8)
        s = pair.t_lo + q * np.arange((npts - 1) * p + N + 1)
        A = _prefix_simpson(evaluate_array(aj_expr, s), evaluate_array(aj_expr, s[:-1] + 0.5 * q), q)
        f = _f_values(spec, pair, j, s)
        A_list = A.tolist()
        out = np.empty(npts)
        for i in range(npts):
            lo = i * p
            n = N if tail_len is not None else 8
            while n < N and A_list[lo + n] < A_list[lo] + lam:
                n += 2
            w = np.full(n + 1, 2.0)
            w[1::2] = 4.0
            w[0] = w[-1] = 1.0
            w *= q / 3.0
            sl = slice(lo, lo + n + 1)
            out[i] = float(np.dot(np.exp(A[lo] - A[sl]) * f[sl], w))
        outputs.append(out)
    return outputs[0], outputs[1]


def reference_lag_gap(delay, t: float, tol: float = 1e-12) -> float:
    """Reference oracle for lag inversion: bracket and bisect one time t at
    a time, with scalar evaluations of s - delay(s), a 65-sample
    monotonicity check per bracket piece (where the package proves it) and
    the same stopping rules."""

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


def reference_golden_min(fn, lo: float, hi: float, iters: int = 80) -> float:
    """Reference oracle for the sup/inf refinement: golden-section minimum
    of a scalar function fn on one bracket [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if b - a < 1e-14 * max(1.0, abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return min(fc, fd)


def reference_candidate_cells(values: np.ndarray, cap: int = 40, dmax: float | None = None) -> np.ndarray:
    """Reference oracle for the candidate cells of the sup/inf scan, on the
    whole array of sampled values: the local minima (endpoints included)
    within 2 dmax + 1e-15 of the least sample, at most cap of them (the
    lowest, by argpartition); dmax, the largest step between neighbouring
    samples, is computed when not given.  Fewer than 3 samples or a flat
    sampling give the first least sample alone."""
    n = values.size
    if n < 3:
        return np.array([np.argmin(values)])
    if dmax is None:
        dmax = float(np.abs(np.diff(values)).max())
    if dmax == 0.0:
        return np.array([np.argmin(values)])
    interior = (values[1:-1] <= values[:-2]) & (values[1:-1] <= values[2:])
    idxs = np.concatenate([[0], np.flatnonzero(interior) + 1, [n - 1]])
    vmin = float(values.min())
    sel = idxs[values[idxs] <= vmin + 2.0 * dmax + 1e-15]
    if sel.size > cap:
        sel = sel[np.argpartition(values[sel], cap)[:cap]]
    return sel


def reference_scan(expr, grid: np.ndarray) -> tuple[float, float]:
    """Reference oracle for the sup/inf search: the inf and sup of f over a
    grid, evaluated in one call, with each candidate cell of the least
    samples of f and of -f refined on its own by reference_golden_min with
    scalar evaluations.  Raises the whole grid's ExprDomainError."""
    if len(expr.program) == 1 and expr.program[0][0] == "const":
        c = evaluate(expr, 0.0)
        return c, c
    raw = evaluate_array(expr, grid)
    h = grid[1] - grid[0] if grid.size > 1 else 0.0
    least = {}
    for sign in (1.0, -1.0):
        values = sign * raw
        refined = [reference_golden_min(lambda t: sign * evaluate(expr, t),
                                        max(grid[0], grid[i] - h), min(grid[-1], grid[i] + h))
                   for i in reference_candidate_cells(values)]
        least[sign] = min(float(values.min()), float(min(refined)))
    return least[1.0], -least[-1.0]


def varying_delay_model(seed: int) -> dict[str, str]:
    """The coefficient texts of the benchmark's varying-delay workload at seed."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {sym: c.text() for sym, c in workloads.generate_model(np.random.default_rng(seed)).items()}


def reference_eval_array(text: str, t) -> np.ndarray:
    """Reference oracle for the evaluator: the program of text as written,
    with no constant folding, run over an array of times by its own stack
    loop, with every literal as a full array of t's shape.  Raises
    ExprDomainError with the evaluator's messages."""
    t = np.asarray(t, dtype=float)
    unary = {"neg": lambda v: -v, "abs": np.abs, "exp": np.exp, "sin": np.sin, "cos": np.cos}
    binary = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
    stack = []
    with np.errstate(over="ignore", invalid="ignore"):
        for op, arg in _parse(text):
            if op == "const":
                stack.append(np.full_like(t, arg))
            elif op == "t":
                stack.append(t)
            elif op == "^":
                stack.append(stack.pop() ** arg)
            elif op in binary:
                right = stack.pop()
                stack.append(binary[op](stack.pop(), right))
            elif op == "/":
                right = stack.pop()
                bad = right == 0.0
                if bad.any():
                    raise ExprDomainError(f"division by zero at t={float(t[bad][0])!r}")
                stack.append(stack.pop() / right)
            elif op == "sqrt":
                v = stack.pop()
                bad = v < 0.0
                if bad.any():
                    raise ExprDomainError(f"sqrt of negative value at t={float(t[bad][0])!r}")
                stack.append(np.sqrt(v))
            else:
                stack.append(unary[op](stack.pop()))
    (values,) = stack
    bad = ~np.isfinite(values)
    if bad.any():
        raise ExprDomainError(f"non-finite value at t={float(t[bad][0])!r}")
    return values


@dataclass
class OrderCheck:
    ratio: float
    err_coarse: float  # ||sol_h - sol_{h/2}||_inf over shared knots
    err_fine: float    # ||sol_{h/2} - sol_{h/4}||_inf
    plateau: bool      # differences at machine-precision floor; ratio meaningless


def order_check(spec: ModelSpec, history: InitialHistory, t0: float, t_end: float, h: float) -> OrderCheck:
    """Richardson convergence check at steps h, h/2, h/4.

    For a 4th-order scheme the ratio approaches 2^4 = 16 on smooth problems;
    delay-interpolation effects degrade it mildly.
    """
    sols = [integrate(spec, history, t0, t_end, step) for step in (h, h / 2.0, h / 4.0)]

    def diff(a: Trajectory, b: Trajectory, stride: int) -> float:
        du = np.abs(a.u - b.u[::stride]).max()
        dv = np.abs(a.v - b.v[::stride]).max()
        return float(max(du, dv))

    err_coarse = diff(sols[0], sols[1], 2)
    err_fine = diff(sols[1], sols[2], 2)
    scale = float(max(np.abs(sols[2].u).max(), np.abs(sols[2].v).max(), 1.0))
    plateau = err_fine < 1e-13 * scale
    ratio = math.inf if err_fine == 0.0 else err_coarse / err_fine
    return OrderCheck(ratio=ratio, err_coarse=err_coarse, err_fine=err_fine, plateau=plateau)


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
    w = np.full(quad_n + 1, 2.0)  # composite Simpson weights, times 3/dx
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    rhs = float(np.dot(integrand, w * (dx / 3.0)))
    return lhs, rhs, abs(lhs - rhs)


def shift_defect(f, tau_shift: float, grid: np.ndarray) -> float:
    """max over the grid of |f(t + tau) - f(t)|; an epsilon-almost-period
    has defect below epsilon."""
    grid = np.asarray(grid, dtype=float)
    return float(np.abs(_sample(f, grid + tau_shift) - _sample(f, grid)).max())


def in_box(pair: GridFunctionPair, bounds: PermanenceBounds) -> bool:
    return bool(
        (pair.phi >= bounds.m1).all() and (pair.phi <= bounds.M1).all()
        and (pair.psi >= bounds.m2).all() and (pair.psi <= bounds.M2).all()
    )
