import json
import math
from pathlib import Path

import numpy as np
import pytest

from lgholling import (
    CoefficientBounds,
    InitialHistory,
    ModelSpec,
    compute_permanence_bounds_from_values,
    evaluate_array,
    run_preset,
)
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


@pytest.fixture
def half_history():
    return InitialHistory(0.5, 0.5)


@pytest.fixture(scope="session")
def example1_run(tmp_path_factory):
    """Full example1 pipeline, run once per session."""
    out = tmp_path_factory.mktemp("example1")
    report = run_preset("example1", out)
    return report, out


@pytest.fixture(scope="session")
def example2_run(tmp_path_factory):
    """Full example2 pipeline, run once per session."""
    out = tmp_path_factory.mktemp("example2")
    report = run_preset("example2", out)
    return report, out


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


def reference_rk4(spec: ModelSpec, history: InitialHistory, t0: float, t_end: float, h: float):
    """Reference oracle for the integrator: classical RK4 on the log-state,
    one Python step at a time, with every delayed value read from the cubic
    Hermite interpolant of the knots computed so far (or from the history
    before t0).  Returns the knot arrays (x, y, dx, dy)."""
    n = int(round((t_end - t0) / h))
    tgrid = t0 + 0.5 * h * np.arange(2 * n + 1)
    a1, a2, b, c1, c2, k1, k2 = (evaluate_array(spec.expr(s), tgrid).tolist()
                                 for s in ("a1", "a2", "b", "c1", "c2", "k1", "k2"))

    def log_hist(value, theta):
        v = value(theta)
        return math.log(v) if v > 0.0 else -math.inf

    def channel_plan(sym, value):
        plan = []
        for s in tgrid - evaluate_array(spec.expr(sym), tgrid):
            if s < t0:
                plan.append((True, log_hist(value, s - t0)))
                continue
            pos = (s - t0) / h
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
            plan.append((False, int(idx), (1.0 + 2.0 * theta) * om * om, h * theta * om * om,
                         theta * theta * (3.0 - 2.0 * theta), h * theta * theta * (theta - 1.0)))
        return plan

    p_s1 = channel_plan("sigma1", history.value1)
    p_s2 = channel_plan("sigma2", history.value1)
    p_t1 = channel_plan("tau1", history.value2)
    p_t2 = channel_plan("tau2", history.value2)
    xs = [0.0] * (n + 1)
    ys = [0.0] * (n + 1)
    dxs = [0.0] * (n + 1)
    dys = [0.0] * (n + 1)
    xs[0] = math.log(history.value1(0.0))
    ys[0] = math.log(history.value2(0.0))
    exp = math.exp

    def lookup(p, vals, dvals):
        if p[0]:
            return p[1]
        _, i, w00, w10, w01, w11 = p
        return w00 * vals[i] + w10 * dvals[i] + w01 * vals[i + 1] + w11 * dvals[i + 1]

    def stage(j, xv):
        xs1 = lookup(p_s1[j], xs, dxs)
        xs2 = lookup(p_s2[j], xs, dxs)
        yt1 = lookup(p_t1[j], ys, dys)
        yt2 = lookup(p_t2[j], ys, dys)
        kx = a1[j] - b[j] * exp(xv) - c1[j] * exp(yt1) / (exp(xs1) + k1[j])
        ky = a2[j] - c2[j] * exp(yt2) / (exp(xs2) + k2[j])
        return kx, ky

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
