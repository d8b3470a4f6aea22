import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from lgholling import (InitialHistory, ModelSpec, Trajectory, ValidationError, ergodic_mean, integrate, integrate_batch,
                       pap0_trend, verify_permanence)
from lgholling.pap import solution_window_report
from lgholling.presets import preset_config
from conftest import shift_defect, varying_delay_model


def test_ergodic_mean_constant():
    for T in (1.0, 10.0, 500.0):
        assert ergodic_mean(lambda t: 3.0 + 0.0 * t, T, 2000) == pytest.approx(3.0, abs=1e-12)


def test_ergodic_mean_decaying_exponential():
    # closed form: (1/2T) * 2(1 - e^-T) = (1 - e^-T)/T
    got = ergodic_mean(lambda t: np.exp(-np.abs(t)), 100.0, 200_000)
    assert got == pytest.approx((1.0 - math.exp(-100.0)) / 100.0, abs=1e-6)


def test_ergodic_mean_abs_cos():
    got = ergodic_mean(lambda t: np.abs(np.cos(t)), 1e4, 2_000_000)
    assert got == pytest.approx(2.0 / math.pi, abs=1e-3)


@pytest.mark.parametrize("f", [lambda t: np.exp(-np.abs(t)), lambda t: np.cos(3.0 * t) - 0.2 * t,
                               lambda t: np.sqrt(np.abs(t)) * np.sin(t)], ids=["exp", "cos-trend", "sqrt-sin"])
@pytest.mark.parametrize("T, n", [(0.5, 2), (1.0, 4), (7.3, 1_000), (100.0, 200_000), (1e4, 4_002)])
def test_ergodic_mean_equals_scipy_simpson(f, T, n):
    vals = np.abs(f(np.linspace(-T, T, n + 1)))
    assert ergodic_mean(f, T, n) == float(simpson(vals, dx=2.0 * T / n) / (2.0 * T))


def test_ergodic_mean_argument_validation():
    with pytest.raises(ValueError):
        ergodic_mean(np.cos, 0.0, 100)
    with pytest.raises(ValueError):
        ergodic_mean(np.cos, 1.0, 101)  # odd n


def test_ergodic_mean_homogeneous():
    f = lambda t: np.cos(t) + 0.3
    base = ergodic_mean(f, 50.0, 40_000)
    scaled = ergodic_mean(lambda t: -2.5 * f(t), 50.0, 40_000)
    assert scaled == pytest.approx(2.5 * base, abs=1e-10)


def test_shift_defect_zero_shift_is_zero():
    grid = np.linspace(0.0, 50.0, 5001)
    assert shift_defect(np.cos, 0.0, grid) == 0.0


def test_shift_defect_exact_period():
    grid = np.linspace(0.0, 50.0, 5001)
    assert shift_defect(np.cos, 2.0 * math.pi, grid) <= 1e-12


def test_shift_defect_half_period():
    # |cos(t+pi) - cos t| = 2|cos t| peaks at 2
    grid = np.linspace(0.0, 50.0, 200_001)
    assert shift_defect(np.cos, math.pi, grid) == pytest.approx(2.0, abs=1e-9)


def test_shift_defect_quasi_periodic_near_period_exists():
    # for cos t + cos(sqrt2 t) some shift in a long window must be a good
    # epsilon-almost-period; coarse grid search refined around the winners
    f = lambda t: np.cos(t) + np.cos(math.sqrt(2.0) * t)
    grid = np.linspace(0.0, 100.0, 10_001)
    coarse = np.arange(1.0, 300.0, 0.25)
    defects = np.array([shift_defect(f, float(tau), grid) for tau in coarse])
    best = np.inf
    for tau0 in coarse[np.argsort(defects)[:5]]:
        for tau in np.arange(tau0 - 0.25, tau0 + 0.25, 0.01):
            best = min(best, shift_defect(f, float(tau), grid))
    assert best < 0.15


def test_pap0_trend_decaying():
    trend = pap0_trend(lambda t: np.exp(-np.abs(t)), (10.0, 100.0, 1000.0))
    assert trend.verdict == "vanishing"


def test_pap0_trend_constant_one():
    trend = pap0_trend(lambda t: np.ones_like(t), (10.0, 100.0, 1000.0))
    assert trend.verdict == "non-vanishing"


def test_pap0_trend_abs_cos():
    trend = pap0_trend(lambda t: np.abs(np.cos(t)), (10.0, 100.0, 1000.0))
    assert trend.verdict == "non-vanishing"
    assert trend.means[-1][1] == pytest.approx(2.0 / math.pi, abs=1e-2)


def test_pap0_trend_requires_increasing_list():
    with pytest.raises(ValueError):
        pap0_trend(np.cos, (10.0, 5.0))


def test_ergodic_decomposition_sanity():
    # adding a decaying part shifts the mean by O(1/T): the two means converge
    g = lambda t: np.abs(np.cos(t))
    f = lambda t: g(t) + np.exp(-np.abs(t))
    gaps = []
    for T in (10.0, 100.0, 1000.0):
        n = int(200 * T)
        gaps.append(abs(ergodic_mean(f, T, n) - ergodic_mean(g, T, n)))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1.1e-3  # (1 - e^-T)/T at T=1000 is 1e-3 on the nose


def test_solution_window_shift_search_equals_shift_defect(example1_spec):
    """The report's shift search, which interpolates u(t) once for all 200
    shifts, keeps the defects shift_defect gives on the window signal."""
    traj = integrate(example1_spec, InitialHistory(0.5, 0.5), 0.0, 60.0, 0.01)
    rep = solution_window_report(traj, 30.0, 60.0)
    mask = (traj.t >= 30.0) & (traj.t <= 60.0)
    times, u = traj.t[mask], traj.u[mask]
    base = times[times <= 45.0]
    defects = [(float(tau), shift_defect(lambda th: np.interp(th, times, u), tau, base))
               for tau in np.linspace(0.25, 15.0, 200)]
    assert rep.shift_defects == sorted(sorted(defects, key=lambda p: p[1])[:3])


def test_solution_window_shift_search_stays_inside_a_short_window(example2_spec):
    """On a window shorter than 0.5 the 200 shifts span (0, half]: none
    reads u past t_end, where np.interp would hold it at u(t_end)."""
    traj = integrate(example2_spec, InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)
    rep = solution_window_report(traj, 4.9, 5.0)
    half = 0.5 * (5.0 - 4.9)
    assert len(rep.shift_defects) == 3
    assert all(0.0 < tau <= half for tau, _ in rep.shift_defects)


@pytest.mark.parametrize("t_settle, t_end, message", [
    (10.0, 20.0, r"window \[10.0, 20.0\] is empty or off the run \[0.0, 5.0\]"),
    (4.0, 3.0, r"window \[4.0, 3.0\] is empty or off the run"),
    (4.995, 5.0, r"window \[4.995, 5.0\] holds 1 knot\(s\) of the run"),
])
def test_solution_window_report_names_a_window_it_cannot_read(unit_spec, t_settle, t_end, message):
    traj = integrate(unit_spec, InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no raw numpy warning on the way to the error
        with pytest.raises(ValidationError, match=message):
            solution_window_report(traj, t_settle, t_end)


def test_solution_window_report_reads_one_run(unit_spec, example2_bounds):
    runs = integrate_batch(unit_spec, [InitialHistory(0.5, 0.5), InitialHistory(0.75, 0.75)], 0.0, 5.0, 0.01)
    with pytest.raises(ValidationError, match=r"reads one run.*column\(i\)"):
        solution_window_report(runs, 2.0, 5.0)
    # verify_permanence reads the same window: a batch's columns are not merged into one run
    with pytest.raises(ValidationError, match=r"reads one run.*column\(i\)"):
        verify_permanence(runs, example2_bounds, 2.0, 5.0)
    # the trend reads the column's window [2, 5]: half-width 1.5 and its 1/8, 1/4 and 1/2
    assert [T for T, _ in solution_window_report(runs.column(1), 2.0, 5.0).ergodic_means] == [0.1875, 0.375, 0.75, 1.5]


def per_shift_defects(traj, t_settle, t_end):
    """The reference shift search: each of the 200 shifts measured over the whole base, the
    three least defects kept (ties in shift order), sorted by shift."""
    mask = traj.window(t_settle, t_end)
    times, u = traj.t[mask], traj.u[mask]
    half = 0.5 * (t_end - t_settle)
    base = times[times <= t_end - half]
    u_base = np.interp(base, times, u)
    candidates = np.linspace(0.25 if half >= 0.25 else half / 200.0, half, 200)
    defects = [(float(tau), float(np.abs(np.interp(base + tau, times, u) - u_base).max())) for tau in candidates]
    defects.sort(key=lambda p: p[1])
    return sorted(defects[:3])


def signal_run(u, h=0.01):
    """A one-column Trajectory on [0, (len(u) - 1) h] whose knots hold the signal u."""
    knots = np.zeros((2, 2, len(u) + 1))
    knots[0, 0, :-1] = np.log(u)
    return Trajectory(0.0, (len(u) - 1) * h, h, h * np.arange(len(u)), knots, (InitialHistory(1.0, 1.0),), 0.0)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_bounded_shift_search_equals_every_shift_measured_on_the_presets(name):
    config = preset_config(name)
    run = config["run"]
    history = InitialHistory(config["history"]["phi1"], config["history"]["phi2"])
    traj = integrate(ModelSpec.from_strings(config["model"]), history, run["t0"], run["t_end"], run["h"])
    rep = solution_window_report(traj, run["t_settle"], run["t_end"])
    assert rep.shift_defects == per_shift_defects(traj, run["t_settle"], run["t_end"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bounded_shift_search_equals_every_shift_measured_with_varying_delays(seed):
    traj = integrate(ModelSpec.from_strings(varying_delay_model(seed)), InitialHistory(0.5, 0.5), 0.0, 100.0, 0.01)
    assert solution_window_report(traj, 50.0, 100.0).shift_defects == per_shift_defects(traj, 50.0, 100.0)


def test_bounded_shift_search_keeps_the_first_three_of_200_tied_shifts():
    traj = signal_run(np.full(3001, 0.7))
    rep = solution_window_report(traj, 0.0, 30.0)
    assert rep.shift_defects == per_shift_defects(traj, 0.0, 30.0)
    assert [d for _, d in rep.shift_defects] == [0.0, 0.0, 0.0]
    assert [tau for tau, _ in rep.shift_defects] == np.linspace(0.25, 15.0, 200)[:3].tolist()


@pytest.mark.parametrize("seed", range(8))
def test_bounded_shift_search_equals_every_shift_measured_on_random_signals(seed):
    """Noise, noise rounded to a few levels (ties among the defects), and a noisy
    quasi-periodic signal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 4000))
    t = 0.01 * np.arange(n)
    signals = (rng.uniform(0.1, 2.0, n), np.round(rng.uniform(0.1, 2.0, n), 1),
               1.0 + 0.5 * np.sin(rng.uniform(0.5, 3.0) * t) * np.cos(rng.uniform(0.5, 3.0) * t)
               + 1e-3 * rng.normal(size=n))
    for u in signals:
        traj = signal_run(u)
        t_settle = float(rng.uniform(0.0, 0.3)) * traj.t_end
        assert solution_window_report(traj, t_settle, traj.t_end).shift_defects == \
            per_shift_defects(traj, t_settle, traj.t_end)


def test_bounded_shift_search_measures_a_shift_whose_bound_equals_the_third_defect():
    """One spike at a base knot off the every-32nd subsample gives every shift the same defect,
    its height; only the first shift reads the spike from the subsample, so its bound equals that
    defect. It must still be measured: it ties the others and comes first in shift order."""
    h = 2.0**-5  # 0.25 = 8 h: knot 32 m + 8 is exactly knot 32 m shifted by the first candidate
    u = np.ones(2001)
    u[32 * 10 + 8] = 2.0
    traj = signal_run(u, h)
    rep = solution_window_report(traj, 0.0, traj.t_end)
    assert rep.shift_defects == per_shift_defects(traj, 0.0, traj.t_end)
    assert [tau for tau, _ in rep.shift_defects] == np.linspace(0.25, 31.25, 200)[:3].tolist()
