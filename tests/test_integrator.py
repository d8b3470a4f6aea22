import math

import numpy as np
import pytest

from lgholling import (
    ExprDomainError,
    InitialHistory,
    parse_expression,
    IntegrationError,
    ModelSpec,
    integrate,
    integrate_batch,
    integrator,
    sample_state,
)
from lgholling.presets import preset_config
from conftest import make_spec, order_check, reference_rk4


def logistic_spec(**overrides):
    base = {"a1": "1", "a2": "1", "b": "1", "c1": "0", "c2": "0", "k1": "1", "k2": "1"}
    base |= {s: "0.5" for s in ("tau1", "tau2", "sigma1", "sigma2")}
    base |= overrides
    return ModelSpec.from_strings(base)


def logistic(t, u0=0.5):
    return 1.0 / (1.0 + (1.0 - u0) / u0 * math.exp(-t))


def test_logistic_closed_form():
    traj = integrate(logistic_spec(), InitialHistory(0.5, 0.5), 0.0, 10.0, 0.01)
    assert abs(traj.u[-1] - logistic(10.0)) < 1e-6


def test_zero_length_run():
    traj = integrate(logistic_spec(), InitialHistory(0.5, 0.25), 0.0, 0.0, 0.01)
    assert traj.t_end == traj.t0
    assert len(traj.t) == 1
    assert sample_state(traj, 0.0) == (pytest.approx(0.5), pytest.approx(0.25))


def test_example1_positivity(example1_spec):
    traj = integrate(example1_spec, InitialHistory(0.5, 0.5), 0.0, 50.0, 0.01)
    assert traj.u.min() > 0.0
    assert traj.v.min() > 0.0


def test_sample_state_exact_at_knots():
    traj = integrate(logistic_spec(), InitialHistory(0.5, 0.5), 0.0, 5.0, 0.05)
    for k in (0, 1, 37, 100):
        u, v = sample_state(traj, float(traj.t[k]))
        assert u == math.exp(traj.x[k])
        assert v == math.exp(traj.y[k])


def test_sample_state_history_region():
    traj = integrate(logistic_spec(), InitialHistory(0.7, 0.3), 0.0, 2.0, 0.05)
    u, v = sample_state(traj, -traj.r / 2.0)
    assert (u, v) == (0.7, 0.3)


def test_sample_state_midpoint_accuracy():
    traj = integrate(logistic_spec(), InitialHistory(0.5, 0.5), 0.0, 10.0, 0.01)
    t = 5.005  # midpoint between knots
    u, _ = sample_state(traj, t)
    assert abs(u - logistic(t)) < 1e-6


def test_sample_state_domain_errors():
    traj = integrate(logistic_spec(), InitialHistory(0.5, 0.5), 0.0, 1.0, 0.05)
    with pytest.raises(IntegrationError):
        sample_state(traj, 1.5)
    with pytest.raises(IntegrationError):
        sample_state(traj, -10.0)


def test_sample_state_refuses_a_batch():
    spec = make_spec("example2")
    runs = integrate_batch(spec, [InitialHistory(0.5, 0.5), InitialHistory(0.75, 0.75)], 0.0, 5.0, 0.01)
    for t in (1.0, -0.5):
        with pytest.raises(IntegrationError, match=r"one run.*column\(i\)"):
            sample_state(runs, t)
    assert sample_state(runs.column(1), 1.0) == sample_state(
        integrate(spec, InitialHistory(0.75, 0.75), 0.0, 5.0, 0.01), 1.0)


def test_history_consistency_on_left_interval():
    hist = InitialHistory(0.8, 0.6)
    traj = integrate(logistic_spec(), hist, 0.0, 1.0, 0.05)
    for t in np.linspace(-traj.r, 0.0, 7)[:-1]:
        u, v = sample_state(traj, float(t))
        assert abs(u - 0.8) <= 1e-12
        assert abs(v - 0.6) <= 1e-12


def test_determinism_bit_identical():
    spec = logistic_spec(c1="0.3", c2="0.4")
    a = integrate(spec, InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)
    b = integrate(spec, InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(a.dx, b.dx) and np.array_equal(a.dy, b.dy)


def test_step_larger_than_delay_rejected():
    with pytest.raises(IntegrationError, match="smallest delay"):
        integrate(logistic_spec(), InitialHistory(0.5, 0.5), 0.0, 5.0, 0.6)


def test_overflow_reported_with_time():
    spec = logistic_spec(a2="200", c2="1e-300")
    with pytest.raises(IntegrationError, match="overflow at t="):
        integrate(spec, InitialHistory(0.5, 0.5), 0.0, 10.0, 0.01)


@pytest.mark.parametrize("overrides, t_ref", [
    ({"a2": "200", "c2": "1e-300"}, 3.6),  # y runs up past the guard
    ({"c1": "300"}, 8.0),                  # x runs down past it
])
def test_overflow_time_is_the_first_knot_past_the_guard(overrides, t_ref):
    spec = logistic_spec(**overrides)
    hist = InitialHistory(0.5, 0.5)
    x, y, _, _ = reference_rk4(spec, hist, 0.0, t_ref, 0.01)
    k = int(np.flatnonzero((np.abs(x) >= 700.0) | (np.abs(y) >= 700.0))[0])
    with pytest.raises(IntegrationError, match=f"overflow at t={k * 0.01!r}$"):
        integrate(spec, hist, 0.0, 10.0, 0.01)


@pytest.mark.parametrize("t0, t_end, h, name", [
    (math.nan, 10.0, 0.01, "t0"),
    (0.0, math.inf, 0.01, "t_end"),
    (0.0, 10.0, math.nan, "step h"),
    (0.0, 10.0, math.inf, "step h"),
])
def test_nonfinite_time_arguments_rejected(t0, t_end, h, name):
    with pytest.raises(IntegrationError, match=f"{name} must be finite"):
        integrate(logistic_spec(), InitialHistory(0.5, 0.5), t0, t_end, h)


def test_batch_matches_single_runs(example2_spec):
    rng = np.random.default_rng(11)
    # a value on which np.log and math.log differ in the last bit, if this
    # platform has one, so a batch that took its logs another way would show
    odd = next((float(v) for v in np.linspace(0.5, 1.5, 2001) if np.log(v) != math.log(v)), 0.7)
    hists = np.vstack([[0.5, 0.5], [odd, odd], rng.uniform(0.05, 2.0, size=(3, 2))])
    batch = integrate_batch(example2_spec, [InitialHistory(u0, v0) for u0, v0 in hists.tolist()], 0.0, 5.0, 0.01)
    for i in range(len(hists)):
        single = integrate(example2_spec, InitialHistory(*map(float, hists[i])), 0.0, 5.0, 0.01)
        for got, want in zip((batch.x, batch.y, batch.dx, batch.dy), (single.x, single.y, single.dx, single.dy)):
            assert np.array_equal(got[:, i], want)


ORACLE_PREDATION = {"c1": "0.3", "c2": "0.4", "a2": "0.5"}


def seeded_varying_delay_spec(seed: int) -> ModelSpec:
    """Time-varying coefficients and four distinct time-varying delays
    d0 + d1 sin(w t + p), all at least 0.3."""
    rng = np.random.default_rng(seed)
    coeffs = {
        "a1": f"{rng.uniform(0.8, 1.2)!r} + 0.2*abs(cos({rng.uniform(0.5, 2.0)!r}*t))",
        "a2": f"{rng.uniform(0.3, 0.6)!r} + 0.1*abs(sin({rng.uniform(0.5, 2.0)!r}*t))",
        "b": f"{rng.uniform(0.8, 1.2)!r} + 0.2*cos(t)",
        "c1": f"{rng.uniform(0.2, 0.4)!r}", "c2": f"{rng.uniform(0.3, 0.5)!r}",
        "k1": "1", "k2": f"1 + 0.3*sin({rng.uniform(0.5, 2.0)!r}*t)",
    }
    for sym in ("tau1", "tau2", "sigma1", "sigma2"):
        d0 = rng.uniform(0.4, 0.9)
        coeffs[sym] = f"{d0!r} + {0.1 * d0!r}*sin({rng.uniform(0.5, 3.0)!r}*t + {rng.uniform(0.0, 6.0)!r})"
    return ModelSpec.from_strings(coeffs)


ORACLE_CASES = {
    # name: (spec, history, t0, t_end, h)
    "varying-delay": (seeded_varying_delay_spec(7), InitialHistory(0.6, 0.4), 0.0, 30.0, 0.01),
    "h-equals-min-delay": (logistic_spec(**ORACLE_PREDATION, tau1="0.05", tau2="0.07", sigma1="0.06",
                                         sigma2="0.05"), InitialHistory(0.4, 0.3), 0.0, 10.0, 0.05),
    "delay-off-grid": (logistic_spec(**ORACLE_PREDATION, tau1="0.537", tau2="0.6131", sigma1="0.7293",
                                     sigma2="0.4489"), InitialHistory(0.4, 0.3), 0.0, 20.0, 0.01),
    "expression-history": (logistic_spec(**ORACLE_PREDATION),
                           InitialHistory(parse_expression("0.5 + 0.2*t"), parse_expression("0.3*exp(t)")),
                           0.0, 10.0, 0.01),
    "history-zero-on-left": (logistic_spec(**ORACLE_PREDATION),
                             InitialHistory(parse_expression("(t + 0.25 + abs(t + 0.25))/2"), 0.5),
                             0.0, 5.0, 0.01),
    "t0-nonzero": (seeded_varying_delay_spec(3), InitialHistory(0.5, 0.5), 3.7, 23.7, 0.01),
    # channels with the same component and delay share one plan and read
    "four-equal-varying-delays": (logistic_spec(**ORACLE_PREDATION, **dict.fromkeys(
        ("tau1", "tau2", "sigma1", "sigma2"), "0.55 + 0.1*sin(1.7*t)")), InitialHistory(0.4, 0.3), 0.0, 20.0, 0.01),
    "sigmas-equal-taus-equal": (logistic_spec(**ORACLE_PREDATION, tau1="0.6131", tau2="0.6131", sigma1="0.4489",
                                              sigma2="0.4489"), InitialHistory(0.4, 0.3), 0.0, 20.0, 0.01),
    "sigma1-text-equals-tau1": (logistic_spec(**ORACLE_PREDATION, tau1="0.5 + 0.1*cos(t)", tau2="0.7",
                                              sigma1="0.5 + 0.1*cos(t)", sigma2="0.45"),
                                InitialHistory(0.4, 0.3), 0.0, 20.0, 0.01),
    "shared-delays-expression-history": (logistic_spec(**ORACLE_PREDATION, tau1="0.45", tau2="0.45",
                                                       sigma1="0.3", sigma2="0.3"),
                                         InitialHistory(parse_expression("0.5 + 0.2*t"), parse_expression("0.3*exp(t)")),
                                         0.0, 10.0, 0.01),
}


def assert_knots_equal(traj, reference):
    for name, got, want in zip(("x", "y", "dx", "dy"), (traj.x, traj.y, traj.dx, traj.dy), reference):
        assert np.array_equal(got, want), f"{name} differs by {np.abs(got - want).max():.3e}"


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_knots_equal_reference_rk4(case):
    spec, hist, t0, t_end, h = ORACLE_CASES[case]
    assert_knots_equal(integrate(spec, hist, t0, t_end, h), reference_rk4(spec, hist, t0, t_end, h))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_preset_knots_equal_reference_rk4(name):
    spec, hist = make_spec(name), InitialHistory(0.5, 0.5)
    assert_knots_equal(integrate(spec, hist, 0.0, 200.0, 0.01), reference_rk4(spec, hist, 0.0, 200.0, 0.01))


@pytest.mark.parametrize("spec, rows", [
    (make_spec("example1"), 2),
    (make_spec("example2"), 2),
    (seeded_varying_delay_spec(7), 4),
])
def test_each_distinct_delayed_argument_is_exponentiated_once(monkeypatch, spec, rows):
    """The presets set all four delays equal, so the kernel reads and
    exponentiates one u row and one v row; four distinct delays keep four."""
    seen = []
    exp = integrator._exp

    def counting(a):
        seen.append(a.shape[0])
        return exp(a)

    monkeypatch.setattr(integrator, "_exp", counting)
    integrate(spec, InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)
    assert seen and set(seen) == {rows}


def test_first_delay_error_is_the_first_channel_that_raises():
    """Delays are evaluated in channel order sigma1, sigma2, tau1, tau2: a
    raising sigma2 is reported even though tau1 fails earlier in time."""
    spec = logistic_spec(**ORACLE_PREDATION, sigma2="0.4 + 0.1*sqrt(3 - t)", tau1="0.4 + 0.1*sqrt(2 - t)")
    with pytest.raises(ExprDomainError, match=r"^sqrt of negative value at t=3\.005$"):
        integrate(spec, InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)


def test_smallest_delay_message_with_shared_delays():
    spec = logistic_spec(**dict.fromkeys(("tau1", "tau2", "sigma1", "sigma2"), "0.5 + 0.1*sin(t)"))
    with pytest.raises(IntegrationError, match=r"^step h=0\.45 exceeds the smallest delay 0\.40000795178539983; "):
        integrate(spec, InitialHistory(0.5, 0.5), 0.0, 5.0, 0.45)


def assert_same_run(got, want):
    for name in ("t", "x", "y", "dx", "dy"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.t0, got.t_end, got.h, got.r, got.histories) == (want.t0, want.t_end, want.h, want.r, want.histories)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_pipeline_histories_in_one_call_equal_lone_runs(name):
    """The pipeline integrates its history and the attractivity history as
    two columns of one kernel call; each column is the lone run."""
    config = preset_config(name)
    spec, run = make_spec(name), config["run"]
    hists = [InitialHistory(config["history"]["phi1"], config["history"]["phi2"]),
             InitialHistory(*config["options"]["attractivity_history"])]
    batch = integrate_batch(spec, hists, run["t0"], run["t_end"], run["h"])
    for i, hist in enumerate(hists):
        assert_same_run(batch.column(i), integrate(spec, hist, run["t0"], run["t_end"], run["h"]))


def test_expression_history_beside_a_constant_one_equals_lone_runs(example2_spec):
    hists = [InitialHistory(parse_expression("0.5 + 0.1*cos(t)"), parse_expression("0.4*exp(t)")),
             InitialHistory(0.75, 0.75)]
    batch = integrate_batch(example2_spec, hists, 0.0, 20.0, 0.01)
    assert np.array_equal(batch.t, 0.01 * np.arange(2001))
    for i, hist in enumerate(hists):
        assert_same_run(batch.column(i), integrate(example2_spec, hist, 0.0, 20.0, 0.01))


def test_batch_column_carries_its_history_and_minimum(example2_spec):
    hists = [InitialHistory(0.5, 0.5), InitialHistory(parse_expression("0.3 + 0.1*sin(t)"), 0.05),
             InitialHistory(1.7, 0.9)]
    batch = integrate_batch(example2_spec, hists, 0.0, 10.0, 0.01)
    assert batch.histories == tuple(hists)
    assert batch.x.shape == (1001, 3) and batch.min_uv().shape == (3,)
    for i, hist in enumerate(hists):
        col = batch.column(i)
        assert col.histories == (hist,)
        assert col.x.shape == (1001,)
        assert col.min_uv() == batch.min_uv()[i]


def test_batch_positivity_random_histories(example1_spec):
    rng = np.random.default_rng(5)
    hists = [InitialHistory(u0, v0) for u0, v0 in rng.uniform(0.05, 2.0, size=(25, 2)).tolist()]
    batch = integrate_batch(example1_spec, hists, 0.0, 30.0, 0.01)
    assert (batch.min_uv() > 0.0).all()


def test_batch_rejects_nonpositive_history(example1_spec):
    with pytest.raises(IntegrationError):
        integrate_batch(example1_spec, [InitialHistory(0.5, 0.0)], 0.0, 1.0, 0.01)


def test_time_shift_invariance_for_autonomous_coefficients():
    # constant coefficients: starting at t0=5 reproduces the t0=0 run
    spec = logistic_spec(c1="0.3", c2="0.4")
    a = integrate(spec, InitialHistory(0.5, 0.5), 0.0, 10.0, 0.01)
    b = integrate(spec, InitialHistory(0.5, 0.5), 5.0, 15.0, 0.01)
    assert np.abs(a.u - b.u).max() < 1e-12
    assert np.abs(a.v - b.v).max() < 1e-12


def test_expression_history():
    spec = logistic_spec(c1="0.3", c2="0.4")
    hist = InitialHistory(parse_expression("0.5 + 0.2*t"), parse_expression("0.3*exp(t)"))
    traj = integrate(spec, hist, 0.0, 2.0, 0.01)
    assert traj.u.min() > 0.0
    u, v = sample_state(traj, -0.25)
    assert u == pytest.approx(0.45, abs=1e-12)
    assert v == pytest.approx(0.3 * math.exp(-0.25), abs=1e-12)


def test_history_zero_on_the_left_is_allowed():
    # phi may vanish for theta < 0 as long as phi(0) > 0; delayed predation
    # terms then simply drop out early on
    spec = logistic_spec(c1="0.3", c2="0.4")
    ramp = parse_expression("(t + 0.25 + abs(t + 0.25))/2")  # exactly 0 for t <= -0.25
    hist = InitialHistory(ramp, 0.5)
    assert hist.value1(-0.5) == 0.0
    traj = integrate(spec, hist, 0.0, 2.0, 0.01)
    assert traj.u.min() > 0.0
    assert traj.v.min() > 0.0


def test_against_independent_method_of_steps(example2_spec):
    # independent oracle: classic method of steps with scipy's adaptive RK45
    # and a spline history chain, advanced one delay-window at a time
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline

    sqrt2, sqrt5 = math.sqrt(2.0), math.sqrt(5.0)
    tau = 0.92

    def rhs(t, y, past):
        u, v = y
        ud, vd = past(t - tau)
        a1 = 4.8 + 0.25 * abs(math.cos(sqrt2 * t))
        b = 0.25 * abs(math.cos(t)) + (33.72 + 32.72 * t * t) / (4.0 + 4.0 * t * t)
        a2 = 0.03 + 0.125 * (abs(math.sin(sqrt2 * t)) + abs(math.cos(sqrt5 * t)))
        du = (a1 - b * u - 0.32 * vd / (ud + 16.7)) * u
        dv = (a2 - 3.6 * vd / (ud + 5.7)) * v
        return [du, dv]

    knots_t = [-tau, 0.0]
    knots_y = [[0.5, 0.5], [0.5, 0.5]]
    t_final = 10.0
    t_now = 0.0
    y_now = [0.5, 0.5]
    while t_now < t_final - 1e-12:
        t_next = min(t_now + tau, t_final)
        hist = CubicSpline(np.array(knots_t), np.array(knots_y), axis=0)

        def past(s):
            return hist(min(max(s, knots_t[0]), t_now))

        sol = solve_ivp(rhs, (t_now, t_next), y_now, args=(past,),
                        rtol=1e-10, atol=1e-12, dense_output=True, max_step=tau / 8)
        for ts in np.linspace(t_now, t_next, 24)[1:]:
            knots_t.append(float(ts))
            knots_y.append([float(x) for x in sol.sol(ts)])
        t_now = t_next
        y_now = [float(x) for x in sol.y[:, -1]]

    traj = integrate(example2_spec, InitialHistory(0.5, 0.5), 0.0, t_final, 0.01)
    assert abs(traj.u[-1] - y_now[0]) < 5e-5
    assert abs(traj.v[-1] - y_now[1]) < 5e-5


def test_order_check_smooth_run():
    spec = logistic_spec(c1="1e-9", c2="1e-9")
    oc = order_check(spec, InitialHistory(0.5, 0.5), 0.0, 10.0, 0.1)
    assert not oc.plateau
    assert 12.0 <= oc.ratio <= 20.0


def test_order_check_delay_active_smooth():
    # constant coefficients, O(1) predation, grid-aligned breaking points:
    # the Hermite delayed lookups are exercised and order 4 survives
    spec = ModelSpec.from_strings({
        "a1": "1", "a2": "0.5", "b": "1", "c1": "0.3", "c2": "0.4", "k1": "1", "k2": "1",
        "tau1": "0.5", "tau2": "0.5", "sigma1": "0.5", "sigma2": "0.5",
    })
    oc = order_check(spec, InitialHistory(0.4, 0.3), 0.0, 10.0, 0.1)
    assert 12.0 <= oc.ratio <= 20.0


def test_order_check_plateau_flag():
    spec = logistic_spec(c1="1e-9", c2="1e-9")
    oc = order_check(spec, InitialHistory(0.5, 0.5), 0.0, 1.0, 0.002)
    assert oc.plateau


def test_order_check_example2_kink_window(example2_spec):
    # |cos|-type coefficients have derivative kinks off the grid; classical
    # RK4 drops to ~order 2 across them, so long windows sit far below the
    # clean 2^4 ratio.  Documented behavior, not a regression.
    oc = order_check(example2_spec, InitialHistory(0.5, 0.5), 0.0, 20.0, 0.02)
    assert not oc.plateau
    assert 1.5 <= oc.ratio <= 10.0
