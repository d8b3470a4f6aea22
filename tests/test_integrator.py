import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from lgholling import (
    ExprDomainError,
    InitialHistory,
    parse_expression,
    IntegrationError,
    ModelSpec,
    NumericalError,
    integrate,
    integrate_batch,
    integrator,
)
from lgholling.presets import preset_config
from conftest import hermite_plan, make_spec, order_check, reference_bernoulli, reference_rk4


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
    assert np.exp(traj.at(0.0)) == pytest.approx([0.5, 0.25])
    # knot 0's slopes are read at stage 0 even with no step to take
    longer = integrate(logistic_spec(), InitialHistory(0.5, 0.25), 0.0, 1.0, 0.01)
    assert (traj.dx[0], traj.dy[0]) == (longer.dx[0], longer.dy[0])
    assert traj.dx[0] != 0.0 and traj.dy[0] != 0.0


def test_example1_positivity(example1_spec):
    traj = integrate(example1_spec, InitialHistory(0.5, 0.5), 0.0, 50.0, 0.01)
    assert traj.u.min() > 0.0
    assert traj.v.min() > 0.0


def test_at_exact_at_knots():
    traj = integrate(logistic_spec(), InitialHistory(0.5, 0.5), 0.0, 5.0, 0.05)
    ks = [0, 1, 37, 100]
    x, y = traj.at(traj.t[ks])
    assert np.array_equal(x, traj.x[ks]) and np.array_equal(y, traj.y[ks])


def test_at_history_region():
    traj = integrate(logistic_spec(), InitialHistory(0.7, 0.3), 0.0, 2.0, 0.05)
    x, y = traj.at(-traj.r / 2.0)
    assert (x.shape, float(x), float(y)) == ((), math.log(0.7), math.log(0.3))


def test_at_midpoint_accuracy():
    traj = integrate(logistic_spec(), InitialHistory(0.5, 0.5), 0.0, 10.0, 0.01)
    t = 5.005  # midpoint between knots
    x, _ = traj.at(t)
    assert abs(math.exp(x) - logistic(t)) < 1e-6


def test_at_domain_errors():
    traj = integrate(logistic_spec(), InitialHistory(0.5, 0.5), 0.0, 1.0, 0.05)
    for times in (1.5, -10.0, [0.5, 1.5], np.nan):
        with pytest.raises(IntegrationError, match=re.escape(f"[{traj.t0 - traj.r}, {traj.t_end}]")):
            traj.at(times)


def test_at_equals_scalar_hermite_reference():
    """at reads the knots with the scalar Hermite plan of the reference
    oracles, bit for bit, and the history before t0 exactly, on times that
    mix history, knots and points between knots; column 1 of a batch reads
    as the single run from the same history."""
    spec = make_spec("example2")
    hist = InitialHistory(parse_expression("0.75 + 0.1*t"), parse_expression("0.75*exp(t)"))
    traj = integrate(spec, hist, 0.0, 5.0, 0.01)
    runs = integrate_batch(spec, [InitialHistory(0.5, 0.5), hist], 0.0, 5.0, 0.01)
    times = np.concatenate([np.linspace(-traj.r, 0.0, 6), traj.t[[1, 250, 499, 500]],
                            np.random.default_rng(4).uniform(0.0, 5.0, 40), [2.505, 5.0 + 1e-10]])
    got = traj.at(times)
    for t, x, y in zip(times, *got):
        if t < 0.0:
            want = (math.log(hist.phi1(t)), math.log(hist.phi2(t)))
        else:
            i, w00, w10, w01, w11 = hermite_plan(min(t, traj.t_end) / 0.01, 0.01)  # t_end + 1e-10 reads t_end
            want = tuple(w00 * v[i] + w10 * dv[i] + w01 * v[i + 1] + w11 * dv[i + 1]
                         for v, dv in ((traj.x, traj.dx), (traj.y, traj.dy)))
        assert (x, y) == want, t
    assert (got[0][-1], got[1][-1]) == (traj.x[-1], traj.y[-1])
    for a, b in zip(runs.at(times, column=1), got):
        assert np.array_equal(a, b)


def test_history_consistency_on_left_interval():
    hist = InitialHistory(0.8, 0.6)
    traj = integrate(logistic_spec(), hist, 0.0, 1.0, 0.05)
    u, v = np.exp(traj.at(np.linspace(-traj.r, 0.0, 7)[:-1]))
    assert np.abs(u - 0.8).max() <= 1e-12
    assert np.abs(v - 0.6).max() <= 1e-12


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
    x, y, _, _ = reference_bernoulli(spec, hist, 0.0, t_ref, 0.01)
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


@pytest.mark.parametrize("overrides, hist, t_end, h, message", [
    ({}, (0.5, 0.5), 10.0, 0.0, "step h must be > 0"),
    ({}, (0.5, 0.5), -1.0, 0.01, "t_end must be >= t0"),
    ({"tau1": "0.5 - t"}, (0.5, 0.5), 10.0, 0.01, "delays must stay positive on the integration window"),
    ({}, ("0.5 + 10*t", 0.5), 10.0, 0.01, "history phi1 must be >= 0, got -4.5"),
], ids=["zero-step", "end-before-start", "delay-reaches-zero", "negative-history"])
def test_integrate_refuses_a_run_it_cannot_make(overrides, hist, t_end, h, message):
    history = InitialHistory(*hist)
    with pytest.raises(IntegrationError, match=f"^{re.escape(message)}$"):
        integrate(logistic_spec(**overrides), history, 0.0, t_end, h)


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


def assert_knots_close(traj, reference, tol=1e-12):
    """Knots within tol of the reference's, relative to max(|knot|, 1): the
    one-step reference and the kernel's running sums round differently, and
    a slope near 0 is the difference of terms of order 1."""
    for name, got, want in zip(("x", "y", "dx", "dy"), (traj.x, traj.y, traj.dx, traj.dy), reference):
        err = float((np.abs(got - want) / np.maximum(np.abs(want), 1.0)).max())
        assert err <= tol, f"{name} differs by {err:.3e}"


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_knots_match_reference_bernoulli(case):
    """1.5e-15 at most, measured."""
    spec, hist, t0, t_end, h = ORACLE_CASES[case]
    assert_knots_close(integrate(spec, hist, t0, t_end, h), reference_bernoulli(spec, hist, t0, t_end, h))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_preset_knots_match_reference_bernoulli(name):
    spec, hist = make_spec(name), InitialHistory(0.5, 0.5)
    assert_knots_close(integrate(spec, hist, 0.0, 200.0, 0.01), reference_bernoulli(spec, hist, 0.0, 200.0, 0.01))


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_knots_are_within_rk4s_own_error_of_reference_rk4(case):
    """RK4 stays the oracle for RK4: the Bernoulli step's knots sit no farther
    from RK4's than twice RK4's own error, estimated by RK4 at h/2, over the
    first 600 steps (0.92 of it at most, measured)."""
    spec, hist, t0, t_end, h = ORACLE_CASES[case]
    t_end = min(t_end, t0 + 600 * h)
    traj = integrate(spec, hist, t0, t_end, h)
    coarse, fine = reference_rk4(spec, hist, t0, t_end, h), reference_rk4(spec, hist, t0, t_end, h / 2)
    rk4_error = max(np.abs(c - f[::2]).max() for c, f in zip(coarse[:2], fine[:2]))
    assert max(np.abs(traj.x - coarse[0]).max(), np.abs(traj.y - coarse[1]).max()) <= 2.0 * rk4_error


@pytest.mark.parametrize("spec, rows", [
    (make_spec("example1"), 2),
    (make_spec("example2"), 2),
    (seeded_varying_delay_spec(7), 4),
])
def test_each_distinct_delayed_argument_is_exponentiated_once(monkeypatch, spec, rows):
    """The presets set all four delays equal, so the kernel reads and
    exponentiates one u key and one v key, and both delayed terms divide by
    a view of that one array, its keys on the axis before the stages; four
    distinct delays keep four keys."""
    seen = []
    delayed_term = integrator.delayed_term

    def recording(num, u_delayed, k, t, name):
        seen.append(u_delayed.base.shape[-2])
        return delayed_term(num, u_delayed, k, t, name)

    monkeypatch.setattr(integrator, "delayed_term", recording)
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


@functools.lru_cache(maxsize=None)
def reference_knots(case):
    spec, hist, t0, t_end, h = ORACLE_CASES[case]
    return reference_bernoulli(spec, hist, t0, t_end, h)


@pytest.mark.parametrize("steps", [1, 2, 7, 64])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_block_size_does_not_move_a_knot(monkeypatch, case, steps):
    """A window cut at a block's end goes on in the next block with the same
    running sums, so every block size gives the default block's floats.  A
    run of k steps is the first k steps of a longer one, so the small blocks
    run 150 blocks of each case (64-step blocks run it whole)."""
    spec, hist, t0, t_end, h = ORACLE_CASES[case]
    k = min(int(round((t_end - t0) / h)), 150 * steps)
    default = integrate(spec, hist, t0, t0 + k * h, h)
    monkeypatch.setattr(integrator, "_PLAN_STEPS", steps)
    traj = integrate(spec, hist, t0, t0 + k * h, h)
    assert_same_run(traj, default)
    assert_knots_close(traj, [a[:k + 1] for a in reference_knots(case)])


def test_block_size_does_not_move_a_batch(monkeypatch, example2_spec):
    hists = [InitialHistory(parse_expression("0.5 + 0.1*cos(t)"), parse_expression("0.4*exp(t)")),
             InitialHistory(0.75, 0.75), InitialHistory(1.7, 0.2)]
    default = integrate_batch(example2_spec, hists, 0.0, 4.0, 0.01)
    for steps in (1, 2, 7, 64):
        monkeypatch.setattr(integrator, "_PLAN_STEPS", steps)
        assert_same_run(integrate_batch(example2_spec, hists, 0.0, 4.0, 0.01), default)


def test_block_size_one_raises_the_first_failing_blocks_error(monkeypatch):
    """In 1-step blocks, tau1's sqrt fails in the block of t = 2.005, before
    sigma2's block of t = 3.005 is planned, and the step check reads the
    smallest delay of the first block where it is below h, 0.4211... at
    t = 4.05, not the run's smallest, 0.4022... at t = 4.5 (see the two
    tests above for one block)."""
    monkeypatch.setattr(integrator, "_PLAN_STEPS", 1)
    spec = logistic_spec(**ORACLE_PREDATION, sigma2="0.4 + 0.1*sqrt(3 - t)", tau1="0.4 + 0.1*sqrt(2 - t)")
    with pytest.raises(ExprDomainError, match=r"^sqrt of negative value at t=2\.005$"):
        integrate(spec, InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)
    spec = logistic_spec(**dict.fromkeys(("tau1", "tau2", "sigma1", "sigma2"), "0.5 + 0.1*sin(t)"))
    with pytest.raises(IntegrationError, match=r"^step h=0\.45 exceeds the smallest delay 0\.4211474745573805; "):
        integrate(spec, InitialHistory(0.5, 0.5), 0.0, 4.5, 0.45)


# 1/t divides by zero at stage 0, in the first 256-step block; sqrt(30 - t)
# fails at t = 30.005, in a later one
SQRT_THEN_DIVISION = "0*sqrt(30 - t) + 0*(1/t)"


@pytest.mark.parametrize("overrides, message", [
    ({"sigma1": "0.5 + " + SQRT_THEN_DIVISION}, "division by zero at t=0.0"),
    ({"k2": "1 + " + SQRT_THEN_DIVISION}, "division by zero at t=0.0"),
    ({"c2": "0.4 + sqrt(35 - t)", "tau2": "0.5 + 0*(1/t)"}, "division by zero at t=0.0"),
    ({"c2": "0.4 + sqrt(35 - t)", "b": "1 + 0*(1/(t - 32))"}, "division by zero at t=32.0"),
    # within one block [30.72, 33.28] the coefficients go in _COEFFS order, so
    # b's error at t = 33 outranks c2's earlier one at t = 32.505
    ({"c2": "0.4 + sqrt(32.5 - t)", "b": "1 + 0*(1/(t - 33))"}, "division by zero at t=33.0"),
])
def test_domain_error_is_the_first_failing_blocks(monkeypatch, overrides, message):
    monkeypatch.setattr(integrator, "_PLAN_STEPS", 256)
    spec = logistic_spec(**ORACLE_PREDATION | overrides)
    with pytest.raises(ExprDomainError, match=f"^{re.escape(message)}$"):
        integrate(spec, InitialHistory(0.5, 0.5), 0.0, 40.0, 0.01)


# a history that fails only for theta in (-0.06, -0.04), read near t = 0.45
NOTCHED_HISTORY = InitialHistory(parse_expression("0.5 + sqrt((t + 0.05)*(t + 0.05) - 0.0001)"), 0.5)


@pytest.mark.parametrize("overrides, hist, t_end, steps, error, message", [
    # the log-state overflows at t = 0.56, blocks before c1 fails at t = 100.005
    ({"a2": "200", "c2": "1e-300", "c1": "0.3 + sqrt(100 - t)"}, InitialHistory(0.5, 0.5), 120.0, None,
     IntegrationError, "log-state overflow at t=0.56"),
    # the history fails at the first stage's read, theta = -0.5, a block before a1 fails at t = 60.005
    ({"c1": "0.3", "c2": "0.4", "a1": "1 + sqrt(60 - t)"},
     InitialHistory(parse_expression("0.5 + sqrt(t + 0.25)"), 0.5), 80.0, None,
     ExprDomainError, "sqrt of negative value at t=-0.5"),
    ({"c1": "0.3", "c2": "0.4"}, InitialHistory(parse_expression("0.5 + sqrt(t + 0.25)"), 0.5), 80.0, None,
     ExprDomainError, "sqrt of negative value at t=-0.5"),
    # the log-state overflows at t = 0.36, a block before the history's error is read
    ({"a2": "2000", "c2": "1e-300"}, NOTCHED_HISTORY, 10.0, 7, IntegrationError, "log-state overflow at t=0.36"),
], ids=["coefficient-after-overflow", "coefficient-after-history", "history", "history-after-overflow"])
def test_a_failing_run_raises_its_first_failing_blocks_error(monkeypatch, overrides, hist, t_end, steps, error,
                                                              message):
    """A run steps block by block and raises the first error it meets: an
    earlier block's error outranks a later block's, whatever their kinds."""
    if steps is not None:
        monkeypatch.setattr(integrator, "_PLAN_STEPS", steps)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        integrate(logistic_spec(**overrides), hist, 0.0, t_end, 0.01)


@pytest.mark.parametrize("overrides, hist, message", [
    # the log-state overflows at t = 0.35, before u(t - sigma1) + k1 falls to 0 at t = 0.505, in the same
    # block: a later window's error does not hide an earlier step's failure
    ({"a1": "-2000", "k1": "-0.2", "b": "0"}, InitialHistory(0.5, 0.5), "log-state overflow at t=0.35000000000000003"),
    # the first window reads the history's notch before its steps overflow at t = 0.36
    ({"a2": "2000", "c2": "1e-300"}, NOTCHED_HISTORY, "sqrt of negative value at t=-0.06"),
], ids=["overflow-before-denominator", "history-before-overflow"])
def test_the_first_error_inside_one_block_wins(overrides, hist, message):
    """Stiffness and the log-state guard are checked once per block, yet a
    run raises what a step-by-step check meets first."""
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        integrate(logistic_spec(**overrides), hist, 0.0, 10.0, 0.01)


@pytest.mark.parametrize("overrides, message", [
    ({"k1": "-0.2"}, "u(t - sigma1) + k1 not positive at t=2.41"),
    ({"k2": "-0.2"}, "u(t - sigma2) + k2 not positive at t=2.41"),
    # sigma2's row fails first in time, at t = 2.41, but sigma1's row is checked first
    ({"k1": "-0.1", "k2": "-0.2"}, "u(t - sigma1) + k1 not positive at t=3.1"),
])
def test_a_batch_names_the_earliest_bad_denominator_over_its_columns(overrides, message):
    """u = u0 e^-t with delays 2 reaches u(t - 2) = 0.2 at t = 2 + ln(u0 / 0.2), in one window:
    the second column (u0 = 0.3) at t = 2.41, before the first (u0 = 0.5) at t = 2.92."""
    spec = logistic_spec(a1="-1", b="0", **dict.fromkeys(("tau1", "tau2", "sigma1", "sigma2"), "2") | overrides)
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        integrate_batch(spec, [InitialHistory(0.5, 0.5), InitialHistory(0.3, 0.5)], 0.0, 10.0, 0.01)


def test_each_distinct_delay_is_evaluated_once_per_stage(monkeypatch):
    """A successful run evaluates each distinct delay on its 2n+1 stage
    samples, block by block, and never again but at the stage each block
    shares with the block before: 8 blocks of 64 steps share 7."""
    spec = seeded_varying_delay_spec(7)
    samples = {}
    evaluate_array = integrator.evaluate_array

    def counting(expr, t):
        samples[id(expr)] = samples.get(id(expr), 0) + np.size(t)
        return evaluate_array(expr, t)

    monkeypatch.setattr(integrator, "evaluate_array", counting)
    monkeypatch.setattr(integrator, "_PLAN_STEPS", 64)
    integrate(spec, InitialHistory(0.6, 0.4), 0.0, 5.0, 0.01)
    assert [samples[id(getattr(spec, sym))] for sym in ("sigma1", "sigma2", "tau1", "tau2")] == [1001 + 7] * 4


@pytest.mark.parametrize("sigma1, sigma2, planned", [
    ("0.75", "3*0.25", ("sigma1",)),  # 3*0.25 folds to 0.75's program
    ("0.75 + 0.0*t", "0.75 + -0.0*t", ("sigma1", "sigma2")),
], ids=["same-program", "signed-zero"])
def test_delays_share_a_plan_only_when_their_programs_are_the_same(monkeypatch, sigma1, sigma2, planned):
    """Two delays of one component with the same program are planned and
    evaluated once, under the first channel's name; programs that differ
    only by the sign of a zero compare equal as tuples but are planned apart."""
    spec = logistic_spec(**ORACLE_PREDATION, sigma1=sigma1, sigma2=sigma2)
    samples = {}
    evaluate_array = integrator.evaluate_array

    def counting(expr, t):
        samples[expr.symbol] = samples.get(expr.symbol, 0) + np.size(t)
        return evaluate_array(expr, t)

    monkeypatch.setattr(integrator, "evaluate_array", counting)
    integrate(spec, InitialHistory(0.6, 0.4), 0.0, 5.0, 0.01)
    assert spec.sigma1.program == spec.sigma2.program
    assert {sym: samples.get(sym, 0) for sym in ("sigma1", "sigma2")} == {
        sym: 1001 if sym in planned else 0 for sym in ("sigma1", "sigma2")}


@pytest.mark.parametrize("steps", [1, 7, 4096])
def test_history_reach_is_the_whole_runs(monkeypatch, steps):
    """sigma1 = 0.5 + 2t makes the lag map fall, so the earliest delayed
    time, t - sigma1 = -1.5, is read at the run's last stage."""
    monkeypatch.setattr(integrator, "_PLAN_STEPS", steps)
    traj = integrate(logistic_spec(sigma1="0.5 + 2*t"), InitialHistory(0.5, 0.5), 0.0, 1.0, 0.01)
    assert traj.r == pytest.approx(1.5, rel=1e-15)


def test_a_nonpositive_holling_denominator_is_a_numerical_error():
    """k1 = -1 puts u(t - sigma1) + k1 below 0 at the first stage: the run
    names that denominator there, with no numpy warning on the way."""
    spec = ModelSpec.from_strings({"a1": "1", "a2": "1", "b": "0.3", "c1": "0.3", "c2": "0.3", "k1": "-1",
                                   "k2": "0.3", "tau1": "0.3", "tau2": "0.3 + 0.1*sin(t)", "sigma1": "0.3",
                                   "sigma2": "0.3"})
    hist = InitialHistory(parse_expression("0.5 + 0.2*t"), parse_expression("exp(-1000*t)"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^u\(t - sigma1\) \+ k1 not positive at t=0\.0$"):
            integrate(spec, hist, 0.0, 5.0, 0.01)


def test_a_prey_step_past_the_stiffness_bound_is_refused():
    """a1 = 1e6 integrates to 1e4 over the first step: Simpson's weights would
    settle the prey near 6/(b h) = 600, not at a1/b = 1e6, so the run stops
    there, with no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=r"^prey too stiff for step h=0\.01 at t=0\.0: a1 - q integrates "
                                                   r"to 1000[0-9.]* over the step, above 2\.79; choose a smaller h$"):
            integrate(logistic_spec(a1="1e6"), InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)


def test_stiffness_is_checked_step_by_step():
    """a1 = 200 + 100 t first integrates past 2.79 over the step from t = 0.79,
    to 2.795 (the step from t = 0.78 gives 2.785)."""
    with pytest.raises(IntegrationError,
                       match=r"^prey too stiff for step h=0\.01 at t=0\.79: a1 - q integrates to 2\.795"):
        integrate(logistic_spec(a1="200 + 100*t"), InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)


def test_a_prey_step_just_inside_the_stiffness_bound_is_close_to_a_fine_run():
    """At a1 h = 2.7 the prey settles within 1.5% of a1/b (the discrete
    equilibrium P(1 + 4e^(-P/2) + e^(-P)) / (6(1 - e^(-P))) = 1.0150); an
    h/8 run, at a1 h = 0.34, is within 1e-5 of it."""
    spec = logistic_spec(a1="270")
    coarse = integrate(spec, InitialHistory(0.5, 0.5), 0.0, 1.0, 0.01)
    fine = integrate(spec, InitialHistory(0.5, 0.5), 0.0, 1.0, 0.00125)
    assert abs(fine.u[-1] / 270.0 - 1.0) < 1e-5
    assert np.abs(coarse.u[20:] / fine.u[::8][20:] - 1.0).max() < 0.02


def test_a_prey_without_crowding_is_a_pure_quadrature():
    """b = 0 leaves x' = a1 - q, here x' = 1: x = x0 + t, with no warning
    from the empty b terms."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(logistic_spec(b="0"), InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)
    assert np.abs(traj.x - (math.log(0.5) + traj.t)).max() < 1e-13
    assert np.abs(traj.dx - 1.0).max() < 1e-13


def test_a_negative_crowding_term_blows_up_on_time():
    """b = -0.5 makes w = 1/u solve w' = -w + 0.5, so w = 2.5 e^-t - 0.5
    reaches 0, and u blows up, at t = ln 5 = 1.609.  The run stops at the
    first knot past the overflow guard, which is at most a step later."""
    traj = integrate(logistic_spec(b="-0.5"), InitialHistory(0.5, 0.5), 0.0, 1.6, 0.01)
    w = 2.5 * np.exp(-traj.t) - 0.5
    assert np.abs(traj.u * w - 1.0).max() < 1e-6
    with pytest.raises(IntegrationError, match=r"^log-state overflow at t=1\.61$"):
        integrate(logistic_spec(b="-0.5"), InitialHistory(0.5, 0.5), 0.0, 5.0, 0.01)


def test_working_memory_is_one_block(monkeypatch):
    """A 10k-step run with four distinct varying delays, in 40 blocks of 256
    steps, allocates about one block's plan (0.3 MB) beyond the knots it
    keeps, not a plan of the whole run (9 MB)."""
    monkeypatch.setattr(integrator, "_PLAN_STEPS", 256, raising=False)
    spec, hist = seeded_varying_delay_spec(7), InitialHistory(0.6, 0.4)
    tracemalloc.start()
    try:
        traj = integrate(spec, hist, 0.0, 100.0, 0.01)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.t) == 10_001
    assert peak - kept <= 1.5e6, f"peak {peak / 1e6:.2f} MB over {kept / 1e6:.2f} MB kept"


def test_a_multi_block_run_holds_one_plan_at_a_time(example2_spec):
    """At the default block size, example2's 2-column batch to t = 200 (5
    blocks) allocates beyond its kept knots no more than the same batch to
    t = 40 (1 block): a block's plan is freed before the next is built."""
    histories = [InitialHistory(0.5, 0.5), InitialHistory(0.75, 0.75)]
    working = []
    for t_end in (40.0, 200.0):
        tracemalloc.start()
        try:
            runs = integrate_batch(example2_spec, histories, 0.0, t_end, 0.01)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        working.append(peak - kept)
        del runs
    one, many = working
    assert many <= 1.1 * one, f"5 blocks: {many / 1e6:.2f} MB over the knots, 1 block: {one / 1e6:.2f} MB"


def test_a_failing_run_holds_no_more_than_a_succeeding_one(monkeypatch, example2_spec):
    """A 10k-step run of example2 whose c2 fails only in its last 256-step
    block, at t = 99.005, peaks at the same memory as the run that succeeds:
    it raises there, with no evaluation over the whole stage grid."""
    monkeypatch.setattr(integrator, "_PLAN_STEPS", 256)
    model = preset_config("example2")["model"]
    failing = ModelSpec.from_strings(model | {"c2": model["c2"] + " + 0*sqrt(99 - t)"})
    hist = InitialHistory(0.75, 0.75)
    tracemalloc.start()
    try:
        integrate(example2_spec, hist, 0.0, 100.0, 0.01)
        succeeding = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(ExprDomainError, match=r"^sqrt of negative value at t=99\.005$"):
            integrate(failing, hist, 0.0, 100.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * succeeding, f"failing run peaks at {peak / 1e6:.2f} MB, succeeding at {succeeding / 1e6:.2f} MB"


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
    u, v = np.exp(traj.at(-0.25))
    assert u == pytest.approx(0.45, abs=1e-12)
    assert v == pytest.approx(0.3 * math.exp(-0.25), abs=1e-12)


def test_history_zero_on_the_left_is_allowed():
    # phi may vanish for theta < 0 as long as phi(0) > 0; delayed predation
    # terms then simply drop out early on
    spec = logistic_spec(c1="0.3", c2="0.4")
    ramp = parse_expression("(t + 0.25 + abs(t + 0.25))/2")  # exactly 0 for t <= -0.25
    hist = InitialHistory(ramp, 0.5)
    assert hist.phi1(-0.5) == 0.0
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
