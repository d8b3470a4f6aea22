import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgholling import (
    CoefficientBounds,
    ExprDomainError,
    InitialHistory,
    LagInversionError,
    ModelSpec,
    PermanenceBounds,
    alpha_beta_from_gaps,
    estimate_liminf,
    evaluate,
    integrate,
    lag_inverse_gap,
    parse_expression,
    ValidationError,
    compute_permanence_bounds_from_values,
    run_attractivity,
)
from lgholling.stability import small_denominator
from conftest import reference_lag_gap, table_bounds

# calculator oracles for the preset coefficients (frozen ahead of the build)
EX1_ALPHA = 2.3990621757903132
EX1_BETA_M2 = -0.04328109530076347
EX1_BETA_M1 = 0.011819161174299759
EX2_ALPHA = 7.161287757601372
EX2_BETA_M2 = 0.0006495990486086916
EX2_BETA_M1 = 0.0018064914755236599


def test_constant_delay_gap_is_the_delay():
    d = parse_expression("0.75")
    for t in (-3.0, 0.0, 1.0, 42.0):
        assert abs(lag_inverse_gap(d, t) - 0.75) < 1e-9


def test_sine_delay_residual():
    d = parse_expression("0.5 + 0.25*sin(t)")
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 100.0, size=100):
        g = lag_inverse_gap(d, float(t))
        s_star = t + g
        assert abs((s_star - evaluate(d, s_star)) - t) <= 1e-12


@pytest.mark.parametrize("text, times", [
    ("0.5 + 0.25*sin(t)", np.random.default_rng(3).uniform(0.0, 100.0, size=100)),
    ("0.9 + 0.3*abs(cos(0.7*t + 0.4))", np.linspace(0.0, 500.0, 1001)),
    ("0.8 + 0.4*cos(0.5*t)", np.linspace(0.0, 500.0, 1001)),
    ("0.5 + 0.25*sin(t)", np.linspace(-60.0, -0.5, 120)),
    ("0.5 + 0.4999*sin(2*t)", np.linspace(0.0, 50.0, 101)),  # delay' comes within 2e-4 of 1
    # slope hulls wider than the slope: 1.2 against 0.85 on a cell a period wide, so the proof splits
    ("1 + 0.6*sin(t) + 0.6*cos(t)", np.linspace(0.0, 500.0, 251)),
    ("1 + 0.45/(1 + 0.2*sin(t))", np.linspace(0.0, 500.0, 251)),
])
def test_array_lag_gaps_equal_scalar_reference(text, times):
    d = parse_expression(text)
    gaps = lag_inverse_gap(d, times)
    assert gaps.shape == times.shape
    assert np.array_equal(gaps, [reference_lag_gap(d, float(t)) for t in times])
    assert lag_inverse_gap(d, float(times[7])) == gaps[7]


@settings(max_examples=40, deadline=None)
@given(d0=st.floats(0.3, 2.0), d1=st.floats(0.01, 1.0), w=st.floats(0.05, 10.0), p=st.floats(0.0, 6.3),
       t0=st.floats(-100.0, 100.0))
def test_lag_gaps_of_a_sine_delay_equal_scalar_reference(d0, d1, w, p, t0):
    """d0 + d1 sin(w t + p) with d1 w <= 0.9 is shown increasing, and its
    gaps on a short grid are the sampled, scalar reference's, bit for bit."""
    d1 = min(d1, 0.9 / w, 0.9 * d0)  # delay' <= 0.9, and the delay stays positive
    d = parse_expression(f"{d0!r} + {d1!r}*sin({w!r}*t + {p!r})")
    times = np.linspace(t0, t0 + 10.0, 11)
    assert np.array_equal(lag_inverse_gap(d, times), [reference_lag_gap(d, float(t)) for t in times])


@settings(max_examples=25, deadline=None)
@given(d1=st.floats(0.01, 0.9), d2=st.floats(0.01, 0.9), w1=st.floats(0.05, 5.0), w2=st.floats(0.05, 5.0),
       t0=st.floats(-100.0, 100.0))
def test_lag_gaps_of_a_two_sine_delay_equal_scalar_reference(d1, d2, w1, w2, t0):
    """2 + d1 sin(w1 t) + d2 cos(w2 t) with d1 w1 + d2 w2 <= 0.9: the sum's
    slope hull adds the two terms' hulls, wider than its slope, yet the
    delay is shown increasing on a short grid and its gaps are the
    sampled, scalar reference's, bit for bit."""
    scale = min(1.0, 0.9 / (d1 * w1 + d2 * w2))
    d = parse_expression(f"2 + {d1 * scale!r}*sin({w1!r}*t) + {d2 * scale!r}*cos({w2!r}*t)")
    times = np.linspace(t0, t0 + 10.0, 11)
    assert np.array_equal(lag_inverse_gap(d, times), [reference_lag_gap(d, float(t)) for t in times])


def test_array_lag_inversion_raises_the_first_scalar_error():
    """delay' reaches 2 sqrt(2/e) > 1 near t = 50, and is at least 1 on
    about [48.73, 49.73]: s - delay(s) turns down there.  The sampled
    reference, the array and the scalar call all refuse, and the latter two
    name a cell of expr's first level (under 0.1 wide) that meets it."""
    d = parse_expression("0.5 + 2*exp(-(t - 50)^2)")
    times = np.linspace(0.0, 100.0, 201)
    first_bad = None
    for t in times.tolist():
        try:
            reference_lag_gap(d, t)
        except LagInversionError:
            first_bad = t
            break
    assert first_bad is not None and first_bad > times[0]
    for at in (first_bad, times):
        with pytest.raises(LagInversionError, match="^s - delay\\(s\\) is not shown increasing near s=") as err:
            lag_inverse_gap(d, at)
        s = float(str(err.value).rpartition("=")[2])
        assert 48.7 - 0.1 < s < 49.8


def test_lag_inversion_holds_a_few_thousand_brackets_at_a_time():
    """Bracketing and bisection keep a few arrays of the times' size: at
    2e4 times the traced peak is a few MB."""
    d = parse_expression("0.8 + 0.4*cos(0.5*t)")
    times = np.linspace(0.0, 500.0, 20_000)
    tracemalloc.start()
    try:
        lag_inverse_gap(d, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"


def test_a_delay_domain_error_is_raised_where_evaluation_meets_it():
    """The bracket search evaluates the delay past s = 10.5, where its
    square root fails, before the proof would refuse the lag map, which
    turns down near s = 0: the domain error is raised."""
    d = parse_expression("0.5 + 0.9*sin(2*t) + 0*sqrt(10.5 - t)")
    with pytest.raises(ExprDomainError, match="^sqrt of negative value at t=1[01]\\."):
        lag_inverse_gap(d, np.linspace(0.0, 10.0, 21))


@pytest.mark.parametrize("text", [
    "t",
    "0.5 + 0.9*sin(2*t)",
    "0.5 + 0.5*sin(2*t)",  # delay' touches 1 at each multiple of pi, 0 among them
])
def test_degenerate_delay_raises_monotonicity_error(text):
    with pytest.raises(LagInversionError, match="^s - delay\\(s\\) is not shown increasing near s=0.0$"):
        lag_inverse_gap(parse_expression(text), np.linspace(0.0, 10.0, 21))


def test_a_delay_with_a_pole_is_refused():
    """1 + 0.01/(t - 500.3) has a pole among the brackets, where s - delay(s)
    jumps from +inf to -inf.  The cell over it has a finite slope hull, but
    is unsafe, so it proves nothing and is split down to the width floor."""
    with pytest.raises(LagInversionError, match="^s - delay\\(s\\) is not shown increasing near s=") as err:
        lag_inverse_gap(parse_expression("1 + 0.01/(t - 500.3)"), np.linspace(0.0, 1000.0, 1001))
    assert 500.3 - 1e-6 < float(str(err.value).rpartition("=")[2]) <= 500.3


def test_a_delay_whose_slope_hull_needs_cells_past_the_cap_is_refused():
    """1 + 0.6 sin t + 0.6 cos t has delay' <= 0.85, but its slope hull
    reads 1.2 on a cell a period wide.  On [0, 2e4] the cell cap leaves
    cells narrow enough to show delay' < 1; on [0, 1e5] it does not, and
    the lag map is refused at the first cell, which the sampled check of
    each bracket accepted."""
    d = parse_expression("1 + 0.6*sin(t) + 0.6*cos(t)")
    lag_inverse_gap(d, np.linspace(0.0, 2e4, 251))
    with pytest.raises(LagInversionError, match="^s - delay\\(s\\) is not shown increasing near s=0.0$"):
        lag_inverse_gap(d, np.linspace(0.0, 1e5, 251))
    for t in np.linspace(0.0, 1e5, 251)[:5].tolist():
        reference_lag_gap(d, t)  # the sampled check, bracket by bracket, raises nothing


@pytest.mark.parametrize("times, named", [
    ([np.nan, 1.0], "nan"),
    ([np.inf], "inf"),
    ([1.0, -np.inf, np.nan], "-inf"),
])
def test_lag_inversion_refuses_a_time_that_is_not_finite(times, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LagInversionError, match=f"^time t={named} is not finite$"):
            lag_inverse_gap(parse_expression("0.8"), np.array(times))


@pytest.mark.parametrize("t", [1e15, -1e15, 1.7e308])
def test_lag_inversion_refuses_a_bracket_of_under_64_floats(t):
    """A constant delay 0.8 brackets t in [t, t + 1.6], which holds 13
    float steps at 1e15 and none at 1.7e308.  The proof spans [-t, t + 1.6],
    wider than the float range at 1.7e308."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LagInversionError) as err:
            lag_inverse_gap(parse_expression("0.8"), np.array([1.0, t, -t]))
    assert str(err.value) == f"t={t!r} is too large to resolve its lag inverse in floats"


def _bounds_with(c1=0.0, c2=0.0, M1=0.5, M2=0.5, m1=0.1):
    vals = {f: 1.0 for f in CoefficientBounds.__dataclass_fields__}
    vals["c1_inf"] = vals["c1_sup"] = c1
    vals["c2_inf"] = vals["c2_sup"] = c2
    cb = CoefficientBounds.from_table(vals)
    return PermanenceBounds(M1=M1, M2=M2, m1=m1, m2=0.1, c0_holds=True, inputs_used=cb)


def test_alpha_beta_without_interaction_terms():
    # every term except the leading b1^i carries a factor c1 or c2
    pb = _bounds_with(c1=0.0, c2=0.0)
    alpha, beta = alpha_beta_from_gaps(pb.inputs_used, pb, (0.75, 0.75, 0.75, 0.75))
    assert alpha == 1.0  # b_inf of the constructed bounds
    assert beta == 0.0


def test_alpha_beta_refuse_a_value_that_is_not_finite():
    """b^s = 1.7e308 makes alpha's 2 c1 b^s M1 M2 / K1^2 term overflow:
    an OverflowError, not an alpha of -inf in the report."""
    cb = dataclasses.replace(table_bounds("example2"), b_sup=1.7e308)
    pb = compute_permanence_bounds_from_values(cb)
    with pytest.raises(OverflowError, match="alpha or beta not finite"):
        alpha_beta_from_gaps(cb, pb, (0.92, 0.92, 0.92, 0.92))


def test_alpha_beta_refuse_an_unknown_beta_denominator(example2_bounds):
    with pytest.raises(ValueError, match="^beta_denominator must be 'M1' or 'M2'$"):
        alpha_beta_from_gaps(example2_bounds.inputs_used, example2_bounds, (0.92, 0.92, 0.92, 0.92), "M3")


def test_alpha_limit_as_interactions_vanish():
    pb = _bounds_with(c1=1e-12, c2=1e-12)
    alpha, _ = alpha_beta_from_gaps(pb.inputs_used, pb, (1.0, 1.0, 1.0, 1.0))
    assert alpha == pytest.approx(1.0, abs=1e-10)


def test_alpha_beta_nonincreasing_in_each_gap():
    pb = _bounds_with(c1=0.3, c2=0.4)
    base = (0.5, 0.6, 0.7, 0.8)
    a0, b0 = alpha_beta_from_gaps(pb.inputs_used, pb, base)
    for i in range(4):
        bumped = tuple(g + 0.25 if k == i else g for k, g in enumerate(base))
        a1, b1 = alpha_beta_from_gaps(pb.inputs_used, pb, bumped)
        assert a1 <= a0 + 1e-15
        assert b1 <= b0 + 1e-15


def test_example1_alpha_beta_against_oracle(example1_spec, example1_bounds):
    est = estimate_liminf(example1_spec, example1_bounds, np.array([7.0]), "M2")
    alpha, beta_m2, beta_m1 = est.alpha_liminf, est.beta_liminf, est.beta_liminf_alt
    assert alpha == pytest.approx(EX1_ALPHA, abs=1e-9)
    assert beta_m2 == pytest.approx(EX1_BETA_M2, abs=1e-9)
    assert beta_m1 == pytest.approx(EX1_BETA_M1, abs=1e-9)
    # the sign flip between the two denominator readings is the documented
    # ambiguity: displayed variant negative, derivation variant positive
    assert beta_m2 < 0.0 < beta_m1
    assert alpha > 0.0


def test_example2_alpha_beta_against_oracle(example2_spec, example2_bounds):
    est = estimate_liminf(example2_spec, example2_bounds, np.array([3.0]), "M2")
    alpha, beta_m2, beta_m1 = est.alpha_liminf, est.beta_liminf, est.beta_liminf_alt
    assert alpha == pytest.approx(EX2_ALPHA, abs=1e-9)
    assert beta_m2 == pytest.approx(EX2_BETA_M2, abs=1e-9)
    assert beta_m1 == pytest.approx(EX2_BETA_M1, abs=1e-9)
    assert 0.0 < beta_m2 < beta_m1


def test_estimate_liminf_constant_case(example2_spec, example2_bounds):
    grid = np.linspace(0.0, 40.0, 21)
    est = estimate_liminf(example2_spec, example2_bounds, grid)
    # constant delays make alpha and beta constant in t
    assert est.alpha_liminf == pytest.approx(EX2_ALPHA, abs=1e-9)
    assert est.beta_liminf == pytest.approx(EX2_BETA_M2, abs=1e-9)
    values = [a for _, a in est.alpha_samples]
    assert max(values) - min(values) < 1e-9


def test_estimate_liminf_reads_the_whole_grid_when_its_tail_is_empty(example2_spec, example2_bounds):
    """A grid ending below 0 holds no point past its tail start, half its
    last time: the liminfs are taken over every point."""
    est = estimate_liminf(example2_spec, example2_bounds, np.array([-2.0, -1.0]))
    assert est.alpha_liminf == min(a for _, a in est.alpha_samples) == pytest.approx(EX2_ALPHA, abs=1e-9)
    assert est.beta_liminf == min(b for _, b in est.beta_samples) == pytest.approx(EX2_BETA_M2, abs=1e-9)


def test_estimate_liminf_refuses_an_empty_grid(example2_spec, example2_bounds):
    with pytest.raises(ValueError, match="^t_grid must be nonempty$"):
        estimate_liminf(example2_spec, example2_bounds, np.array([]))


def test_estimate_liminf_sign_flip_by_construction(example2_spec, example2_bounds):
    # inflate c1^s so the leading beta terms go negative
    vals = dataclasses.asdict(example2_bounds.inputs_used)
    vals["c1_sup"] = 50.0
    cb = CoefficientBounds.from_table(vals)
    pb = PermanenceBounds(M1=example2_bounds.M1, M2=example2_bounds.M2,
                          m1=example2_bounds.m1, m2=example2_bounds.m2,
                          c0_holds=True, inputs_used=cb)
    est = estimate_liminf(example2_spec, pb, np.linspace(0.0, 10.0, 6))
    assert est.beta_liminf < 0.0


def test_liminf_with_time_varying_delays(example2_bounds):
    # sine-modulated lags: alpha(t) now genuinely varies through the
    # lag-inverse gaps and the tail minimum sits below the early samples
    spec = ModelSpec.from_strings({
        "a1": "1", "a2": "0.5", "b": "1", "c1": "0.3", "c2": "0.4", "k1": "1", "k2": "1",
        "tau1": "0.5 + 0.2*sin(0.3*t)", "tau2": "0.5", "sigma1": "0.5", "sigma2": "0.5",
    })
    vals = {f: 1.0 for f in CoefficientBounds.__dataclass_fields__}
    vals.update(c1_sup=0.3, c1_inf=0.3, c2_sup=0.4, c2_inf=0.4)
    cb = CoefficientBounds.from_table(vals)
    pb = PermanenceBounds(M1=0.8, M2=0.6, m1=0.2, m2=0.1, c0_holds=True, inputs_used=cb)
    est = estimate_liminf(spec, pb, np.linspace(0.0, 40.0, 81))
    alphas = np.array([a for _, a in est.alpha_samples])
    assert alphas.max() - alphas.min() > 1e-4  # really varies
    tail = [a for t, a in est.alpha_samples if t >= 20.0]
    assert est.alpha_liminf == min(tail)
    # spot-check one sample against the explicit-gap evaluation
    t_probe = 17.5
    gaps = (lag_inverse_gap(spec.tau1, t_probe), lag_inverse_gap(spec.tau2, t_probe),
            lag_inverse_gap(spec.sigma1, t_probe), lag_inverse_gap(spec.sigma2, t_probe))
    a_direct, _ = alpha_beta_from_gaps(cb, pb, gaps)
    a_eval = estimate_liminf(spec, pb, np.array([t_probe]), "M2").alpha_liminf
    assert a_eval == pytest.approx(a_direct, abs=1e-12)
    # the other beta denominator comes from the same gaps, with the same values
    other = estimate_liminf(spec, pb, np.linspace(0.0, 40.0, 81), beta_denominator="M1")
    assert est.beta_liminf_alt == other.beta_liminf
    assert other.beta_liminf_alt == est.beta_liminf


def test_attractivity_identical_histories(unit_spec):
    h = InitialHistory(0.5, 0.5)
    res = run_attractivity(integrate(unit_spec, h, 0.0, 10.0, 0.01), integrate(unit_spec, h, 0.0, 10.0, 0.01),
                           threshold=1e-3)
    assert res.final_distance == 0.0
    assert res.passed


def test_attractivity_swap_invariance(unit_spec):
    a, b = InitialHistory(0.4, 0.6), InitialHistory(0.7, 0.2)
    traj_a, traj_b = (integrate(unit_spec, hist, 0.0, 20.0, 0.01) for hist in (a, b))
    r1 = run_attractivity(traj_a, traj_b, threshold=1.0)
    r2 = run_attractivity(traj_b, traj_a, threshold=1.0)
    assert np.array_equal(r1.distances, r2.distances)


@pytest.mark.parametrize("t0_b, t_end_b, h_b", [(0.0, 4.0, 0.01), (0.0, 5.0, 0.02), (1.0, 6.0, 0.01)])
def test_attractivity_names_a_grid_mismatch(unit_spec, t0_b, t_end_b, h_b):
    h = InitialHistory(0.5, 0.5)
    traj_a = integrate(unit_spec, h, 0.0, 5.0, 0.01)
    traj_b = integrate(unit_spec, h, t0_b, t_end_b, h_b)
    with pytest.raises(ValidationError, match=r"different grids: \[0.0, 5.0\] step 0.01 and"):
        run_attractivity(traj_a, traj_b, threshold=1e-3)
    with pytest.raises(ValidationError, match="different grids"):
        run_attractivity(traj_b, traj_a, threshold=1e-3)


def test_attractivity_contracting_system():
    spec = ModelSpec.from_strings({
        "a1": "1", "a2": "0.5", "b": "1", "c1": "0.1", "c2": "0.5", "k1": "1", "k2": "1",
        "tau1": "0.25", "tau2": "0.25", "sigma1": "0.25", "sigma2": "0.25",
    })
    res = run_attractivity(integrate(spec, InitialHistory(0.5, 0.5), 0.0, 60.0, 0.01),
                           integrate(spec, InitialHistory(0.75, 0.75), 0.0, 60.0, 0.01), threshold=1e-3)
    assert res.passed, (res.final_distance, res.tail_nonincreasing)


@pytest.mark.parametrize("field, sym", [("k1_inf", "k1"), ("k2_inf", "k2")])
def test_a_denominator_too_small_for_alpha_and_beta_is_a_validation_error(field, sym):
    """With m1 = 0 and k^i = 1e-300, (m1 + k^i)**2 underflows to 0."""
    cb = dataclasses.replace(table_bounds("example1"), **{field: 1e-300})
    pb = compute_permanence_bounds_from_values(cb)
    assert (pb.m1, small_denominator(cb, pb)) == (0.0, sym)
    with pytest.raises(ValidationError, match=rf"^m1 \+ {sym}\^i = 1e-300 is too small: its 4th power underflows$"):
        alpha_beta_from_gaps(cb, pb, (0.75,) * 4)
