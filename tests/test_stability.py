import dataclasses

import numpy as np
import pytest

from lgholling import (
    CoefficientBounds,
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
])
def test_array_lag_gaps_equal_scalar_reference(text, times):
    d = parse_expression(text)
    gaps = lag_inverse_gap(d, times)
    assert gaps.shape == times.shape
    assert np.array_equal(gaps, [reference_lag_gap(d, float(t)) for t in times])
    assert lag_inverse_gap(d, float(times[7])) == gaps[7]


def test_array_lag_inversion_raises_the_first_scalar_error():
    # delay' reaches 2*sqrt(2/e) > 1 near t = 50, so s - delay(s) turns down there
    d = parse_expression("0.5 + 2*exp(-(t - 50)^2)")
    times = np.linspace(0.0, 100.0, 201)
    first_bad = message = None
    for t in times.tolist():
        try:
            reference_lag_gap(d, t)
        except LagInversionError as exc:
            first_bad, message = t, str(exc)
            break
    assert first_bad is not None and first_bad > times[0] and "near s=" in message
    with pytest.raises(LagInversionError) as scalar:
        lag_inverse_gap(d, first_bad)
    with pytest.raises(LagInversionError) as array:
        lag_inverse_gap(d, times)
    assert str(array.value) == str(scalar.value) == message


def test_degenerate_delay_raises_monotonicity_error():
    with pytest.raises(LagInversionError, match="not strictly increasing"):
        lag_inverse_gap(parse_expression("t"), 1.0)


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
    tail = [a for t, a in est.alpha_samples if t >= est.tail_start]
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
