import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from lgholling import (
    BoundsEstimate,
    InitialHistory,
    ModelSpec,
    ValidationError,
    eval_rhs,
    parse_expression,
    validate_model,
)
from lgholling.model import SYMBOLS


def constant_spec(**overrides):
    base = {s: "1" for s in ("a1", "a2", "b", "c1", "c2", "k1", "k2")}
    base |= {s: "0.5" for s in ("tau1", "tau2", "sigma1", "sigma2")}
    base |= overrides
    return ModelSpec.from_strings(base)


def test_from_strings_reports_missing():
    with pytest.raises(ValidationError, match="c2"):
        ModelSpec.from_strings({"a1": "1"})


def test_validate_example1_preset(example1_spec):
    report = validate_model(example1_spec, horizon=200.0, samples=20_001)
    assert report.ok
    assert report.max_lag_r == pytest.approx(0.75, abs=1e-12)
    assert report.bounds["a1"].sup_value == pytest.approx(0.29, abs=1e-6)


def test_validate_constant_set():
    spec = constant_spec()
    report = validate_model(spec, horizon=50.0, samples=5001)
    assert report.ok
    assert report.max_lag_r == pytest.approx(0.5, abs=1e-12)


def test_validate_leaves_the_frozen_spec_unchanged():
    spec = constant_spec(a1="1 + 0.5*sin(t)")
    before = dataclasses.astuple(spec)
    report = validate_model(spec, horizon=10.0, samples=1001)
    assert report.ok
    assert dataclasses.astuple(spec) == before
    assert [f.name for f in dataclasses.fields(spec)] == list(SYMBOLS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.a1 = parse_expression("2")


def test_validate_rejects_sign_changing_coefficient():
    spec = constant_spec(b="cos(t)")
    report = validate_model(spec, horizon=10.0, samples=10_001)
    assert not report.ok
    failed = {sym for sym, _, _ in report.failures}
    assert failed == {"b"}
    _, t_bad, value = report.failures[0]
    assert 1.4 < t_bad < 2.0  # first zero crossing of cos is at pi/2
    assert value <= 0.0


@pytest.mark.parametrize("text, value", [("(-3.2)", -3.2), ("0", 0.0), ("2*(-1.6)", -3.2)])
def test_validate_reports_a_nonpositive_constant_at_t0(text, value):
    report = validate_model(constant_spec(c1=text), horizon=10.0, samples=1001)
    assert not report.ok
    assert report.failures == [("c1", 0.0, value)]
    assert report.bounds["c1"] == BoundsEstimate(abs(value), abs(value), 10.0, 1001)


def test_eval_rhs_extinction_equilibrium():
    spec = constant_spec()
    assert eval_rhs(spec, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)


def test_eval_rhs_logistic_arithmetic():
    spec = constant_spec(c1="1e-300")  # predation negligible
    du, dv = eval_rhs(spec, 0.0, 0.5, 1.0, 0.3, 0.3, 0.7, 0.7)
    assert du == pytest.approx(0.5 * (1.0 - 0.5), abs=1e-12)


def test_eval_rhs_example2_direct_substitution(example2_spec):
    # direct-substitution oracle at t=0, u=v=0.5, delayed values 0.5:
    # a1(0) = 4.8 + 0.25, b(0) = 0.25 + 33.72/4, a2(0) = 0.03 + 0.125
    a1_0 = 4.8 + 0.125 * 2.0
    b_0 = 0.25 + 33.72 / 4.0
    a2_0 = 0.03 + 0.125 * (0.0 + 1.0)
    want_du = (a1_0 - b_0 * 0.5 - 0.32 * 0.5 / (0.5 + 16.7)) * 0.5
    want_dv = (a2_0 - 3.6 * 0.5 / (0.5 + 5.7)) * 0.5
    du, dv = eval_rhs(example2_spec, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
    assert du == pytest.approx(want_du, rel=1e-14)
    assert dv == pytest.approx(want_dv, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    v=st.floats(min_value=0.0, max_value=5.0),
    dv1=st.floats(min_value=0.0, max_value=5.0),
    dv2=st.floats(min_value=0.0, max_value=5.0),
)
def test_axes_are_invariant(v, dv1, dv2):
    spec = constant_spec()
    du, _ = eval_rhs(spec, 1.0, 0.0, v, dv1, dv2, dv1, dv2)
    _, dvv = eval_rhs(spec, 1.0, v, 0.0, dv1, dv2, dv1, dv2)
    assert du == 0.0
    assert dvv == 0.0


def test_growth_independent_of_delays_without_predation():
    spec = constant_spec(c1="1e-300")
    du_a, _ = eval_rhs(spec, 0.0, 0.5, 1.0, 0.1, 0.1, 0.1, 0.1)
    du_b, _ = eval_rhs(spec, 0.0, 0.5, 1.0, 4.0, 4.0, 4.0, 4.0)
    assert du_a == pytest.approx(du_b, abs=1e-250)


def test_history_validation():
    InitialHistory(0.5, 0.5).validate(1.0)
    with pytest.raises(ValidationError):
        InitialHistory(0.0, 0.5).validate(1.0)
    # expression history: nonnegative on [-r, 0], positive at 0
    hist = InitialHistory(parse_expression("0.5 + 0.4*cos(t)"), 0.25)
    hist.validate(1.0)
    bad = InitialHistory(parse_expression("t + 0.1"), 0.25)  # negative for t < -0.1
    with pytest.raises(ValidationError):
        bad.validate(1.0)


def test_history_expression_values():
    hist = InitialHistory(parse_expression("1 + t"), 2.0)
    assert hist.value1(-0.5) == 0.5
    assert hist.value2(-0.5) == 2.0
