import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgholling import (
    BoundsEstimate,
    CoefficientExpr,
    ExprDomainError,
    ExprSyntaxError,
    GridFunctionPair,
    InitialHistory,
    ModelSpec,
    NumericalError,
    ValidationError,
    dde_residual,
    delayed_term,
    evaluate,
    integrate,
    parse_expression,
    validate_model,
)
from lgholling import expr as expr_module
from lgholling.model import DELAY_SYMBOLS, SYMBOLS
from lgholling.presets import preset_config


def constant_spec(**overrides):
    base = {s: "1" for s in ("a1", "a2", "b", "c1", "c2", "k1", "k2")}
    base |= {s: "0.5" for s in ("tau1", "tau2", "sigma1", "sigma2")}
    base |= overrides
    return ModelSpec.from_strings(base)


def test_from_strings_reports_missing():
    with pytest.raises(ValidationError, match="c2"):
        ModelSpec.from_strings({"a1": "1"})


def test_validate_example1_preset(example1_spec):
    report = validate_model(example1_spec, horizon=200.0)
    assert report.failures == []
    assert report.max_lag_r == pytest.approx(0.75, abs=1e-12)
    assert report.bounds["a1"].sup_value == pytest.approx(0.29, abs=1e-6)


def test_example2_b_inf_is_its_last_cusp_before_the_horizon(example2_spec):
    """b = 8.18 + 0.25/(1 + t^2) + 0.25|cos t| takes its inf over [0, 1000]
    at the last zero of cos t there, t = 317.5 pi."""
    report = validate_model(example2_spec, horizon=preset_config("example2")["options"]["bounds_horizon"])
    assert evaluate(example2_spec.b, 317.5 * math.pi) == 8.180000251276802
    assert math.isclose(report.bounds["b"].inf_value, 8.180000251276802, rel_tol=1e-12)


def test_validate_constant_set():
    spec = constant_spec()
    report = validate_model(spec, horizon=50.0)
    assert report.failures == []
    assert report.max_lag_r == pytest.approx(0.5, abs=1e-12)


def test_validate_leaves_the_frozen_spec_unchanged():
    spec = constant_spec(a1="1 + 0.5*sin(t)")
    before = dataclasses.astuple(spec)
    report = validate_model(spec, horizon=10.0)
    assert report.failures == []
    assert dataclasses.astuple(spec) == before
    assert [f.name for f in dataclasses.fields(spec)] == list(SYMBOLS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.a1 = parse_expression("2")


def test_validate_rejects_sign_changing_coefficient():
    spec = constant_spec(b="cos(t)")
    report = validate_model(spec, horizon=10.0)
    failed = {sym for sym, _, _ in report.failures}
    assert failed == {"b"}
    _, t_inf, value = report.failures[0]
    assert min(abs(t_inf - math.pi), abs(t_inf - 3.0 * math.pi)) < 1e-6  # the failure names the time of the inf, -1
    assert value == report.bounds["b"].inf_value == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.parametrize("text, value", [("(-3.2)", -3.2), ("0", 0.0), ("2*(-1.6)", -3.2)])
def test_validate_reports_a_nonpositive_constant_at_t0(text, value):
    report = validate_model(constant_spec(c1=text), horizon=10.0)
    assert report.failures == [("c1", 0.0, value)]
    assert report.bounds["c1"] == BoundsEstimate(value, value, value, value)


@pytest.fixture(scope="module")
def preset_reports():
    """Each preset's validate_model report over its bounds horizon."""
    reports = {}
    for name in ("example1", "example2"):
        config = preset_config(name)
        reports[name] = validate_model(ModelSpec.from_strings(config["model"]),
                                       horizon=config["options"]["bounds_horizon"])
    return reports


@pytest.mark.parametrize("sym", SYMBOLS)
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_preset_coefficient_bounds_are_its_search(preset_reports, name, sym):
    """Each preset coefficient's estimate is its search over [0, horizon],
    values f takes there inside a bracket within _GAP of them, and positive
    by its certified lower bound."""
    report, config = preset_reports[name], preset_config(name)
    horizon = config["options"]["bounds_horizon"]
    est = report.bounds[sym]
    inf_value, inf_lower, sup_value, sup_upper, _ = expr_module._search(parse_expression(config["model"][sym]),
                                                                        0.0, horizon)
    assert est == BoundsEstimate(inf_value, sup_value, inf_lower, sup_upper)
    assert 0.0 < est.inf_lower <= est.inf_value <= est.sup_value <= est.sup_upper
    assert est.inf_value - est.inf_lower <= expr_module._GAP * est.inf_value
    assert est.sup_upper - est.sup_value <= expr_module._GAP * est.sup_value
    assert report.failures == []


@pytest.mark.parametrize("a1", ["1 + 0*t", "1 + 1e-300*sin(t)"])
def test_a_flat_coefficient_is_its_constant(a1):
    """A coefficient that is flat but not folded: every sample is 1, and
    every cell's bound ties with them to within rounding."""
    spec = ModelSpec.from_strings(preset_config("example1")["model"] | {"a1": a1})
    est = validate_model(spec, horizon=1000.0).bounds["a1"]
    assert (est.inf_value, est.sup_value) == (1.0, 1.0)
    assert 1.0 - 1e-15 < est.inf_lower and est.sup_upper < 1.0 + 1e-15


@pytest.mark.parametrize("a1, capped", [("1 + 0.5*sin(1e6*t)", False), ("1 + 0.5*sin(1e6*t)*sin(1.1e6*t)", True)])
def test_a_fast_coefficient_passes_within_seconds(monkeypatch, a1, capped):
    """About 1.6e8 periods on [0, 1000].  Every trough of sin(1e6 t) is -1,
    and the second level's samples come within _GAP of it; the troughs of
    the product never quite line up, so its search stops at the cell cap.
    Either way the first level's enclosures, 1 + 0.5 [-1, 1], show a1 > 0."""
    spec = ModelSpec.from_strings(preset_config("example1")["model"] | {"a1": a1})
    cap, inner = expr_module._CELL_CAP, expr_module._enclose
    sizes = {}  # per cap: the cell count of each level the searches enclose

    def traced(program, a, b):
        sizes[expr_module._CELL_CAP].append(a.size)
        return inner(program, a, b)

    monkeypatch.setattr(expr_module, "_enclose", traced)
    for limit in (cap, 4 * cap):
        sizes[limit] = []
        monkeypatch.setattr(expr_module, "_CELL_CAP", limit)
        start = time.perf_counter()
        report = validate_model(spec, horizon=1000.0)
        assert time.perf_counter() - start < 5.0
        est = report.bounds["a1"]
        assert report.failures == [] and 0.5 - 1e-15 < est.inf_lower <= est.inf_value
        assert est.sup_value <= est.sup_upper < 1.5 + 1e-15
    assert max(sizes[cap]) <= cap
    assert (max(sizes[4 * cap]) > cap) == capped  # a larger cap lets the search go on


def constant_pair(u, v, t_lo=0.0, t_hi=1.0):
    """A constant candidate pair: its central differences vanish and every
    delayed value is the constant, so dde_residual is max |du| + |dv|."""
    return GridFunctionPair.from_constants(t_lo, t_hi, 0.1, u, v)


def test_delayed_term_is_the_plain_division():
    assert delayed_term(0.3 * 0.7, 0.3, 1.0, 0.0, "u(t - sigma1) + k1") == 0.3 * 0.7 / (0.3 + 1.0)
    num, u, k = np.array([0.21, 0.5]), np.array([0.3, 2.0]), np.array([1.0, 0.25])
    assert np.array_equal(delayed_term(num, u, k, np.array([0.0, 1.0]), "u(t - sigma1) + k1"), num / (u + k))


def test_delayed_term_names_the_first_time_its_denominator_is_not_positive():
    # stage rows by history columns, as the integrator calls it: the first
    # time is the first row holding a denominator <= 0
    u = np.array([[0.5, 0.5], [0.5, 0.2], [-1.0, 0.0]])
    t = np.array([[0.0], [0.25], [0.5]])
    with pytest.raises(NumericalError, match=r"^u\(t - sigma2\) \+ k2 not positive at t=0\.25$"):
        delayed_term(np.ones((3, 2)), u, -0.2, t, "u(t - sigma2) + k2")
    with pytest.raises(NumericalError, match=r"^f_1 denominator not positive at t=2\.0$"):
        delayed_term(1.0, 0.0, 0.0, 2.0, "f_1 denominator")


def test_extinction_equilibrium_has_no_residual():
    assert dde_residual(constant_spec(), constant_pair(0.0, 0.0)) == 0.0


def test_logistic_arithmetic():
    # predation negligible, and v = u + k2 with a2 = c2 keeps the predator still
    spec = constant_spec(c1="1e-300")
    assert dde_residual(spec, constant_pair(0.5, 1.5)) == pytest.approx(0.5 * (1.0 - 0.5), abs=1e-12)


def test_example2_direct_substitution(example2_spec):
    # direct-substitution oracle at u = v = 0.5, every delayed value 0.5,
    # at the interior grid points s = -0.1, 0, 0.1
    s = np.array([-0.1, 0.0, 0.1])
    a1 = 4.8 + 0.125 * 2.0 * np.abs(np.cos(np.sqrt(2.0) * s))
    b = 0.25 * np.abs(np.cos(s)) + (33.72 + 32.72 * s**2) / (4.0 + 4.0 * s**2)
    a2 = 0.03 + 0.125 * (np.abs(np.sin(np.sqrt(2.0) * s)) + np.abs(np.cos(np.sqrt(5.0) * s)))
    want_du = (a1 - b * 0.5 - 0.32 * 0.5 / (0.5 + 16.7)) * 0.5
    want_dv = (a2 - 3.6 * 0.5 / (0.5 + 5.7)) * 0.5
    got = dde_residual(example2_spec, constant_pair(0.5, 0.5, -0.2, 0.2))
    assert got == pytest.approx(float((np.abs(want_du) + np.abs(want_dv)).max()), rel=1e-14)
    assert delayed_term(example2_spec.c1(0.0) * 0.5, 0.5, example2_spec.k1(0.0), 0.0, "u(t - sigma1) + k1") \
        == pytest.approx(0.32 * 0.5 / (0.5 + 16.7), rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=5.0), v=st.floats(min_value=0.0, max_value=5.0))
def test_axes_are_invariant(u, v):
    """u = 0 forces du = 0 and v = 0 forces dv = 0: on each axis the
    other component is held still by its own growth rate (a2 = c2 v / k2
    on the v axis, a1 = b u on the u axis), so the residual is 0."""
    assert dde_residual(constant_spec(a2=repr(v)), constant_pair(0.0, v)) == 0.0
    assert dde_residual(constant_spec(a1=repr(u)), constant_pair(u, 0.0)) == 0.0


def test_growth_independent_of_delays_without_predation():
    t = np.linspace(0.0, 10.0, 101)
    pair = GridFunctionPair(0.0, 10.0, 0.1, 0.5 + 0.1 * np.sin(t), 1.0 + 0.2 * np.cos(t))

    def residuals(**overrides):
        return [dde_residual(constant_spec(**overrides, **dict.fromkeys(DELAY_SYMBOLS, d)), pair)
                for d in ("0.1", "4.0")]

    short, long = residuals(c1="1e-300", c2="1e-300")
    assert short == pytest.approx(long, abs=1e-250)
    short, long = residuals()  # with predation the delays move it
    assert abs(short - long) > 1e-3


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
    # a non-finite number is refused when the history is built
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite number"):
            InitialHistory(value, 0.5)


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2])
def test_a_number_is_the_constant_its_repr_parses_to(value):
    """A finite number builds the program its repr text parses to, the sign of 0 included, in a
    ModelSpec and in an InitialHistory; the spec and a history from numbers integrate to the
    knots of the same built from text."""
    model = preset_config("example2")["model"]
    spec, spec_text = (ModelSpec.from_strings({**model, "k2": v}) for v in (value, repr(value)))
    hist, hist_text = InitialHistory(value, 0.1 + 0.2), InitialHistory(repr(value), repr(0.1 + 0.2))
    assert (spec, hist) == (spec_text, hist_text)
    assert repr((spec.k2.program, hist.phi1.program)) == repr((spec_text.k2.program, hist_text.phi1.program))
    run = integrate(spec, InitialHistory(0.1 + 0.2, 0.5), 0.0, 1.0, 0.01)
    run_text = integrate(spec_text, InitialHistory(repr(0.1 + 0.2), "0.5"), 0.0, 1.0, 0.01)
    assert np.array_equal(run.knots, run_text.knots)


def test_history_dipping_below_0_between_any_256_samples_is_refused():
    """0.5 - 0.6|sin(w t)| with w = 2 pi 255/0.92 is 0.5 at every point of
    linspace(-0.92, 0, 256) (up to rounding) but dips to -0.1 between them."""
    w = 2.0 * math.pi * 255 / 0.92
    phi1 = parse_expression(f"0.5 - 0.6*abs(sin({w!r}*t))")
    assert (phi1(np.linspace(-0.92, 0.0, 256)) > 0.49).all()
    with pytest.raises(ValidationError, match=r"^history phi1 negative at theta=-0\.") as err:
        InitialHistory(phi1, 0.5).validate(0.92)
    theta = float(str(err.value).rpartition("=")[2])
    assert evaluate(phi1, theta) == pytest.approx(-0.1, abs=1e-12)


@pytest.mark.parametrize("phi1, phi2, name, message", [
    ("sqrt(t + 0.5)", "0.5", "phi1", "sqrt of negative value at t=-0.92"),  # met by the search on [-r, 0]
    ("0.5", "1/t", "phi2", "division by zero at t=0.0"),  # met at 0
])
def test_history_domain_error_is_named_in_its_component(phi1, phi2, name, message):
    hist = InitialHistory(*(parse_expression(text) for text in (phi1, phi2)))
    with pytest.raises(ExprDomainError) as err:
        hist.validate(0.92)
    assert (str(err.value), err.value.symbol) == (message, name)


def test_a_history_failing_only_in_the_kernel_is_named_in_its_component():
    """With delays of 0.5 the kernel reads phi1 on [-0.5, 0], where
    sqrt(t + 0.25) fails below -0.25; no validation runs first."""
    hist = InitialHistory(parse_expression("sqrt(t + 0.25)"), 0.5)
    with pytest.raises(ExprDomainError) as err:
        integrate(constant_spec(), hist, 0.0, 1.0, 0.01)
    assert (str(err.value), err.value.symbol) == ("sqrt of negative value at t=-0.5", "phi1")


def test_each_held_expression_carries_its_field_however_it_is_built():
    """ModelSpec and InitialHistory name each expression they hold by its
    field, built from strings, field by field (from expressions, text or
    numbers) or by replace; both are frozen."""
    one = parse_expression("1")
    assert one.symbol is None
    direct = ModelSpec(**dict.fromkeys(SYMBOLS, one))
    text = ModelSpec(**dict.fromkeys(SYMBOLS, "1"))
    numbers = ModelSpec(**dict.fromkeys(SYMBOLS, 1.0))
    for spec in (constant_spec(), direct, dataclasses.replace(direct, c2=one), text, numbers):
        assert all(isinstance(getattr(spec, sym), CoefficientExpr) for sym in SYMBOLS)
        assert [getattr(spec, sym).symbol for sym in SYMBOLS] == list(SYMBOLS)
    assert text == ModelSpec.from_strings(dict.fromkeys(SYMBOLS, "1"))
    assert all(getattr(numbers, sym).program == (("const", 1.0),) for sym in SYMBOLS)
    hist = InitialHistory(one, one)
    assert (hist.phi1.symbol, hist.phi2.symbol, one.symbol) == ("phi1", "phi2", None)
    # a number becomes the one-instruction constant program of its repr
    numbers = InitialHistory(0.5, 2)
    assert numbers.phi1 == CoefficientExpr((("const", 0.5),), "phi1")
    assert numbers.phi2 == CoefficientExpr((("const", 2.0),), "phi2")
    with pytest.raises(dataclasses.FrozenInstanceError):  # so no field can take an expression named elsewhere
        hist.phi1 = direct.a1


def test_text_that_does_not_parse_names_its_field():
    with pytest.raises(ExprSyntaxError, match=r"^a1: unexpected end of input at position 2$") as err:
        ModelSpec.from_strings(dict.fromkeys(SYMBOLS, "1+"))
    assert err.value.position == 2


def test_a_value_that_is_no_expression_names_its_field():
    with pytest.raises(ValidationError, match=r"^phi1: expected an expression, text or a finite number, got None$"):
        InitialHistory(None, 0.5)


def test_history_expression_values():
    hist = InitialHistory(parse_expression("1 + t"), 2.0)
    assert hist.phi1(-0.5) == 0.5
    assert hist.phi2(-0.5) == 2.0
    assert np.array_equal(hist.phi2(np.array([-0.5, 0.0])), [2.0, 2.0])
    # text is parsed, and the text of a number gives the number's history
    assert InitialHistory("1 + t", "2.0") == hist
    assert InitialHistory("0.5", 0.5) == InitialHistory(0.5, 0.5)
