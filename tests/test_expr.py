import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgholling import (
    ExprDomainError,
    ExprSyntaxError,
    estimate_bounds,
    evaluate,
    evaluate_array,
    parse_expression,
    serialize,
)
from lgholling.expr import _candidate_cells
from lgholling.presets import PRESET_NAMES, preset_config
from conftest import reference_golden_min

EXPR_CORPUS = [
    "0.04 + 0.125*abs(cos(sqrt(2)*t)) + 0.125*exp(-t)",
    "2.6 + 0.5*cos(t)",
    "0.25*abs(cos(t)) + (33.72 + 32.72*t^2)/(4 + 4*t^2)",
    "0.03 + 0.125*(abs(sin(sqrt(2)*t)) + abs(cos(sqrt(5)*t)))",
    "3.2",
    "t",
    "1e-9 + t^2",
    "-t + 2*(t - 0.5)",
]


def test_parse_example1_growth_rate_at_zero():
    # cos(0) = 1 and exp(0) = 1, so the value is 0.04 + 0.125 + 0.125
    e = parse_expression("0.04 + 0.125*abs(cos(sqrt(2)*t)) + 0.125*exp(-t)")
    assert evaluate(e, 0.0) == pytest.approx(0.29, abs=1e-15)


def test_parse_identity():
    assert evaluate(parse_expression("t"), 2.5) == 2.5


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression("2*")
    assert exc.value.position == 2


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse_expression("q + 1")
    with pytest.raises(ExprSyntaxError):
        parse_expression("tan(t)")


def test_empty_expression_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("   ")


def test_evaluate_cosine_sum():
    assert evaluate(parse_expression("2.6+0.5*cos(t)"), 0.0) == pytest.approx(3.1, abs=1e-15)


def test_evaluate_constant_any_t():
    e = parse_expression("3.2")
    for t in (-10.0, 0.0, 1234.5):
        assert evaluate(e, t) == 3.2


def test_division_by_zero_is_domain_error():
    e = parse_expression("1/(t-1)")
    with pytest.raises(ExprDomainError):
        evaluate(e, 1.0)
    with pytest.raises(ExprDomainError):
        evaluate_array(e, np.array([0.0, 1.0, 2.0]))


def test_sqrt_of_negative_is_domain_error():
    with pytest.raises(ExprDomainError):
        evaluate(parse_expression("sqrt(t)"), -1.0)


def test_exp_overflow_is_domain_error():
    with pytest.raises(ExprDomainError):
        evaluate(parse_expression("exp(t)"), 1e4)


def test_power_requires_literal_nonnegative_integer():
    assert evaluate(parse_expression("t^2"), 3.0) == 9.0
    with pytest.raises(ExprSyntaxError):
        parse_expression("t^2.5")
    with pytest.raises(ExprSyntaxError):
        parse_expression("t^-1")


def test_scientific_literals():
    assert evaluate(parse_expression("1e-9"), 0.0) == 1e-9
    assert evaluate(parse_expression("2.5E+2"), 0.0) == 250.0


def test_unary_minus_precedence():
    # unary minus binds looser than ^: -t^2 == -(t^2)
    assert evaluate(parse_expression("-t^2"), 3.0) == -9.0
    assert evaluate(parse_expression("2*-3"), 0.0) == -6.0


def test_array_matches_scalar_evaluation():
    ts = np.linspace(-5.0, 5.0, 101)
    for text in EXPR_CORPUS:
        e = parse_expression(text)
        arr = evaluate_array(e, ts)
        for i in (0, 17, 50, 100):
            assert arr[i] == evaluate(e, float(ts[i]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXPR_CORPUS), st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_serialize_round_trip_evaluates_identically(text, t):
    e = parse_expression(text)
    e2 = parse_expression(serialize(e))
    assert evaluate(e2, t) == evaluate(e, t)


def random_expr_text(draw, depth=0):
    """Recursive strategy for random well-formed expression strings.

    sqrt and / are kept total by construction (sqrt(abs(..)), division by
    a bounded-away-from-zero term), so evaluation never hits domain errors.
    """
    leaf = st.one_of(
        st.just("t"),
        st.floats(min_value=0.0, max_value=9.5, allow_nan=False).map(lambda v: format(v, ".4f")),
    )
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        return draw(leaf)
    kind = draw(st.integers(0, 6))
    a = random_expr_text(draw, depth + 1)
    if kind == 0:
        return f"({a} + {random_expr_text(draw, depth + 1)})"
    if kind == 1:
        return f"({a} - {random_expr_text(draw, depth + 1)})"
    if kind == 2:
        return f"({a} * {random_expr_text(draw, depth + 1)})"
    if kind == 3:
        return f"({a} / (2 + abs({random_expr_text(draw, depth + 1)})))"
    if kind == 4:
        fn = draw(st.sampled_from(["sin", "cos"]))
        return f"{fn}({a})"
    if kind == 5:
        return f"sqrt(abs({a}))"
    return f"(-{a})"


@settings(max_examples=80, deadline=None)
@given(st.data(), st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
def test_random_ast_round_trip(data, t):
    text = random_expr_text(data.draw)
    e = parse_expression(text)
    e2 = parse_expression(serialize(e))
    v1, v2 = evaluate(e, t), evaluate(e2, t)
    assert v1 == v2
    assert serialize(e2) == serialize(e)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXPR_CORPUS), st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_evaluate_is_pure(text, t):
    e = parse_expression(text)
    assert evaluate(e, t) == evaluate(e, t)


def test_estimate_bounds_cosine():
    est = estimate_bounds(parse_expression("2.6+0.5*cos(t)"), horizon=100.0, samples=100_000)
    assert est.inf_value == pytest.approx(2.1, abs=1e-3)
    assert est.sup_value == pytest.approx(3.1, abs=1e-3)


def test_estimate_bounds_constant():
    est = estimate_bounds(parse_expression("3.5"), horizon=10.0, samples=100)
    assert est.inf_value == 3.5
    assert est.sup_value == 3.5


def test_estimate_bounds_rational():
    # decreasing from 8.43 at t=0 to the tail limit 32.72/4 = 8.18
    est = estimate_bounds(parse_expression("(33.72+32.72*t^2)/(4+4*t^2)"), horizon=1e4, samples=100_000)
    assert est.inf_value == pytest.approx(8.18, abs=1e-2)
    assert est.sup_value == pytest.approx(8.43, abs=1e-2)


def test_estimate_bounds_validates_arguments():
    e = parse_expression("t")
    with pytest.raises(ValueError):
        estimate_bounds(e, horizon=0.0, samples=10)
    with pytest.raises(ValueError):
        estimate_bounds(e, horizon=1.0, samples=1)


@pytest.mark.parametrize("text", EXPR_CORPUS)
def test_bounds_nest_outward_with_finer_grids(text):
    # nested grids: linspace(0,H,n) points are a subset of linspace(0,H,2n-1)
    e = parse_expression(text)
    n = 501
    prev = estimate_bounds(e, horizon=20.0, samples=n)
    for _ in range(3):
        n = 2 * n - 1
        cur = estimate_bounds(e, horizon=20.0, samples=n)
        assert cur.inf_value <= prev.inf_value + 1e-12
        assert cur.sup_value >= prev.sup_value - 1e-12
        prev = cur


def test_bounds_are_of_absolute_value():
    est = estimate_bounds(parse_expression("-2 + t"), horizon=4.0, samples=4001)
    assert est.inf_value == pytest.approx(0.0, abs=1e-6)
    assert est.sup_value == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_estimate_bounds_equals_scalar_golden_reference(name):
    """Refining all candidate cells together gives the same sup/inf, bit for
    bit, as refining them one at a time with scalar evaluations."""
    options = preset_config(name)["options"]
    horizon, samples = options["bounds_horizon"], options["bounds_samples"]
    grid = np.linspace(0.0, horizon, samples)
    h = grid[1] - grid[0]
    for sym, text in preset_config(name)["model"].items():
        e = parse_expression(text)
        mag = np.abs(evaluate_array(e, grid))
        inf_value, sup_value = float(mag.min()), float(mag.max())
        for idx in _candidate_cells(mag):
            lo, hi = max(0.0, grid[idx] - h), min(horizon, grid[idx] + h)
            inf_value = min(inf_value, reference_golden_min(lambda t: abs(evaluate(e, t)), lo, hi))
        for idx in _candidate_cells(-mag):
            lo, hi = max(0.0, grid[idx] - h), min(horizon, grid[idx] + h)
            sup_value = max(sup_value, -reference_golden_min(lambda t: -abs(evaluate(e, t)), lo, hi))
        est = estimate_bounds(e, horizon=horizon, samples=samples)
        assert (est.inf_value, est.sup_value) == (inf_value, sup_value), sym
