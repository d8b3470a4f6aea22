import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgholling import (
    ExprDomainError,
    ExprSyntaxError,
    ModelSpec,
    evaluate,
    evaluate_array,
    parse_expression,
    serialize,
    validate_model,
)
from lgholling import expr as expr_module
from lgholling.expr import (_FUNCTIONS, _MAX_DEPTH, _MAX_LENGTH, CoefficientExpr, _enclose, _grid,
                             _sampled_cells, _scan)
from lgholling.presets import PRESET_NAMES, preset_config
from conftest import reference_candidate_cells, reference_eval_array, reference_scan

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


@pytest.mark.parametrize("text, message, position", [
    ("", "empty expression", 0),
    ("   ", "empty expression", 0),
    ("2*", "unexpected end of input", 2),
    ("sin(", "unexpected end of input", 4),
    ("2 * $", "unexpected character '$'", 4),
    ("  @t", "unexpected character '@'", 2),
    (".", "unexpected character '.'", 0),
    ("t + 1 $ )", "unexpected character '$'", 6),  # the whole text is tokenized before parsing
    ("q + 1", "unknown identifier 'q'", 0),
    ("tan(t)", "unknown identifier 'tan'", 0),
    ("sin t", "expected '('", 4),
    ("sin", "expected '('", 3),
    ("sin(t", "expected ')'", 5),
    ("(t", "expected ')'", 2),
    ("t)", "unexpected token ')'", 1),
    (")", "unexpected token ')'", 0),
    ("t+)", "unexpected token ')'", 2),
    ("2t", "unexpected token 't'", 1),
    ("t 2", "unexpected token '2'", 2),
    ("1..2", "unexpected token '.2'", 2),
    ("1e", "unexpected token 'e'", 1),
    ("abs()", "unexpected token ')'", 4),
    ("t^2.5", "exponent must be a literal integer >= 0", 2),
    ("t^-1", "exponent must be a literal integer >= 0", 2),
    ("t^t", "exponent must be a literal integer >= 0", 2),
    ("t^(2)", "exponent must be a literal integer >= 0", 2),
    ("t^", "exponent must be a literal integer >= 0", 2),
])
def test_syntax_error_message_and_position(text, message, position):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression(text)
    assert (str(exc.value), exc.value.position) == (f"{message} at position {position}", position)


@pytest.mark.parametrize("text, canonical", [
    ("-2^2", "(-4.0)"),  # unary minus binds looser than ^
    ("2^3^2", "64.0"),  # ^ is left-associative: (2^3)^2
    ("--t", "(-(-t))"),
    ("+t", "t"),
    (" t ", "t"),
    ("sqrt(2)*t", "(1.4142135623730951*t)"),
    ("-t^2", "(-(t^2))"),
    ("t^0", "(t^0)"),
    ("1.5e+3*t^02", "(1500.0*(t^2))"),
    (".5e-1-t", "(0.05-t)"),
    ("t\t+\t1", "(t+1.0)"),
    ("3^2*t+-t/2", "((9.0*t)+((-t)/2.0))"),
    ("1e999*t", "(1e999*t)"),
])
def test_parse_folds_to_canonical_form(text, canonical):
    assert serialize(parse_expression(text)) == canonical


def test_non_finite_exponent_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression("5 + 0*t^1e400")
    assert (str(exc.value), exc.value.position) == ("exponent must be a literal integer >= 0 at position 8", 8)


@pytest.mark.parametrize("text", [
    "-" * 3000 + "5",
    "+".join(["0.001"] * 5000),
    "5 + 0*t" + "+0*t" * 5000,
    "5+0*(" * 400 + "t" + ")" * 400,
], ids=["unary-minus", "sum", "t-sum", "parens"])
def test_too_deep_expression_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match="^expression nested too deeply at position 0$"):
        parse_expression(text)


def test_text_longer_than_the_cap_is_refused_before_tokenizing(monkeypatch):
    """A text of 65,536 characters parses; one character more is refused
    at that position without being tokenized, whatever it holds."""
    at_cap = "5" + " " * (_MAX_LENGTH - 1)
    assert _MAX_LENGTH == 65_536 and evaluate(parse_expression(at_cap), 0.0) == 5.0

    def no_tokenizing(text):
        raise AssertionError("tokenized")

    monkeypatch.setattr(expr_module, "_parse", no_tokenizing)
    for text in (at_cap + " ", "t" + "+t" * 10**6):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression(text)
        assert (str(exc.value), exc.value.position) == ("expression longer than 65536 characters at position 65536",
                                                        65536)


def nest(shape: str, depth: int) -> str:
    """An expression whose tree is depth levels deep."""
    n = depth - 1
    return {"sum": "t" + "+t" * n, "minus": "-" * n + "t", "abs": "abs(" * n + "t" + ")" * n,
            "parens": "5+0*(" * (n // 2) + "t" + ")" * (n // 2) + "^1" * (n % 2)}[shape]


def in_nested_frames(frames: int, fn, *args):
    """fn(*args) called from inside frames nested Python calls."""
    return fn(*args) if frames == 0 else in_nested_frames(frames - 1, fn, *args)


@pytest.mark.parametrize("frames", [0, 900])
@pytest.mark.parametrize("shape", ["sum", "minus", "abs", "parens"])
def test_depth_cap_is_500_wherever_the_caller_stands(shape, frames):
    """The cap is the tree's depth, not the stack's: depth 500 parses and
    depth 501 raises at position 0, also from 900 frames down."""
    assert _MAX_DEPTH == 500
    e = in_nested_frames(frames, parse_expression, nest(shape, 500))
    assert evaluate(e, 2.0) == evaluate(parse_expression(serialize(e)), 2.0)
    with pytest.raises(ExprSyntaxError) as exc:
        in_nested_frames(frames, parse_expression, nest(shape, 501))
    assert (str(exc.value), exc.value.position) == ("expression nested too deeply at position 0", 0)


def test_a_program_deeper_than_the_cap_evaluates_and_serializes():
    """A 5,000-deep program built directly runs in the evaluation and
    serialization loops; neither recurses."""
    e = CoefficientExpr((("t", None),) + (("t", None), ("+", None)) * 5000, "t" + "+t" * 5000)
    assert np.array_equal(evaluate_array(e, np.arange(3.0)), np.arange(3.0) * 5001)
    assert serialize(e) == "(" * 5000 + "t" + "+t)" * 5000


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
    kind = draw(st.integers(0, 7))
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
    if kind == 6:
        return f"({a})^{draw(st.integers(0, 3))}"
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


@pytest.mark.parametrize("text", EXPR_CORPUS + ["2*1.6", "t*(2^3) - sqrt(2)/cos(1)", "exp(-0.5)*t^3", "1/exp(1000) + t"])
def test_folded_evaluation_equals_unfolded_reference(text):
    ts = np.linspace(-5.0, 5.0, 1001)
    assert np.array_equal(evaluate_array(parse_expression(text), ts), reference_eval_array(text, ts))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_ast_folded_evaluation_equals_unfolded_reference(data):
    text = random_expr_text(data.draw)
    ts = np.linspace(-20.0, 20.0, 257)
    assert np.array_equal(evaluate_array(parse_expression(text), ts), reference_eval_array(text, ts))


@pytest.mark.parametrize("text", ["3.2", "2*1.6", "(-3.2)", "sqrt(2)", "2^3", "abs(cos(1))*exp(-2)", "1/exp(1000)"])
def test_constant_subtrees_fold_to_one_const(text):
    (op, value), = parse_expression(text).program
    assert op == "const"
    assert value == reference_eval_array(text, [0.0])[0]


@pytest.mark.parametrize("text, message", [
    ("1/0", "division by zero at t=0.0"),
    ("sqrt(-1)", "sqrt of negative value at t=0.0"),
    ("exp(1000)", "non-finite value at t=0.0"),
    ("exp(1000)*0", "non-finite value at t=0.0"),
    ("t + 1/(2 - 2)", "division by zero at t=0.0"),
])
def test_failing_constant_subtrees_stay_unfolded(text, message):
    e = parse_expression(text)
    assert len(e.program) > 1
    ts = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ExprDomainError) as exc:
        evaluate_array(e, ts)
    assert str(exc.value) == message
    with pytest.raises(ExprDomainError) as exc:
        reference_eval_array(text, ts)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", ["t", "+t", "3.2", "2*t"])
def test_evaluate_array_returns_a_fresh_array(text):
    g = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    before = g.copy()
    out = evaluate_array(parse_expression(text), g)
    assert out is not g and out.shape == g.shape and out.dtype == np.float64
    out[...] = -1.0  # raises if the result is read-only
    assert np.array_equal(g, before)


@pytest.mark.parametrize("t", [np.linspace(2.0, 3.0, 7), np.linspace(2.0, 3.0, 6).reshape(2, 3), np.array(2.5)])
def test_a_folded_constant_evaluates_without_the_loop(monkeypatch, t):
    """A one-instruction constant is filled in without _run; a non-finite
    literal raises at t's first time, from the check after its instruction."""
    folded, huge = parse_expression("2*1.6"), parse_expression("1e999")
    monkeypatch.setattr(expr_module, "_run", None)
    got = evaluate_array(folded, t)
    assert got.shape == t.shape and (got == 3.2).all()
    assert evaluate_array(folded, np.empty(0)).shape == (0,)
    with pytest.raises(ExprDomainError) as exc:
        evaluate_array(huge, t)
    assert (str(exc.value), exc.value.instruction) == (f"non-finite value at t={float(t.flat[0])!r}", 1)


def test_serialize_keeps_a_folded_negative_literal_parenthesized():
    # (-1e200)^2 overflows, so it stays unfolded, with the folded -1e200 as its base
    e = parse_expression("t/((-1e200)^2)")
    e2 = parse_expression(serialize(e))
    assert serialize(e2) == serialize(e)
    assert not np.signbit(evaluate(e2, 1.0))


@pytest.mark.parametrize("value, text", [(math.inf, "(1.0/(1e999*t))"), (-math.inf, "(1.0/((-1e999)*t))")])
def test_serialize_writes_an_infinite_literal_that_reparses(value, text):
    """A literal past float range is infinite; it serializes to a literal
    that reparses to the same infinity (1/(inf*t) is a finite +-0)."""
    e = CoefficientExpr((("const", 1.0), ("const", value), ("t", None), ("*", None), ("/", None)), text)
    assert serialize(e) == text
    reparsed = parse_expression(text)
    assert serialize(reparsed) == text
    g = np.array([-2.0, 0.5, 3.0])
    a, b = evaluate_array(e, g), evaluate_array(reparsed, g)
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    assert serialize(parse_expression("1e999*t")) == "(1e999*t)"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXPR_CORPUS), st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_evaluate_is_pure(text, t):
    e = parse_expression(text)
    assert evaluate(e, t) == evaluate(e, t)


def test_scan_cosine():
    est, _, _ = _scan(parse_expression("2.6+0.5*cos(t)"), 100.0, 100_000)
    assert est.inf_value == pytest.approx(2.1, abs=1e-3)
    assert est.sup_value == pytest.approx(3.1, abs=1e-3)


def test_scan_constant():
    for text in ("3.5", "(-3.5)", "7/2"):
        est, _, _ = _scan(parse_expression(text), 10.0, 100)
        assert (est.inf_value, est.sup_value, est.horizon, est.samples) == (3.5, 3.5, 10.0, 100)


def test_scan_rational():
    # decreasing from 8.43 at t=0 to the tail limit 32.72/4 = 8.18
    est, _, _ = _scan(parse_expression("(33.72+32.72*t^2)/(4+4*t^2)"), 1e4, 100_000)
    assert est.inf_value == pytest.approx(8.18, abs=1e-2)
    assert est.sup_value == pytest.approx(8.43, abs=1e-2)


@pytest.mark.parametrize("text", EXPR_CORPUS)
def test_bounds_nest_outward_with_finer_grids(text):
    # nested grids: linspace(0,H,n) points are a subset of linspace(0,H,2n-1)
    e = parse_expression(text)
    n = 501
    prev = _scan(e, 20.0, n)[0]
    for _ in range(3):
        n = 2 * n - 1
        cur = _scan(e, 20.0, n)[0]
        assert cur.inf_value <= prev.inf_value + 1e-12
        assert cur.sup_value >= prev.sup_value - 1e-12
        prev = cur


def test_bounds_are_of_absolute_value():
    est, _, _ = _scan(parse_expression("-2 + t"), 4.0, 4001)
    assert est.inf_value == pytest.approx(0.0, abs=1e-6)
    assert est.sup_value == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_scan_equals_scalar_golden_reference(name):
    """The blocked scan, with all candidate cells refined together, gives
    the same sup/inf, raw minimum and its t, bit for bit, as the
    whole-array scan that refines the cells one at a time with scalar
    evaluations; so does validate_model."""
    config = preset_config(name)
    horizon, samples = config["options"]["bounds_horizon"], config["options"]["bounds_samples"]
    grid = np.linspace(0.0, horizon, samples)
    report = validate_model(ModelSpec.from_strings(config["model"]), horizon=horizon, samples=samples)
    for sym, text in config["model"].items():
        e = parse_expression(text)
        want = reference_scan(e, horizon, grid)
        assert _scan(e, horizon, samples) == want, sym
        assert report.bounds[sym] == want[0], sym


@pytest.mark.parametrize("n, horizon", [(1, 1000.0), (2, 1000.0), (16, 1000.0), (12, 3.2), (1001, 1000.0),
                                        (3, 5e-324), (7, -5.0)])
def test_scan_grid_is_linspace(n, horizon):
    """The scan's samples, made index by index, are the floats of
    np.linspace(0, horizon, n), in any order: with an endpoint that
    (n - 1) * step misses (16 on 1000, 12 on 3.2), a step that underflows
    to 0 and a negative horizon's zero."""
    want = np.linspace(0.0, horizon, n)
    for i in (np.arange(n), np.arange(n)[::-1]):
        assert _grid(i, n, horizon).tobytes() == want[i].tobytes()


def scan_both(text: str, horizon: float, n: int):
    """The blocked scan and the whole-array reference on linspace(0, horizon, n)."""
    e = parse_expression(text)
    grid = np.linspace(0.0, horizon, n)
    return _scan(e, horizon, n), reference_scan(e, horizon, grid)


@pytest.fixture
def block8(monkeypatch):
    """Scan blocks of 8 samples."""
    monkeypatch.setattr(expr_module, "_SCAN_BLOCK", 8)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 17])
@pytest.mark.parametrize("text", [t for t in EXPR_CORPUS if t != "3.2"] + ["sin(3*t)"])
def test_blocked_scan_equals_whole_array_scan(block8, text, n):
    got, want = scan_both(text, 10.0, n)
    assert got == want


@pytest.mark.parametrize("idx", [7, 8, 15, 16])
@pytest.mark.parametrize("shape", ["1 + (t - {c})^2", "2 - 0.1*(t - {c})^2"])
def test_blocked_scan_extremum_on_a_block_edge(block8, shape, idx):
    grid = np.linspace(0.0, 3.2, 33)
    text = shape.format(c=repr(float(grid[idx])))
    mag = np.abs(evaluate_array(parse_expression(text), grid))
    extreme = mag if shape.startswith("1") else -mag
    assert idx in reference_candidate_cells(extreme)
    got, want = scan_both(text, 3.2, 33)
    assert got == want


def test_blocked_scan_of_a_flat_expression(block8):
    assert len(parse_expression("1 + 0*t").program) > 1
    got, want = scan_both("1 + 0*t", 10.0, 101)
    assert got == want
    assert (got[0].inf_value, got[0].sup_value) == (1.0, 1.0)


def test_blocked_scan_caps_near_tied_minima(monkeypatch):
    monkeypatch.setattr(expr_module, "_SCAN_BLOCK", 64)
    grid = np.linspace(0.0, 200.0, 2001)
    mag = np.abs(evaluate_array(parse_expression("abs(sin(t))"), grid))
    assert reference_candidate_cells(mag, cap=10**6).size > 40
    got, want = scan_both("abs(sin(t))", 200.0, 2001)
    assert got == want


@pytest.mark.parametrize("text, t_min", [("cos(t)", 1.6), ("2 + cos(t)", 9.4)])
def test_blocked_scan_finds_the_raw_minimum_in_a_later_block(block8, text, t_min):
    """cos(t) first goes nonpositive at t = 1.6, in the third block; 2 + cos(t)
    stays positive and is least at 9.4, in the twelfth."""
    got, want = scan_both(text, 10.0, 101)
    assert got == want
    assert got[2] == t_min


@pytest.mark.parametrize("block", [1, 8, 1 << 16])
@pytest.mark.parametrize("text, n, message, early", [
    # a block that holds t = 100 but no t > 400 fails on the division; the
    # whole-grid walk fails on the square root first, and so does the scan
    ("sqrt(400-t) + 1/(t-100)", 1001, "sqrt of negative value at t=401.0", (96, "division by zero at t=100.0")),
    # three checks, each first failing in a later block than the check after
    # it in the program: the first in the program wins
    ("sqrt(700-t) + 0*sqrt(400-t) + 1/(t-100)", 1001, "sqrt of negative value at t=701.0",
     (396, "sqrt of negative value at t=401.0")),
    # non-finite from t = 0 on, but the final non-finite check comes after
    # every instruction, so a square root that fails only later wins
    ("exp(800 - 10*t) + sqrt(500 - t)", 1001, "sqrt of negative value at t=501.0", (0, "non-finite value at t=0.0")),
    # one sample, at 0, and two, at 0 and exactly the horizon
    ("sqrt(400-t) + 1/t", 1, "division by zero at t=0.0", None),
    ("sqrt(400-t) + 1/t", 2, "sqrt of negative value at t=1000.0", None),
    ("1/(t - 1000) + exp(800 - t)", 2, "division by zero at t=1000.0", None),
    ("exp(800 - t)", 2, "non-finite value at t=0.0", None),
])
def test_blocked_scan_raises_the_whole_grid_error(monkeypatch, block, text, n, message, early):
    monkeypatch.setattr(expr_module, "_SCAN_BLOCK", block)
    e = parse_expression(text)
    grid = np.linspace(0.0, 1000.0, n)
    with pytest.raises(ExprDomainError) as whole:
        reference_scan(e, 1000.0, grid)
    assert str(whole.value) == message
    with pytest.raises(ExprDomainError) as blocked:
        _scan(e, 1000.0, n)
    assert str(blocked.value) == message
    if early:  # an 8-sample block there meets another error
        start, block_message = early
        with pytest.raises(ExprDomainError, match=f"^{re.escape(block_message)}$"):
            evaluate_array(e, grid[start:start + 8])


def test_blocked_scan_raises_the_inf_refinement_error_first():
    """Every sample lies in the domain, but both refinements step out of it:
    the inf's near t = 0.55 and, in an earlier golden-section iteration, the
    sup's near t = 0.25.  The error raised is the inf's, as when each sign
    is refined alone."""
    e = parse_expression("sqrt(abs(t-0.55) - 0.003) + 1/sqrt(abs(t-0.25) - 0.004)")
    grid = np.linspace(0.0, 1.0, 12)
    evaluate_array(e, grid)
    with pytest.raises(ExprDomainError) as want:
        reference_scan(e, 1.0, grid)
    with pytest.raises(ExprDomainError) as got:
        _scan(e, 1.0, grid.size)
    assert str(got.value) == str(want.value) == "sqrt of negative value at t=0.5505207354546219"


# ---------------------------------------------------------------------------
# the skipping scan: cells an interval enclosure rules out are not sampled
# ---------------------------------------------------------------------------


def random_program_text(draw, depth=0):
    """Random expression strings over the whole grammar, checks included:
    a square root or a divisor may fail, and exp may overflow."""
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        return draw(st.one_of(st.just("t"), st.floats(min_value=0.0, max_value=9.5).map(lambda v: format(v, ".4f"))))
    a = random_program_text(draw, depth + 1)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return f"({a} {draw(st.sampled_from('+-*/'))} {random_program_text(draw, depth + 1)})"
    if kind == 1:
        return f"{draw(st.sampled_from(_FUNCTIONS))}({a})"
    if kind == 2:
        return f"({a})^{draw(st.integers(0, 4))}"
    if kind == 3:
        return f"(-{a})"
    return f"{draw(st.sampled_from(['2.6', '0.5', '1']))} + {a}"


def scan_outcome(scan):
    """A scan's result, or the text of the ExprDomainError it raises."""
    try:
        return scan()
    except ExprDomainError as exc:
        return str(exc)


@pytest.fixture(params=[2, 4])
def small_cells(request, monkeypatch):
    """Scan blocks of 8 samples and cells of 2 or 4: grids of 32 samples
    and more go through the enclosure pass."""
    monkeypatch.setattr(expr_module, "_SCAN_BLOCK", 8)
    monkeypatch.setattr(expr_module, "_SCAN_CELL", request.param)


def skipped_cells_meet_the_four_conditions(e, horizon: float, n: int) -> int:
    """Checks each cell _sampled_cells skips against the whole grid: its
    samples (and the next cell's first) are positive, lie above every
    candidate the inf keeps and below every one the sup keeps, and its steps
    are below the grid's largest; the end cells are sampled.  Returns how
    many cells were skipped."""
    sampled = _sampled_cells(e, horizon, n)
    if sampled is None:
        return 0
    raw = evaluate_array(e, np.linspace(0.0, horizon, n))
    mag, cell = np.abs(raw), expr_module._SCAN_CELL
    steps = np.abs(np.diff(mag))
    dmax, least, most = steps.max(), mag.min(), mag.max()
    assert sampled[0] and sampled[-1]
    at = np.minimum(np.flatnonzero(~sampled)[:, None] * cell + np.arange(cell + 1), n - 1)
    assert (raw[at] > 0.0).all()
    assert (mag[at].min(axis=1) > least + 2.0 * dmax + 1e-15).all()
    assert (mag[at].max(axis=1) < most - 2.0 * dmax - 1e-15).all()
    assert (steps[np.minimum(at[:, :-1], n - 2)].max(axis=1) < dmax).all()
    return int((~sampled).sum())


@pytest.mark.parametrize("n", [33, 101, 257])
@pytest.mark.parametrize("text", [t for t in EXPR_CORPUS if t != "3.2"] + ["sin(3*t)"])
def test_skipping_scan_equals_whole_array_scan(small_cells, text, n):
    got, want = scan_both(text, 10.0, n)
    assert got == want
    skipped_cells_meet_the_four_conditions(parse_expression(text), 10.0, n)


@pytest.mark.parametrize("text", ["1 + 1e-13*t", "1 + 3e-15*sin(t)", "2 + 1e-12*abs(cos(t))"])
def test_skipping_scan_of_a_curve_within_rounding_of_flat(small_cells, text):
    """Steps of a few ulps, set by rounding more than by the slope: only the
    error bound keeps such cells from being skipped."""
    got, want = scan_both(text, 10.0, 257)
    assert got == want
    skipped_cells_meet_the_four_conditions(parse_expression(text), 10.0, 257)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_skipped_cells_meet_the_four_conditions(name):
    skipped = [skipped_cells_meet_the_four_conditions(parse_expression(text), 1000.0, 1_000_000)
               for text in preset_config(name)["model"].values()]
    assert sum(skipped) > 0


def test_skipping_scan_skips_cells_of_the_corpus(small_cells):
    """The corpus tests above are not all fallbacks: most of its curves skip cells."""
    skipping = [text for text in EXPR_CORPUS if (s := _sampled_cells(parse_expression(text), 10.0, 257)) is not None
                and not s.all()]
    assert len(skipping) >= 4


@pytest.mark.parametrize("idx", [7, 8, 15, 16])
@pytest.mark.parametrize("shape", ["1 + (t - {c})^2", "2 - 0.1*(t - {c})^2"])
def test_skipping_scan_extremum_on_a_block_edge(small_cells, shape, idx):
    text = shape.format(c=repr(float(np.linspace(0.0, 3.2, 33)[idx])))
    got, want = scan_both(text, 3.2, 33)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([(3.2, 33), (10.0, 65), (10.0, 101)]))
def test_skipping_scan_of_random_programs_equals_whole_array_scan(data, grid):
    horizon, n = grid
    e = parse_expression(random_program_text(data.draw))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr_module, "_SCAN_BLOCK", 8)
        patch.setattr(expr_module, "_SCAN_CELL", data.draw(st.sampled_from([2, 4])))
        got = scan_outcome(lambda: _scan(e, horizon, n))
        if not isinstance(got, str):
            skipped_cells_meet_the_four_conditions(e, horizon, n)
    assert got == scan_outcome(lambda: reference_scan(e, horizon, np.linspace(0.0, horizon, n)))


def count_samples(monkeypatch):
    """Wraps evaluate_array to count the samples it is given."""
    count = [0]
    inner = expr_module.evaluate_array

    def counted(expr, t):
        count[0] += np.size(t)
        return inner(expr, t)

    monkeypatch.setattr(expr_module, "evaluate_array", counted)
    return count


@pytest.mark.parametrize("text, horizon", [
    ("1 + 0*t", 10.0),  # flat: no sampled step bounds the others
    ("1 + 1e-300*sin(t)", 10.0),  # flat once rounded
    ("sqrt(900 - t)", 1000.0),  # a square root that fails
    ("exp(709*sin(t))", 10.0),  # every sample is finite, but the derivative's enclosure overflows
])
def test_scan_samples_every_cell_where_the_skip_cannot_be_proven(monkeypatch, text, horizon):
    monkeypatch.setattr(expr_module, "_SCAN_BLOCK", 8)
    monkeypatch.setattr(expr_module, "_SCAN_CELL", 4)
    e, n = parse_expression(text), 101
    assert _sampled_cells(e, horizon, n) is None
    count = count_samples(monkeypatch)
    got = scan_outcome(lambda: _scan(e, horizon, n))
    assert count[0] >= n
    assert got == scan_outcome(lambda: reference_scan(e, horizon, np.linspace(0.0, horizon, n)))


def test_an_overflowing_enclosure_marks_its_cells_unsafe():
    e, t = parse_expression("exp(709*sin(t))"), np.linspace(0.0, 10.0, 101)
    assert np.isfinite(evaluate_array(e, t)).all()
    assert not _enclose(e.program, t[:-1], t[1:])[-1].all()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_coefficients_sample_at_most_30_percent_of_their_grid(monkeypatch, name):
    """Each time-varying coefficient of a preset samples at most 30% of its
    10^6-point grid, pilots and refinement included."""
    for sym, text in preset_config(name)["model"].items():
        e = parse_expression(text)
        if len(e.program) > 1:
            count = count_samples(monkeypatch)
            _scan(e, 1000.0, 1_000_000)
            assert count[0] <= 300_000, (sym, count[0])


def enclosure_holds_every_computed_sample_and_step(e, edges):
    """On each cell between the edges, a safe enclosure holds every computed
    sample, and every step is within h sup|f'| + 2E."""
    vlo, vhi, dlo, dhi, err, safe = _enclose(e.program, edges[:-1], edges[1:])
    for k in np.flatnonzero(safe):
        t = np.linspace(edges[k], edges[k + 1], 65)
        values = evaluate_array(e, t)
        assert ((vlo[k] <= values) & (values <= vhi[k])).all()
        h = float(np.diff(t).max()) * (1.0 + 1e-12)
        assert (np.abs(np.diff(values)) <= h * max(abs(dlo[k]), abs(dhi[k])) + 2.0 * err[k]).all()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=1e-3, max_value=2.0))
def test_enclosure_of_random_programs_holds_every_computed_sample_and_step(data, start, width):
    e = parse_expression(random_program_text(data.draw))
    enclosure_holds_every_computed_sample_and_step(e, np.linspace(start, start + 4.0 * width, 5))


@pytest.mark.parametrize("text", [
    "abs(t - 5) - t",  # the derivative's sign flips at the kink
    "abs(t - 5)^3 - (t - 5)^3",
    "(33.72 + 32.72*t^2)/(4 + 4*t^2)",  # a quotient whose derivative cancels
    "sqrt(t + 1)*sin(3*t) - cos(3*t)/(2 + t)",
    "exp(-t)*cos(t) + exp(sin(t))",
])
def test_enclosure_holds_every_computed_sample_and_step(text):
    e = parse_expression(text)
    for width in (0.01, 0.3, 2.0):
        edges = np.linspace(3.0, 3.0 + 12 * width, 13)
        assert _enclose(e.program, edges[:-1], edges[1:])[-1].all()
        enclosure_holds_every_computed_sample_and_step(e, edges)
