import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lgholling import (
    ExprDomainError,
    ExprSyntaxError,
    InitialHistory,
    evaluate,
    evaluate_array,
    parse_expression,
)
from lgholling import expr as expr_module
from lgholling.expr import _FUNCTIONS, _GAP, _MAX_DEPTH, _MAX_LENGTH, CoefficientExpr, _enclose, _search
from lgholling.presets import PRESET_NAMES, preset_config
from conftest import reference_eval_array, reference_scan, varying_delay_model

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


T, NEG, ADD, SUB, MUL, DIV = ("t", None), ("neg", None), ("+", None), ("-", None), ("*", None), ("/", None)


def const(v):
    return ("const", v)


@pytest.mark.parametrize("text, program", [
    ("-2^2", (const(-4.0),)),  # unary minus binds looser than ^
    ("2^3^2", (const(64.0),)),  # ^ is left-associative: (2^3)^2
    ("--t", (T, NEG, NEG)),
    ("+t", (T,)),
    (" t ", (T,)),
    ("sqrt(2)*t", (const(1.4142135623730951), T, MUL)),
    ("-t^2", (T, ("^", 2), NEG)),
    ("t^0", (T, ("^", 0))),
    ("1.5e+3*t^02", (const(1500.0), T, ("^", 2), MUL)),
    (".5e-1-t", (const(0.05), T, SUB)),
    ("t\t+\t1", (T, const(1.0), ADD)),
    ("3^2*t+-t/2", (const(9.0), T, MUL, T, NEG, const(2.0), DIV, ADD)),
    ("1e999*t", (const(math.inf), T, MUL)),  # a literal past float range is infinite
])
def test_parse_folds_to_its_program(text, program):
    assert repr(parse_expression(text).program) == repr(program)


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


def program_depth(program) -> int:
    """The depth of a program's tree, by the stack it runs on."""
    depths = []
    for op, _ in program:
        n = {"const": 0, "t": 0, "+": 2, "-": 2, "*": 2, "/": 2}.get(op, 1)
        depths[len(depths) - n:] = [1 + max(depths[len(depths) - n:], default=0)]
    (depth,) = depths
    return depth


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
    assert program_depth(e.program) == 500
    assert evaluate(e, 2.0) == reference_eval_array(nest(shape, 500), [2.0])[0]
    with pytest.raises(ExprSyntaxError) as exc:
        in_nested_frames(frames, parse_expression, nest(shape, 501))
    assert (str(exc.value), exc.value.position) == ("expression nested too deeply at position 0", 0)


def test_a_program_deeper_than_the_cap_parses_and_evaluates(monkeypatch):
    """A 5,000-deep program built directly runs in the evaluation loop, and
    with the cap raised the parser emits it for its text; neither recurses."""
    text = "t" + "+t" * 5000
    e = CoefficientExpr((T,) + (T, ADD) * 5000)
    assert np.array_equal(evaluate_array(e, np.arange(3.0)), np.arange(3.0) * 5001)
    monkeypatch.setattr(expr_module, "_MAX_DEPTH", 10**4)
    assert parse_expression(text).program == e.program


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


def test_an_expression_is_its_program():
    """Texts that fold to one program give equal expressions with equal
    hashes, so a constant history equals its number in any spelling."""
    folded, literal = parse_expression("2*1.6"), parse_expression("3.2")
    assert folded == literal and hash(folded) == hash(literal)
    assert InitialHistory("0.50", "0.5") == InitialHistory(0.5, 0.5)


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
    literal raises at t's first time."""
    folded, huge = parse_expression("2*1.6"), parse_expression("1e999")
    monkeypatch.setattr(expr_module, "_run", None)
    got = evaluate_array(folded, t)
    assert got.shape == t.shape and (got == 3.2).all()
    assert evaluate_array(folded, np.empty(0)).shape == (0,)
    with pytest.raises(ExprDomainError) as exc:
        evaluate_array(huge, t)
    assert str(exc.value) == f"non-finite value at t={float(t.flat[0])!r}"


def test_a_folded_negative_literal_is_the_base_of_an_unfolded_power():
    # (-1e200)^2 overflows, so it stays unfolded, with the folded -1e200 as its base
    e = parse_expression("t/((-1e200)^2)")
    assert repr(e.program) == repr((T, const(-1e200), ("^", 2), DIV))
    assert not np.signbit(evaluate(e, 1.0))


@pytest.mark.parametrize("value, text, program", [
    (math.inf, "1.0/(1e999*t)", (const(1.0), const(math.inf), T, MUL, DIV)),
    # negating inf is not folded, as no non-finite value is
    (-math.inf, "1.0/((-1e999)*t)", (const(1.0), const(math.inf), NEG, T, MUL, DIV)),
])
def test_an_infinite_literal_parses_to_an_infinite_constant(value, text, program):
    """A literal past float range parses to inf, and evaluates as a program
    holding that infinity does (1/(inf*t) is a finite +-0)."""
    parsed = parse_expression(text)
    assert repr(parsed.program) == repr(program)
    e = CoefficientExpr((const(1.0), const(value), T, MUL, DIV))
    g = np.array([-2.0, 0.5, 3.0])
    a, b = evaluate_array(e, g), evaluate_array(parsed, g)
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXPR_CORPUS), st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_evaluate_is_pure(text, t):
    e = parse_expression(text)
    assert evaluate(e, t) == evaluate(e, t)


# ---------------------------------------------------------------------------
# the sup/inf search: branch-and-bound on the enclosures
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


def search_traced(e, lo: float, hi: float):
    """_search of e over [lo, hi], and whether it ran short of the cell cap
    and the width floor: every level it enclosed held at most a quarter of
    _CELL_CAP cells, and every cell was wider than the floor."""
    levels = []

    def traced(program, a, b):
        levels.append((a.size, (b - a).min()))
        return _enclose(program, a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr_module, "_enclose", traced)
        result = _search(e, lo, hi)
    floor = expr_module._FLOOR * max(abs(lo), abs(hi))
    return result, all(4 * size <= expr_module._CELL_CAP and width > floor for size, width in levels)


def check_search(e, lo: float, hi: float, grid: np.ndarray) -> None:
    """Each estimate lies inside its bracket; short of the cell cap and the
    width floor the bracket is at most _GAP wide, relative; the inf is at
    most reference_scan's on the grid and the sup at least its, within
    1e-12 of the larger |f| of the two (where rounding makes f ragged near a
    zero, the zoom may settle some ulps of t from a float a grid hits),
    unless that side's bracket is open: an f unbounded there has no extreme
    sample to find."""
    (inf_value, inf_lower, sup_value, sup_upper, t_inf), uncut = search_traced(e, lo, hi)
    assert inf_lower <= inf_value <= sup_value <= sup_upper
    assert lo <= t_inf <= hi and evaluate(e, t_inf) == inf_value
    if uncut:
        assert inf_value - inf_lower <= _GAP * abs(inf_value)
        assert sup_upper - sup_value <= _GAP * abs(sup_value)
    ref_inf, ref_sup = reference_scan(e, grid)
    scale = max(abs(ref_inf), abs(ref_sup))
    assert inf_value <= ref_inf + 1e-12 * scale or inf_lower == -math.inf
    assert sup_value >= ref_sup - 1e-12 * scale or sup_upper == math.inf


@pytest.mark.parametrize("text", ["3.5", "(-3.5)", "7/2"])
def test_search_of_a_constant_is_closed_form(text):
    c = evaluate(parse_expression(text), 0.0)
    assert _search(parse_expression(text), 0.0, 10.0) == (c, c, c, c, 0.0)


@pytest.mark.parametrize("lo, hi", [(0.0, 20.0), (-2.0, 0.0), (0.0, 1000.0), (0.0, 3.2), (-50.0, 50.0),
                                    (5.0, 5.001), (1e3, 1e3 + 1.0)])
@pytest.mark.parametrize("text", EXPR_CORPUS)
def test_search_brackets_the_corpus(text, lo, hi):
    check_search(parse_expression(text), lo, hi, np.linspace(lo, hi, 20_001))


@pytest.mark.parametrize("cells", [1, 2, 7])
@pytest.mark.parametrize("text", EXPR_CORPUS)
def test_search_from_a_few_first_cells_brackets_the_corpus(monkeypatch, text, cells):
    """The bracket and the estimates do not rest on the first level's
    1,024 cells: from one, two or seven, the splits find the same."""
    monkeypatch.setattr(expr_module, "_CELLS", cells)
    for lo, hi in [(0.0, 20.0), (0.0, 1000.0)]:
        check_search(parse_expression(text), lo, hi, np.linspace(lo, hi, 20_001))


@pytest.mark.parametrize("cap", [4, 64, 1024])
@pytest.mark.parametrize("lo, hi", [(0.0, 20.0), (0.0, 1000.0)])
@pytest.mark.parametrize("text", EXPR_CORPUS)
def test_search_past_the_cell_cap_keeps_a_certified_bracket(monkeypatch, text, lo, hi, cap):
    """A search stopped by the cell cap keeps a bracket wider than _GAP, but
    still certified: it holds every sample of a dense grid."""
    monkeypatch.setattr(expr_module, "_CELL_CAP", cap)
    e = parse_expression(text)
    inf_value, inf_lower, sup_value, sup_upper, t_inf = _search(e, lo, hi)
    assert inf_lower <= inf_value <= sup_value <= sup_upper
    assert lo <= t_inf <= hi and evaluate(e, t_inf) == inf_value
    values = evaluate_array(e, np.linspace(lo, hi, 20_001))
    assert inf_lower <= values.min() and values.max() <= sup_upper


@pytest.mark.parametrize("parts", [2, 3, 7])
@pytest.mark.parametrize("text", EXPR_CORPUS)
def test_search_brackets_of_a_partition_agree_with_the_whole(text, parts):
    """Over [0, 20] split in parts: the whole's bracket holds every part's
    estimates, and each of the whole's estimates lies within the parts'
    brackets, since each is a value f takes in one part."""
    e = parse_expression(text)
    inf_value, inf_lower, sup_value, sup_upper, _ = _search(e, 0.0, 20.0)
    edges = np.linspace(0.0, 20.0, parts + 1)
    each = [_search(e, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    assert inf_lower <= min(p[0] for p in each) and max(p[2] for p in each) <= sup_upper
    assert min(p[1] for p in each) <= inf_value and sup_value <= max(p[3] for p in each)


@pytest.mark.parametrize("c", [0.0, 1.5, 1000.0])
@pytest.mark.parametrize("text", EXPR_CORPUS)
def test_search_of_a_point_interval_is_its_value(text, c):
    """Over [c, c] both estimates are f(c), within a bracket no wider than
    the rounding bound of f's evaluation."""
    e = parse_expression(text)
    v = evaluate(e, c)
    inf_value, inf_lower, sup_value, sup_upper, t_inf = _search(e, c, c)
    assert (inf_value, sup_value, t_inf) == (v, v, c)
    assert inf_lower <= v <= sup_upper
    assert v - inf_lower <= 1e-12 * abs(v) and sup_upper - v <= 1e-12 * abs(v)


@pytest.mark.parametrize("lo, hi", [(0.0, 20.0), (0.0, 1000.0)])
@pytest.mark.parametrize("text", EXPR_CORPUS)
def test_search_of_minus_f_is_the_search_of_f_with_signs_swapped(text, lo, hi):
    """Negation is exact in the evaluation and in the enclosures, so the
    search of -f takes the same steps with its signs swapped: its inf is
    minus f's sup, its bracket minus f's, bit for bit."""
    inf_value, inf_lower, sup_value, sup_upper, _ = _search(parse_expression(text), lo, hi)
    got = _search(parse_expression(f"-({text})"), lo, hi)
    assert got[:4] == (-sup_value, -sup_upper, -inf_value, -inf_lower)


@pytest.mark.parametrize("idx", [0, 1, 255, 511, 511.5, 512, 1023, 1024])
@pytest.mark.parametrize("shape", ["1 + (t - {c})^2", "2 - 0.1*(t - {c})^2"])
def test_search_finds_an_extremum_on_a_first_level_cell_edge(shape, idx):
    """An extremum at an edge of the first level's cells of [0, 3.2] (a
    whole idx), at one of their midpoints (511.5), or at an end point."""
    c = 3.2 * idx / 1024
    e = parse_expression(shape.format(c=repr(c)))
    inf_value, inf_lower, sup_value, sup_upper, t_inf = _search(e, 0.0, 3.2)
    if shape.startswith("1"):
        assert inf_lower <= 1.0 == inf_value and abs(t_inf - c) <= 1e-7
    else:
        assert sup_value == 2.0 <= sup_upper


@pytest.mark.parametrize("text, lo, hi, t_min", [("abs(t - 0.3)", 0.0, 1000.0, 0.3), ("(t - 0.3)^2", 0.0, 1.0, 0.3)])
def test_search_zooms_to_a_float_exact_minimum(text, lo, hi, t_min):
    """The refinement narrows each bracket down to adjacent floats, so a
    minimum that f reaches at a float is found there exactly."""
    inf_value, inf_lower, _, _, t_inf = _search(parse_expression(text), lo, hi)
    assert inf_lower <= inf_value == 0.0 and t_inf == t_min


def test_search_takes_midpoints_near_the_top_of_the_float_range():
    """Over [0, 1.7e308] the cells' ends sum past the float range; their
    midpoints do not overflow, and every sample is finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inf_value, inf_lower, sup_value, sup_upper, t_inf = _search(parse_expression("2 + cos(t)"), 0.0, 1.7e308)
    assert 1.0 - 1e-15 <= inf_lower <= inf_value <= sup_value <= sup_upper <= 3.0 + 1e-15
    assert 0.0 <= t_inf <= 1.7e308


@pytest.mark.parametrize("name", [*PRESET_NAMES, 1, 2, 3, 11, 101])
def test_search_brackets_preset_and_varying_delay_coefficients(name):
    """Both presets over their 10^6-sample grid of [0, 1000], and the
    benchmark's varying-delay coefficients at five seeds over 10^5 samples."""
    model = preset_config(name)["model"] if isinstance(name, str) else varying_delay_model(name)
    grid = np.linspace(0.0, 1000.0, 1_000_001 if isinstance(name, str) else 100_001)
    for text in model.values():
        check_search(parse_expression(text), 0.0, 1000.0, grid)


def test_search_of_the_presets_varying_coefficients_stays_near_its_first_level(monkeypatch):
    """Each descent zooms its least-bound first-level cell before it splits, so the cells tied
    with that cell end done (example1's a1 has about 450 kinks of |cos(sqrt(2) t)| at its inf):
    four of the presets' six varying coefficients enclose only the shared first level, the
    1,024 cells and the two end points, and all six fewer than 18,000 cells."""
    sizes = []

    def traced(program, a, b):
        sizes.append(a.size)
        return _enclose(program, a, b)

    monkeypatch.setattr(expr_module, "_enclose", traced)
    cells = {}
    for name in PRESET_NAMES:
        for sym, text in preset_config(name)["model"].items():
            e = parse_expression(text)
            if len(e.program) > 1:
                sizes.clear()
                _search(e, 0.0, 1000.0)
                cells[name, sym] = sum(sizes)
    assert len(cells) == 6
    first_only = [("example1", "a1"), ("example1", "a2"), ("example1", "b"), ("example2", "a1")]
    assert [cells[k] for k in first_only] == [1026] * 4
    assert sum(cells.values()) <= 18_000


# t / cos(t) has a pole at pi/2: the search's sup sample there is 9.5e13, the grid's 5.3e14
POLE = "((t / cos(t)) + t)"


@settings(max_examples=40, deadline=None)
@given(st.composite(random_program_text)(), st.sampled_from([(0.0, 3.2), (0.0, 10.0), (-2.0, 0.0)]))
@example(POLE, (0.0, 3.2))
def test_search_brackets_random_programs(text, interval):
    """Where the search and the reference grid both evaluate without a
    domain error (a search samples other times than a grid does)."""
    lo, hi = interval
    e = parse_expression(text)
    try:
        check_search(e, lo, hi, np.linspace(lo, hi, 4001))
    except ExprDomainError:
        pass


def test_search_of_a_pole_leaves_both_brackets_open():
    """The pinned draw above: t / cos(t) is unbounded on both sides of pi/2,
    so neither side has a largest sample, and both brackets are open."""
    _, inf_lower, _, sup_upper, _ = _search(parse_expression(POLE), 0.0, 3.2)
    assert inf_lower == -math.inf and sup_upper == math.inf


@pytest.mark.parametrize("text, message", [
    # the first level's midpoints on [0, 1000] are (k + 1/2) 1000/1024: 900.87890625 is the first past 900
    ("sqrt(900 - t)", "sqrt of negative value at t=900.87890625"),
    ("exp(800 - t)", "non-finite value at t=0.0"),  # the interval's ends are sampled first
    # three checks: the first in the program to fail wins, at the first time it fails
    ("sqrt(400-t) + 1/(t-100)", "sqrt of negative value at t=400.87890625"),
    ("sqrt(700-t) + 0*sqrt(400-t) + 1/(t-100)", "sqrt of negative value at t=700.68359375"),
    # the final non-finite check comes after every instruction's own
    ("exp(800 - 10*t) + sqrt(500 - t)", "sqrt of negative value at t=500.48828125"),
    ("sqrt(400-t) + 1/t", "sqrt of negative value at t=400.87890625"),
    ("1/(t - 1000) + exp(800 - t)", "division by zero at t=1000.0"),
    ("1/t", "division by zero at t=0.0"),
    ("sqrt(t - 1)", "sqrt of negative value at t=0.0"),
    ("sqrt(-t)", "sqrt of negative value at t=0.48828125"),  # sqrt(-0.0) is -0.0, no failure
    ("1/(t - 0.48828125)", "division by zero at t=0.48828125"),
    ("sqrt(sin(t))", "sqrt of negative value at t=3.41796875"),
    ("exp(t)", "non-finite value at t=710.44921875"),
])
def test_search_raises_the_error_of_a_sample(text, message):
    """The error is the one evaluate_array raises over the first level's
    samples: the two end points and the 1,024 cells' midpoints."""
    e = parse_expression(text)
    edges = np.linspace(0.0, 1000.0, expr_module._CELLS + 1)
    with pytest.raises(ExprDomainError, match=f"^{re.escape(message)}$"):
        evaluate_array(e, np.r_[0.0, 0.5 * (edges[:-1] + edges[1:]), 1000.0])
    with pytest.raises(ExprDomainError, match=f"^{re.escape(message)}$"):
        _search(e, 0.0, 1000.0)


def test_search_splits_cells_that_may_fail_until_a_sample_does():
    """No first-level midpoint of [0, 1] lies in the gap (0.547, 0.553) where
    the square root fails, but cells there cannot be ruled out: they split
    until one of their samples raises, naming its time."""
    e = parse_expression("sqrt(abs(t - 0.55) - 0.003) + 1")
    with pytest.raises(ExprDomainError) as err:
        _search(e, 0.0, 1.0)
    t = float(re.fullmatch(r"sqrt of negative value at t=(.*)", str(err.value))[1])
    assert abs(t - 0.55) < 0.003
    with pytest.raises(ExprDomainError, match=re.escape(str(err.value))):
        evaluate(e, t)


def test_an_overflowing_slope_leaves_the_value_enclosure_safe():
    """Every sample of exp(709 sin t) is finite, and so is each cell's value
    enclosure, though its slope's overflows; at sqrt(0) the slope is
    infinite, but no check can fail."""
    e, t = parse_expression("exp(709*sin(t))"), np.linspace(0.0, 10.0, 101)
    assert np.isfinite(evaluate_array(e, t)).all()
    vlo, vhi, dlo, dhi, err, safe = _enclose(e.program, t[:-1], t[1:])
    assert safe.all() and not np.isfinite(dhi).all()
    vlo, vhi, dlo, dhi, err, safe = _enclose(parse_expression("sqrt(t) + 1").program, np.zeros(1), np.ones(1))
    assert safe.all() and vlo[0] <= 1.0 and dhi[0] == np.inf


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


def test_a_non_finite_inner_value_makes_the_cell_unsafe():
    """At the cell's subnormal left end 1/t overflows to inf and sin(inf) is
    nan, though sin's hull [-1, 1] is finite: every operation's value hull
    must be finite for the cell to be safe, not only the last one's."""
    s = 2.225073858507203e-309
    e = parse_expression("sin(1.0000/t)")
    assert not _enclose(e.program, np.array([s]), np.array([1.0]))[-1][0]
    enclosure_holds_every_computed_sample_and_step(e, np.linspace(s, s + 4.0, 5))


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
