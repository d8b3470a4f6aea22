"""Parser, evaluator and numeric sup/inf estimation for the time-varying
coefficient expressions.

Grammar: decimal literals (plain or scientific), the variable ``t``,
parentheses, the functions abs/exp/sin/cos/sqrt, and the operators
``+ - * / ^`` with conventional precedence.  ``^`` is restricted to literal
integer exponents >= 0.  The parser reads the whole text into one token
list, then emits a postfix program by precedence climbing (Pratt, POPL
1973) in one loop, with an explicit stack of pending operators.  A syntax
error raises ExprSyntaxError at a character position; so does a tree
deeper than _MAX_DEPTH levels, at position 0, and a text longer than
_MAX_LENGTH characters, before it is tokenized.  Nothing here recurses.

A program is a tuple of ``(op, arg)`` stack-machine instructions:
``("const", v)`` and ``("t", None)`` push a value, ``neg``, the functions
and ``("^", k)`` map the top one, and ``+ - * /`` combine the top two.
Parsing folds every part free of ``t`` into one ``("const", v)`` (``"2*1.6"``
and ``"sqrt(2)"`` fold), evaluating each instruction once on its operands'
values, except a part whose evaluation raises or is non-finite: it raises
its ExprDomainError, with the same message, when evaluated.

One loop evaluates a program: ``evaluate_array`` over an array of times,
with constants as float64 scalars that numpy broadcasts (a folded constant
is returned filled in, without the loop), and ``evaluate`` on a one-point
array.  Its ExprDomainError carries the expression's symbol, the field that
holds it.  ``_enclose`` walks a program too, as interval arithmetic over
cells of time (Moore, Kearfott & Cloud, Introduction to Interval Analysis,
2009).

The sup/inf of a constant is closed-form.  Any other expression's is found
by branch-and-bound on the enclosures (Moore, Kearfott & Cloud 2009;
Hansen & Walster, Global Optimization Using Interval Analysis, 2004).  The
first level, the interval's ends as point cells and _CELLS cells, is
enclosed and sampled at its midpoints once; from it one descent per sign
finds the inf, another the sup.  A cell's bound is the larger of its
enclosure and the mean-value form f(mid) - sup|f'| w/2 - 2E.  Before its
first split a descent zooms the first level's least-bound cell, so cells
tied with it end done instead of split.  A cell that cannot beat the least
sample is dropped; one that could beat it by more than _GAP relative is
split in four; the others are done, and one last zoom round refines those
that could still beat it by more than _SLACK relative.  Each pass of the
zoom samples _ZOOM evenly spaced times across every cell whose ends are
not yet adjacent floats, and narrows the cell to its best sample's two
neighbours.  So the estimates are refined samples and each comes with a
certified bracket, which is _GAP wide unless a cell reached the width
floor or a level the cell cap.
``_increasing`` proves f' < 1 on cells split likewise, each safe with its
f' hull below 1.

Expressions are immutable after parsing and evaluation is pure, so a parsed
expression may be shared freely between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError

__all__ = [
    "CoefficientExpr",
    "BoundsEstimate",
    "parse_expression",
    "evaluate",
    "evaluate_array",
]

_FUNCTIONS = ("abs", "exp", "sin", "cos", "sqrt")
# each instruction's numpy call in the evaluation loop
_UNARY = {"neg": np.negative, "abs": np.abs, "exp": np.exp, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_ARITY = {"const": 0, "t": 0, **dict.fromkeys(_BINARY, 2)}  # every other instruction takes 1 operand
_MAX_DEPTH = 500  # deepest tree a parsed expression may have
_MAX_LENGTH = 65_536  # longest text parse_expression reads, checked before tokenizing


@dataclass(frozen=True)
class CoefficientExpr:
    """A parsed coefficient function of time t: its postfix program (the
    module docstring describes it) and the field that holds it (set by
    ModelSpec and InitialHistory, else None), all that equality compares."""

    program: tuple[tuple[str, float | int | None], ...]
    symbol: str | None = None

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            return evaluate_array(self, t)
        return evaluate(self, t)


@dataclass(frozen=True)
class BoundsEstimate:
    """The inf and sup of f over [0, horizon]: values f takes there, within
    the certified bracket inf_lower <= inf f, sup f <= sup_upper."""

    inf_value: float
    sup_value: float
    inf_lower: float
    sup_upper: float


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}  # binding powers; unary minus's, 3, sits between * / and ^


def _parse(text: str) -> tuple:
    """The unfolded program of text (the module docstring describes the parser)."""
    tokens, pos = [], 0
    while m := _TOKEN_RE.match(text, pos):
        tokens.append((m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ExprSyntaxError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    tokens.append(("end", "", len(text)))
    tokens.reverse()  # the next token is the last one, so taking it is a pop

    def take(kind, value=None, message=None):
        """The next token's text, taken if it is of kind (and is value); else
        ExprSyntaxError(message) at its position, by default naming it."""
        k, v, p = tokens[-1]
        if k != kind or value not in (None, v):
            raise ExprSyntaxError(message or f"unexpected token {v!r}", p)
        return tokens.pop()[1]

    program, depths = [], []  # depths: the tree depth of each value on the program's stack

    def emit(op, arg=None):
        n = _ARITY.get(op, 1)
        depth = 1 + max(depths[len(depths) - n:], default=0)
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", 0)
        depths[len(depths) - n:] = [depth]
        program.append((op, arg))

    # operators still waiting for their right operand to end, each with the
    # binding power an operator needs to extend that operand: binary
    # operators, "neg", and "(" or a function, which wait for ")"
    pending = []
    while True:
        kind, value, p = tokens.pop()  # an operand starts here
        if kind == "num":
            emit("const", float(value))
        elif value == "t":
            emit("t")
        elif value == "-":
            pending.append(("neg", 3))
            continue
        elif value == "+":
            continue  # unary plus leaves its operand as it is
        elif value == "(" or value in _FUNCTIONS:
            if value != "(":
                take("op", "(", "expected '('")
            pending.append((value, 0))
            continue
        elif kind == "ident":
            raise ExprSyntaxError(f"unknown identifier {value!r}", p)
        else:
            raise ExprSyntaxError("unexpected end of input" if kind == "end" else f"unexpected token {value!r}", p)
        while True:  # an operand is complete: extend it, or end what it completes
            op = tokens[-1][1]
            if _PREC.get(op, -1) >= (pending[-1][1] if pending else 0):  # only an operator's text has a binding power
                take("op")
                if op != "^":
                    pending.append((op, _PREC[op] + 1))
                    break
                kind, value, p = tokens[-1]
                if not (kind == "num" and float(value).is_integer() and float(value) >= 0):  # a literal integer exponent
                    raise ExprSyntaxError("exponent must be a literal integer >= 0", p)
                emit("^", int(float(take("num"))))
            elif not pending:
                take("end")
                return tuple(program)
            else:
                op, power = pending.pop()
                if power == 0:
                    take("op", ")", "expected ')'")
                if op != "(":
                    emit(op)


def parse_expression(text: str) -> CoefficientExpr:
    """Parse an expression string into its folded postfix program.

    Raises ExprSyntaxError (with character position) on malformed input,
    unknown identifiers, text longer than _MAX_LENGTH characters (at that
    position), or a tree deeper than _MAX_DEPTH levels.
    """
    if len(text) > _MAX_LENGTH:
        raise ExprSyntaxError(f"expression longer than {_MAX_LENGTH} characters", _MAX_LENGTH)
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return CoefficientExpr(_fold(_parse(text)))


def _fold(program: tuple) -> tuple:
    """The program with every subprogram free of t replaced by one
    ("const", v), unless evaluating it raises or gives a non-finite value."""
    out = []
    stack = []  # per value: where its subprogram starts in out, and the value if free of t and evaluable
    with np.errstate(over="ignore", invalid="ignore"):
        for op, arg in program:
            n = _ARITY.get(op, 1)
            operands = stack[len(stack) - n:]
            start = operands[0][0] if operands else len(out)
            out.append((op, arg))
            value = arg if op == "const" else None
            if n and all(v is not None for _, v in operands):
                try:
                    value = _run(tuple(("const", v) for _, v in operands) + ((op, arg),), np.zeros(1))
                except ExprDomainError:
                    value = None  # every part holding this one raises too
                if value is not None and math.isfinite(value):
                    out[start:] = [("const", float(value))]
            stack[len(stack) - n:] = [(start, value)]
    return tuple(out)


# ---------------------------------------------------------------------------
# the evaluation loop
# ---------------------------------------------------------------------------


def _run(program: tuple, t: np.ndarray, symbol: str | None = None):
    """The evaluation loop: the program's values over t; a program free of t
    gives a float64 scalar.  Only the values on its stack stay alive.  A
    failed check raises ExprDomainError naming symbol."""
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in program:
        if op == "const":
            push(np.float64(arg))
        elif op == "t":
            push(t)
        elif (f := _BINARY.get(op)) is not None:
            if op == "/":
                _check(stack[-1] == 0.0, t, "division by zero", symbol)
            stack[-1] = f(stack[-2], pop())  # both operands are read before the left one's slot is the top
        elif op == "^":
            stack[-1] = np.power(stack[-1], arg)  # not **: a float64 scalar's ** rounds differently
        else:
            if op == "sqrt":
                _check(stack[-1] < 0.0, t, "sqrt of negative value", symbol)
            stack[-1] = _UNARY[op](stack[-1])
    return stack[-1]


def _check(bad, t: np.ndarray, what: str, symbol: str | None) -> None:
    """ExprDomainError naming symbol and the first time in t where bad holds, if any."""
    bad = np.broadcast_to(bad, t.shape)
    if bad.any():
        raise ExprDomainError(f"{what} at t={float(t[bad][0])!r}", symbol)


def evaluate_array(expr: CoefficientExpr, t: np.ndarray) -> np.ndarray:
    """Values of the expression over an array of times (pure, thread-safe),
    as a new float array of t's shape.

    Overflow is not an error until it reaches the result: a non-finite
    value raises ExprDomainError naming the first time it occurs at, as a
    failed check does, and the expression's symbol."""
    t = np.asarray(t, dtype=float)
    if len(expr.program) == 1 and expr.program[0][0] == "const":  # a folded constant: no walk
        c = expr.program[0][1]
        if t.size and not math.isfinite(c):
            raise ExprDomainError(f"non-finite value at t={float(t.flat[0])!r}", expr.symbol)
        return np.full(t.shape, c)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _run(expr.program, t, expr.symbol)
    if values is t or values.shape != t.shape:
        values = np.array(np.broadcast_to(values, t.shape))
    bad = ~np.isfinite(values)
    if bad.any():
        raise ExprDomainError(f"non-finite value at t={float(t[bad][0])!r}", expr.symbol)
    return values


def evaluate(expr: CoefficientExpr, t: float) -> float:
    """Value of the expression at one finite time t: the array evaluator on
    a one-point grid."""
    return float(evaluate_array(expr, np.array([float(t)]))[0])


# ---------------------------------------------------------------------------
# sup / inf estimation
# ---------------------------------------------------------------------------


def _zoom(expr: CoefficientExpr, a: np.ndarray, b: np.ndarray, sign: float):
    """The least samples of sign * f on the brackets [a[i], b[i]], and
    their times: per pass, one evaluate_array call at _ZOOM evenly spaced
    times, ends included, across each bracket whose ends are not yet
    adjacent floats, and each narrowed to its best sample's two neighbours."""
    best, at, i = np.full(a.shape, np.inf), a.copy(), np.arange(a.size)
    a, b = a.copy(), b.copy()
    while i.size:
        t = a[i, None] + (b[i] - a[i])[:, None] * np.linspace(0.0, 1.0, _ZOOM)
        t[:, -1] = b[i]  # a + (b - a) may round off b
        g = sign * evaluate_array(expr, t)
        r, j = np.arange(i.size), np.argmin(g, axis=1)
        better = g[r, j] < best[i]
        best[i[better]], at[i[better]] = g[r, j][better], t[r, j][better]
        a[i], b[i] = t[r, np.maximum(j - 1, 0)], t[r, np.minimum(j + 1, _ZOOM - 1)]
        i = i[np.nextafter(a[i], np.inf) < b[i]]
    return best, at


_EPS = float(np.finfo(float).eps)
_TINY = 5e-324  # the least subnormal: an absolute term that covers rounding below the normal range
_LIBM_ULPS = 8  # ulps by which exp, sin, cos and ^ may miss their exact value
_PAD = 1.0 + 2.0**-40  # covers the rounding of the error bounds' own arithmetic


def _out(lo, hi):
    """[lo, hi] one ulp wider on either side: it then holds the exact result
    of the float operation that gave each end by rounding to nearest."""
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _widen(lo, hi):
    """[lo, hi] wider by _LIBM_ULPS relative ulps (and subnormals) on either side."""
    ulps = _LIBM_ULPS * _EPS
    return lo - (np.abs(lo) * ulps + _LIBM_ULPS * _TINY), hi + (np.abs(hi) * ulps + _LIBM_ULPS * _TINY)


def _mag(lo, hi):
    return np.maximum(np.abs(lo), np.abs(hi))


def _point(lo, hi) -> bool:
    """Whether [lo, hi] is one number, as a constant's value or a derivative is."""
    return np.ndim(lo) == 0 and lo == hi


def _add(alo, ahi, blo, bhi):
    """Outward sum of two intervals; exact where one is [0, 0]."""
    if _point(alo, ahi) and alo == 0.0:
        return blo, bhi
    if _point(blo, bhi) and blo == 0.0:
        return alo, ahi
    return _out(alo + blo, ahi + bhi)


def _mul(alo, ahi, blo, bhi):
    """Outward product of two intervals; exactly [0, 0] where one is."""
    if _point(blo, bhi):
        alo, ahi, blo, bhi = blo, bhi, alo, ahi
    if _point(alo, ahi):
        if alo == 0.0:
            return 0.0, 0.0  # a non-finite other factor shows in the error bound instead
        p, q = alo * blo, alo * bhi
        return _out(p, q) if alo > 0.0 else _out(q, p)
    return _hull(alo * blo, alo * bhi, ahi * blo, ahi * bhi)


def _hull(p, q, r, s):
    """Outward hull of the four corners of an interval product or quotient."""
    return _out(np.minimum(np.minimum(p, q), np.minimum(r, s)), np.maximum(np.maximum(p, q), np.maximum(r, s)))


def _trig(fn, lo, hi, peak: float):
    """Range of fn, sin or cos, over [lo, hi], widened for the library's
    rounding: its values at the ends, and 1 (or -1) where [lo, hi] may hold
    a peak + 2 pi k (or a peak + pi + 2 pi k), with a margin of 1e-6 turns
    for the rounding of the turn counts; [-1, 1] past 1e6 turns."""
    a, b = fn(lo), fn(hi)
    slack = _LIBM_ULPS * _EPS  # at least _LIBM_ULPS ulps of any value in [-1, 1]
    rlo, rhi = np.minimum(a, b) - slack, np.maximum(a, b) + slack
    u, v = (lo - peak) / (2.0 * math.pi), (hi - peak) / (2.0 * math.pi)
    whole = ~((v - u < 0.9) & (np.abs(u) < 1e6) & (np.abs(v) < 1e6))  # also where u or v is nan
    rhi = np.where(whole | (np.floor(v + 1e-6) >= np.ceil(u - 1e-6)), 1.0, np.minimum(rhi, 1.0))
    rlo = np.where(whole | (np.floor(v - 0.5 + 1e-6) >= np.ceil(u - 0.5 - 1e-6)), -1.0, np.maximum(rlo, -1.0))
    return rlo, rhi


def _pow(lo, hi, k: int):
    """Range of x^k over [lo, hi], widened for the library's rounding."""
    if k % 2 == 0:
        lo, hi = np.where(lo > 0.0, lo, np.where(hi < 0.0, -hi, 0.0)), _mag(lo, hi)
    return _widen(np.power(lo, k), np.power(hi, k))


def _enclose(program: tuple, lo: np.ndarray, hi: np.ndarray):
    """Interval evaluation of the program over the cells [lo[i], hi[i]]
    (Moore, Kearfott & Cloud, Introduction to Interval Analysis, 2009):
    per cell, (vlo, vhi, dlo, dhi, err, safe).

    [vlo, vhi] holds the exact value at every t in the cell, and the value
    _run computes at every float t there: each arithmetic result and sqrt
    is rounded outward by one ulp, exp, sin, cos and ^ by _LIBM_ULPS.
    [dlo, dhi] holds the exact derivative in t (where abs meets 0, the
    largest slope either way), and err bounds |computed - exact| at every
    float t in the cell.  safe is False where a check could fail (sqrt of a
    value that may be below 0, a divisor that may be 0) or a value bound is
    not finite; the slope and error bounds may be infinite (at sqrt(0))."""
    safe = np.ones(lo.shape, dtype=bool)
    stack = []
    with np.errstate(all="ignore"):
        for op, arg in program:
            if op == "const":
                stack.append((np.float64(arg), np.float64(arg), 0.0, 0.0, 0.0))
                continue
            if op == "t":
                stack.append((lo, hi, 1.0, 1.0, 0.0))
                continue
            alo, ahi, adlo, adhi, ae = stack.pop()
            if op in _BINARY:
                blo, bhi, bdlo, bdhi, be = alo, ahi, adlo, adhi, ae
                alo, ahi, adlo, adhi, ae = stack.pop()
                if op in "+-":
                    if op == "-":
                        blo, bhi, bdlo, bdhi = -bhi, -blo, -bdhi, -bdlo
                    v, d, e = _out(alo + blo, ahi + bhi), _add(adlo, adhi, bdlo, bdhi), ae + be
                elif op == "*":
                    v = _mul(alo, ahi, blo, bhi)
                    d = _add(*_mul(adlo, adhi, blo, bhi), *_mul(alo, ahi, bdlo, bdhi))
                    e = _mag(alo, ahi) * be + _mag(blo, bhi) * ae
                else:
                    safe &= (blo > 0.0) | (bhi < 0.0)
                    v = _hull(alo / blo, alo / bhi, ahi / blo, ahi / bhi)
                    plo, phi = _mul(*v, bdlo, bdhi)  # (a/b)' = (a' - (a/b) b') / b
                    nlo, nhi = _out(adlo - phi, adhi - plo)
                    d = _hull(nlo / blo, nlo / bhi, nhi / blo, nhi / bhi)
                    least = np.minimum(np.abs(blo), np.abs(bhi))
                    e = ae / least + _mag(alo, ahi) * be / (least * least)
                e = e + (_EPS * _mag(*v) + _TINY)
            elif op == "neg":
                v, d, e = (-ahi, -alo), (-adhi, -adlo), ae
            elif op == "abs":
                up, down, slope = alo >= 0.0, ahi <= 0.0, _mag(adlo, adhi)
                v = np.where(up, alo, np.where(down, -ahi, 0.0)), _mag(alo, ahi)
                d = np.where(up, adlo, np.where(down, -adhi, -slope)), np.where(up, adhi, np.where(down, -adlo, slope))
                e = ae
            elif op == "sqrt":
                safe &= alo >= 0.0
                v = _out(np.sqrt(alo), np.sqrt(ahi))
                v = np.maximum(v[0], 0.0), v[1]  # at 0 the slope 1 / (2 sqrt(a)) is infinite
                inv = _out(0.5 / v[1], 0.5 / v[0])  # 1 / (2 sqrt(a))
                d, e = _mul(adlo, adhi, *inv), ae * inv[1] + (_EPS * v[1] + _TINY)
            elif op == "^" and arg == 0:
                v, d, e = (np.float64(1.0), np.float64(1.0)), (0.0, 0.0), 0.0  # exactly 1 for every x
            else:
                if op == "exp":
                    v = _widen(np.exp(alo), np.exp(ahi))
                    slope, grow = v, v[1]
                elif op == "^":
                    v, below = _pow(alo, ahi, arg), _pow(alo, ahi, arg - 1)
                    slope = _out(arg * below[0], arg * below[1])
                    grow = arg * _mag(*below)
                else:
                    s, c = _trig(np.sin, alo, ahi, 0.5 * math.pi), _trig(np.cos, alo, ahi, 0.0)
                    v, slope, grow = (s, c, 1.0) if op == "sin" else (c, (-s[1], -s[0]), 1.0)
                d = _mul(*slope, adlo, adhi)
                e = grow * ae + _LIBM_ULPS * (_EPS * _mag(*v) + _TINY)
            safe &= np.isfinite(v[0]) & np.isfinite(v[1])
            stack.append((*v, *d, e * _PAD))
    vlo, vhi, dlo, dhi, err = (np.broadcast_to(x, lo.shape) for x in stack[-1])
    safe &= np.isfinite(vlo) & np.isfinite(vhi)
    nan = np.isnan(dlo) | np.isnan(dhi) | np.isnan(err)  # an infinite slope times a range holding 0
    return vlo, vhi, np.where(nan, -np.inf, dlo), np.where(nan, np.inf, dhi), np.where(nan, np.inf, err), safe


_CELLS = 1024  # cells of the search's first level
_GAP = 1e-6  # relative: a cell that cannot beat its incumbent by more is refined, not split
_CELL_CAP = 1 << 14  # most cells a level may hold; past it the search keeps the bracket it has
_SLACK = 1e-13  # relative: a refined cell that cannot beat its incumbent by more is not refined
_FLOOR = 1e-13  # relative to the interval's largest |t|: a cell this narrow is not split
_ZOOM = 33  # times a pass of the zoom samples per bracket


def _search(expr: CoefficientExpr, lo: float, hi: float):
    """The inf and sup of f over [lo, hi] by branch-and-bound (the module
    docstring describes it): (inf_value, inf_lower, sup_value, sup_upper,
    t_inf).  inf_value and sup_value are values f takes at sampled times
    (the best cell midpoints, refined by _zoom down to adjacent floats),
    t_inf being the first's, and inf_lower <= inf f, sup f <= sup_upper.
    A sample that raises ExprDomainError ends the search with its error."""
    if len(expr.program) == 1 and expr.program[0][0] == "const":
        c = evaluate(expr, lo)  # a non-finite literal raises here
        return c, c, c, c, lo
    # in time order: the point cell [lo, lo], the _CELLS cells and [hi, hi]
    edges = np.linspace(lo, hi, _CELLS + 1)
    first = _level(expr, np.r_[lo, edges[:-1], hi], np.r_[lo, edges[1:], hi])
    floor = _FLOOR * max(abs(lo), abs(hi))
    inf_value, inf_lower, t_inf = _descend(expr, first, 1.0, floor)
    sup_value, sup_upper, _ = _descend(expr, first, -1.0, floor)
    return inf_value, inf_lower, -sup_value, -sup_upper, t_inf


def _level(expr: CoefficientExpr, a: np.ndarray, b: np.ndarray):
    """The cells [a, b], their value enclosure, mean-value spread sup|f'| w/2 + 2E, safe flags, midpoints and f there."""
    vlo, vhi, dlo, dhi, err, safe = _enclose(expr.program, a, b)
    mid = 0.5 * a + 0.5 * b  # a + b may overflow
    with np.errstate(all="ignore"):  # an infinite slope or error bound, times a point cell's width 0
        spread = (_mag(dlo, dhi) * np.maximum(mid - a, b - mid) + 2.0 * err) * _PAD
    return a, b, vlo, vhi, spread, safe, mid, evaluate_array(expr, mid)


def _descend(expr: CoefficientExpr, first, sign: float, floor: float):
    """Branch-and-bound for the least of sign * f from the first level:
    (the least sample, the least bound of the cells not split, its time)."""
    best, at, done, level = np.inf, None, [], first  # the first sample sets at
    while True:
        a, b, vlo, vhi, spread, safe, mid, v = level
        g = sign * v
        best, at = _least(best, at, g, mid)
        bound = np.where(safe, np.fmax(vlo if sign > 0.0 else -vhi, g - spread), -np.inf)
        if level is first:  # zoomed before any split, the least-bound cell leaves those tied with it done
            i = np.argmin(bound)
            best, at = _least(best, at, *_zoom(expr, a[i:i + 1], b[i:i + 1], sign))
        live = bound < best  # could beat the incumbent
        split = live & (bound < best - _GAP * abs(best)) & (b - a > floor)
        done.append(np.compress(live & ~split, [a, b, bound], axis=1))
        if not split.any() or 4 * np.count_nonzero(split) > _CELL_CAP:
            lower = bound[split].min(initial=np.inf)
            break
        level = _level(expr, *_quarters(a[split], b[split]))
    a, b, bound = np.concatenate(done, axis=1)
    keep = bound < best - _SLACK * abs(best)  # could still beat the incumbent
    if keep.any():
        best, at = _least(best, at, *_zoom(expr, a[keep], b[keep], sign))
    return float(best), float(min(lower, bound.min(initial=np.inf), best)), float(at)


def _least(best, at, values, times):
    """The least of values and its time if it is below best, else (best, at)."""
    i = np.argmin(values)
    return (values[i], times[i]) if values[i] < best else (best, at)


def _quarters(a: np.ndarray, b: np.ndarray):
    """The cells [a, b] each split in four, in time order."""
    e = np.column_stack([a[:, None] + (b - a)[:, None] * np.array([0.0, 0.25, 0.5, 0.75]), b])
    return e[:, :-1].ravel(), e[:, 1:].ravel()


def _increasing(expr: CoefficientExpr, lo: float, hi: float):
    """None when _enclose proves f' < 1 on every cell of [lo, hi], so that
    s - f(s) increases; an unsafe cell (a pole's slope hull is finite but
    holds nothing) is not proven.  Else the left end of the first cell not
    proven once a level, split in four, reaches the width floor or cell cap."""
    edges = 2.0 * np.linspace(0.5 * lo, 0.5 * hi, _CELLS + 1)  # halved: hi - lo may pass the float range
    a, b = edges[:-1], edges[1:]
    floor = _FLOOR * max(abs(lo), abs(hi))
    while True:
        _, _, _, dhi, _, safe = _enclose(expr.program, a, b)
        a, b = np.compress(~(safe & (dhi < 1.0)), [a, b], axis=1)
        if a.size == 0 or 4 * a.size > _CELL_CAP or (b - a <= floor).any():
            return float(a[0]) if a.size else None
        a, b = _quarters(a, b)
