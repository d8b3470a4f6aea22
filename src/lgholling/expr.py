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
array.  An ExprDomainError carries the position in the program of the
check that failed, so that arrays evaluated part by part raise the error of
one walk over the whole: the earliest failing check, at its first time.
``_enclose`` walks a program too, as interval arithmetic over cells of
time (Moore, Kearfott & Cloud, Introduction to Interval Analysis, 2009).

The sup/inf estimate of a constant is closed-form.  Any other expression's
grid, linspace(0, horizon, samples), is scanned in cache-sized blocks
without ever being built: each block makes its own times, as the same
floats, and is reduced at once to its largest step, its candidate samples
(local minima and the grid's endpoints) and its first nonpositive value;
then the candidate cells of both the sup and the inf are refined together,
one evaluator call per golden-section iteration.

The scan samples only the cells of _SCAN_CELL samples that an enclosure
cannot rule out.  Each cell also covers the step to the next cell's first
sample, and its enclosure bounds every value computed in it, the derivative
and the rounding error E, so h sup|f'| + 2E bounds each of its steps.
Pilot cells are sampled first (both ends, the cells whose |f| enclosure
ends lowest and starts highest, the largest step bounds), giving a sampled
least_up >= least |f|, most_low <= largest |f| and dmax_low <= dmax; D_up,
the largest step bound, is >= dmax.  A cell is skipped only when

- it is safe (no check can fail, every bound finite): it raises nothing;
- its raw enclosure is above 0: it holds no nonpositive sample;
- its |f| enclosure lies above least_up + 2 D_up + 1e-15 and below
  most_low - 2 D_up - 1e-15: each candidate the scan keeps lies within
  2 dmax + 1e-15 of the least (or largest) sample, so it holds none, nor
  the least or largest sample itself;
- its step bound is below dmax_low: dmax is a maximum over sampled steps.

The first and last cells are always sampled, and every other cell goes
through the same reduction in index order, so the estimate, the raw
minimum and its time are the same floats as when every sample is taken.
Where the skip cannot be proven (an unsafe cell, dmax_low = 0, or fewer
than four blocks of samples, too few to pay for the pass) every cell is
sampled by the same loop.

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
    "serialize",
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
    module docstring describes it) and the text it was parsed from."""

    program: tuple[tuple[str, float | int | None], ...]
    source_text: str

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            return evaluate_array(self, t)
        return evaluate(self, t)


@dataclass(frozen=True)
class BoundsEstimate:
    """Numeric surrogate for sup/inf of |f| over [0, horizon]."""

    inf_value: float
    sup_value: float
    horizon: float
    samples: int


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
    return CoefficientExpr(_fold(_parse(text)), text)


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
# the two loops over a program: evaluation and serialization
# ---------------------------------------------------------------------------


def _run(program: tuple, t: np.ndarray):
    """The evaluation loop: the program's values over t; a program free of t
    gives a float64 scalar.  Only the values on its stack stay alive."""
    stack = []
    push, pop = stack.append, stack.pop
    for i, (op, arg) in enumerate(program):
        if op == "const":
            push(np.float64(arg))
        elif op == "t":
            push(t)
        elif (f := _BINARY.get(op)) is not None:
            if op == "/":
                _check(stack[-1] == 0.0, t, "division by zero", i)
            stack[-1] = f(stack[-2], pop())  # both operands are read before the left one's slot is the top
        elif op == "^":
            stack[-1] = np.power(stack[-1], arg)  # not **: a float64 scalar's ** rounds differently
        else:
            if op == "sqrt":
                _check(stack[-1] < 0.0, t, "sqrt of negative value", i)
            stack[-1] = _UNARY[op](stack[-1])
    return stack[-1]


def _check(bad, t: np.ndarray, what: str, instruction: int) -> None:
    """ExprDomainError naming the first time in t where bad holds, if any."""
    bad = np.broadcast_to(bad, t.shape)
    if bad.any():
        raise ExprDomainError(f"{what} at t={float(t[bad][0])!r}", instruction)


def evaluate_array(expr: CoefficientExpr, t: np.ndarray) -> np.ndarray:
    """Values of the expression over an array of times (pure, thread-safe),
    as a new float array of t's shape.

    Overflow is not an error until it reaches the result: a non-finite
    value raises ExprDomainError naming the first time it occurs at."""
    t = np.asarray(t, dtype=float)
    if len(expr.program) == 1 and expr.program[0][0] == "const":  # a folded constant: no walk
        c = expr.program[0][1]
        if t.size and not math.isfinite(c):
            raise ExprDomainError(f"non-finite value at t={float(t.flat[0])!r}", 1)
        return np.full(t.shape, c)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _run(expr.program, t)
    if values is t or values.shape != t.shape:
        values = np.array(np.broadcast_to(values, t.shape))
    bad = ~np.isfinite(values)
    if bad.any():
        raise ExprDomainError(f"non-finite value at t={float(t[bad][0])!r}", len(expr.program))
    return values


def _evaluate_parts(expr: CoefficientExpr, parts):
    """evaluate_array over each array of times from the iterable parts, in
    order, yielding (times, values) until a part raises ExprDomainError.
    The parts after it are evaluated only to find the error that one walk
    over all of them together meets: that of the failing check earliest in
    the program, at the first part where it fails.  It is raised once the
    parts run out.  Only one part need be alive at a time."""
    held = None
    for t in parts:
        try:
            values = evaluate_array(expr, t)
        except ExprDomainError as err:
            if held is None or err.instruction < held.instruction:
                held = err
            continue
        if held is None:
            yield t, values
    if held is not None:
        raise held


def evaluate(expr: CoefficientExpr, t: float) -> float:
    """Value of the expression at one finite time t: the array evaluator on
    a one-point grid."""
    return float(evaluate_array(expr, np.array([float(t)]))[0])


def serialize(expr: CoefficientExpr) -> str:
    """Fully parenthesized canonical form; reparsing yields an expression
    that evaluates identically (exact float equality)."""
    stack = []
    for op, arg in expr.program:
        if op == "const":
            text = repr(arg).replace("inf", "1e999")  # a literal past float range reparses to inf
            stack.append(f"({text})" if text.startswith("-") else text)  # a folded negation
        elif op == "t":
            stack.append("t")
        elif op == "neg":
            stack[-1] = f"(-{stack[-1]})"
        elif op == "^":
            stack[-1] = f"({stack[-1]}^{arg})"
        elif op in _BINARY:
            right = stack.pop()
            stack[-1] = f"({stack[-1]}{op}{right})"
        else:
            stack[-1] = f"{op}({stack[-1]})"
    return stack[-1]


# ---------------------------------------------------------------------------
# sup / inf estimation
# ---------------------------------------------------------------------------


def _golden_min(g, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray, iters: int = 80) -> np.ndarray:
    """Plain golden-section minima of sign[i] * g(t) on the brackets
    [lo[i], hi[i]], refined together; deterministic.  g maps an array of
    times to an array of values.  It is called once for both starting
    points and then once per iteration, on every bracket's new probe point.
    A bracket that has shrunk below 1e-14 relative width stays frozen: its
    probe is a point already evaluated, and its result is dropped."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = np.split(np.tile(sign, 2) * g(np.concatenate([c, d])), 2)
    active = np.ones(a.shape, dtype=bool)
    for _ in range(iters):
        active &= b - a >= 1e-14 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        if not active.any():
            break
        left = active & (fc < fd)
        right = active & ~left
        b, d, fd = np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd)
        c = np.where(left, b - invphi * (b - a), c)
        a, c, fc = np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc)
        d = np.where(right, a + invphi * (b - a), d)
        values = sign * g(np.where(left, c, d))
        fc = np.where(left, values, fc)
        fd = np.where(right, values, fd)
    return np.minimum(fc, fd)


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
    value not above 0, a divisor that may be 0) or a bound is not finite."""
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
                safe &= alo > 0.0
                v = _out(np.sqrt(alo), np.sqrt(ahi))
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
            stack.append((*v, *d, e * _PAD))
    vlo, vhi, dlo, dhi, err = (np.broadcast_to(x, lo.shape) for x in stack[-1])
    safe &= np.isfinite(vlo) & np.isfinite(vhi) & np.isfinite(dlo) & np.isfinite(dhi) & np.isfinite(err)
    return vlo, vhi, dlo, dhi, err, safe


_SCAN_BLOCK = 1 << 16  # samples per block of the grid scan; a block's arrays stay in cache
_SCAN_CAP = 40  # most candidate cells refined per sign
_SCAN_CELL = 128  # samples per cell of the enclosure pass
_ENCLOSE_CELLS = 4096  # cells per call of _enclose: its arrays stay small
_SCAN_PILOTS = 8  # cells of the largest step bounds sampled before the scan


def _grid(i: np.ndarray, n: int, horizon: float) -> np.ndarray:
    """The samples i (an array of indices) of np.linspace(0.0, horizon, n),
    as the same floats, made without the rest of the grid: i * (horizon /
    (n - 1)), the last sample exactly horizon, and n = 1 giving [0.0]."""
    div = max(n - 1, 1)
    step = horizon / div
    t = i * step if n > 1 and step != 0.0 else i / div * horizon  # linspace's way when the step underflows
    if not step > 0.0:
        t += 0.0  # linspace adds its start, 0.0, which turns a -0.0 into 0.0
    if n > 1:
        t[i == div] = horizon
    return t


def _sampled_cells(expr: CoefficientExpr, horizon: float, n: int):
    """Which cells of _SCAN_CELL samples the scan must sample, as a bool
    array over the cells, or None to sample them all (the module docstring
    gives the four conditions a skipped cell meets).  Cell k holds the
    samples [k C, (k + 1) C) and the step to the next cell's first sample.
    Grids of fewer than 4 blocks are sampled whole: there the pass costs
    about what it could save."""
    cells = -(-n // _SCAN_CELL)
    step = horizon / max(n - 1, 1)
    if n < 4 * _SCAN_BLOCK or cells < 4 or not 0.0 < step < math.inf or not horizon < math.inf:
        return None
    h = (step + 2.0 * _EPS * horizon) * _PAD  # the largest gap between neighbouring samples
    first = np.arange(cells) * _SCAN_CELL
    last = np.minimum(first + _SCAN_CELL, n - 1)
    vlo, vhi, bound = np.empty(cells), np.empty(cells), np.empty(cells)
    for s in range(0, cells, _ENCLOSE_CELLS):
        part = slice(s, s + _ENCLOSE_CELLS)
        lo, hi, dlo, dhi, err, safe = _enclose(expr.program, _grid(first[part], n, horizon),
                                               _grid(last[part], n, horizon))
        if not safe.all():
            return None
        vlo[part], vhi[part] = lo, hi
        bound[part] = (h * _mag(dlo, dhi) + 2.0 * err) * _PAD  # holds every |f| step of the cell
    # pilot cells: both ends, the cell whose |f| enclosure ends lowest and the one that starts
    # highest (so least_up and most_low are at least as good as those ends), the largest step bounds
    mag_lo = np.where(vlo > 0.0, vlo, np.where(vhi < 0.0, -vhi, 0.0))
    pilots = np.unique(np.concatenate([[0, cells - 1, np.argmin(_mag(vlo, vhi)), np.argmax(mag_lo)],
                                       np.argsort(bound)[-_SCAN_PILOTS:]]))
    idx = np.concatenate([np.arange(first[k], last[k] + 1) for k in pilots])
    mag = np.abs(evaluate_array(expr, _grid(idx, n, horizon)))
    steps = np.abs(np.diff(mag))[np.diff(idx) == 1]
    dmax_low = float(steps.max()) if steps.size else 0.0  # a sampled step: dmax is at least this
    dmax_up = float(bound.max())  # and no step is larger than this
    skip = ((vlo > float(mag.min()) + 2.0 * dmax_up + 1e-15)  # positive, above the inf's kept candidates
            & (-vhi > -float(mag.max()) + 2.0 * dmax_up + 1e-15)  # below the sup's
            & (bound < dmax_low))  # and no step reaches dmax
    skip[0] = skip[-1] = False
    return ~skip if skip.any() else None


def _blocks(sampled, n: int):
    """Per block of _SCAN_BLOCK samples that holds a sampled cell: (lo, pos,
    edge), the samples to evaluate being lo + pos, its sampled ones and a
    neighbour on either side of each run of them, and edge the positions of
    those neighbours.  With sampled None every block is whole, and pos is
    None for lo + arange(size)."""
    for start in range(0, n, _SCAN_BLOCK):
        stop = min(start + _SCAN_BLOCK, n)
        lo, hi = max(start - 1, 0), min(stop + 1, n)
        if sampled is None:
            yield lo, None, hi - lo, np.array([0] * (lo < start) + [hi - lo - 1] * (hi > stop), dtype=int)
            continue
        cell = np.arange(lo // _SCAN_CELL, (hi - 1) // _SCAN_CELL + 1)
        own = np.repeat(sampled[cell], _SCAN_CELL)[lo - cell[0] * _SCAN_CELL:][:hi - lo]
        own[:start - lo] = own[own.size - (hi - stop):] = False  # the neighbours are the next blocks' own
        if own.any():
            need = own.copy()
            need[1:] |= own[:-1]
            need[:-1] |= own[1:]
            pos = np.flatnonzero(need)
            yield lo, pos, pos.size, np.flatnonzero(~own[pos])


def _scan(expr: CoefficientExpr, horizon: float, n: int):
    """Scan of the n samples of linspace(0, horizon, n): (BoundsEstimate of
    |f|, first nonpositive raw value and its t if any, else the raw minimum
    and its t).  A constant c needs no scan: every sample and every
    refinement finds |c|, and its raw minimum is c at the first sample.

    No grid is built.  Each block of _SCAN_BLOCK samples makes its own
    times, those of the cells _sampled_cells cannot rule out, with one
    neighbour on either side of each run so that every adjacent pair is
    compared, and is reduced at once to its candidates for each sign: the
    grid's endpoints and the interior local minima of sign*|f| under a
    non-strict test, which hold the first least sample of sign*|f|.  That
    least is refined in the candidate cells within a sampling-offset slack,
    twice the largest step between neighbouring samples, of it.  Every basin
    whose bottom could undercut the best sampled cell gets refined, so a
    coarser grid cannot out-refine a finer one on near-tied basins; past
    _SCAN_CAP cells, the lowest are kept.  Both signs' cells are refined
    in one golden-section search.  A block that raises ends the reductions,
    and the scan raises the whole-grid walk's error (see _evaluate_parts)."""
    if len(expr.program) == 1 and expr.program[0][0] == "const":
        c = evaluate(expr, 0.0)  # a non-finite literal raises here, as in the scan
        return BoundsEstimate(abs(c), abs(c), horizon, n), c, 0.0
    dmax = 0.0  # largest |f| step between neighbouring samples
    candidates = ([], []), ([], [])  # per sign: their indices and |f|, in index order
    bad = None  # the first nonpositive raw sample and its index
    flat, c = 0, 0.0  # while dmax is 0: the samples [0, flat) all tie at |f| = c
    block = [None]  # the block being evaluated

    def times():
        for block[0] in _blocks(_sampled_cells(expr, horizon, n), n):
            lo, pos, size, _ = block[0]
            yield _grid(np.arange(lo, lo + size, dtype=float) if pos is None else pos + lo, n, horizon)

    for _, raw in _evaluate_parts(expr, times()):
        lo, pos, size, edge = block[0]  # _evaluate_parts yields each block before it takes the next

        def index(i):  # the sample index of positions i in the block
            return lo + (i if pos is None else pos[i])

        mag = np.abs(raw)
        nonpos = raw <= 0.0
        nonpos[edge] = False  # the neighbours are other blocks' samples
        if bad is None and nonpos.any():
            i = int(np.argmax(nonpos))
            bad = (float(raw[i]), int(index(i)))
        step = np.diff(mag)
        if step.size:
            dmax = max(dmax, float(np.abs(step if pos is None else step[np.diff(pos) == 1]).max()))
        if dmax == 0.0:  # a flat prefix: its candidates, every sample, are made only if a later block varies
            flat, c = int(index(size - 1 - (size - 1 in edge))) + 1, float(mag[0])
            continue
        falls, rises = step[:-1], step[1:]
        pick = np.zeros(size, dtype=bool)
        pick[0], pick[-1] = index(0) == 0, index(size - 1) == n - 1  # the grid's endpoints, for both signs
        for k, interior in enumerate(((falls <= 0.0) & (rises >= 0.0), (falls >= 0.0) & (rises <= 0.0))):
            pick[1:-1] = interior
            pick[edge] = False
            cells = np.flatnonzero(pick)
            candidates[k][0].append(index(cells))
            candidates[k][1].append(mag[cells])

    t0, t1 = _grid(np.arange(2), n, horizon)
    h = t1 - t0 if n > 1 else 0.0
    cells, signs, least = [], [], []
    head = flat if dmax else 1  # the flat prefix, or its first sample when every sample ties
    for k, sign in enumerate((1.0, -1.0)):
        idxs = np.concatenate([np.arange(head), *candidates[k][0]])
        values = sign * np.concatenate([np.full(head, c), *candidates[k][1]])
        first = int(np.argmin(values))
        least.append((float(values[first]), int(idxs[first])))  # the least sample of sign*|f|, first index
        if n < 3 or dmax == 0.0:
            sel = np.array([least[k][1]])  # flat sampling, nothing to refine
        else:
            keep = values <= least[k][0] + 2.0 * dmax + 1e-15  # holds the grid minimum
            sel = idxs[keep]
            if sel.size > _SCAN_CAP:
                sel = sel[np.argpartition(values[keep], _SCAN_CAP)[:_SCAN_CAP]]
        cells.append(sel)
        signs.append(np.full(sel.size, sign))
    cells = np.concatenate(cells)
    at = _grid(cells, n, horizon)
    lo = np.maximum(0.0, at - h)
    hi = np.minimum(horizon, at + h)  # lo == hi == 0 on a one-point grid
    split, signs = signs[0].size, np.concatenate(signs)

    def mag(t):
        return np.abs(evaluate_array(expr, t))

    try:
        refined = _golden_min(mag, lo, hi, signs)
    except ExprDomainError:
        for part in (slice(None, split), slice(split, None)):
            _golden_min(mag, lo[part], hi[part], signs[part])  # the first error of the inf's search, then the sup's
        raise
    inf_value = min(least[0][0], float(refined[:split].min()))
    sup_value = -min(least[1][0], float(refined[split:].min()))
    value, i = bad or least[0]  # with no nonpositive sample, f = |f|
    return BoundsEstimate(inf_value, sup_value, horizon, n), value, float(_grid(np.array([i]), n, horizon)[0])

