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
with constants as float64 scalars that numpy broadcasts, and ``evaluate``
on a one-point array.  The sup/inf estimate of a constant is closed-form.
Any other expression's grid is scanned in cache-sized blocks, each reduced
at once to its largest step, its candidate samples (local minima and the
grid's endpoints) and its first nonpositive value; then the candidate cells
of both the sup and the inf are refined together, one evaluator call per
golden-section iteration.

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
    "estimate_bounds",
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
    for op, arg in program:
        if op == "const":
            push(np.float64(arg))
        elif op == "t":
            push(t)
        elif (f := _BINARY.get(op)) is not None:
            if op == "/":
                _check(stack[-1] == 0.0, t, "division by zero")
            stack[-1] = f(stack[-2], pop())  # both operands are read before the left one's slot is the top
        elif op == "^":
            stack[-1] = np.power(stack[-1], arg)  # not **: a float64 scalar's ** rounds differently
        else:
            if op == "sqrt":
                _check(stack[-1] < 0.0, t, "sqrt of negative value")
            stack[-1] = _UNARY[op](stack[-1])
    return stack[-1]


def _check(bad, t: np.ndarray, what: str) -> None:
    """ExprDomainError naming the first time in t where bad holds, if any."""
    bad = np.broadcast_to(bad, t.shape)
    if bad.any():
        raise ExprDomainError(f"{what} at t={float(t[bad][0])!r}")


def evaluate_array(expr: CoefficientExpr, t: np.ndarray) -> np.ndarray:
    """Values of the expression over an array of times (pure, thread-safe),
    as a new float array of t's shape.

    Overflow is not an error until it reaches the result: a non-finite
    value raises ExprDomainError naming the first time it occurs at."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _run(expr.program, t)
    if values is t or values.shape != t.shape:
        values = np.array(np.broadcast_to(values, t.shape))
    bad = ~np.isfinite(values)
    if bad.any():
        raise ExprDomainError(f"non-finite value at t={float(t[bad][0])!r}")
    return values


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
    points and then once per iteration, on the brackets that have not yet
    shrunk below 1e-14 relative width (those stay frozen)."""
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
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = b[left] - invphi * (b[left] - a[left])
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = a[right] + invphi * (b[right] - a[right])
        values = sign[active] * g(np.where(left, c, d)[active])
        fc[left] = values[left[active]]
        fd[right] = values[right[active]]
    return np.minimum(fc, fd)


_SCAN_BLOCK = 1 << 16  # samples per block of the grid scan; a block's arrays stay in cache
_SCAN_CAP = 40  # most candidate cells refined per sign


def _scan(expr: CoefficientExpr, horizon: float, grid: np.ndarray):
    """Scan of the grid linspace(0, horizon, samples): (BoundsEstimate of
    |f|, first nonpositive raw value and its t if any, else the raw minimum
    and its t).  A constant c needs no scan: every sample and every
    refinement finds |c|, and its raw minimum is c at the first sample.

    The grid is evaluated in blocks of _SCAN_BLOCK samples, each with one
    neighbour on either side so that every adjacent pair is compared, and
    each block is reduced at once to its candidates for each sign: the
    grid's endpoints and the interior local minima of sign*|f| under a
    non-strict test, which hold the first least sample of sign*|f|.  That
    least is refined in the candidate cells within a sampling-offset slack,
    twice the largest step between neighbouring samples, of it.  Every basin
    whose bottom could undercut the best sampled cell gets refined, so a
    coarser grid cannot out-refine a finer one on near-tied basins; past
    _SCAN_CAP cells, the lowest are kept.  Both signs' cells are refined
    in one golden-section search."""
    if len(expr.program) == 1 and expr.program[0][0] == "const":
        c = evaluate(expr, 0.0)  # a non-finite literal raises here, as in the scan
        return BoundsEstimate(abs(c), abs(c), horizon, grid.size), c, 0.0
    n = grid.size
    dmax = 0.0  # largest |f| step between neighbouring samples
    candidates = ([], []), ([], [])  # per sign: their indices and |f|, in index order
    bad = None  # the first nonpositive raw sample and its index
    for start in range(0, n, _SCAN_BLOCK):
        lo, stop = max(start - 1, 0), min(start + _SCAN_BLOCK, n)
        try:
            raw = evaluate_array(expr, grid[lo:stop + 1])
        except ExprDomainError:
            evaluate_array(expr, grid)  # raises the first error of the whole-grid walk
            raise
        mag = np.abs(raw)
        own = slice(start - lo, stop - lo)
        if bad is None and (raw[own] <= 0.0).any():
            i = int(np.argmax(raw[own] <= 0.0))
            bad = (float(raw[own][i]), start + i)
        step = np.diff(mag)
        if step.size:
            dmax = max(dmax, float(np.abs(step).max()))
        falls, rises = step[:-1], step[1:]
        pick = np.zeros(mag.size, dtype=bool)
        pick[0], pick[-1] = start == 0, stop == n  # the grid's endpoints, for both signs
        for k, interior in enumerate(((falls <= 0.0) & (rises >= 0.0), (falls >= 0.0) & (rises <= 0.0))):
            pick[1:-1] = interior
            cells = np.flatnonzero(pick)
            candidates[k][0].append(cells + lo)
            candidates[k][1].append(mag[cells])

    h = grid[1] - grid[0] if n > 1 else 0.0
    cells, signs, least = [], [], []
    for k, sign in enumerate((1.0, -1.0)):
        idxs = np.concatenate(candidates[k][0])
        values = sign * np.concatenate(candidates[k][1])
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
    lo = np.maximum(0.0, grid[cells] - h)
    hi = np.minimum(horizon, grid[cells] + h)  # lo == hi == 0 on a one-point grid
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
    return BoundsEstimate(inf_value, sup_value, horizon, n), value, float(grid[i])


def estimate_bounds(expr: CoefficientExpr, horizon: float = 1000.0, samples: int = 100_000) -> BoundsEstimate:
    """Estimate inf/sup of |expr| over [0, horizon].

    Uniform grid scan refined by golden-section search around the grid
    extrema.  Refinement only widens the interval, so finer grids never
    shrink it: inf is non-increasing and sup non-decreasing in samples.
    A constant c (every expression free of t folds to one) gets the value
    the scan would find, inf = sup = |c|, without sampling.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be > 0")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    est, _, _ = _scan(expr, horizon, np.linspace(0.0, horizon, samples))
    return est
