"""Parser, evaluator and numeric sup/inf estimation for the time-varying
coefficient expressions.

Grammar: decimal literals (plain or scientific), the variable ``t``,
parentheses, the functions abs/exp/sin/cos/sqrt, and the operators
``+ - * / ^`` with conventional precedence.  ``^`` is restricted to literal
integer exponents >= 0.

Parsing folds every subtree free of ``t`` into one ``Const`` of the value
the evaluator gives it (``"2*1.6"`` and ``"sqrt(2)"`` parse to a ``Const``
root), except a subtree whose evaluation raises or is non-finite: it
raises its ExprDomainError, with the same message, when evaluated.

There is one evaluator: ``evaluate_array`` walks the tree once over an
array of times, with constants as float64 scalars that numpy broadcasts,
and ``evaluate`` is that evaluator on a one-point array.  The sup/inf
estimate of a constant is closed-form.  Any other expression's grid is
scanned in cache-sized blocks, each reduced at once to its extremes, its
largest step, its local minima and its first nonpositive value; then the
candidate cells of both the sup and the inf are refined together, one
evaluator call per golden-section iteration.

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


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # neg | abs | exp | sin | cos | sqrt
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


Node = Const | Var | Unary | Binary


@dataclass(frozen=True)
class CoefficientExpr:
    """A parsed coefficient function of time t."""

    root: Node
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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip leading whitespace manually to report the right offset
            stripped = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if stripped >= len(text):
                break
            raise ExprSyntaxError(f"unexpected character {text[stripped]!r}", stripped)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# binding powers; unary minus sits between * / and ^
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.parse_expr(0)
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {value!r}", pos)
        return node

    def parse_expr(self, min_prec: int) -> Node:
        node = self.parse_atom()
        while True:
            kind, value, pos = self.peek()
            if kind != "op" or value not in _PREC:
                break
            prec = _PREC[value]
            if prec < min_prec:
                break
            self.advance()
            if value == "^":
                right = self.parse_exponent(pos)
            else:
                right = self.parse_expr(prec + 1)
            node = Binary(value, node, right)
        return node

    def parse_exponent(self, op_pos: int) -> Node:
        # only literal integer exponents >= 0 are admitted
        kind, value, pos = self.peek()
        if kind != "num":
            raise ExprSyntaxError("exponent must be a literal integer >= 0", pos)
        self.advance()
        num = float(value)
        if num != int(num) or num < 0:
            raise ExprSyntaxError("exponent must be a literal integer >= 0", pos)
        return Const(float(int(num)))

    def parse_atom(self) -> Node:
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            if value == "t":
                return Var()
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr(0)
                self.expect_op(")")
                return Unary(value, arg)
            raise ExprSyntaxError(f"unknown identifier {value!r}", pos)
        if kind == "op":
            if value == "(":
                node = self.parse_expr(0)
                self.expect_op(")")
                return node
            if value == "-":
                return Unary("neg", self.parse_expr(_UNARY_PREC))
            if value == "+":
                return self.parse_expr(_UNARY_PREC)
        raise ExprSyntaxError("unexpected end of input" if kind == "end" else f"unexpected token {value!r}", pos)


def parse_expression(text: str) -> CoefficientExpr:
    """Parse an expression string into an immutable AST.

    Raises ExprSyntaxError (with character position) on malformed input or
    unknown identifiers.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return CoefficientExpr(_fold(_Parser(text).parse()), text)


def _fold(node: Node) -> Node:
    """The tree with every subtree free of t replaced by one Const, unless
    evaluating that subtree raises or gives a non-finite value."""
    if isinstance(node, Unary):
        node = Unary(node.op, _fold(node.arg))
    elif isinstance(node, Binary):
        node = Binary(node.op, _fold(node.left), _fold(node.right))
    else:
        return node
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = _eval_array(node, np.zeros(1))  # a scalar exactly when node is free of t
    except ExprDomainError:
        return node
    return Const(float(value)) if np.ndim(value) == 0 and math.isfinite(value) else node


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _eval_array(node: Node, t: np.ndarray):
    """Values over t; a subtree free of t gives a float64 scalar."""
    if isinstance(node, Const):
        return np.float64(node.value)
    if isinstance(node, Var):
        return t
    if isinstance(node, Unary):
        v = _eval_array(node.arg, t)
        if node.op == "neg":
            return -v
        if node.op == "abs":
            return np.abs(v)
        if node.op == "sqrt":
            bad = np.broadcast_to(v < 0.0, t.shape)
            if bad.any():
                raise ExprDomainError(f"sqrt of negative value at t={float(t[bad][0])!r}")
            return np.sqrt(v)
        return getattr(np, node.op)(v)
    left = _eval_array(node.left, t)
    right = _eval_array(node.right, t)
    op = node.op
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        bad = np.broadcast_to(right == 0.0, t.shape)
        if bad.any():
            raise ExprDomainError(f"division by zero at t={float(t[bad][0])!r}")
        return left / right
    return np.power(left, int(node.right.value))  # not **: a float64 scalar's ** rounds differently


def evaluate_array(expr: CoefficientExpr, t: np.ndarray) -> np.ndarray:
    """Values of the expression over an array of times (pure, thread-safe),
    as a new float array of t's shape.

    Overflow is not an error until it reaches the result: a non-finite
    value raises ExprDomainError naming the first time it occurs at."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _eval_array(expr.root, t)
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _serialize(node: Node) -> str:
    if isinstance(node, Const):
        text = repr(node.value).replace("inf", "1e999")  # a literal past float range reparses to inf
        return f"({text})" if text.startswith("-") else text  # a folded negation
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{_serialize(node.arg)})"
        return f"{node.op}({_serialize(node.arg)})"
    if node.op == "^":
        return f"({_serialize(node.left)}^{int(node.right.value)})"
    return f"({_serialize(node.left)}{node.op}{_serialize(node.right)})"


def serialize(expr: CoefficientExpr) -> str:
    """Fully parenthesized canonical form; reparsing yields an expression
    that evaluates identically (exact float equality)."""
    return _serialize(expr.root)


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
    each block is reduced at once.  For each sign, the least of sign*|f| is
    refined in the candidate cells: the local minima of sign*|f| (the
    endpoints included) within a sampling-offset slack, twice the largest
    step between neighbouring samples, of the least sample.  Every basin
    whose bottom could undercut the best sampled cell gets refined, so a
    coarser grid cannot out-refine a finer one on near-tied basins; past
    _SCAN_CAP cells, the lowest are kept.  Both signs' cells are refined
    in one golden-section search."""
    if isinstance(expr.root, Const):
        c = evaluate(expr, 0.0)  # a non-finite literal raises here, as in the scan
        return BoundsEstimate(abs(c), abs(c), horizon, grid.size), c, 0.0
    n = grid.size
    dmax = 0.0  # largest |f| step between neighbouring samples
    ends = []  # |f| at the first and the last sample
    least = [(math.inf, 0), (math.inf, 0)]  # least sample of |f| and of -|f|, with its first index
    minima = ([], []), ([], [])  # per sign: indices and |f| of the interior local minima of sign*|f|
    raw_min = (math.inf, 0)  # least raw sample and its first index, until a nonpositive one is found
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
        if start == 0:
            ends.append(mag[0])
        if stop == n:
            ends.append(mag[-1])
        for k, values in enumerate((mag[own], -mag[own])):
            i = int(np.argmin(values))
            if values[i] < least[k][0]:
                least[k] = (float(values[i]), start + i)
        if bad is None:
            values = raw[own]
            i = int(np.argmin(values))
            if values[i] <= 0.0:
                i = int(np.argmax(values <= 0.0))
                bad = (float(values[i]), start + i)
            elif values[i] < raw_min[0]:
                raw_min = (float(values[i]), start + i)
        step = np.diff(mag)
        if step.size:
            dmax = max(dmax, float(np.abs(step).max()))
        falls, rises = step[:-1], step[1:]
        for k, interior in enumerate(((falls <= 0.0) & (rises >= 0.0), (falls >= 0.0) & (rises <= 0.0))):
            cells = np.flatnonzero(interior) + 1
            minima[k][0].append(cells + lo)
            minima[k][1].append(mag[cells])

    h = grid[1] - grid[0] if n > 1 else 0.0
    cells, signs = [], []
    for k, sign in enumerate((1.0, -1.0)):
        if n < 3 or dmax == 0.0:
            sel = np.array([least[k][1]])  # flat sampling, nothing to refine
        else:
            idxs = np.concatenate([[0], *minima[k][0], [n - 1]])
            values = sign * np.concatenate([[ends[0]], *minima[k][1], [ends[-1]]])
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
    value, i = bad or raw_min
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
