"""Parser, evaluator and numeric sup/inf estimation for the time-varying
coefficient expressions.

Grammar: decimal literals (plain or scientific), the variable ``t``,
parentheses, the functions abs/exp/sin/cos/sqrt, and the operators
``+ - * / ^`` with conventional precedence.  ``^`` is restricted to literal
integer exponents >= 0.

There is one evaluator: ``evaluate_array`` walks the tree once over an
array of times, and ``evaluate`` is that evaluator on a one-point array.
The sup/inf estimate refines all candidate cells of its grid scan together,
one evaluator call per golden-section iteration.

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
    return CoefficientExpr(_Parser(text).parse(), text)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _eval_array(node: Node, t: np.ndarray) -> np.ndarray:
    if isinstance(node, Const):
        return np.full_like(t, node.value)
    if isinstance(node, Var):
        return t
    if isinstance(node, Unary):
        v = _eval_array(node.arg, t)
        if node.op == "neg":
            return -v
        if node.op == "abs":
            return np.abs(v)
        if node.op == "sqrt":
            bad = v < 0.0
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
        bad = right == 0.0
        if bad.any():
            raise ExprDomainError(f"division by zero at t={float(t[bad][0])!r}")
        return left / right
    return left ** int(node.right.value)


def evaluate_array(expr: CoefficientExpr, t: np.ndarray) -> np.ndarray:
    """Values of the expression over an array of times (pure, thread-safe).

    Overflow is not an error until it reaches the result: a non-finite
    value raises ExprDomainError naming the first time it occurs at."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _eval_array(expr.root, t)
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
        return repr(node.value)
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


def _golden_min(fn, lo: np.ndarray, hi: np.ndarray, iters: int = 80) -> np.ndarray:
    """Plain golden-section minima of fn on the brackets [lo[i], hi[i]],
    refined together; deterministic.  fn maps an array of times to an array
    of values and is called once per iteration, on the brackets that have
    not yet shrunk below 1e-14 relative width (those stay frozen)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
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
        values = fn(np.where(left, c, d)[active])
        fc[left] = values[left[active]]
        fd[right] = values[right[active]]
    return np.minimum(fc, fd)


def _candidate_cells(values: np.ndarray, cap: int = 40) -> np.ndarray:
    """Local-minimum cells of the sampled values within a sampling-offset
    slack of the grid minimum.  Every basin whose bottom could undercut the
    best sampled cell gets refined, so a coarser grid cannot out-refine a
    finer one on near-tied basins."""
    n = values.size
    if n < 3:
        return np.array([np.argmin(values)])
    diffs = np.abs(np.diff(values))
    dmax = float(diffs.max())
    if dmax == 0.0:
        return np.array([np.argmin(values)])  # flat sampling, nothing to refine
    interior = (values[1:-1] <= values[:-2]) & (values[1:-1] <= values[2:])
    idxs = np.concatenate([[0], np.flatnonzero(interior) + 1, [n - 1]])
    vmin = float(values.min())
    sel = idxs[values[idxs] <= vmin + 2.0 * dmax + 1e-15]  # holds the grid minimum
    if sel.size > cap:
        sel = sel[np.argpartition(values[sel], cap)[:cap]]
    return sel


def _scan(expr: CoefficientExpr, horizon: float, samples: int):
    """Shared grid scan: (BoundsEstimate of |f|, first nonpositive raw value
    and its t if any, else the raw minimum and its t)."""
    grid = np.linspace(0.0, horizon, samples)
    raw = evaluate_array(expr, grid)
    mag = np.abs(raw)
    h = grid[1] - grid[0] if samples > 1 else 0.0
    # least of sign*|f| per sign: the inf for +1, minus the sup for -1
    least = {}
    for sign in (1.0, -1.0):
        values = sign * mag
        cells = _candidate_cells(values)
        lo = np.maximum(0.0, grid[cells] - h)
        hi = np.minimum(horizon, grid[cells] + h)  # lo == hi == 0 on a one-point grid
        refined = _golden_min(lambda t: sign * np.abs(evaluate_array(expr, t)), lo, hi)
        least[sign] = min(float(values.min()), float(refined.min()))
    nonpos = raw <= 0.0
    if nonpos.any():
        ibad = int(np.argmax(nonpos))  # first violation
    else:
        ibad = int(np.argmin(raw))
    est = BoundsEstimate(least[1.0], -least[-1.0], horizon, samples)
    return est, float(raw[ibad]), float(grid[ibad])


def estimate_bounds(expr: CoefficientExpr, horizon: float = 1000.0, samples: int = 100_000) -> BoundsEstimate:
    """Estimate inf/sup of |expr| over [0, horizon].

    Uniform grid scan refined by golden-section search around the grid
    extrema.  Refinement only widens the interval, so finer grids never
    shrink it: inf is non-increasing and sup non-decreasing in samples.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be > 0")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    est, _, _ = _scan(expr, horizon, samples)
    return est
