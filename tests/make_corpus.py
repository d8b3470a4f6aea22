"""Regenerate tests/data/corpus.json, the seeded kernel cases that
tests/test_corpus.py replays.  Run from the repository root:

    PYTHONPATH=src python tests/make_corpus.py

Each case is a model (eleven coefficient texts), one or two initial
histories, t0, t_end and h, drawn from a grammar that reaches every error
kind the kernel can meet: division by zero, roots of negatives, overflowing
coefficients, u(t - sigma) + k <= 0, log-state overflow, a step above the
smallest delay, a step that does not divide the run, bad histories, and
coefficients b <= 0.  Its outcome is the exception's class and message, or
per column the first, last, min, max and math.fsum of x, y, dx and dy, and
the history reach r.

It also writes tests/data/upsilon_corpus.json, seeded cases of the integral
operator apply_upsilon: a model of the same grammar with decay rates a1, a2
above a positive floor, a candidate pair on a 0.1 grid, a quadrature step
of 0.1 (both node parities) or 0.05 (one), a tail tolerance and the floors
a1^i, a2^i.  Three kinds are refused: an a_j that falls too far below its
floor, a non-finite a^i tail_tol, and a tail past the node cap.  Its outcome
is the exception's class and message, or per image component the first,
last, min, max and math.fsum of its grid values.

Rerun it only when a change is meant to alter outcomes, and list the
entries that moved in that change.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from lgholling import (CoefficientBounds, GridFunctionPair, InitialHistory, ModelSpec, apply_upsilon, evaluate_array,
                       integrate_batch, parse_expression)

CORPUS_PATH = Path(__file__).resolve().parent / "data" / "corpus.json"
UPSILON_CORPUS_PATH = CORPUS_PATH.with_name("upsilon_corpus.json")
SEED = 20261019
CASES = 300
KINDS = ("ok", "ok", "ok", "ok", "division", "sqrt", "exp", "holling", "prey-down", "predator-up", "stiff",
         "step", "divide", "history", "b-zero", "b-negative")
UPSILON_CASES = 80
UPSILON_KINDS = ("ok", "ok", "ok", "ok", "ok", "falls", "decay", "tail")


def _f(rng, lo: float, hi: float) -> str:
    return repr(round(float(rng.uniform(lo, hi)), 4))


def _varying(rng, lo: float, hi: float, amp: float) -> str:
    """A constant or a positive coefficient with a periodic part."""
    if rng.random() < 0.5:
        return _f(rng, lo, hi)
    fn = ("sin", "cos", "abs(sin", "abs(cos")[rng.integers(4)]
    close = "))" if fn.startswith("abs") else ")"
    return f"{_f(rng, lo, hi)} + {_f(rng, 0.0, amp)}*{fn}({_f(rng, 0.3, 3.0)}*t{close}"


def _history(rng):
    """A constant or an expression in theta, positive on [-3, 0]."""
    u0 = round(float(rng.uniform(0.1, 2.0)), 4)
    pick = rng.integers(3)
    if pick == 0:
        return u0
    if pick == 1:
        return f"{u0!r} + {round(0.5 * u0, 4)!r}*sin({_f(rng, 0.5, 3.0)}*t)"
    return f"{u0!r}*exp({_f(rng, 0.0, 1.0)}*t)"


def _model(rng, d_min: float) -> dict:
    """Eleven coefficient texts, every delay at least d_min."""
    model = {
        "a1": _varying(rng, 0.5, 3.0, 0.5), "b": _varying(rng, 0.5, 2.0, 0.4), "a2": _varying(rng, 0.2, 1.0, 0.3),
        "c1": _f(rng, 0.1, 1.0), "c2": _f(rng, 0.1, 1.0), "k1": _f(rng, 0.5, 2.0), "k2": _varying(rng, 0.5, 2.0, 0.4),
    }
    delays = [_f(rng, d_min, 1.0) if rng.random() < 0.6
              else f"{_f(rng, d_min + 0.1, 1.0)} + 0.1*sin({_f(rng, 0.5, 3.0)}*t)" for _ in range(4)]
    if rng.random() < 0.4:  # shared delays, as in the presets
        delays = [delays[0], delays[0], delays[2], delays[2]]
    return model | dict(zip(("sigma1", "sigma2", "tau1", "tau2"), delays))


def draw_case(rng, index: int) -> dict:
    """One case of the grammar; the kind picks the fault injected, if any."""
    kind = KINDS[index % len(KINDS)]
    h = (0.01, 0.02, 0.025, 0.05)[rng.integers(4)]
    steps = int(rng.integers(40, 400))
    t0 = 0.0 if rng.random() < 0.7 else round(float(rng.uniform(-5.0, 20.0)), 2)
    model = _model(rng, max(h, 0.1))
    histories = [[_history(rng), _history(rng)] for _ in range(int(rng.integers(1, 3)))]
    # a stage time inside the run, written so that t - T is exactly 0 there
    t_fault = t0 + 0.5 * h * int(rng.integers(0, 2 * steps + 1))
    target = ("a1", "b", "a2", "c1", "c2", "k1", "k2", "sigma1", "sigma2", "tau1", "tau2")[rng.integers(11)]
    if kind == "division":
        model[target] += f" + 0*(1/(t - {t_fault!r}))"
    elif kind == "sqrt":
        model[target] += f" + 0*sqrt({round(t_fault, 3)!r} - t)"
    elif kind == "exp":
        model[target] += f" + 0*exp({_f(rng, 50.0, 400.0)}*(t - {round(t0, 2)!r}))"
    elif kind == "holling":
        model["k1" if rng.random() < 0.5 else "k2"] = f"{_f(rng, -2.0, 0.2)} + 0.1*sin(t)"
    elif kind == "prey-down":
        model["c1"], model["a2"], model["c2"] = _f(rng, 50.0, 400.0), _f(rng, 1.0, 3.0), "1e-9"
    elif kind == "predator-up":
        model["a2"], model["c2"] = _f(rng, 100.0, 3000.0), "1e-300"
    elif kind == "stiff":
        model["a1"] = repr(round(float(10 ** rng.uniform(0.0, 3.0)) / h, 1))  # a1 h from 1 to 1000
    elif kind == "step":
        h = round(float(rng.uniform(1.05, 3.0)) * 0.1, 4)
        model |= dict.fromkeys(("sigma1", "sigma2", "tau1", "tau2"), "0.1")
    elif kind == "divide":
        steps = steps + 0.37
    elif kind == "history":
        histories[0][0] = "0.5 + sqrt(t + " + _f(rng, 0.05, 0.09) + ")"
    elif kind == "b-zero":
        model["b"] = "0"
    elif kind == "b-negative":
        model["b"] = f"-{_f(rng, 0.05, 1.0)}"
    return {"id": index, "kind": kind, "model": model, "histories": histories,
            "t0": t0, "t_end": t0 + steps * h, "h": h}


def _summary(a: np.ndarray) -> dict:
    return {"first": float(a[0]), "last": float(a[-1]), "min": float(a.min()), "max": float(a.max()),
            "fsum": math.fsum(a.tolist())}


def run_case(case: dict) -> dict:
    """The case's outcome: its error, or its knot summaries and r."""
    hists = [InitialHistory(*pair) for pair in case["histories"]]
    try:
        traj = integrate_batch(ModelSpec.from_strings(case["model"]), hists, case["t0"], case["t_end"], case["h"])
    except Exception as exc:  # the class is recorded, whatever it is
        return {"error": type(exc).__name__, "message": str(exc)}
    columns = [{name: _summary(getattr(traj, name)[:, i]) for name in ("x", "y", "dx", "dy")}
               for i in range(len(hists))]
    return {"columns": columns, "r": traj.r}


def _floor(text: str, t_lo: float) -> float:
    """The least value of a periodic coefficient sampled over 60 time units
    from t_lo, rounded down to 3 decimals."""
    low = float(evaluate_array(parse_expression(text), np.linspace(t_lo, t_lo + 60.0, 60_001)).min())
    return math.floor(low * 1000.0) / 1000.0


def _grid_values(rng, t: np.ndarray) -> list:
    """A positive smooth candidate component on the grid t."""
    level = float(rng.uniform(0.2, 2.0))
    wave = level * float(rng.uniform(0.0, 0.5)) * np.sin(float(rng.uniform(0.2, 3.0)) * t + float(rng.uniform(0, 6)))
    return np.round(level + wave, 6).tolist()


def draw_upsilon_case(rng, index: int) -> dict:
    """One apply_upsilon case; the kind picks the refusal, if any."""
    kind = UPSILON_KINDS[index % len(UPSILON_KINDS)]
    model = _model(rng, 0.1)
    model["a1"], model["a2"] = _varying(rng, 0.3, 2.0, 0.25), _varying(rng, 0.3, 2.0, 0.25)
    n = int(rng.integers(10, 80))
    t_lo = round(float(rng.uniform(-5.0, 20.0)), 1)
    t_hi = round(t_lo + 0.1 * n, 1)
    t = t_lo + 0.1 * np.arange(n + 1)
    phi, psi = _grid_values(rng, t), _grid_values(rng, t)
    quad_step = (0.1, 0.05)[rng.integers(2)]
    tail_tol = (1e-4, 1e-6, 1e-8)[rng.integers(3)]
    a_inf = [_floor(model["a1"], t_lo), _floor(model["a2"], t_lo)]
    j = int(rng.integers(2))
    if kind == "falls":  # a_j swings far below the floor it is given
        model[f"a{j + 1}"] = f"{a_inf[j]!r} + {_f(rng, 100.0, 800.0)}*sin({_f(rng, 0.5, 2.0)}*t)"
    elif kind == "decay":  # a^i tail_tol past the float range
        a_inf[j], tail_tol = float(10 ** rng.uniform(300.0, 308.0)), float(10 ** rng.uniform(9.0, 12.0))
    elif kind == "tail":  # floors so low that the tail would need billions of nodes
        a_inf = [float(10 ** rng.uniform(-8.0, -6.0)) for _ in range(2)]
    return {"id": index, "kind": kind, "model": model, "t_lo": t_lo, "t_hi": t_hi, "step": 0.1, "phi": phi,
            "psi": psi, "quad_step": quad_step, "tail_tol": tail_tol, "a_inf": a_inf}


def run_upsilon_case(case: dict) -> dict:
    """The case's outcome: its error, or the summaries of both image components."""
    bounds = CoefficientBounds.from_table(dict.fromkeys(CoefficientBounds.__dataclass_fields__, 1.0)
                                          | {"a1_inf": case["a_inf"][0], "a2_inf": case["a_inf"][1]})
    pair = GridFunctionPair(case["t_lo"], case["t_hi"], case["step"], case["phi"], case["psi"])
    try:
        image = apply_upsilon(ModelSpec.from_strings(case["model"]), pair, case["quad_step"], case["tail_tol"], bounds)
    except Exception as exc:  # the class is recorded, whatever it is
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"phi": _summary(image.phi), "psi": _summary(image.psi)}


def _write(path: Path, cases: list, run) -> None:
    lines = [json.dumps(case | {"outcome": run(case)}) for case in cases]
    path.parent.mkdir(exist_ok=True)
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def main() -> None:
    rng = np.random.default_rng(SEED)
    _write(CORPUS_PATH, [draw_case(rng, i) for i in range(CASES)], run_case)
    rng = np.random.default_rng([SEED, 1])
    _write(UPSILON_CORPUS_PATH, [draw_upsilon_case(rng, i) for i in range(UPSILON_CASES)], run_upsilon_case)


if __name__ == "__main__":
    main()
