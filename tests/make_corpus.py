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
the history reach r.  Rerun it only when a change is meant to alter
outcomes, and list the entries that moved in that change.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from lgholling import InitialHistory, ModelSpec, integrate_batch, parse_expression

CORPUS_PATH = Path(__file__).resolve().parent / "data" / "corpus.json"
SEED = 20261019
CASES = 300
KINDS = ("ok", "ok", "ok", "ok", "division", "sqrt", "exp", "holling", "prey-down", "predator-up", "stiff",
         "step", "divide", "history", "b-zero", "b-negative")


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


def draw_case(rng, index: int) -> dict:
    """One case of the grammar; the kind picks the fault injected, if any."""
    kind = KINDS[index % len(KINDS)]
    h = (0.01, 0.02, 0.025, 0.05)[rng.integers(4)]
    steps = int(rng.integers(40, 400))
    t0 = 0.0 if rng.random() < 0.7 else round(float(rng.uniform(-5.0, 20.0)), 2)
    model = {
        "a1": _varying(rng, 0.5, 3.0, 0.5), "b": _varying(rng, 0.5, 2.0, 0.4), "a2": _varying(rng, 0.2, 1.0, 0.3),
        "c1": _f(rng, 0.1, 1.0), "c2": _f(rng, 0.1, 1.0), "k1": _f(rng, 0.5, 2.0), "k2": _varying(rng, 0.5, 2.0, 0.4),
    }
    d_min = max(h, 0.1)
    delays = [_f(rng, d_min, 1.0) if rng.random() < 0.6
              else f"{_f(rng, d_min + 0.1, 1.0)} + 0.1*sin({_f(rng, 0.5, 3.0)}*t)" for _ in range(4)]
    if rng.random() < 0.4:  # shared delays, as in the presets
        delays = [delays[0], delays[0], delays[2], delays[2]]
    model |= dict(zip(("sigma1", "sigma2", "tau1", "tau2"), delays))
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
    hists = [InitialHistory(*(parse_expression(p) if isinstance(p, str) else p for p in pair))
             for pair in case["histories"]]
    try:
        traj = integrate_batch(ModelSpec.from_strings(case["model"]), hists, case["t0"], case["t_end"], case["h"])
    except Exception as exc:  # the class is recorded, whatever it is
        return {"error": type(exc).__name__, "message": str(exc)}
    columns = [{name: _summary(getattr(traj, name)[:, i]) for name in ("x", "y", "dx", "dy")}
               for i in range(len(hists))]
    return {"columns": columns, "r": traj.r}


def main() -> None:
    rng = np.random.default_rng(SEED)
    cases = [draw_case(rng, i) for i in range(CASES)]
    lines = [json.dumps(case | {"outcome": run_case(case)}) for case in cases]
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    CORPUS_PATH.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"wrote {CORPUS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
