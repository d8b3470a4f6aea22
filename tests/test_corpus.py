import json
import re

from lgholling import integrator
from make_corpus import CORPUS_PATH, UPSILON_CORPUS_PATH, run_case, run_upsilon_case
from test_answer_key import mismatches

CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
UPSILON_CORPUS = json.loads(UPSILON_CORPUS_PATH.read_text(encoding="utf-8"))


def test_corpus_cases_keep_their_outcomes():
    """Every case ends as recorded: the same exception class and message,
    or knot summaries within the answer key's rounding tolerance."""
    moved = [f"case {case['id']} ({case['kind']}){m}"
             for case in CORPUS for m in mismatches(case["outcome"], run_case(case))]
    assert moved == []


def test_corpus_outcomes_do_not_depend_on_the_block_size(monkeypatch):
    for steps in (7, 64):
        monkeypatch.setattr(integrator, "_PLAN_STEPS", steps)
        moved = [f"case {case['id']} at {steps}-step blocks{m}"
                 for case in CORPUS[::10] for m in mismatches(case["outcome"], run_case(case))]
        assert moved == []


def test_corpus_reaches_every_error_kind():
    outcomes = {case["kind"]: set() for case in CORPUS}
    for case in CORPUS:
        outcome = case["outcome"]
        outcomes[case["kind"]].add(outcome.get("error", "ok"))
    assert {"ExprDomainError"} <= outcomes["division"] & outcomes["sqrt"] & outcomes["exp"] & outcomes["history"]
    assert "NumericalError" in outcomes["holling"]
    assert "IntegrationError" in outcomes["prey-down"] & outcomes["predator-up"] & outcomes["stiff"] & outcomes["step"]
    assert outcomes["divide"] == {"ValidationError"}
    assert outcomes["ok"] == {"ok"}


def test_upsilon_corpus_cases_keep_their_outcomes():
    """Every apply_upsilon case ends as recorded: the same exception class
    and message, or image summaries within the answer key's tolerance."""
    moved = [f"upsilon case {case['id']} ({case['kind']}){m}"
             for case in UPSILON_CORPUS for m in mismatches(case["outcome"], run_upsilon_case(case))]
    assert moved == []


def test_upsilon_corpus_reaches_both_node_parities_and_every_refusal():
    ok = [case for case in UPSILON_CORPUS if case["kind"] == "ok"]
    assert all("error" not in case["outcome"] for case in ok)
    assert {case["quad_step"] for case in ok} == {0.1, 0.05}  # a grid step of 1 and of 2 quad steps
    refusals = {"falls": r"f_(1: a1|2: a2) falls so far", "decay": "kernel decay rates", "tail": r"tail needs \d+ nodes"}
    for case in UPSILON_CORPUS:
        if case["kind"] != "ok":
            outcome = case["outcome"]
            assert outcome["error"] == "QuadratureError" and re.match(refusals[case["kind"]], outcome["message"])
    assert {case["kind"] for case in UPSILON_CORPUS} == {"ok", *refusals}
