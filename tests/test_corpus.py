import json

from lgholling import integrator
from make_corpus import CORPUS_PATH, run_case
from test_answer_key import mismatches

CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


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
