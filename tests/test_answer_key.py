import json
import math

import pytest

from make_answer_key import KEY_PATH, answer_key_entry

# Strings, bools and ints match exactly.  Floats may drift by rounding only:
# libm's exp/sin/cos and numpy's reductions can differ in the last bits
# across Python and numpy versions, and 1e-12 relative is about 4,500 ulp,
# far below any tolerance the analyses themselves use.
REL_TOL, ABS_TOL = 1e-12, 1e-15


def mismatches(want, got, pointer=""):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return [f"{pointer}: keys {sorted(set(want) ^ set(got or {}))}"]
        return [m for key in want for m in mismatches(want[key], got[key], f"{pointer}/{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{pointer}: {got!r} != {want!r}"]
        return [m for i, (w, g) in enumerate(zip(want, got)) for m in mismatches(w, g, f"{pointer}/{i}")]
    if isinstance(want, float) and type(got) in (int, float):
        ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{pointer}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_preset_run_matches_the_answer_key(request, name):
    _, out = request.getfixturevalue(f"{name}_run")
    want = json.loads(KEY_PATH.read_text(encoding="utf-8"))[name]
    assert mismatches(want, answer_key_entry(out)) == []


def test_answer_key_comparison_catches_a_moved_leaf():
    want = {"a": [1.0, "x", True, 3]}
    assert mismatches(want, {"a": [1.0 + 1e-13, "x", True, 3]}) == []
    assert mismatches(want, {"a": [1.0 + 1e-9, "x", True, 3]}) == ["/a/0: 1.000000001 != 1.0"]
    assert mismatches(want, {"a": [1.0, "y", 1, 3.0]}) == ["/a/1: 'y' != 'x'", "/a/2: 1 != True", "/a/3: 3.0 != 3"]
