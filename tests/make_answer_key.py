"""Regenerate tests/data/answer_key.json, the preset results that
tests/test_answer_key.py compares a fresh run with.  Run from the
repository root:

    PYTHONPATH=src python tests/make_answer_key.py

For each preset it records every leaf of report.json apart from
``generated_at`` and the echoed ``config``, keyed by JSON pointer, and for
each CSV its header, its row count and each column's first, last, min, max
and sum.  Rerun it only when a change is meant to alter those results, and
list the leaves that moved in that change.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

from lgholling import run_preset
from lgholling.presets import PRESET_NAMES

KEY_PATH = Path(__file__).resolve().parent / "data" / "answer_key.json"
CSV_FILES = ("trajectories.csv", "attractivity.csv", "fixedpoint.csv")
_SKIPPED = ("generated_at", "config")


def _leaves(node, pointer: str = ""):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield pointer, node
        return
    for key, value in items:
        yield from _leaves(value, f"{pointer}/{key}")


def _csv_digest(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    columns = {}
    for j, name in enumerate(header):
        col = [float(row[j]) for row in rows]
        columns[name] = {"first": col[0], "last": col[-1], "min": min(col), "max": max(col), "sum": math.fsum(col)}
    return {"header": header, "rows": len(rows), "columns": columns}


def answer_key_entry(out_dir: Path) -> dict:
    """The key's entry for one run's output directory."""
    report = json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))
    return {
        "report": dict(_leaves({k: v for k, v in report.items() if k not in _SKIPPED})),
        "csv": {name: _csv_digest(Path(out_dir) / name) for name in CSV_FILES},
    }


def main() -> None:
    key = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESET_NAMES:
            out = Path(tmp) / name
            run_preset(name, out)
            key[name] = answer_key_entry(out)
    KEY_PATH.parent.mkdir(exist_ok=True)
    KEY_PATH.write_text(json.dumps(key, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {KEY_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
