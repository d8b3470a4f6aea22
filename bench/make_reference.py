"""Regenerate bench/reference.json, the values the benchmark's correctness
gates compare against.  Run from the repository root:

    python3 bench/make_reference.py

For each preset it records the report.json scalars of a `lgholling preset`
run, trajectory checkpoints from an integration at h/4, and the interior
Υ-defect and DDE residual of the settled trajectory.  Rerun it only when a
change is meant to alter those results, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import lgholling  # noqa: E402
from lgholling.presets import PRESET_NAMES, preset_config  # noqa: E402

import workloads as wl  # noqa: E402
from provenance import git_head  # noqa: E402


def preset_reference(name: str, out_dir: Path) -> dict:
    code = lgholling.cli.main(["preset", name, "--out", str(out_dir)])
    if code != 0:
        raise SystemExit(f"preset {name} exited with {code}")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    config = preset_config(name)
    t_end = float(config["run"]["t_end"])
    spec = lgholling.ModelSpec.from_strings(config["model"])
    hist = lgholling.InitialHistory(config["history"]["phi1"], config["history"]["phi2"])
    fine = lgholling.integrate(spec, hist, float(config["run"]["t0"]), t_end, float(config["run"]["h"]) / 4.0)
    case = wl.UpsilonCase(name)
    image, residual = case.run()
    return {
        "t_end": t_end,
        "report": {".".join(path): wl.report_scalar(report, path) for path in wl.REPORT_SCALARS},
        "checkpoints": {"h": fine.h, "t": wl.checkpoint_times(t_end).tolist(),
                        "u": wl.at_checkpoints(fine.t, fine.u, t_end).tolist(),
                        "v": wl.at_checkpoints(fine.t, fine.v, t_end).tolist()},
        "upsilon_defect": wl.interior_defect(case.pair, image),
        "dde_residual": residual,
    }


def main() -> None:
    root = Path.cwd()
    out = root / ".bench_out" / "reference"
    reference = {"commit": git_head(root)}
    for name in PRESET_NAMES:
        reference[name] = preset_reference(name, out / name)
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
