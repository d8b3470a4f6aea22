"""Config ingestion, analysis orchestration, and report/plot-data emission.

Reports are deterministic for a fixed configuration: rerunning a preset
produces an identical report.json apart from the generated_at timestamp and
byte-identical CSV files.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError, ValidationError
from .expr import parse_expression
from .fixedpoint import GridFunctionPair, iterate_fixed_point
from .integrator import integrate, integrate_batch
from .model import InitialHistory, ModelSpec, SYMBOLS, validate_model
from .pap import solution_window_report
from .permanence import (
    CoefficientBounds,
    PermanenceBounds,
    compute_permanence_bounds_from_values,
    verify_permanence,
)
from .presets import PRESET_NAMES, preset_config
from .stability import build_stability_report, run_attractivity

__all__ = ["RunConfig", "load_config", "run_preset", "run_config", "run_pipeline", "emit_report", "main"]

_DEFAULT_ANALYSES = {"bounds": True, "stability": True, "attractivity": True, "fixed_point": True, "pap": True}

_DEFAULT_OPTIONS = {
    "beta_denominator": "M2",
    "slack": 0.05,
    "bounds_horizon": 1000.0,
    "bounds_samples": 100_000,
    "liminf_t_max": 500.0,
    "liminf_points": 251,
    "attractivity_threshold": 1e-3,
    "attractivity_history": [0.75, 0.75],
    "fp_t_hi": 30.0,
    "fp_step": 0.1,
    "fp_quad_step": 0.05,
    "fp_tail_tol": 1e-6,
    "fp_tol": 1e-6,
    "fp_max_iter": 60,
    "csv_stride": 10,
}

# options that must lie above a floor: counts, steps and lengths
_OPTION_FLOOR = {
    "bounds_samples": 1, "liminf_points": 0, "fp_max_iter": 0, "csv_stride": 0,
    "bounds_horizon": 0.0, "fp_t_hi": 0.0, "fp_step": 0.0, "fp_quad_step": 0.0, "fp_tail_tol": 0.0,
}

# most grid intervals a run may ask for: (t_end - t0) / h and fp_t_hi / fp_step
_MAX_STEPS = 10**7

_PAPER_VALUE_KEYS = set(CoefficientBounds.__dataclass_fields__) | {
    "M1", "M2", "m1", "m2", "alpha_inf", "beta_inf",
}


@dataclass
class RunConfig:
    model: dict[str, str]
    history: dict
    run: dict
    analyses: dict = field(default_factory=lambda: dict(_DEFAULT_ANALYSES))
    options: dict = field(default_factory=lambda: dict(_DEFAULT_OPTIONS))
    table_bounds: dict | None = None
    paper_values: dict | None = None
    output_dir: str | None = None
    raw: dict = field(default_factory=dict)


def _require_keys(section: dict, path: str, required, allowed):
    if not isinstance(section, dict):
        raise ConfigError(path or "/", "expected an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}/{key}", "unknown key")
    for key in required:
        if key not in section:
            raise ConfigError(f"{path}/{key}", "missing required key")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    number = float(value) if abs(value) <= sys.float_info.max else math.inf  # no OverflowError on huge ints
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _check_option(key: str, value) -> None:
    """An option value must have the type of its default and clear its floor."""
    path = f"/options/{key}"
    default = _DEFAULT_OPTIONS[key]
    if isinstance(default, str):
        if value not in ("M1", "M2"):
            raise ConfigError(path, "must be 'M1' or 'M2'")
        return
    if isinstance(default, list):
        if not isinstance(value, list) or len(value) != len(default):
            raise ConfigError(path, f"expected a list of {len(default)} numbers")
        for i, item in enumerate(value):
            _number(item, f"{path}/{i}")
        return
    if isinstance(default, int) and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(path, "expected an integer")
    if not _number(value, path) > _OPTION_FLOOR.get(key, -math.inf):
        raise ConfigError(path, f"must be > {_OPTION_FLOOR[key]}")


def load_config(data: dict) -> RunConfig:
    """Validate a raw config dict (unknown keys rejected with pointer paths)."""
    if not isinstance(data, dict):
        raise ConfigError("", "config must be a JSON object")
    _require_keys(data, "", ("model", "history", "run"),
                  ("model", "history", "run", "analyses", "options", "table_bounds", "paper_values", "output_dir"))

    model = data["model"]
    if not isinstance(model, dict):
        raise ConfigError("/model", "expected an object")
    _require_keys(model, "/model", SYMBOLS, SYMBOLS)
    for sym in SYMBOLS:
        if not isinstance(model[sym], str):
            raise ConfigError(f"/model/{sym}", "expected an expression string")
        try:
            parse_expression(model[sym])
        except ValidationError as exc:
            raise ConfigError(f"/model/{sym}", str(exc)) from exc

    history = data["history"]
    _require_keys(history, "/history", ("phi1", "phi2"), ("phi1", "phi2"))
    for key in ("phi1", "phi2"):
        v = history[key]
        if isinstance(v, str):
            try:
                parse_expression(v)
            except ValidationError as exc:
                raise ConfigError(f"/history/{key}", str(exc)) from exc
        else:
            _number(v, f"/history/{key}")

    run = data["run"]
    _require_keys(run, "/run", ("t0", "t_end", "h"), ("t0", "t_end", "h", "t_settle"))
    t0 = _number(run["t0"], "/run/t0")
    t_end = _number(run["t_end"], "/run/t_end")
    h = _number(run["h"], "/run/h")
    if h <= 0.0:
        raise ConfigError("/run/h", "step must be > 0")
    if t_end <= t0:
        raise ConfigError("/run/t_end", "t_end must be > t0")
    if (t_end - t0) / h > _MAX_STEPS:
        raise ConfigError("/run/h", f"(t_end - t0) / h is {(t_end - t0) / h:.6g} steps; at most {_MAX_STEPS} allowed")
    t_settle = _number(run.get("t_settle", 0.5 * (t0 + t_end)), "/run/t_settle")
    if not (t0 <= t_settle < t_end):
        raise ConfigError("/run/t_settle", "t_settle must lie in [t0, t_end)")

    analyses = dict(_DEFAULT_ANALYSES)
    if "analyses" in data:
        _require_keys(data["analyses"], "/analyses", (), tuple(_DEFAULT_ANALYSES))
        for key, value in data["analyses"].items():
            if not isinstance(value, bool):
                raise ConfigError(f"/analyses/{key}", "expected a boolean")
            analyses[key] = value

    options = dict(_DEFAULT_OPTIONS)
    if "options" in data:
        _require_keys(data["options"], "/options", (), tuple(_DEFAULT_OPTIONS))
        options.update(data["options"])
    for key, value in options.items():
        _check_option(key, value)
    if not 0.5 < options["fp_t_hi"] / options["fp_step"] <= _MAX_STEPS:
        raise ConfigError("/options/fp_step", f"fp_t_hi / fp_step must round to 1 .. {_MAX_STEPS} intervals")

    table_bounds = data.get("table_bounds")
    if table_bounds is not None:
        _require_keys(table_bounds, "/table_bounds", (), tuple(CoefficientBounds.__dataclass_fields__))
        for key, value in table_bounds.items():
            _number(value, f"/table_bounds/{key}")

    paper_values = data.get("paper_values")
    if paper_values is not None:
        if not isinstance(paper_values, dict):
            raise ConfigError("/paper_values", "expected an object")
        for key, value in paper_values.items():
            if key not in _PAPER_VALUE_KEYS:
                raise ConfigError(f"/paper_values/{key}", "unknown quantity")
            _number(value, f"/paper_values/{key}")

    out_value = data.get("output_dir")
    if out_value is not None and not isinstance(out_value, str):
        raise ConfigError("/output_dir", "expected a string path")

    return RunConfig(
        model=dict(model),
        history={"phi1": history["phi1"], "phi2": history["phi2"]},
        run={"t0": t0, "t_end": t_end, "h": h, "t_settle": t_settle},
        analyses=analyses,
        options=options,
        table_bounds=dict(table_bounds) if table_bounds else None,
        paper_values=dict(paper_values) if paper_values else None,
        output_dir=out_value,
        raw=data,
    )


def _make_history(config: RunConfig) -> InitialHistory:
    def conv(v):
        return parse_expression(v) if isinstance(v, str) else float(v)

    return InitialHistory(conv(config.history["phi1"]), conv(config.history["phi2"]))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _gap_flag(rel_gap: float) -> str:
    if rel_gap > 0.05:
        return "major"
    if rel_gap > 0.005:
        return "minor"
    return "ok"


def _discrepancy(quantity: str, published: float, computed: float, computed_alt=None) -> dict:
    rel = abs(published - computed) / max(abs(published), 1e-12)
    entry = {
        "quantity": quantity,
        "paper_value": published,
        "computed_value": computed,
        "relative_gap": rel,
        "flag": _gap_flag(rel),
    }
    if computed_alt is not None:
        entry["computed_alt"] = computed_alt
    return entry


def _bounds_dict(pb: PermanenceBounds) -> dict:
    return {"M1": pb.M1, "M2": pb.M2, "m1": pb.m1, "m2": pb.m2, "c0_holds": pb.c0_holds,
            "inputs_used": pb.inputs_used.to_dict()}


def run_pipeline(config: RunConfig, out_dir: Path, require_analysis: bool = True,
                 random_histories: int = 0, seed: int = 0) -> dict:
    """Run the configured analyses and write report.json, CSV series, and a
    gnuplot script into out_dir; returns the report dict."""
    analyses = config.analyses
    if require_analysis and not any(analyses.values()):
        raise ConfigError("/analyses", "nothing to report: every analysis is disabled")

    opt = config.options
    spec = ModelSpec.from_strings(config.model)
    vrep = validate_model(spec, horizon=float(opt["bounds_horizon"]), samples=opt["bounds_samples"])
    if not vrep.ok:
        sym, t_bad, value = vrep.failures[0]
        raise ConfigError(f"/model/{sym}", f"coefficient {sym} is {value:.6g} <= 0 at t={t_bad:.6g}")
    history = _make_history(config)
    try:
        history.validate(vrep.max_lag_r)
    except ValidationError as exc:
        raise ConfigError("/history", str(exc)) from exc

    t0, t_end, h, t_settle = (config.run[k] for k in ("t0", "t_end", "h", "t_settle"))
    report: dict = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": config.raw,
        "model": {
            "coefficients": {
                sym: {"source": config.model[sym],
                      "inf": vrep.bounds[sym].inf_value,
                      "sup": vrep.bounds[sym].sup_value}
                for sym in SYMBOLS
            },
            "bounds_horizon": opt["bounds_horizon"],
            "bounds_samples": opt["bounds_samples"],
            "positive": vrep.ok,
            "max_lag_r": vrep.max_lag_r,
        },
    }

    est_cb = CoefficientBounds.from_validation(vrep.bounds)
    pb_est = compute_permanence_bounds_from_values(est_cb)
    try:
        table_cb = CoefficientBounds.from_table(config.table_bounds) if config.table_bounds else None
        pb_table = compute_permanence_bounds_from_values(table_cb) if table_cb else None
    except ValidationError as exc:
        raise ConfigError("/table_bounds", str(exc)) from exc
    pb_active = pb_table if pb_table is not None else pb_est

    traj = integrate(spec, history, t0, t_end, h)
    stride = opt["csv_stride"]
    files: dict[str, Path] = {}
    out_dir.mkdir(parents=True, exist_ok=True)
    u, v = traj.u, traj.v
    _write_csv(out_dir / "trajectories.csv", "t,u,v",
               zip(traj.t[::stride], u[::stride], v[::stride]))
    files["trajectories"] = out_dir / "trajectories.csv"

    if random_histories > 0:
        rng = np.random.default_rng(seed)
        hists = np.vstack([[history.value1(0.0), history.value2(0.0)],
                           rng.uniform(0.05, 2.0, size=(random_histories, 2))])
        batch = integrate_batch(spec, hists, t0, t_end, h)
        min_uv = batch.min_uv()
        report["random_histories"] = {
            "count": int(random_histories),
            "seed": int(seed),
            "min_uv": float(min_uv.min()),
            "all_positive": bool((min_uv > 0.0).all()),
        }

    if analyses["bounds"]:
        verification = verify_permanence(spec, history, pb_active, t_settle, t_end,
                                         slack=float(opt["slack"]), h=h, traj=traj)
        report["permanence"] = {
            "active_source": "table" if pb_table is not None else "estimates",
            "from_estimates": _bounds_dict(pb_est),
            "from_table": _bounds_dict(pb_table) if pb_table is not None else None,
            "M1": pb_active.M1, "M2": pb_active.M2, "m1": pb_active.m1, "m2": pb_active.m2,
            "c0_holds": pb_active.c0_holds,
            "verification": {
                "window": [verification.t_settle, verification.t_end],
                "slack": verification.slack,
                "observed": {"u_min": verification.u_min, "u_max": verification.u_max,
                             "v_min": verification.v_min, "v_max": verification.v_max},
                "checks": verification.checks,
                "all_ok": verification.all_ok,
            },
        }

    stability_section = None
    if analyses["stability"]:
        att = None
        if analyses["attractivity"]:
            alt = opt["attractivity_history"]
            alt_history = InitialHistory(float(alt[0]), float(alt[1]))
            att = run_attractivity(spec, history, alt_history, t_end,
                                   threshold=float(opt["attractivity_threshold"]), h=h, t0=t0, traj_a=traj)
            _write_csv(out_dir / "attractivity.csv", "t,distance",
                       zip(att.times[::stride], att.distances[::stride]))
            files["attractivity"] = out_dir / "attractivity.csv"
        t_grid = np.linspace(0.0, float(opt["liminf_t_max"]), opt["liminf_points"])
        sr = build_stability_report(spec, pb_active, t_grid,
                                    beta_denominator=opt["beta_denominator"], attractivity=att)
        sample_stride = max(1, len(sr.alpha_samples) // 25)
        stability_section = {
            "beta_denominator": sr.beta_denominator,
            "alpha_liminf": sr.alpha_liminf,
            "beta_liminf": sr.beta_liminf,
            "beta_liminf_alt": sr.beta_liminf_alt,
            "hypothesis_holds": sr.hypothesis_holds,
            "alpha_samples": [[t, a] for t, a in sr.alpha_samples[::sample_stride]],
            "beta_samples": [[t, b] for t, b in sr.beta_samples[::sample_stride]],
        }
        if att is not None:
            alt = opt["attractivity_history"]
            stability_section["attractivity"] = {
                "histories": [[history.value1(0.0), history.value2(0.0)], [float(alt[0]), float(alt[1])]],
                "t_end": t_end,
                "threshold": att.threshold,
                "final_distance": att.final_distance,
                "tail_nonincreasing": att.tail_nonincreasing,
                "passed": att.passed,
            }
        report["stability"] = stability_section

    if analyses["fixed_point"]:
        seed_phi = 0.5 * (pb_active.m1 + pb_active.M1)
        seed_psi = 0.5 * (pb_active.m2 + pb_active.M2)
        seed_pair = GridFunctionPair.from_constants(t0, t0 + float(opt["fp_t_hi"]),
                                                    float(opt["fp_step"]), seed_phi, seed_psi)
        result = iterate_fixed_point(
            spec, seed_pair,
            tol=float(opt["fp_tol"]), max_iter=opt["fp_max_iter"],
            quad_step=float(opt["fp_quad_step"]), tail_tol=float(opt["fp_tail_tol"]),
            coeff_bounds=table_cb if table_cb is not None else est_cb,
        )
        _write_csv(out_dir / "fixedpoint.csv", "t,u_star,v_star",
                   zip(result.pair.grid(), result.pair.phi, result.pair.psi))
        files["fixedpoint"] = out_dir / "fixedpoint.csv"
        report["fixed_point"] = {
            "grid": {"t_lo": result.pair.t_lo, "t_hi": result.pair.t_hi, "step": result.pair.step},
            "seed": [seed_phi, seed_psi],
            "tol": opt["fp_tol"],
            "quad_step": opt["fp_quad_step"],
            "tail_tol": opt["fp_tail_tol"],
            "converged": result.converged,
            "status": result.status,
            "iterations": result.iterations,
            "final_delta": result.final_delta if math.isfinite(result.final_delta) else None,
            "residual": result.residual,
        }

    if analyses["pap"]:
        pr = solution_window_report(traj, t_settle, t_end)
        report["pap"] = {
            "window": list(pr.window),
            "trend_verdict": pr.trend_verdict,
            "ergodic_means": [[T, m] for T, m in pr.ergodic_means],
            "shift_defects": [[s, d] for s, d in pr.shift_defects],
        }

    if config.paper_values:
        report["discrepancies"] = _build_discrepancies(config.paper_values, vrep, pb_table, pb_est,
                                                       stability_section)

    emit_report(report, out_dir, files)
    return report


def _build_discrepancies(paper_values: dict, vrep, pb_table, pb_est, stability_section) -> list[dict]:
    entries = []
    pb_main = pb_table if pb_table is not None else pb_est
    pb_alt = pb_est if pb_table is not None else None
    derived = {"M1": "M1", "M2": "M2", "m1": "m1", "m2": "m2"}
    bound_keys = set(CoefficientBounds.__dataclass_fields__)
    for quantity, published in paper_values.items():
        if quantity in bound_keys:
            sym, side = quantity.rsplit("_", 1)
            est = vrep.bounds[sym]
            computed = est.inf_value if side == "inf" else est.sup_value
            entries.append(_discrepancy(quantity, float(published), computed))
        elif quantity in derived:
            computed = getattr(pb_main, derived[quantity])
            alt = getattr(pb_alt, derived[quantity]) if pb_alt is not None else None
            entries.append(_discrepancy(quantity, float(published), computed, computed_alt=alt))
        elif quantity == "alpha_inf" and stability_section is not None:
            entries.append(_discrepancy(quantity, float(published), stability_section["alpha_liminf"]))
        elif quantity == "beta_inf" and stability_section is not None:
            entries.append(_discrepancy(quantity, float(published), stability_section["beta_liminf"],
                                        computed_alt=stability_section["beta_liminf_alt"]))
    return entries


_PLOT_SCRIPT = """\
# gnuplot script for the emitted CSV series
set datafile separator ','
set key autotitle columnhead
set terminal pngcairo size 1200,500
set output 'trajectories.png'
plot 'trajectories.csv' using 1:2 with lines title 'u', \\
     'trajectories.csv' using 1:3 with lines title 'v'
{attractivity}{fixedpoint}"""

_PLOT_ATTRACTIVITY = """\
set output 'attractivity.png'
set logscale y
plot 'attractivity.csv' using 1:2 with lines title '|u_a-u_b|+|v_a-v_b|'
unset logscale y
"""

_PLOT_FIXEDPOINT = """\
set output 'fixedpoint.png'
plot 'fixedpoint.csv' using 1:2 with lines title 'u*', \\
     'fixedpoint.csv' using 1:3 with lines title 'v*'
"""


def emit_report(report: dict, out_dir: Path, files: dict[str, Path] | None = None) -> Path:
    """Write report.json and the plot script; CSVs are written by the
    pipeline as the series are produced."""
    files = files or {}
    if not files and all(key in ("generated_at", "config", "model") for key in report):
        raise ConfigError("/analyses", "nothing to report")
    out_dir.mkdir(parents=True, exist_ok=True)
    script = _PLOT_SCRIPT.format(
        attractivity=_PLOT_ATTRACTIVITY if "attractivity" in files else "",
        fixedpoint=_PLOT_FIXEDPOINT if "fixedpoint" in files else "",
    )
    (out_dir / "plots.gp").write_text(script, encoding="utf-8")
    path = out_dir / "report.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def _apply_overrides(data: dict, args) -> dict:
    """The config with the command-line overrides applied.  A malformed
    config passes through unchanged, for load_config to name the bad field."""
    if not (isinstance(data, dict) and isinstance(data.get("run"), dict)
            and isinstance(data.get("options", {}), dict)):
        return data
    run = dict(data["run"])
    if getattr(args, "h", None) is not None:
        run["h"] = args.h
    if getattr(args, "t_end", None) is not None:
        run["t_end"] = args.t_end
        t_settle = run.get("t_settle", 0.0)
        if isinstance(t_settle, (int, float)) and t_settle >= args.t_end:
            run["t_settle"] = 0.5 * args.t_end
    data = dict(data, run=run)
    if getattr(args, "beta_denominator", None) is not None:
        options = dict(data.get("options", {}))
        options["beta_denominator"] = args.beta_denominator
        data["options"] = options
    return data


def run_preset(name: str, out_dir: Path, args=None, **pipeline_kwargs) -> dict:
    """Run one of the built-in configurations end to end."""
    if name not in PRESET_NAMES:
        raise ConfigError("/preset", f"unknown preset {name!r}")
    data = preset_config(name)
    if args is not None:
        data = _apply_overrides(data, args)
    return run_pipeline(load_config(data), out_dir, **pipeline_kwargs)


def _load_config_file(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config: {exc}") from exc
    except ValueError as exc:  # bad syntax, bad UTF-8, or an integer past Python's digit limit
        raise ConfigError("", f"malformed JSON: {exc}") from exc


def run_config(path: str | Path, out_dir: Path | None = None, args=None, **pipeline_kwargs) -> dict:
    """Run a user configuration file end to end."""
    data = _load_config_file(path)
    if args is not None:
        data = _apply_overrides(data, args)
    config = load_config(data)
    if out_dir is None:
        out_dir = Path(config.output_dir) if config.output_dir else Path("lgholling-out")
    return run_pipeline(config, out_dir, **pipeline_kwargs)


_ANALYSIS_SUBCOMMANDS = {
    "bounds": ("bounds",),
    "stability": ("stability", "attractivity"),
    "fixed-point": ("fixed_point",),
    "pap-check": ("pap",),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lgholling",
                                     description="Delayed predator-prey simulation and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_config=True):
        if with_config:
            p.add_argument("config", help="path to a JSON run configuration")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--h", type=float, default=None, help="override integration step")
        p.add_argument("--t-end", dest="t_end", type=float, default=None, help="override end time")
        p.add_argument("--beta-denominator", choices=("M1", "M2"), default=None)
        p.add_argument("--seed", type=int, default=0, help="seed for random-history sweeps")

    p = sub.add_parser("preset", help="run a built-in configuration")
    p.add_argument("name", choices=PRESET_NAMES)
    common(p, with_config=False)

    p = sub.add_parser("run", help="run a configuration file (all enabled analyses)")
    common(p)

    p = sub.add_parser("simulate", help="integrate the model and export the trajectory")
    common(p)
    p.add_argument("--random-histories", type=int, default=0,
                   help="additionally integrate N random positive constant histories")

    for name in _ANALYSIS_SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run only the {name.replace('-', ' ')} analysis")
        common(p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out if args.out is not None else Path("lgholling-out")
    try:
        if args.command == "preset":
            run_preset(args.name, out_dir, args=args)
        elif args.command == "run":
            run_config(args.config, args.out, args=args)
        elif args.command == "simulate":
            data = _apply_overrides(_load_config_file(args.config), args)
            data["analyses"] = {key: False for key in _DEFAULT_ANALYSES}
            run_pipeline(load_config(data), out_dir, require_analysis=False,
                         random_histories=args.random_histories, seed=args.seed)
        else:
            flags = _ANALYSIS_SUBCOMMANDS[args.command]
            data = _apply_overrides(_load_config_file(args.config), args)
            data["analyses"] = {key: key in flags for key in _DEFAULT_ANALYSES}
            run_pipeline(load_config(data), out_dir)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if "exceeds the smallest delay" in str(exc):
            print("hint: lower run.h below the smallest delay value", file=sys.stderr)
        return 3
    except OverflowError as exc:  # float arithmetic on extreme inputs, e.g. table bounds near 1e300
        print(f"numerical failure: overflow: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
