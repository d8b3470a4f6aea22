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
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, ValidationError
from .expr import parse_expression
from .fixedpoint import GridFunctionPair, iterate_fixed_point
from .integrator import integrate_batch
from .model import InitialHistory, ModelSpec, SYMBOLS, validate_model
from .pap import solution_window_report
from .permanence import CoefficientBounds, compute_permanence_bounds_from_values, verify_permanence
from .presets import PRESET_NAMES, preset_config
from .stability import estimate_liminf, run_attractivity, small_denominator

__all__ = ["RunConfig", "load_config", "run_preset", "run_config", "run_pipeline", "main"]

# most grid intervals a run may ask for: (t_end - t0) / h and fp_t_hi / fp_step; also caps sample counts
_MAX_STEPS = 10**7
# rows formatted per write by _write_csv: bounds the text and values held at once
_CSV_BLOCK_ROWS = 1 << 16


class _Field(NamedTuple):
    """One config key.  kind is "number", "int", "bool", "expr", "history"
    (a number or an expression), "pair" (a list of two numbers) or a tuple
    of the allowed strings.  default is ... for a required key, and None
    leaves an absent key absent.  A number must satisfy floor < x <= cap."""
    kind: str | tuple
    default: object = ...
    floor: float | None = None
    cap: float | None = None


_NUMBER = _Field("number")

# the one place the config rules live: section -> key -> field.  Rules that
# join two fields are in load_config.
_SCHEMA = {
    "model": dict.fromkeys(SYMBOLS, _Field("expr")),
    "history": dict.fromkeys(("phi1", "phi2"), _Field("history")),
    "run": {"t0": _NUMBER, "t_end": _NUMBER, "h": _Field("number", floor=0.0),
            "t_settle": _Field("number", None)},  # defaults to the run's midpoint
    "analyses": dict.fromkeys(("bounds", "stability", "attractivity", "fixed_point", "pap"), _Field("bool", True)),
    "options": {
        "beta_denominator": _Field(("M1", "M2"), "M2"),
        "slack": _Field("number", 0.05),
        "bounds_horizon": _Field("number", 1000.0, 0.0),
        "bounds_samples": _Field("int", 100_000, 1, _MAX_STEPS),
        "liminf_t_max": _Field("number", 500.0, 0.0),
        "liminf_points": _Field("int", 251, 0, _MAX_STEPS),
        "attractivity_threshold": _Field("number", 1e-3),
        "attractivity_history": _Field("pair", [0.75, 0.75], 0.0),
        "fp_t_hi": _Field("number", 30.0, 0.0),
        "fp_step": _Field("number", 0.1, 0.0),
        "fp_quad_step": _Field("number", 0.05, 0.0),
        "fp_tail_tol": _Field("number", 1e-6, 0.0),
        "fp_tol": _Field("number", 1e-6),
        "fp_max_iter": _Field("int", 60, 0),
        "csv_stride": _Field("int", 10, 0),
    },
    # these two may be absent or null; a table_bounds section gives every bound
    "table_bounds": dict.fromkeys(CoefficientBounds.__dataclass_fields__, _Field("number", floor=0.0)),
    "paper_values": dict.fromkeys([*CoefficientBounds.__dataclass_fields__, "M1", "M2", "m1", "m2",
                                   "alpha_inf", "beta_inf"], _Field("number", None)),
}
_NULLABLE = ("table_bounds", "paper_values")


@dataclass
class RunConfig:
    model: dict[str, str]
    history: dict
    run: dict
    analyses: dict = field(default_factory=lambda: _check_section({}, "/analyses", _SCHEMA["analyses"]))
    options: dict = field(default_factory=lambda: _check_section({}, "/options", _SCHEMA["options"]))
    table_bounds: dict | None = None
    paper_values: dict | None = None
    output_dir: str | None = None
    raw: dict = field(default_factory=dict)


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    number = float(value) if abs(value) <= sys.float_info.max else math.inf  # no OverflowError on huge ints
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _check_value(value, path: str, spec: _Field) -> None:
    kind = spec.kind
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(path, "must be " + " or ".join(map(repr, kind)))
    elif kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(path, "expected a boolean")
    elif kind == "pair":
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(path, "expected a list of 2 numbers")
        for i, item in enumerate(value):
            _check_value(item, f"{path}/{i}", spec._replace(kind="number"))
    elif kind == "expr" or (kind == "history" and isinstance(value, str)):
        if not isinstance(value, str):
            raise ConfigError(path, "expected an expression string")
        try:
            parse_expression(value)
        except ValidationError as exc:
            raise ConfigError(path, str(exc)) from exc
    else:  # "number", "int", or a constant history
        if kind == "int" and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(path, "expected an integer")
        number = _number(value, path)
        if spec.floor is not None and not number > spec.floor:
            raise ConfigError(path, f"must be > {spec.floor}")
        if spec.cap is not None and number > spec.cap:
            raise ConfigError(path, f"must be <= {spec.cap}")


def _check_section(section, path: str, fields: dict) -> dict:
    """The section checked key by key against its fields, with the defaults
    of absent keys appended; given values keep their order and type."""
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    for key, value in section.items():
        if key not in fields:
            raise ConfigError(f"{path}/{key}", "unknown key")
        _check_value(value, f"{path}/{key}", fields[key])
    checked = dict(section)
    for key, spec in fields.items():
        if key not in section and spec.default is ...:
            raise ConfigError(f"{path}/{key}", "missing required key")
        if key not in section and spec.default is not None:
            checked[key] = spec.default
    return checked


def load_config(data: dict) -> RunConfig:
    """Check a raw config dict against _SCHEMA and the rules that join its
    fields; a bad field raises ConfigError naming its JSON path."""
    if not isinstance(data, dict):
        raise ConfigError("", "config must be a JSON object")
    for key in data:
        if key not in _SCHEMA and key != "output_dir":
            raise ConfigError(f"/{key}", "unknown key")
    sections = {name: None if name in _NULLABLE and data.get(name) is None
                else _check_section(data.get(name, {}), f"/{name}", fields)
                for name, fields in _SCHEMA.items()}

    run = sections["run"] = {key: float(value) for key, value in sections["run"].items()}
    t0, t_end, h = run["t0"], run["t_end"], run["h"]
    if t_end <= t0:
        raise ConfigError("/run/t_end", "t_end must be > t0")
    if (t_end - t0) / h > _MAX_STEPS:
        raise ConfigError("/run/h", f"(t_end - t0) / h is {(t_end - t0) / h:.6g} steps; at most {_MAX_STEPS} allowed")
    run.setdefault("t_settle", 0.5 * (t0 + t_end))
    if not (t0 <= run["t_settle"] < t_end):
        raise ConfigError("/run/t_settle", "t_settle must lie in [t0, t_end)")
    options = sections["options"]
    for outer, inner in (("fp_t_hi", "fp_step"), ("fp_step", "fp_quad_step")):
        span, step = options[outer], options[inner]
        count = span / step  # whole to 1e-9 relative, as apply_upsilon tests the quadrature step
        if not (0.5 < count <= _MAX_STEPS and abs(round(count) * step - span) <= 1e-9 * span):
            raise ConfigError(f"/options/{inner}", f"{inner} must divide {outer} into 1 .. {_MAX_STEPS} whole steps")
    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("/output_dir", "expected a string path")
    return RunConfig(**sections, output_dir=output_dir, raw=data)


def _make_history(config: RunConfig) -> InitialHistory:
    def conv(v):
        return parse_expression(v) if isinstance(v, str) else float(v)

    return InitialHistory(conv(config.history["phi1"]), conv(config.history["phi2"]))


def _write_csv(path: Path, header: str, columns) -> None:
    """One row per index of the equal-length columns, each value as %.17g
    (the same text as format(v, ".17g")), formatted in blocks of rows by
    one % operation over a repeated line template."""
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[lo:lo + _CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def run_pipeline(config: RunConfig, out_dir: Path, require_analysis: bool = True,
                 random_histories: int = 0, seed: int = 0) -> dict:
    """Run the configured analyses, then write report.json, CSV series, and a
    gnuplot script into out_dir; returns the report dict.  A run that fails
    writes nothing."""
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

    pb_est = compute_permanence_bounds_from_values(CoefficientBounds.from_validation(vrep.bounds))
    try:
        pb_table = (compute_permanence_bounds_from_values(CoefficientBounds.from_table(config.table_bounds))
                    if config.table_bounds else None)
    except ValidationError as exc:
        raise ConfigError("/table_bounds", str(exc)) from exc
    pb_active = pb_table if pb_table is not None else pb_est

    # the main history, the attractivity partner and the random histories
    # are columns of one kernel call
    histories = [history]
    if analyses["stability"] and analyses["attractivity"]:
        alt = opt["attractivity_history"]
        histories.append(InitialHistory(float(alt[0]), float(alt[1])))
    if random_histories > 0:
        # the random set's row 0 is the constant (phi1(0), phi2(0)): column 0
        # itself when the main history is that constant
        row0 = InitialHistory(float(history.value1(0.0)), float(history.value2(0.0)))
        first = 0 if row0 == history else len(histories)
        if first:
            histories.append(row0)
        random_cols = [first, *range(len(histories), len(histories) + random_histories)]
        rng = np.random.default_rng(seed)
        histories += [InitialHistory(u0, v0) for u0, v0 in rng.uniform(0.05, 2.0, size=(random_histories, 2)).tolist()]
    try:
        runs = integrate_batch(spec, histories, t0, t_end, h)
    except ValidationError as exc:
        raise ConfigError("/run/h", str(exc)) from exc
    traj = runs.column(0)
    stride = opt["csv_stride"]
    # name -> (header, columns): each becomes <name>.csv once every stage has run
    series = {"trajectories": ("t,u,v", (traj.t[::stride], traj.u[::stride], traj.v[::stride]))}

    if random_histories > 0:
        min_uv = runs.min_uv()[random_cols]
        report["random_histories"] = {
            "count": int(random_histories),
            "seed": int(seed),
            "min_uv": float(min_uv.min()),
            "all_positive": bool((min_uv > 0.0).all()),
        }

    if analyses["bounds"]:
        verification = verify_permanence(traj, pb_active, t_settle, t_end, slack=float(opt["slack"]))
        report["permanence"] = {
            "active_source": "table" if pb_table is not None else "estimates",
            "from_estimates": asdict(pb_est),
            "from_table": asdict(pb_table) if pb_table is not None else None,
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
            att = run_attractivity(traj, runs.column(1), threshold=float(opt["attractivity_threshold"]))
            series["attractivity"] = ("t,distance", (att.times[::stride], att.distances[::stride]))
        t_grid = np.linspace(0.0, float(opt["liminf_t_max"]), opt["liminf_points"])
        try:
            est = estimate_liminf(spec, pb_active, t_grid, opt["beta_denominator"])
        except ValidationError as exc:  # the active box's m1 + k^i is too small
            sym = small_denominator(pb_active.inputs_used, pb_active)
            raise ConfigError(f"/table_bounds/{sym}_inf" if pb_table is not None else f"/model/{sym}", str(exc)) from exc
        sample_stride = max(1, len(est.alpha_samples) // 25)
        stability_section = {
            "beta_denominator": opt["beta_denominator"],
            "alpha_liminf": est.alpha_liminf,
            "beta_liminf": est.beta_liminf,
            "beta_liminf_alt": est.beta_liminf_alt,
            "hypothesis_holds": est.alpha_liminf > 0.0 and est.beta_liminf > 0.0,
            "alpha_samples": [[t, a] for t, a in est.alpha_samples[::sample_stride]],
            "beta_samples": [[t, b] for t, b in est.beta_samples[::sample_stride]],
        }
        if att is not None:
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
            coeff_bounds=pb_active.inputs_used,
        )
        series["fixedpoint"] = ("t,u_star,v_star", (result.pair.grid(), result.pair.phi, result.pair.psi))
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
        try:
            pr = solution_window_report(traj, t_settle, t_end)
        except ValidationError as exc:
            raise ConfigError("/run/t_settle", str(exc)) from exc
        report["pap"] = {
            "window": list(pr.window),
            "trend_verdict": pr.trend_verdict,
            "ergodic_means": [[T, m] for T, m in pr.ergodic_means],
            "shift_defects": [[s, d] for s, d in pr.shift_defects],
        }

    if config.paper_values:
        report["discrepancies"] = _build_discrepancies(config.paper_values, pb_table, pb_est, stability_section)

    _write_outputs(out_dir, report, series)
    return report


def _build_discrepancies(paper_values: dict, pb_table, pb_est, stability_section) -> list[dict]:
    """Each published value beside its recomputed one.  computed_alt holds
    the estimates' box when the table's is active, and beta's other
    denominator."""
    pb_main, pb_alt = (pb_est, None) if pb_table is None else (pb_table, pb_est)
    entries = []
    for quantity, published in paper_values.items():
        published, alt = float(published), None
        if quantity in _SCHEMA["table_bounds"]:
            computed = getattr(pb_est.inputs_used, quantity)
        elif quantity in ("M1", "M2", "m1", "m2"):
            computed = getattr(pb_main, quantity)
            alt = getattr(pb_alt, quantity, None)
        elif stability_section is None:
            continue
        elif quantity == "alpha_inf":
            computed = stability_section["alpha_liminf"]
        else:  # beta_inf
            computed, alt = stability_section["beta_liminf"], stability_section["beta_liminf_alt"]
        rel = abs(published - computed) / max(abs(published), 1e-12)
        entries.append({"quantity": quantity, "paper_value": published, "computed_value": computed,
                        "relative_gap": rel, "flag": "major" if rel > 0.05 else "minor" if rel > 0.005 else "ok"})
        if alt is not None:
            entries[-1]["computed_alt"] = alt
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


def _write_outputs(out_dir: Path, report: dict, series: dict) -> None:
    """Every file of a run: <name>.csv for each series, plots.gp, then
    report.json.  An unwritable out_dir raises ConfigError naming it."""
    script = _PLOT_SCRIPT.format(
        attractivity=_PLOT_ATTRACTIVITY if "attractivity" in series else "",
        fixedpoint=_PLOT_FIXEDPOINT if "fixedpoint" in series else "",
    )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (header, columns) in series.items():
            _write_csv(out_dir / f"{name}.csv", header, columns)
        (out_dir / "plots.gp").write_text(script, encoding="utf-8")
        with open(out_dir / "report.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError("", f"cannot write output directory {str(out_dir)!r}: {exc}") from exc


_ANALYSIS_SUBCOMMANDS = {
    "bounds": ("bounds",),
    "stability": ("stability", "attractivity"),
    "fixed-point": ("fixed_point",),
    "pap-check": ("pap",),
}


def _apply_overrides(data: dict, args) -> dict:
    """The config with the subcommand's analyses mask and the command-line
    overrides applied.  Malformed input is passed on as it is, for
    load_config to name the bad field."""
    if not isinstance(data, dict):
        return data
    flags = {"simulate": (), **_ANALYSIS_SUBCOMMANDS}.get(getattr(args, "command", None))
    if flags is not None:
        data = dict(data, analyses={key: key in flags for key in _SCHEMA["analyses"]})
    if not (isinstance(data.get("run"), dict) and isinstance(data.get("options", {}), dict)):
        return data
    run = dict(data["run"])
    if getattr(args, "h", None) is not None:
        run["h"] = args.h
    if getattr(args, "t_end", None) is not None:
        run["t_end"] = args.t_end
        t0, t_settle = run.get("t0", 0.0), run.get("t_settle", 0.0)
        if isinstance(t0, (int, float)) and isinstance(t_settle, (int, float)) and t_settle >= args.t_end:
            run["t_settle"] = 0.5 * (t0 + args.t_end)  # the midpoint, load_config's default
    data = dict(data, run=run)
    if getattr(args, "beta_denominator", None) is not None:
        data["options"] = dict(data.get("options", {}), beta_denominator=args.beta_denominator)
    return data


def _run(data, args, out_dir: Path | None, **pipeline_kwargs) -> dict:
    """The one entry path: overrides, then load_config, then run_pipeline."""
    config = load_config(_apply_overrides(data, args))
    if out_dir is None:
        out_dir = Path(config.output_dir or "lgholling-out")
    return run_pipeline(config, out_dir, **pipeline_kwargs)


def run_preset(name: str, out_dir: Path | None, args=None, **pipeline_kwargs) -> dict:
    """Run one of the built-in configurations end to end; out_dir defaults
    to ./lgholling-out."""
    if name not in PRESET_NAMES:
        raise ConfigError("/preset", f"unknown preset {name!r}")
    return _run(preset_config(name), args, out_dir, **pipeline_kwargs)


def _load_config_file(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config: {exc}") from exc
    except ValueError as exc:  # bad syntax, bad UTF-8, or an integer past Python's digit limit
        raise ConfigError("", f"malformed JSON: {exc}") from exc


def run_config(path: str | Path, out_dir: Path | None = None, args=None, **pipeline_kwargs) -> dict:
    """Run a user configuration file end to end; out_dir defaults to the
    config's output_dir."""
    return _run(_load_config_file(path), args, out_dir, **pipeline_kwargs)


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


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

    p = sub.add_parser("preset", help="run a built-in configuration")
    p.add_argument("name", choices=PRESET_NAMES)
    common(p, with_config=False)

    p = sub.add_parser("run", help="run a configuration file (all enabled analyses)")
    common(p)

    p = sub.add_parser("simulate", help="integrate the model and export the trajectory")
    common(p)
    p.add_argument("--random-histories", type=_count, default=0,
                   help="additionally integrate N random positive constant histories")
    p.add_argument("--seed", type=_count, default=0, help="seed for the random histories")

    for name in _ANALYSIS_SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run only the {name.replace('-', ' ')} analysis")
        common(p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            run_preset(args.name, args.out, args=args)
        elif args.command == "simulate":
            run_config(args.config, args.out, args=args, require_analysis=False,
                       random_histories=args.random_histories, seed=args.seed)
        else:
            run_config(args.config, args.out, args=args)
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
