"""Config ingestion, analysis orchestration, and report/plot-data emission.

Reports are deterministic for a fixed configuration: rerunning a preset, or
the checked config that report.json echoes with every default, produces an
identical report.json apart from the generated_at timestamp and
byte-identical CSV files.  The command line reaches the pipeline by one
path: main turns argv into a config dict, and run_pipeline checks and runs it.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
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

__all__ = ["load_config", "run_pipeline", "main"]

# most grid intervals a run may ask for: (t_end - t0) / h and the fp_t_hi ratios; also caps sample counts
_MAX_STEPS = 10**7
# rows formatted per write by _write_csv: bounds the text and values held at once
_CSV_BLOCK_ROWS = 1 << 16


class _Field(NamedTuple):
    """One config key.  kind is "number", "int", "bool", "expr" (expression
    text or a number), "pair" (a list of two numbers) or a tuple of the
    allowed strings.  default is ... for a required key, and None leaves an
    absent key absent.  A number must satisfy floor < x <= cap."""
    kind: str | tuple
    default: object = ...
    floor: float | None = None
    cap: float | None = None


_NUMBER = _Field("number")

# the one place the config rules live: section -> key -> field.  Rules that
# join two fields are in load_config.
_SCHEMA = {
    "model": dict.fromkeys(SYMBOLS, _Field("expr")),
    "history": dict.fromkeys(("phi1", "phi2"), _Field("expr")),
    "run": {"t0": _NUMBER, "t_end": _NUMBER, "h": _Field("number", floor=0.0),
            "t_settle": _Field("number", None)},  # defaults to the run's midpoint
    "analyses": dict.fromkeys(("bounds", "stability", "attractivity", "fixed_point", "pap"), _Field("bool", True)),
    "options": {
        "beta_denominator": _Field(("M1", "M2"), "M2"),
        "slack": _Field("number", 0.05),
        "bounds_horizon": _Field("number", 1000.0, 0.0),
        "liminf_t_max": _Field("number", 500.0, 0.0),
        "liminf_points": _Field("int", 251, 0, _MAX_STEPS),
        "attractivity_threshold": _Field("number", 1e-3),
        "attractivity_history": _Field("pair", [0.75, 0.75], 0.0),
        # the random set: this many constant histories, drawn uniformly from [0.05, 2]^2 with this seed
        "random_histories": _Field("int", 0, -1, _MAX_STEPS),
        "random_seed": _Field("int", 0, -1),
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
    elif kind == "expr" and isinstance(value, str):
        _stage(path, parse_expression, value)
    else:  # "number", "int", or an expression given as a number
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
            checked[key] = list(spec.default) if spec.kind == "pair" else spec.default  # _SCHEMA's list stays its own
    return checked


def load_config(data: dict) -> dict:
    """Check a raw config dict against _SCHEMA and the rules that join its
    fields; returns the checked sections keyed like _SCHEMA, plus
    output_dir.  A bad field raises ConfigError naming its JSON path."""
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
    histories, steps = options["random_histories"], (t_end - t0) / h
    if histories * steps > _MAX_STEPS:  # a column of knots each, held to one run's bound
        raise ConfigError("/options/random_histories",
                          f"{histories} histories of {steps:.6g} steps pass {_MAX_STEPS} knots")
    for outer, inner in (("fp_t_hi", "fp_step"), ("fp_step", "fp_quad_step")):
        span, step = options[outer], options[inner]
        count = span / step  # whole to 1e-9 relative, as apply_upsilon tests the quadrature step
        if not (0.5 < count <= _MAX_STEPS and abs(round(count) * step - span) <= 1e-9 * span):
            raise ConfigError(f"/options/{inner}", f"{inner} must divide {outer} into 1 .. {_MAX_STEPS} whole steps")
    if options["fp_t_hi"] / options["fp_quad_step"] > _MAX_STEPS:  # apply_upsilon holds f on every node
        raise ConfigError("/options/fp_quad_step", f"fp_t_hi / fp_quad_step must be at most {_MAX_STEPS} steps")
    # a step past 4 ulps of its times keeps the fixed-point grid t0 + k fp_step increasing after rounding
    spacing = 4.0 * math.ulp(max(abs(t0), abs(t0 + options["fp_t_hi"])))
    if sections["analyses"]["fixed_point"] and not options["fp_step"] > spacing:
        raise ConfigError("/options/fp_step", f"must exceed {spacing:.6g} for distinct grid times from t0 = {t0:.6g}")
    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("/output_dir", "expected a string path")
    return dict(sections, output_dir=output_dir)


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


def _stage(path: str, stage, *args):
    """Run stage(*args); a ValidationError it raises becomes a ConfigError
    naming the field at path."""
    try:
        return stage(*args)
    except ValidationError as exc:
        raise ConfigError(path, str(exc)) from exc


def run_pipeline(data: dict, out_dir: str | Path | None = None) -> dict:
    """Check the raw config dict data with load_config, run the configured
    analyses, then write report.json, CSV series, and a gnuplot script into
    out_dir (by default the config's output_dir, else ./lgholling-out);
    returns the report dict.  A run that fails writes nothing."""
    config = load_config(data)
    out_dir = Path((config["output_dir"] or "lgholling-out") if out_dir is None else out_dir)
    analyses, opt = config["analyses"], config["options"]
    t0, t_end, h, t_settle = (config["run"][k] for k in ("t0", "t_end", "h", "t_settle"))

    spec = ModelSpec.from_strings(config["model"])
    vrep = validate_model(spec, horizon=float(opt["bounds_horizon"]))
    if vrep.failures:
        sym, t_inf, value = vrep.failures[0]
        raise ConfigError(f"/model/{sym}", f"coefficient {sym} is not shown > 0: it is {value:.6g} at t={t_inf:.6g}, "
                                           f"and its inf is bounded below by {vrep.bounds[sym].inf_lower:.6g}")
    history = InitialHistory(config["history"]["phi1"], config["history"]["phi2"])
    _stage("/history", history.validate, vrep.max_lag_r)

    report: dict = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "model": {
            "coefficients": {
                sym: {"inf": est.inf_value, "sup": est.sup_value,
                      "inf_lower": est.inf_lower,  # > 0, as the coefficient passed
                      "sup_upper": est.sup_upper if math.isfinite(est.sup_upper) else None}
                for sym, est in vrep.bounds.items()
            },
        },
    }

    pb_est = _stage("/model", compute_permanence_bounds_from_values, CoefficientBounds.from_validation(vrep.bounds))
    # the box the analyses run on: the paper's table when the config gives one
    box = (_stage("/table_bounds", compute_permanence_bounds_from_values,
                  CoefficientBounds.from_table(config["table_bounds"])) if config["table_bounds"] else pb_est)

    # the main history, the attractivity partner and the random set, whose row 0
    # is the constant (phi1(0), phi2(0)): one kernel column per distinct history
    histories, random_set = [history], []
    if analyses["stability"] and analyses["attractivity"]:
        histories.append(InitialHistory(*opt["attractivity_history"]))
    if opt["random_histories"]:
        rows = np.random.default_rng(opt["random_seed"]).uniform(0.05, 2.0, size=(opt["random_histories"], 2)).tolist()
        random_set = [InitialHistory(history.phi1(0.0), history.phi2(0.0)), *(InitialHistory(*row) for row in rows)]
    column = {hist: i for i, hist in enumerate(dict.fromkeys(histories + random_set))}
    runs = _stage("/run/h", integrate_batch, spec, list(column), t0, t_end, h)
    traj = runs.column(0)
    stride = opt["csv_stride"]
    # name -> (header, columns, plot titles, log y): each becomes <name>.csv and its plot once every stage has run
    series = {"trajectories": ("t,u,v", (traj.t[::stride], traj.u[::stride], traj.v[::stride]), ("u", "v"), False)}

    if random_set:
        report["random_histories"] = {"min_uv": float(runs.min_uv()[[column[hist] for hist in random_set]].min())}

    if analyses["bounds"]:
        verification = _stage("/run/t_settle", verify_permanence, traj, box, t_settle, t_end, float(opt["slack"]))
        report["permanence"] = {
            "from_estimates": asdict(pb_est),
            "M1": box.M1, "M2": box.M2, "m1": box.m1, "m2": box.m2, "c0_holds": box.c0_holds,
            "verification": {
                "observed": {"u_min": verification.u_min, "u_max": verification.u_max,
                             "v_min": verification.v_min, "v_max": verification.v_max},
                "checks": verification.checks,
                "all_ok": verification.all_ok,
            },
        }

    if analyses["stability"]:
        t_grid = np.linspace(0.0, float(opt["liminf_t_max"]), opt["liminf_points"])
        sym = small_denominator(box.inputs_used, box)  # the k whose m1 + k^i is too small, if any
        est = _stage(f"/table_bounds/{sym}_inf" if config["table_bounds"] else f"/model/{sym}",
                     estimate_liminf, spec, box, t_grid, opt["beta_denominator"])
        sample_stride = max(1, len(est.alpha_samples) // 25)
        report["stability"] = {
            "alpha_liminf": est.alpha_liminf,
            "beta_liminf": est.beta_liminf,
            "beta_liminf_alt": est.beta_liminf_alt,
            "hypothesis_holds": est.alpha_liminf > 0.0 and est.beta_liminf > 0.0,
            "alpha_samples": [[t, a] for t, a in est.alpha_samples[::sample_stride]],
            "beta_samples": [[t, b] for t, b in est.beta_samples[::sample_stride]],
        }
        if analyses["attractivity"]:
            partner = runs.column(column[histories[1]])
            att = run_attractivity(traj, partner, threshold=float(opt["attractivity_threshold"]))
            series["attractivity"] = ("t,distance", (traj.t[::stride], att.distances[::stride]),
                                      ("|u_a-u_b|+|v_a-v_b|",), True)
            report["stability"]["attractivity"] = {
                "final_distance": att.final_distance,
                "tail_nonincreasing": att.tail_nonincreasing,
                "passed": att.passed,
            }

    if analyses["fixed_point"]:
        seed_phi = 0.5 * (box.m1 + box.M1)
        seed_psi = 0.5 * (box.m2 + box.M2)
        seed_pair = GridFunctionPair.from_constants(t0, t0 + float(opt["fp_t_hi"]),
                                                    float(opt["fp_step"]), seed_phi, seed_psi)
        result = iterate_fixed_point(
            spec, seed_pair,
            tol=float(opt["fp_tol"]), max_iter=opt["fp_max_iter"],
            quad_step=float(opt["fp_quad_step"]), tail_tol=float(opt["fp_tail_tol"]),
            coeff_bounds=box.inputs_used,
        )
        series["fixedpoint"] = ("t,u_star,v_star", (result.pair.grid(), result.pair.phi, result.pair.psi),
                                ("u*", "v*"), False)
        report["fixed_point"] = {
            "seed": [seed_phi, seed_psi],
            "status": result.status,
            "iterations": result.iterations,
            "final_delta": result.final_delta if math.isfinite(result.final_delta) else None,
            "residual": result.residual,
        }

    if analyses["pap"]:
        pr = _stage("/run/t_settle", solution_window_report, traj, t_settle, t_end)
        report["pap"] = {
            "trend_verdict": pr.trend_verdict,
            "ergodic_means": [[T, m] for T, m in pr.ergodic_means],
            "shift_defects": [[s, d] for s, d in pr.shift_defects],
        }

    if config["paper_values"]:
        report["discrepancies"] = _build_discrepancies(config["paper_values"], box, report)

    _write_outputs(out_dir, report, series)
    return report


def _build_discrepancies(paper_values: dict, box, report: dict) -> list[dict]:
    """Each published value beside its recomputed one: a coefficient bound
    is report's estimate, M1 .. m2 the box's, alpha and beta report's
    stability liminfs."""
    entries = []
    for quantity, published in paper_values.items():
        published = float(published)
        if quantity in _SCHEMA["table_bounds"]:
            sym, side = quantity.split("_")
            computed = report["model"]["coefficients"][sym][side]
        elif quantity in ("M1", "M2", "m1", "m2"):
            computed = getattr(box, quantity)
        elif "stability" not in report:
            continue
        else:  # alpha_inf or beta_inf
            computed = report["stability"][quantity.replace("_inf", "_liminf")]
        rel = abs(published - computed) / max(abs(published), 1e-12)
        entries.append({"quantity": quantity, "paper_value": published, "computed_value": computed,
                        "relative_gap": rel if math.isfinite(rel) else None,
                        "flag": "major" if rel > 0.05 else "minor" if rel > 0.005 else "ok"})
    return entries


_PLOT_HEAD = """\
# gnuplot script for the emitted CSV series
set datafile separator ','
set key autotitle columnhead
set terminal pngcairo size 1200,500
"""


def _write_outputs(out_dir: Path, report: dict, series: dict) -> None:
    """Every file of a run: <name>.csv for each series, plots.gp with one
    plot per series, then report.json.  An unwritable out_dir raises
    ConfigError naming it."""
    script = _PLOT_HEAD
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (header, columns, titles, log_y) in series.items():
            _write_csv(out_dir / f"{name}.csv", header, columns)
            plot = "plot " + ", \\\n     ".join(f"'{name}.csv' using 1:{i} with lines title '{title}'"
                                              for i, title in enumerate(titles, 2)) + "\n"
            script += f"set output '{name}.png'\n" + (f"set logscale y\n{plot}unset logscale y\n" if log_y else plot)
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
    flags = {"simulate": (), **_ANALYSIS_SUBCOMMANDS}.get(args.command)
    if flags is not None:
        data = dict(data, analyses={key: key in flags for key in _SCHEMA["analyses"]})
    if not (isinstance(data.get("run"), dict) and isinstance(data.get("options", {}), dict)):
        return data
    run = dict(data["run"])
    if args.h is not None:
        run["h"] = args.h
    if args.t_end is not None:
        run["t_end"] = args.t_end
        try:
            if _number(run.get("t_settle", 0.0), "/run/t_settle") >= args.t_end:
                run.pop("t_settle", None)  # for load_config's default, the run's midpoint
        except ConfigError:
            pass  # a malformed t_settle is left as it is, for load_config to name
    options = {key: value for key in ("beta_denominator", "random_histories", "random_seed")
               if (value := getattr(args, key, None)) is not None}  # the last two are simulate's
    return dict(data, run=run, options={**data.get("options", {}), **options})


def _load_config_file(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, too deep, or an integer past the digit limit
        raise ConfigError("", f"malformed JSON: {exc}") from exc


def _flag(section: str, key: str):
    """The argparse type of the flag that overrides <section>.<key>: a number
    that passes that key's _SCHEMA rule, so a bad one is named as the flag."""
    spec = _SCHEMA[section][key]

    def number(text: str):
        try:
            value = int(text) if spec.kind == "int" else float(text)
            _check_value(value, "", spec)
        except (ValueError, ConfigError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return number


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lgholling",
                                     description="Delayed predator-prey simulation and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_config=True):
        if with_config:
            p.add_argument("config", help="path to a JSON run configuration")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--h", type=_flag("run", "h"), default=None, help="override integration step")
        p.add_argument("--t-end", dest="t_end", type=_flag("run", "t_end"), default=None, help="override end time")
        p.add_argument("--beta-denominator", choices=_SCHEMA["options"]["beta_denominator"].kind, default=None)

    p = sub.add_parser("preset", help="run a built-in configuration")
    p.add_argument("name", choices=PRESET_NAMES)
    common(p, with_config=False)

    p = sub.add_parser("run", help="run a configuration file (all enabled analyses)")
    common(p)

    p = sub.add_parser("simulate", help="integrate the model and export the trajectory")
    common(p)
    p.add_argument("--random-histories", metavar="N", type=_flag("options", "random_histories"), default=None,
                   help="override options.random_histories: also integrate N random positive constant histories")
    p.add_argument("--seed", dest="random_seed", metavar="SEED", type=_flag("options", "random_seed"), default=None,
                   help="override options.random_seed, the seed of the random histories")

    for name in _ANALYSIS_SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run only the {name.replace('-', ' ')} analysis")
        common(p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        data = preset_config(args.name) if args.command == "preset" else _load_config_file(args.config)
        run_pipeline(_apply_overrides(data, args), args.out)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        # the field of the coefficient or history component that failed, wherever it was met
        where = "" if exc.symbol is None else f"/{'model' if exc.symbol in SYMBOLS else 'history'}/{exc.symbol}: "
        print(f"numerical failure: {where}{exc}", file=sys.stderr)
        if "exceeds the smallest delay" in str(exc):
            print("hint: lower run.h below the smallest delay value", file=sys.stderr)
        return 3
    except OverflowError as exc:  # float arithmetic on extreme inputs, e.g. table bounds near 1e300
        print(f"numerical failure: overflow: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
