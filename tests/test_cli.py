import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lgholling import (ConfigError, InitialHistory, ModelSpec, integrate, integrate_batch, integrator,
                       load_config, parse_expression, run_attractivity, run_config)
from lgholling.cli import _write_csv, main
from lgholling.presets import preset_config
from conftest import load_report


def small_config(**overrides):
    data = {
        "model": {s: "1" for s in ("a1", "a2", "b", "c1", "c2", "k1", "k2")}
        | {s: "0.5" for s in ("tau1", "tau2", "sigma1", "sigma2")},
        "history": {"phi1": 0.5, "phi2": 0.5},
        "run": {"t0": 0.0, "t_end": 5.0, "h": 0.05, "t_settle": 2.0},
        "analyses": {"bounds": True, "stability": False, "attractivity": False,
                     "fixed_point": False, "pap": False},
        "options": {"bounds_horizon": 20.0, "bounds_samples": 2001},
    }
    data.update(overrides)
    return data


def write_config(path: Path, data) -> Path:
    """Write data to path as JSON and return the path."""
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_preset_example2_report_contents(example2_run):
    report, out = example2_run
    assert report["permanence"]["m1"] == pytest.approx(0.5567, abs=1e-3)
    assert report["permanence"]["c0_holds"] is True
    assert report["permanence"]["verification"]["all_ok"]
    assert report["stability"]["hypothesis_holds"] is True
    for name in ("report.json", "trajectories.csv", "attractivity.csv", "fixedpoint.csv", "plots.gp"):
        assert (out / name).exists()


def test_preset_example1_report_contents(example1_run):
    report, _ = example1_run
    assert report["permanence"]["c0_holds"] is False
    assert report["permanence"]["m1"] == 0.0
    assert report["stability"]["hypothesis_holds"] is True
    assert report["stability"]["beta_denominator"] == "M1"
    # the displayed-denominator variant is negative and stays on the record
    assert report["stability"]["beta_liminf_alt"] < 0.0


def test_every_paper_value_appears_once(example1_run, example2_run):
    for report, _ in (example1_run, example2_run):
        paper = report["config"]["paper_values"]
        quantities = [d["quantity"] for d in report["discrepancies"]]
        assert sorted(quantities) == sorted(paper)


def test_coefficient_discrepancies_are_the_model_estimates(example1_run):
    report, _ = example1_run
    coefficients = report["model"]["coefficients"]
    rows = [d for d in report["discrepancies"] if d["quantity"] in report["config"]["table_bounds"]]
    assert len(rows) == 18
    for row in rows:
        sym, side = row["quantity"].split("_")
        assert row["computed_value"] == coefficients[sym][side], row["quantity"]


def test_run_config_equals_preset(tmp_path, example2_run):
    report_preset, _ = example2_run
    cfg = write_config(tmp_path / "ex2.json", preset_config("example2"))
    report = run_config(cfg, tmp_path / "out")
    a = dict(report_preset)
    b = load_report(tmp_path / "out")
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_missing_coefficient_is_named():
    data = small_config()
    del data["model"]["c2"]
    with pytest.raises(ConfigError, match="/model/c2"):
        load_config(data)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="/frobnicate"):
        load_config(small_config(frobnicate=1))
    data = small_config()
    data["options"] = {"no_such_option": 2}
    with pytest.raises(ConfigError, match="/options/no_such_option"):
        load_config(data)


def test_bad_run_section():
    data = small_config()
    data["run"]["h"] = -0.1
    with pytest.raises(ConfigError, match="/run/h"):
        load_config(data)
    data = small_config()
    data["run"]["t_end"] = data["run"]["t0"]
    with pytest.raises(ConfigError, match="/run/t_end"):
        load_config(data)
    data = small_config()
    data["run"]["t_settle"] = 99.0  # beyond t_end
    with pytest.raises(ConfigError, match="/run/t_settle"):
        load_config(data)


def test_bad_option_values():
    data = small_config()
    data["options"] = {"beta_denominator": "M3"}
    with pytest.raises(ConfigError, match="beta_denominator"):
        load_config(data)
    data = small_config()
    data["analyses"]["bounds"] = "yes"
    with pytest.raises(ConfigError, match="/analyses/bounds"):
        load_config(data)
    data = small_config()
    data["model"]["b"] = "2*"  # syntax error surfaces with the pointer path
    with pytest.raises(ConfigError, match="/model/b"):
        load_config(data)
    data = small_config()
    data["paper_values"] = {"gamma_inf": 1.0}
    with pytest.raises(ConfigError, match="/paper_values/gamma_inf"):
        load_config(data)


def test_nothing_to_report():
    data = small_config()
    data["analyses"] = {key: False for key in data["analyses"]}
    with pytest.raises(ConfigError, match="nothing to report"):
        from lgholling import run_pipeline
        run_pipeline(load_config(data), Path("/tmp/never-used"))


def test_step_above_delay_exits_3(tmp_path, capsys):
    data = small_config()
    data["run"]["h"] = 0.7  # exceeds the 0.5 delays
    cfg = write_config(tmp_path / "bad.json", data)
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "smallest delay" in err and "hint" in err


@pytest.mark.parametrize("under_file", [False, True], ids=["out-is-a-file", "out-below-a-file"])
def test_unwritable_out_exits_2(tmp_path, capsys, under_file):
    """An --out that cannot be a directory exits 2 naming it, with no
    traceback, and the file in its way is left as it was."""
    cfg = write_config(tmp_path / "cfg.json", small_config())
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n", encoding="utf-8")
    out = blocker / "x" if under_file else blocker
    code = main(["run", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "cannot write output directory" in err and str(out) in err and "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("key, literal", [("h", "NaN"), ("t_end", "Infinity"), ("t0", "-Infinity")])
def test_nonfinite_run_value_exits_2(tmp_path, capsys, key, literal):
    data = small_config()
    data["run"][key] = "PLACEHOLDER"
    cfg = tmp_path / "bad.json"
    # json.dumps would write the same literal; spelled out to show the input
    cfg.write_text(json.dumps(data).replace('"PLACEHOLDER"', literal), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"/run/{key}" in err and "finite" in err


@pytest.mark.parametrize("section, key, value", [
    ("options", "slack", "abc"),
    ("options", "csv_stride", "x"),
    ("options", "fp_step", 0),
    ("options", "bounds_samples", 0),
    ("options", "bounds_samples", 1),
    ("options", "liminf_points", 0),
    ("options", "attractivity_history", "x"),
    ("table_bounds", "a1_inf", "x"),
    ("paper_values", "M1", "x"),
    ("run", "h", 10**400),  # a JSON integer no float can hold
    ("options", "attractivity_history", [0, 0.75]),
    ("options", "attractivity_history", [-1.0, 0.75]),
    ("options", "liminf_t_max", 0),
    ("options", "liminf_t_max", -5.0),
    ("options", "bounds_samples", 10**12),  # caps: rejected before any sample is taken
    ("options", "liminf_points", 10**12),
])
def test_malformed_value_exits_2_naming_its_path(tmp_path, capsys, section, key, value):
    data = small_config()
    data.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path / "bad.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"/{section}/{key}" in err and "Traceback" not in err
    if isinstance(value, list):  # the bad item is named by its index
        assert f"/{section}/{key}/0" in err


@pytest.mark.parametrize("command", ["run", "simulate", "bounds", "stability", "fixed-point", "pap-check"])
def test_non_object_config_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config must be a JSON object" in err and "Traceback" not in err


@pytest.mark.parametrize("content, message", [(None, "cannot read config: "),
                                              ("[1]", "config must be a JSON object")],
                         ids=["missing-file", "non-object"])
def test_whole_file_error_prints_message_alone(tmp_path, capsys, content, message):
    """An error about the whole config file has no JSON path, and prints
    without an empty path and doubled colon in front of its message."""
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: {message}")


def test_sample_counts_are_capped():
    for key in ("bounds_samples", "liminf_points"):
        data = small_config()
        data["options"][key] = 10**7
        assert load_config(data).options[key] == 10**7
        data["options"][key] = 10**7 + 1
        with pytest.raises(ConfigError, match=f"/options/{key}: must be <= "):
            load_config(data)


def test_table_bounds_section_gives_every_bound():
    table = preset_config("example2")["table_bounds"]
    assert load_config(small_config(table_bounds=table)).table_bounds == table
    assert load_config(small_config(table_bounds=None)).table_bounds is None
    for partial in ({}, {k: v for k, v in table.items() if k != "k2_sup"}):
        with pytest.raises(ConfigError, match="/table_bounds/(a1_inf|k2_sup): missing required key"):
            load_config(small_config(table_bounds=partial))


def test_values_are_kept_as_given_and_defaults_filled_in():
    data = small_config()
    data["options"] = {"bounds_horizon": 20, "fp_max_iter": 3}
    config = load_config(data)
    assert config.options["bounds_horizon"] == 20 and isinstance(config.options["bounds_horizon"], int)
    assert config.options["slack"] == 0.05 and config.options["attractivity_history"] == [0.75, 0.75]
    assert config.run["t0"] == 0.0 and isinstance(config.run["t0"], float)
    del data["analyses"], data["run"]["t_settle"]
    config = load_config(data)
    assert all(config.analyses.values()) and config.run["t_settle"] == 2.5


@pytest.mark.parametrize("raw", [b'{"model": 1' + b"0" * 5000 + b"}", b'{"model": "\xff"}'])
def test_unreadable_config_file_exits_2(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(raw)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "lgholling", "run", str(tmp_path / "missing.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "cannot read config" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_preset_run_loads_no_scipy(tmp_path):
    """The package and a whole preset run need numpy only: no scipy module
    is loaded by the time the last file is written."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = ("import sys\n"
              "from lgholling.cli import main\n"
              f"assert main(['preset', 'example1', '--out', {str(tmp_path / 'out')!r}]) == 0\n"
              "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "out" / "report.json").is_file()


def test_config_validation_exits_2(tmp_path, capsys):
    data = small_config()
    del data["model"]["c2"]
    cfg = write_config(tmp_path / "bad.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "/model/c2" in capsys.readouterr().err


def test_nonpositive_coefficient_exits_2(tmp_path, capsys):
    data = small_config()
    data["model"]["b"] = "cos(t)"  # crosses zero
    cfg = write_config(tmp_path / "bad.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "coefficient b" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("1/0", "division by zero at t=0.0"),
    ("sqrt(-1)", "sqrt of negative value at t=0.0"),
    ("exp(1000)", "non-finite value at t=0.0"),
])
def test_failing_constant_coefficient_exits_3(tmp_path, capsys, text, message):
    data = small_config()
    data["model"]["c1"] = text
    load_config(data)  # parses: the error belongs to evaluation
    cfg = write_config(tmp_path / "bad.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


def test_pipeline_accepts_expression_history(tmp_path):
    data = small_config()
    data["history"] = {"phi1": "0.5 + 0.1*cos(t)", "phi2": 0.4}
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = load_report(tmp_path / "out")
    assert report["permanence"]["verification"]["observed"]["u_min"] > 0.0


def test_cli_run_small_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", small_config())
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = load_report(tmp_path / "out")
    assert report["permanence"]["M1"] == pytest.approx(1.0, abs=1e-9)


def test_cli_simulate_with_random_histories(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", small_config())
    code = main(["simulate", str(cfg), "--out", str(tmp_path / "out"),
                 "--random-histories", "5", "--seed", "3"])
    assert code == 0
    report = load_report(tmp_path / "out")
    assert report["random_histories"]["all_positive"] is True
    assert report["random_histories"]["count"] == 5
    assert "permanence" not in report


@pytest.mark.parametrize("history, own_row0", [
    ({"phi1": 0.5, "phi2": 0.5}, False),
    ({"phi1": "0.03", "phi2": "0.02 + 5*t*t"}, True),
], ids=["constant", "expression"])
def test_random_histories_ride_in_the_one_kernel_call(tmp_path, monkeypatch, history, own_row0):
    """simulate --random-histories integrates the main and the random
    histories as columns of one kernel call.  min_uv is the one a separate
    batch of the constant (phi1(0), phi2(0)) and the random rows gives: a
    constant history is its own row 0, an expression history gets a column
    of its own for it."""
    calls = []
    kernel = integrator._rk4

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(integrator, "_rk4", counting)
    data = small_config(history=history)
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "out"), "--random-histories", "5", "--seed", "3"]) == 0
    assert len(calls) == 1
    got = load_report(tmp_path / "out")["random_histories"]["min_uv"]

    monkeypatch.undo()
    spec, run = ModelSpec.from_strings(data["model"]), data["run"]
    hist = InitialHistory(*(parse_expression(v) if isinstance(v, str) else v for v in history.values()))
    rows = np.vstack([[hist.value1(0.0), hist.value2(0.0)], np.random.default_rng(3).uniform(0.05, 2.0, size=(5, 2))])
    rows = [InitialHistory(u0, v0) for u0, v0 in rows.tolist()]
    assert got == integrate_batch(spec, rows, run["t0"], run["t_end"], run["h"]).min_uv().min()
    # the expression history's own run dips lower than its constant row 0
    main_min = integrate_batch(spec, [hist], run["t0"], run["t_end"], run["h"]).min_uv()[0]
    assert (main_min < got) == own_row0


def test_run_with_every_analysis_makes_one_kernel_call(tmp_path, monkeypatch):
    """The analyses read the pipeline's trajectories: a run with bounds,
    stability, attractivity, fixed point and pap enabled integrates once."""
    calls = []
    kernel = integrator._rk4

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(integrator, "_rk4", counting)
    data = short_preset("example2")
    assert all(data["analyses"].values())
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    report = load_report(tmp_path / "out")
    assert {"permanence", "stability", "fixed_point", "pap"} <= report.keys()
    assert "attractivity" in report["stability"]


@pytest.mark.parametrize("flag", ["--random-histories", "--seed"])
def test_negative_count_exits_2_naming_the_flag(tmp_path, flag):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    cfg = write_config(tmp_path / "cfg.json", small_config())
    counts = {"--random-histories": "3", "--seed": "1", flag: "-3"}
    argv = [arg for pair in counts.items() for arg in pair]
    proc = subprocess.run([sys.executable, "-m", "lgholling", "simulate", str(cfg), "--out", str(tmp_path / "out"),
                           *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert f"argument {flag}: expected an integer >= 0, got '-3'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_overflowing_random_history_exits_3_before_any_file(tmp_path, capsys):
    """The random histories ride in the main kernel call, so an overflow in
    one of them stops the run before trajectories.csv is written."""
    data = small_config(history={"phi1": 0.5, "phi2": 1e-300})  # no predation on u for the whole run
    data["model"]["c1"] = "300"
    cfg = write_config(tmp_path / "overflow.json", data)
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "alone")]) == 0
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "out"), "--random-histories", "3", "--seed", "3"]) == 3
    assert capsys.readouterr().err == "numerical failure: log-state overflow at t=2.15\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block_rows", [1 << 16, 4])
def test_csv_writer_equals_per_value_format(tmp_path, monkeypatch, block_rows):
    """One % over a %.17g line template per block of rows writes the bytes
    format(v, ".17g") per value gives, on signed zeros, non-finite values,
    subnormals and values that need all 17 digits."""
    monkeypatch.setattr("lgholling.cli._CSV_BLOCK_ROWS", block_rows)
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, 0.1, 1 / 3, -2 / 3, 1e16, 123456789012345678.0, 1e-7, 0.5, 7.0, -1e22]
    cols = (np.array(values), np.array(values[::-1]), np.arange(len(values)) * 0.1)
    _write_csv(tmp_path / "new.csv", "a,b,c", cols)
    want = "a,b,c\n" + "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in zip(*cols))
    assert (tmp_path / "new.csv").read_bytes() == want.encode("utf-8")


def test_cli_single_analysis_subcommands(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", small_config())
    assert main(["bounds", str(cfg), "--out", str(tmp_path / "b")]) == 0
    rep = load_report(tmp_path / "b")
    assert "permanence" in rep and "stability" not in rep
    assert main(["pap-check", str(cfg), "--out", str(tmp_path / "p")]) == 0
    rep = load_report(tmp_path / "p")
    assert "pap" in rep and "permanence" not in rep


def test_csv_format(example2_run):
    _, out = example2_run
    raw = (out / "trajectories.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "t,u,v"
    # 17 significant digits survive a float round trip exactly
    t, u, v = (float(x) for x in lines[2].split(","))
    assert format(u, ".17g") == lines[2].split(",")[1]


def test_plot_script_references_relative_paths(example2_run):
    _, out = example2_run
    script = (out / "plots.gp").read_text(encoding="utf-8")
    assert "'trajectories.csv'" in script
    assert "'attractivity.csv'" in script
    assert "/" not in script.split("'")[1]  # relative, not absolute


# fuzz mutations: a field of a config takes one of these values, or is deleted
_FUZZ_VALUES = [None, True, "x", "", "t", "1/0", "sqrt(-1)", "exp(1000)", "(-3.2)", "M1", [], [0.5, "x"],
                [1.0, 1.0], {}, -1, 0, 1, 3, -0.5, 0.25, 2.5, 1e300, -1e300, 10**400, math.nan, math.inf]
_DELETE = "<delete>"


def short_preset(name):
    """A preset config cut to a 4-unit run with coarse analysis grids."""
    data = preset_config(name)
    data["run"].update(t_end=4.0, t_settle=2.0, h=0.05)
    data["options"].update(bounds_horizon=20.0, bounds_samples=2001, liminf_t_max=10.0, liminf_points=11,
                           fp_t_hi=2.0, fp_max_iter=2)
    return data


def config_fields(node, path=()):
    """The path of every field below node, sections and list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from config_fields(value, path + (key,))


def run_mutated(tmp_path, name, path, value, flags):
    """Run the CLI on short_preset(name) with the field at path set to value
    (or deleted); returns the exit code and standard error."""
    data = short_preset(name)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    cfg = write_config(tmp_path / "mutated.json", data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")] + flags)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["example1", "example2"]),
       path=st.sampled_from(list(config_fields(short_preset("example1")))),
       value=st.sampled_from(_FUZZ_VALUES + [_DELETE]),
       flags=st.sampled_from([[], ["--beta-denominator", "M1"], ["--t-end", "3"], ["--h", "0.1"]]))
def test_mutated_preset_config_exits_cleanly(tmp_path, name, path, value, flags):
    """One field of a preset config mutated: the CLI exits 0, 2 or 3
    without a traceback, and a validation error names a JSON path."""
    code, err = run_mutated(tmp_path, name, path, value, flags)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert re.match(r"validation error: /\w", err), err


@pytest.mark.parametrize("path, value, flags, code, named", [
    (("model", "c1"), "(-3.2)", [], 2, "/model/c1"),
    (("history", "phi1"), "t", [], 2, "/history"),
    (("history", "phi1"), 10**400, [], 2, "/history/phi1"),
    (("run", "t_end"), 1e300, [], 2, "/run/h"),
    (("options", "fp_step"), 1e300, [], 2, "/options/fp_step"),
    (("table_bounds", "b_inf"), 0, [], 2, "/table_bounds"),
    (("table_bounds", "a1_inf"), _DELETE, [], 2, "/table_bounds/a1_inf"),
    (("table_bounds", "a2_sup"), 1e300, [], 3, "overflow"),
    (("run",), 5, ["--t-end", "3"], 2, "/run"),
    (("options",), 5, ["--beta-denominator", "M1"], 2, "/options"),
    (("run", "t_settle"), 3.99, [], 2, "/run/t_settle"),  # a settle window holding one knot
    (("run", "h"), 0.03, [], 2, "/run/h"),  # a step that does not divide the 4-unit run
    (("model", "a1"), "5 + 0*t^1e400", [], 2, "/model/a1: exponent must be a literal integer >= 0 at position 8"),
    (("model", "a1"), "-" * 3000 + "5", [], 2, "/model/a1: expression nested too deeply"),
    (("model", "a1"), "+".join(["0.001"] * 5000), [], 2, "/model/a1: expression nested too deeply"),
    (("model", "a1"), "5 + 0*t" + "+0*t" * 5000, [], 2, "/model/a1: expression nested too deeply"),
    (("model", "a1"), "5+0*(" * 400 + "t" + ")" * 400, [], 2, "/model/a1: expression nested too deeply"),
    (("model", "a1"), "t" + "+t" * 40_000, [], 2, "/model/a1: expression longer than 65536 characters"),
    (("table_bounds", "a2_inf"), 0, [], 2, "/table_bounds/a2_inf"),
    (("table_bounds", "a2_inf"), -1, [], 2, "/table_bounds/a2_inf"),
    (("table_bounds", "a1_inf"), -0.5, [], 2, "/table_bounds/a1_inf"),
    (("table_bounds", "tau2_sup"), -5, [], 2, "/table_bounds/tau2_sup"),
    (("options", "fp_quad_step"), 0.03, [], 2, "/options/fp_quad_step"),  # does not divide fp_step 0.1
    (("options", "fp_step"), 0.07, [], 2, "/options/fp_step"),  # does not divide fp_t_hi 2.0
    (("table_bounds", "k1_inf"), 1e-300, [], 2, "/table_bounds/k1_inf"),  # (m1 + k1^i)**2 underflows to 0
], ids=["negative-c1", "phi1-zero-at-0", "phi1-huge-int", "t_end-huge", "fp_step-huge", "b_inf-zero",
        "a1_inf-missing", "a2_sup-huge", "run-not-object", "options-not-object", "t_settle-one-knot",
        "h-not-dividing", "exponent-infinite", "unary-minus-3000", "sum-5000", "t-sum-5000", "parens-400", "text-80k",
        "a2_inf-zero", "a2_inf-negative", "a1_inf-negative", "tau2_sup-negative", "fp_quad_step-not-dividing",
        "fp_step-not-dividing", "k1_inf-tiny"])
def test_fuzz_findings_exit_cleanly(tmp_path, path, value, flags, code, named):
    """Mutations that once ended in a traceback or in an error naming no
    field.  A failed run writes no file, whichever stage it stops in."""
    got, err = run_mutated(tmp_path, "example2", path, value, flags)
    assert (got, "Traceback" in err) == (code, False)
    assert named in err
    assert not list((tmp_path / "out").rglob("*"))


@pytest.mark.parametrize("value", [
    "+".join(["0.001"] * 300),
    "abs(" * 150 + "2.6 + 0.5*cos(t)" + ")" * 150,
    "-" * 150 + "(2.6 + 0.5*cos(t))",
], ids=["sum-300", "abs-150", "unary-minus-150"])
def test_deep_expressions_within_the_recursion_limit_run(tmp_path, value):
    code, err = run_mutated(tmp_path, "example2", ("model", "a1"), value, [])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("table, code, named", [(False, 2, "validation error: /model/k1: "), (True, 0, "")])
def test_tiny_model_k1_fails_only_in_the_active_box(tmp_path, table, code, named):
    """model.k1 = 1e-300 makes the estimates' m1 + k1^i too small for alpha
    and beta: an error naming /model/k1 when that box is active, harmless
    when the table's box is."""
    data = short_preset("example2")
    data["model"]["k1"] = "1e-300"
    if not table:
        data["table_bounds"] = None
    cfg = write_config(tmp_path / "k1.json", data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        got = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert (got, err.getvalue().startswith(named)) == (code, True)
    assert bool(list((tmp_path / "out").rglob("*"))) == table


def test_t_end_override_keeps_t_settle_after_t0(tmp_path):
    """--t-end moves a t_settle it passes to the new run's midpoint, from t0."""
    data = short_preset("example2")
    data["run"]["t0"] = 1.5
    cfg = write_config(tmp_path / "t0.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--t-end", "2"]) == 0
    assert load_report(tmp_path / "out")["config"]["run"]["t_settle"] == 1.75


def test_overflowing_fixed_point_source_exits_3_without_warning(tmp_path):
    """Extreme table bounds make the Picard seed so large that f_2 overflows:
    the run exits 3 naming f, with no numpy RuntimeWarning on stderr."""
    data = short_preset("example1")
    data["table_bounds"]["a2_inf"] = 1e300
    cfg = write_config(tmp_path / "overflow.json", data)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "lgholling", "run", str(cfg),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "f_2 not finite" in proc.stderr


@pytest.mark.parametrize("command", ["run", "simulate", "bounds", "stability", "fixed-point", "pap-check"])
def test_config_output_dir_is_the_default_out(tmp_path, monkeypatch, command):
    data = small_config(output_dir=str(tmp_path / "from-config"))
    data["analyses"] = dict.fromkeys(data["analyses"], True)
    data["options"].update(liminf_t_max=10.0, liminf_points=11, fp_t_hi=1.0, fp_max_iter=1)
    cfg = write_config(tmp_path / "cfg.json", data)
    monkeypatch.chdir(tmp_path)
    assert main([command, str(cfg)]) == 0
    assert (tmp_path / "from-config" / "report.json").exists()
    assert not (tmp_path / "lgholling-out").exists()


def test_seed_is_refused_where_nothing_reads_it(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    cfg = write_config(tmp_path / "cfg.json", small_config())
    proc = subprocess.run([sys.executable, "-m", "lgholling", "run", str(cfg), "--out", str(tmp_path / "out"),
                           "--seed", "5"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed 5" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_overflowing_attractivity_history_exits_3_before_any_file(tmp_path, capsys):
    """The main history and the attractivity history are integrated in one
    kernel call, so an overflow in the second stops the run before
    trajectories.csv is written."""
    data = short_preset("example2")
    data["options"]["attractivity_history"] = [0.75, 1e300]
    cfg = write_config(tmp_path / "overflow.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "numerical failure: log-state overflow at t=0.05\n"
    assert not (tmp_path / "out").exists()


def test_pipeline_attractivity_equals_lone_runs(example2_run):
    """The pipeline's attractivity curve, from one kernel call for both
    histories, is the one two separate integrations give."""
    report, out = example2_run
    config = preset_config("example2")
    spec = ModelSpec.from_strings(config["model"])
    run, opts = config["run"], config["options"]
    lone_runs = [integrate(spec, hist, run["t0"], run["t_end"], run["h"])
                 for hist in (InitialHistory(config["history"]["phi1"], config["history"]["phi2"]),
                              InitialHistory(*opts["attractivity_history"]))]
    alone = run_attractivity(*lone_runs, threshold=opts["attractivity_threshold"])
    assert alone.distances.max() > 0.1
    assert report["stability"]["attractivity"]["final_distance"] == alone.final_distance
    rows = (out / "attractivity.csv").read_text(encoding="utf-8").splitlines()[1:]
    stride = opts["csv_stride"]
    assert [float(row.split(",")[1]) for row in rows] == alone.distances[::stride].tolist()
