import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lgholling import (CoefficientBounds, ConfigError, InitialHistory, ModelSpec, compute_permanence_bounds_from_values,
                       integrate, integrate_batch, integrator, load_config, run_attractivity, run_pipeline)
from lgholling.cli import _SCHEMA, _write_csv, main
from lgholling.presets import _PRESETS, preset_config
from conftest import load_report


def small_config(**overrides):
    data = {
        "model": {s: "1" for s in ("a1", "a2", "b", "c1", "c2", "k1", "k2")}
        | {s: "0.5" for s in ("tau1", "tau2", "sigma1", "sigma2")},
        "history": {"phi1": 0.5, "phi2": 0.5},
        "run": {"t0": 0.0, "t_end": 5.0, "h": 0.05, "t_settle": 2.0},
        "analyses": {"bounds": True, "stability": False, "attractivity": False,
                     "fixed_point": False, "pap": False},
        "options": {"bounds_horizon": 20.0},
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
    assert report["config"]["options"]["beta_denominator"] == "M1"
    # the displayed-denominator variant is negative and stays on the record
    assert report["stability"]["beta_liminf_alt"] < 0.0


def test_every_paper_value_appears_once(example1_run, example2_run):
    for report, _ in (example1_run, example2_run):
        paper = report["config"]["paper_values"]
        quantities = [d["quantity"] for d in report["discrepancies"]]
        assert sorted(quantities) == sorted(paper)


def test_coefficient_discrepancies_are_the_model_estimates(example1_run, example2_run):
    """Every computed value of the audit is read from the report it audits:
    a coefficient bound is the model's estimate, a box entry the top-level
    box, and alpha and beta the stability liminfs."""
    for report, _ in (example1_run, example2_run):
        coefficients = report["model"]["coefficients"]
        rows = {d["quantity"]: d["computed_value"] for d in report["discrepancies"]}
        assert len(rows) == 24
        for quantity in report["config"]["table_bounds"]:
            sym, side = quantity.split("_")
            assert rows.pop(quantity) == coefficients[sym][side], quantity
        for quantity in ("M1", "M2", "m1", "m2"):
            assert rows.pop(quantity) == report["permanence"][quantity], quantity
        assert rows == {"alpha_inf": report["stability"]["alpha_liminf"],
                        "beta_inf": report["stability"]["beta_liminf"]}


def test_example1_box_is_the_table_box(example1_run):
    """With table_bounds set, the top-level box is the one the table's
    bounds give."""
    report, _ = example1_run
    box = compute_permanence_bounds_from_values(CoefficientBounds.from_table(report["config"]["table_bounds"]))
    assert {key: report["permanence"][key] for key in ("M1", "M2", "m1", "m2", "c0_holds")} == \
        {"M1": box.M1, "M2": box.M2, "m1": box.m1, "m2": box.m2, "c0_holds": box.c0_holds}


def test_run_config_equals_preset(tmp_path, example2_run):
    report_preset, _ = example2_run
    cfg = write_config(tmp_path / "ex2.json", preset_config("example2"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    a = dict(report_preset)
    b = load_report(tmp_path / "out")
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_constant_coefficients_as_numbers_run_as_their_text(tmp_path, example2_run):
    """Example2 with its eight constant coefficients given as JSON numbers
    writes the text config's trajectories.csv and report.json, apart from
    generated_at and the echoed config."""
    report_text, out_text = example2_run
    data = preset_config("example2")
    for sym in ("c1", "c2", "k1", "k2", "tau1", "tau2", "sigma1", "sigma2"):
        data["model"][sym] = float(data["model"][sym])
    cfg = write_config(tmp_path / "ex2.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "trajectories.csv").read_bytes() == (out_text / "trajectories.csv").read_bytes()
    report = load_report(tmp_path / "out")
    assert report["config"]["model"]["c1"] == 0.32
    assert {k: v for k, v in report.items() if k not in ("generated_at", "config")} == \
        {k: v for k, v in report_text.items() if k not in ("generated_at", "config")}


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


def test_nothing_to_report(tmp_path):
    """A config with every analysis off simulates, as simulate's mask asks:
    it exits 0 and writes the trajectory and a report of the model alone."""
    data = small_config()
    data["analyses"] = {key: False for key in data["analyses"]}
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["plots.gp", "report.json", "trajectories.csv"]
    assert load_report(tmp_path / "out").keys() == {"generated_at", "config", "model"}


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
    ("options", "liminf_points", 0),
    ("options", "attractivity_history", "x"),
    ("table_bounds", "a1_inf", "x"),
    ("paper_values", "M1", "x"),
    ("run", "h", 10**400),  # a JSON integer no float can hold
    ("options", "attractivity_history", [0, 0.75]),
    ("options", "attractivity_history", [-1.0, 0.75]),
    ("options", "liminf_t_max", 0),
    ("options", "liminf_t_max", -5.0),
    ("options", "liminf_points", 10**12),  # a cap: rejected before any sample is taken
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


def test_fixed_point_quadrature_nodes_are_capped():
    """fp_quad_step divides fp_step, but fp_t_hi / fp_quad_step nodes past
    the step cap are refused before any run builds them."""
    data = small_config()
    data["options"].update(fp_t_hi=30.0, fp_step=0.1, fp_quad_step=1e-8)  # 3e9 nodes
    with pytest.raises(ConfigError, match=r"^/options/fp_quad_step: fp_t_hi / fp_quad_step must be at most 10000000"):
        load_config(data)
    data["options"].update(fp_quad_step=5e-6)  # 6e6 nodes
    assert load_config(data)["options"]["fp_quad_step"] == 5e-6


@pytest.mark.parametrize("fixed_point", [True, False])
def test_fixed_point_grid_times_must_be_distinct(fixed_point):
    """At t0 = 1e15 the float spacing is 0.125, so fp_step 0.1 would repeat
    grid times: refused when the fixed-point analysis runs, and only then."""
    data = small_config()
    data["run"] = {"t0": 1e15, "t_end": 1e15 + 50, "h": 0.125}
    data["analyses"]["fixed_point"] = fixed_point
    if fixed_point:
        with pytest.raises(ConfigError, match="^/options/fp_step: must exceed 0.5 "):
            load_config(data)
        data["options"]["fp_step"] = 0.75
    assert load_config(data)["run"]["t0"] == 1e15


def test_sample_count_is_capped():
    data = small_config()
    data["options"]["liminf_points"] = 10**7
    assert load_config(data)["options"]["liminf_points"] == 10**7
    data["options"]["liminf_points"] = 10**7 + 1
    with pytest.raises(ConfigError, match="/options/liminf_points: must be <= "):
        load_config(data)


def test_table_bounds_section_gives_every_bound():
    table = preset_config("example2")["table_bounds"]
    assert load_config(small_config(table_bounds=table))["table_bounds"] == table
    assert load_config(small_config(table_bounds=None))["table_bounds"] is None
    for partial in ({}, {k: v for k, v in table.items() if k != "k2_sup"}):
        with pytest.raises(ConfigError, match="/table_bounds/(a1_inf|k2_sup): missing required key"):
            load_config(small_config(table_bounds=partial))


def test_values_are_kept_as_given_and_defaults_filled_in():
    data = small_config()
    data["options"] = {"bounds_horizon": 20, "fp_max_iter": 3}
    config = load_config(data)
    assert config["options"]["bounds_horizon"] == 20 and isinstance(config["options"]["bounds_horizon"], int)
    assert config["options"]["slack"] == 0.05 and config["options"]["attractivity_history"] == [0.75, 0.75]
    assert config["run"]["t0"] == 0.0 and isinstance(config["run"]["t0"], float)
    del data["analyses"], data["run"]["t_settle"]
    config = load_config(data)
    assert all(config["analyses"].values()) and config["run"]["t_settle"] == 2.5


@pytest.mark.parametrize("raw", [b'{"model": 1' + b"0" * 5000 + b"}", b'{"model": "\xff"}'])
def test_unreadable_config_file_exits_2(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(raw)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_a_config_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    """100,000 nested arrays overflow the JSON decoder's recursion: that is
    malformed input, so exit 2 without a traceback, and nothing is written."""
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("validation error: malformed JSON")
    assert not (tmp_path / "out").exists()


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
    assert capsys.readouterr().err == f"numerical failure: /model/c1: {message}\n"


def test_coefficient_failing_at_a_sample_names_its_field(tmp_path, capsys):
    """The search's own error text is kept after the field's path, and
    nothing is written.  The first samples past 900 are the first level's
    midpoint 900.87890625 = 922.5 * 1000/1024."""
    data = preset_config("example2")
    data["model"]["a1"] = "sqrt(900 - t)"
    cfg = write_config(tmp_path / "bad.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "numerical failure: /model/a1: sqrt of negative value at t=900.87890625\n"
    assert not (tmp_path / "out").exists()


def test_history_failing_at_a_sample_names_its_field(tmp_path, capsys):
    """sqrt(t + 0.5) fails on [-r, -0.5) with example2's r = 0.92: the
    error is named by its history field, as a coefficient's is."""
    data = preset_config("example2")
    data["history"]["phi1"] = "sqrt(t + 0.5)"
    cfg = write_config(tmp_path / "bad.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "numerical failure: /history/phi1: sqrt of negative value at t=-0.92\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tau1, edits, message", [
    ("0.95 + 0.9*sin(2*t)", {}, "s - delay(s) is not shown increasing near s=0.0"),
    # the search of [0, 500] passes: only the lag inversion, up to 700, reads past 600
    ("0.92 + 0*sqrt(600 - t)", {"options": dict(bounds_horizon=500, liminf_t_max=700)},
     "sqrt of negative value at t=602.0"),
    # with the estimates' box active and its m1 + k1^i too small, the lag inversion still fails first
    ("0.92 + 0*sqrt(600 - t)", {"options": dict(bounds_horizon=500, liminf_t_max=700), "model": dict(k1="1e-300"),
                                "table_bounds": None}, "sqrt of negative value at t=602.0"),
], ids=["not-increasing", "domain", "domain-estimates-box"])
def test_lag_inversion_failure_names_its_delay(tmp_path, capsys, tau1, edits, message):
    """A delay that lag inversion refuses is named by its model field, with
    either box active (example2's table box is), and no numpy warning."""
    data = preset_config("example2")
    data["model"]["tau1"] = tau1
    for section, values in edits.items():
        data[section] = values if values is None else data[section] | values
    cfg = write_config(tmp_path / "tau.json", data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stability", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical failure: /model/tau1: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sym, text, edits, command, message", [
    # the search of [0, 100] passes: only the kernel, up to t_end = 200, reads past 150
    ("c2", "3.6 + 0*sqrt(150 - t)", {"options": dict(bounds_horizon=100)}, "run",
     "sqrt of negative value at t=150.005"),
    # the search and the run end at 35: only the integral operator's tail reads past 40
    ("a2", "0.03 + 0.125*abs(sin(t)) + 0*sqrt(40 - t)",
     {"run": dict(t_end=35, t_settle=20), "options": dict(bounds_horizon=35)}, "fixed-point",
     "sqrt of negative value at t=40.050000000000004"),
], ids=["kernel", "upsilon"])
def test_a_coefficient_failing_past_its_search_names_its_field(tmp_path, capsys, sym, text, edits, command, message):
    """A coefficient's failure is named by its field wherever it is met,
    here in the kernel and in the integral operator, and nothing is written."""
    data = preset_config("example2")
    data["model"][sym] = text
    for section, values in edits.items():
        data[section] = data[section] | values
    cfg = write_config(tmp_path / "bad.json", data)
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical failure: /model/{sym}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_coefficient_whose_inf_is_0_exits_2_naming_its_field(tmp_path, capsys):
    """0.1 (1 + cos t) touches 0 at each odd multiple of pi: its certified
    lower bound is not > 0, though no sample of it need be."""
    data = preset_config("example2")
    data["model"]["a2"] = "0.1*(1 + cos(t))"
    data["options"]["bounds_horizon"] = 20.0
    cfg = write_config(tmp_path / "zero.json", data)
    assert main(["bounds", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: /model/a2: coefficient a2 is not shown > 0: it is ")
    assert not (tmp_path / "out").exists()


def test_a_coefficient_with_an_infinite_slope_at_0_passes(tmp_path):
    """sqrt(t) + 1 has an infinite slope at t = 0, where its inf 1.0 is: the
    enclosure still bounds it, so its bracket is finite."""
    data = preset_config("example2")
    data["model"]["k2"] = "sqrt(t) + 1"
    data["options"]["bounds_horizon"] = 20.0
    cfg = write_config(tmp_path / "sqrt.json", data)
    assert main(["bounds", str(cfg), "--out", str(tmp_path / "out")]) == 0
    entry = load_report(tmp_path / "out")["model"]["coefficients"]["k2"]
    assert entry["inf"] == 1.0 and entry["sup"] == pytest.approx(1.0 + math.sqrt(20.0), rel=1e-15)
    assert 1.0 - 1e-15 < entry["inf_lower"] <= 1.0 and entry["sup"] <= entry["sup_upper"] < math.inf


def test_history_dipping_below_0_between_samples_exits_2_naming_history(tmp_path, capsys):
    """phi1 is 0.5 at 256 evenly spaced points of [-r, 0] and -0.1 between them."""
    data = preset_config("example2")
    data["history"]["phi1"] = f"0.5 - 0.6*abs(sin({2.0 * math.pi * 255 / 0.92!r}*t))"
    cfg = write_config(tmp_path / "dip.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("validation error: /history: history phi1 negative at theta=-0.")
    assert not (tmp_path / "out").exists()


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
    assert report["random_histories"]["min_uv"] > 0.0
    assert list(report["random_histories"]) == ["min_uv"]  # the count and the seed are settings
    assert (report["config"]["options"]["random_histories"], report["config"]["options"]["random_seed"]) == (5, 3)
    assert "permanence" not in report


@pytest.mark.parametrize("history, own_row0", [
    ({"phi1": 0.5, "phi2": 0.5}, False),
    ({"phi1": "0.5", "phi2": "0.5"}, False),
    ({"phi1": "0.50", "phi2": "0.5"}, False),
    ({"phi1": "0.03", "phi2": "0.02 + 5*t*t"}, True),
], ids=["constant", "constant-text", "constant-other-text", "expression"])
def test_random_histories_ride_in_the_one_kernel_call(tmp_path, monkeypatch, history, own_row0):
    """simulate --random-histories integrates the main and the random
    histories as columns of one kernel call.  min_uv is the one a separate
    batch of the constant (phi1(0), phi2(0)) and the random rows gives: a
    constant history, given as a number or in any spelling, is its own row 0, an
    expression history gets a column of its own for it."""
    calls = []
    kernel = integrator._rk4

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(integrator, "_rk4", counting)
    data = small_config(history=history)
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "out"), "--random-histories", "5", "--seed", "3"]) == 0
    assert len(calls) == 1 and len(calls[0][4]) == 6 + own_row0  # _rk4(spec, t0, t_end, h, histories)
    got = load_report(tmp_path / "out")["random_histories"]["min_uv"]

    monkeypatch.undo()
    spec, run = ModelSpec.from_strings(data["model"]), data["run"]
    hist = InitialHistory(*history.values())
    rows = np.vstack([[hist.phi1(0.0), hist.phi2(0.0)], np.random.default_rng(3).uniform(0.05, 2.0, size=(5, 2))])
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


def test_a_history_equal_to_the_attractivity_partner_is_one_column(tmp_path, monkeypatch):
    """A history equal to attractivity_history is one distinct history: the
    kernel integrates one column, not two, and the run writes what two
    bit-identical columns give, a zero distance beside the files and report
    of the same run without attractivity."""
    calls = []
    kernel = integrator._rk4

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(integrator, "_rk4", counting)
    data = short_preset("example2")
    data["history"] = {"phi1": 0.75, "phi2": 0.75}
    assert data["options"]["attractivity_history"] == [0.75, 0.75]
    report = run_pipeline(data, tmp_path / "same")
    assert len(calls) == 1 and len(calls[0][4]) == 1  # _rk4(spec, t0, t_end, h, histories)

    assert report["stability"].pop("attractivity") == {"final_distance": 0.0, "tail_nonincreasing": True,
                                                       "passed": True}
    distances = np.loadtxt(tmp_path / "same" / "attractivity.csv", delimiter=",", skiprows=1)[:, 1]
    assert not distances.any()
    off = dict(data, analyses=dict(data["analyses"], attractivity=False))
    other = run_pipeline(off, tmp_path / "off")
    for key in ("generated_at", "config"):
        del report[key], other[key]
    assert report == other
    for name in ("trajectories.csv", "fixedpoint.csv"):
        assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "off" / name).read_bytes(), name


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
    assert f"argument {flag}: must be > -1" in proc.stderr  # the rule of its options field
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--t-end", "inf"), ("--t-end", "1e400"), ("--h", "nan"), ("--h", "0"),
                                         ("--h", "-0.01")])
def test_a_bad_step_or_end_flag_exits_2_naming_the_flag(tmp_path, capsys, flag, value):
    """A non-finite --t-end or --h, or an --h <= 0, is refused as the flag,
    not as the config field it replaces: the file's values are valid."""
    cfg = write_config(tmp_path / "ex2.json", preset_config("example2"))
    with pytest.raises(SystemExit) as exc:
        main(["bounds", str(cfg), "--out", str(tmp_path / "out"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and "/run/" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", ["1000000000000000", "100001"])
def test_too_many_random_histories_exit_2_naming_the_flag(tmp_path, count):
    """Each random history is a column of knots: a count past the field's
    cap is refused as the flag, and one whose columns pass one run's
    10^7-knot bound (here 100 steps each) by load_config, before any search."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    cfg = write_config(tmp_path / "cfg.json", small_config())
    proc = subprocess.run([sys.executable, "-m", "lgholling", "simulate", str(cfg), "--out", str(tmp_path / "out"),
                           "--random-histories", count], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.endswith({
        "1000000000000000": "argument --random-histories: must be <= 10000000\n",
        "100001": "validation error: /options/random_histories: 100001 histories of 100 steps pass 10000000 knots\n",
    }[count])
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


_PLOT_HEAD_TEXT = """\
# gnuplot script for the emitted CSV series
set datafile separator ','
set key autotitle columnhead
set terminal pngcairo size 1200,500
"""
_PLOT_TEXT = {
    "trajectories": """\
set output 'trajectories.png'
plot 'trajectories.csv' using 1:2 with lines title 'u', \\
     'trajectories.csv' using 1:3 with lines title 'v'
""",
    "attractivity": """\
set output 'attractivity.png'
set logscale y
plot 'attractivity.csv' using 1:2 with lines title '|u_a-u_b|+|v_a-v_b|'
unset logscale y
""",
    "fixedpoint": """\
set output 'fixedpoint.png'
plot 'fixedpoint.csv' using 1:2 with lines title 'u*', \\
     'fixedpoint.csv' using 1:3 with lines title 'v*'
""",
}


@pytest.mark.parametrize("command, names", [
    ("run", ("trajectories", "attractivity", "fixedpoint")),
    ("simulate", ("trajectories",)),
    ("stability", ("trajectories", "attractivity")),
    ("fixed-point", ("trajectories", "fixedpoint")),
])
def test_plot_script_holds_one_plot_per_csv(tmp_path, command, names):
    """plots.gp is its fixed head, then one plot per CSV written, in the
    order the stages run, as text pinned from earlier releases."""
    cfg = write_config(tmp_path / "short.json", short_preset("example2"))
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.stem for p in (tmp_path / "out").glob("*.csv")) == sorted(names)
    script = (tmp_path / "out" / "plots.gp").read_bytes().decode("utf-8")
    assert script == _PLOT_HEAD_TEXT + "".join(_PLOT_TEXT[name] for name in names)


# fuzz mutations: a field of a config takes one of these values, or is deleted
_FUZZ_VALUES = [None, True, "x", "", "t", "1/0", "sqrt(-1)", "exp(1000)", "(-3.2)", "M1", [], [0.5, "x"],
                [1.0, 1.0], {}, -1, 0, 1, 3, -0.5, 0.25, 2.5, 1e300, -1e300, 10**400, math.nan, math.inf]
_DELETE = "<delete>"


def short_preset(name):
    """A preset config cut to a 4-unit run with coarse analysis grids."""
    data = preset_config(name)
    data["run"].update(t_end=4.0, t_settle=2.0, h=0.05)
    data["options"].update(bounds_horizon=20.0, liminf_t_max=10.0, liminf_points=11,
                           fp_t_hi=2.0, fp_max_iter=2)
    return data


def config_fields(node, path=()):
    """The path of every field below node, sections and list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from config_fields(value, path + (key,))


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning to the current stderr, as the interpreter does outside pytest."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


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


# a value at or past some boundary of every field kind: edges of the float
# range, an int past it, wrong types, and expressions that fail on [0, 4]
_BOUNDARY_VALUES = [0, -1, 5e-324, 1e-300, 1e300, 1.7e308, 10**400, None, True, "x", [], {}, [0.5, "x"],
                    "1/t", "sqrt(t-1)", "exp(t*1000)"]


def _refuse_constant(name):
    raise ValueError(f"report.json holds {name}")


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from([(section, key) for section, fields in _SCHEMA.items() for key in fields]),
       value=st.sampled_from(_BOUNDARY_VALUES))
def test_schema_field_at_a_boundary_keeps_the_exit_contract(field, value):
    """Any _SCHEMA field of the shortened example2 set to a boundary value:
    exit 0, 2 or 3 without a traceback, no file after 2 or 3, a report.json
    after 0 that is JSON without NaN or Infinity, and an exit 2 names a path
    in the field's section."""
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_mutated(Path(tmp), "example2", field, value, [])
        written = list((Path(tmp) / "out").rglob("*"))
        if code == 0:
            json.loads((Path(tmp) / "out" / "report.json").read_text(encoding="utf-8"), parse_constant=_refuse_constant)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert code == 0 or not written
    if code == 2:
        assert err.startswith(f"validation error: /{field[0]}"), err


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
    # --t-end moves a t_settle past it only when t0 and t_settle are numbers: a malformed one is still named
    (("run", "t_settle"), True, ["--t-end", "1"], 2, "/run/t_settle: expected a number"),
    (("run", "t_settle"), math.inf, ["--t-end", "1"], 2, "/run/t_settle: expected a finite number"),
    (("run", "t0"), 10**400, ["--t-end", "1"], 2, "/run/t0: expected a finite number"),
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
    # the last knot 0.30000000000000004 lies past t_end: the window [0.29, 0.3] holds it alone
    (("run",), dict(t0=0.0, t_end=0.3, h=0.1, t_settle=0.29), [], 2, "/run/t_settle: window [0.29, 0.3] holds 1 knot"),
    # the last knot 0.999999999999 falls short of t_end by more than an ulp, and t_settle lies past it
    (("run",), dict(t0=0.0, t_end=1.0, h=0.0999999999999, t_settle=0.9999999999995), [], 2,
     "/run/t_settle: window [0.9999999999995, 1.0] is empty"),
    (("table_bounds",), dict(preset_config("example2")["table_bounds"], b_sup=5e-324, k1_inf=0.5), [], 2,
     "/table_bounds: permanence formulas need positive"),  # b^s k1^i underflows to 0
    (("table_bounds", "a2_inf"), 1.7e308, [], 3, "overflow: permanence box not finite"),  # m2 = inf
    (("table_bounds", "a1_inf"), 5e-324, [], 3, "a^i tail_tol must be positive and finite"),  # Υ's decay rate
    # fp_step 0.1 is below the float spacing 0.125 at t0 = 1e15: the fixed-point grid times would repeat
    (("run",), dict(t0=1e15, t_end=1e15 + 50, h=0.125), [], 2, "/options/fp_step: must exceed 0.5"),
    # lag-inverse brackets near the top of the float range hold fewer than 64 floats: refused with no overflow
    (("options", "liminf_t_max"), 1.7e308, [], 3, "is too large to resolve its lag inverse in floats"),
    (("options", "liminf_t_max"), 1e15, [], 3, "is too large to resolve its lag inverse in floats"),
], ids=["negative-c1", "phi1-zero-at-0", "phi1-huge-int", "t_end-huge", "fp_step-huge", "b_inf-zero",
        "a1_inf-missing", "a2_sup-huge", "run-not-object", "options-not-object", "t_settle-bool-t_end",
        "t_settle-inf-t_end", "t0-huge-int-t_end", "t_settle-one-knot",
        "h-not-dividing", "exponent-infinite", "unary-minus-3000", "sum-5000", "t-sum-5000", "parens-400", "text-80k",
        "a2_inf-zero", "a2_inf-negative", "a1_inf-negative", "tau2_sup-negative", "fp_quad_step-not-dividing",
        "fp_step-not-dividing", "k1_inf-tiny", "t_settle-last-knot-past-t_end",
        "t_settle-past-the-last-knot", "b_sup-k1_inf-underflow",
        "a2_inf-max", "a1_inf-denormal", "t0-1e15", "liminf_t_max-max", "liminf_t_max-1e15"])
def test_fuzz_findings_exit_cleanly(tmp_path, path, value, flags, code, named):
    """Mutations that once ended in a traceback, in an error naming no field
    or in a raw numpy warning.  A failed run writes no file, whichever stage
    it stops in."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        got, err = run_mutated(tmp_path, "example2", path, value, flags)
    assert (got, "Traceback" in err, "RuntimeWarning" in err) == (code, False, False)
    assert named in err
    assert not list((tmp_path / "out").rglob("*"))


def test_bounds_reads_the_last_knot_past_t_end(tmp_path):
    """3 * 0.1 rounds past t_end = 0.3: bounds checks the window [0.29, 0.3]
    on that one knot and exits 0, where pap-check refuses it (above)."""
    data = short_preset("example2")
    data["run"] = dict(t0=0.0, t_end=0.3, h=0.1, t_settle=0.29)
    cfg = write_config(tmp_path / "last.json", data)
    assert main(["bounds", str(cfg), "--out", str(tmp_path / "out")]) == 0
    observed = load_report(tmp_path / "out")["permanence"]["verification"]["observed"]
    assert observed["u_min"] == observed["u_max"] and observed["v_min"] == observed["v_max"]


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


@pytest.mark.parametrize("key, value, leaf", [
    ("c2_inf", 1.7e308, lambda r: [d["relative_gap"] for d in r["discrepancies"] if d["quantity"] == "beta_inf"][0]),
    ("a2_inf", 1e150, lambda r: r["fixed_point"]["residual"]),
], ids=["beta-gap-overflows", "residual-overflows"])
def test_a_value_that_overflows_is_reported_as_null(tmp_path, key, value, leaf):
    """Extreme table bounds make beta's relative gap to its published value,
    or the Picard residual, overflow: the report holds null there, and stays
    JSON without Infinity, with no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_mutated(tmp_path, "example2", ("table_bounds", key), value, [])
    assert (code, err) == (0, "")
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"), parse_constant=_refuse_constant)
    assert leaf(report) is None


def test_t_end_override_keeps_t_settle_after_t0(tmp_path):
    """--t-end moves a t_settle it passes to the new run's midpoint, from t0."""
    data = short_preset("example2")
    data["run"]["t0"] = 1.5
    cfg = write_config(tmp_path / "t0.json", data)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--t-end", "2"]) == 0
    assert load_report(tmp_path / "out")["config"]["run"]["t_settle"] == 1.75


def test_load_config_returns_the_schema_sections_and_output_dir():
    assert set(load_config(small_config())) == set(_SCHEMA) | {"output_dir"}


def assert_same_outputs(first: Path, again: Path) -> list[str]:
    """The two output directories hold the same files, byte for byte apart
    from report.json's generated_at; returns their names."""
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        a, b = ((d / name).read_bytes() for d in (first, again))
        if name == "report.json":
            a, b = (re.sub(rb'"generated_at": "[^"]*"', b"", text) for text in (a, b))
        assert a == b, name
    return names


def test_echoed_config_holds_every_default_and_reruns_the_run(tmp_path):
    """report.json's config is the checked config: a config without options
    or analyses echoes each of their defaults, and rerunning the echo
    writes the same five files.  A simulate run's echo holds its random
    histories too, and reruns to the same files, their min_uv included."""
    data = preset_config("example2")
    del data["options"], data["analyses"]
    run_pipeline(data, tmp_path / "first")
    config = load_report(tmp_path / "first")["config"]
    assert config["options"] == {key: field.default for key, field in _SCHEMA["options"].items()}
    assert config["analyses"] == dict.fromkeys(_SCHEMA["analyses"], True)
    assert len(config["options"]) == 16 and len(config["analyses"]) == 5
    run_pipeline(config, tmp_path / "again")
    assert len(assert_same_outputs(tmp_path / "first", tmp_path / "again")) == 5

    cfg = write_config(tmp_path / "cfg.json", short_preset("example2"))
    assert main(["simulate", str(cfg), "--random-histories", "5", "--seed", "3", "--out", str(tmp_path / "sim")]) == 0
    config = load_report(tmp_path / "sim")["config"]
    assert (config["options"]["random_histories"], config["options"]["random_seed"]) == (5, 3)
    run_pipeline(config, tmp_path / "sim-again")
    assert assert_same_outputs(tmp_path / "sim", tmp_path / "sim-again") == ["plots.gp", "report.json",
                                                                             "trajectories.csv"]
    assert load_report(tmp_path / "sim-again")["random_histories"]["min_uv"] > 0.0


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_preset_config_is_the_config_its_run_echoes(request, name):
    """preset_config returns the checked config: a run of the preset echoes
    it unchanged, key order included, and each call builds a new one."""
    report, _ = request.getfixturevalue(f"{name}_run")  # run_pipeline(preset_config(name), out)
    config = preset_config(name)
    assert report["config"] == config and json.dumps(report["config"]) == json.dumps(config)
    config["model"]["a1"] = "1"
    config["options"]["attractivity_history"].append(1.0)
    assert preset_config(name) == report["config"] and preset_config(name) is not preset_config(name)


def test_presets_state_no_option_or_analysis_at_its_default():
    """A preset states only its own choices: no option or analysis switch
    it gives repeats its _SCHEMA default."""
    for name, preset in _PRESETS.items():
        for section in ("options", "analyses"):
            for key, value in preset.get(section, {}).items():
                assert value != _SCHEMA[section][key].default, (name, section, key)


def test_editing_the_echoed_config_leaves_the_defaults_alone(tmp_path):
    report = run_pipeline(small_config(), tmp_path)
    report["config"]["options"]["attractivity_history"][0] = 2.0
    assert load_config(small_config())["options"]["attractivity_history"] == [0.75, 0.75]


def _keys(node):
    """Every key of a JSON tree, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for item in node:
            yield from _keys(item)


def test_report_sections_do_not_restate_the_config(example1_run, example2_run):
    """Each setting lives once, in the echoed config; the sections hold what
    the run computed, and no leaf repeats another: the table's box, the
    active source, the coefficient texts, the attractivity histories and
    the audit's second column are gone at every depth."""
    for report, _ in (example1_run, example2_run):
        assert not {"from_table", "active_source", "source", "histories", "computed_alt"} & set(_keys(report))
        assert not {"bounds_horizon", "positive"} & report["model"].keys()
        assert not {"window", "slack"} & report["permanence"]["verification"].keys()
        assert "beta_denominator" not in report["stability"]
        assert not {"t_end", "threshold"} & report["stability"]["attractivity"].keys()
        assert not {"grid", "tol", "quad_step", "tail_tol", "converged"} & report["fixed_point"].keys()
        assert "window" not in report["pap"]


def test_cli_overrides_equal_run_pipeline_on_the_overridden_config(tmp_path):
    """bounds --t-end --h through main, and run_pipeline on the config those
    flags describe, write the same files apart from generated_at."""
    data = short_preset("example2")
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["bounds", str(cfg), "--t-end", "1.5", "--h", "0.025", "--out", str(tmp_path / "cli")]) == 0
    data["analyses"] = {key: key == "bounds" for key in _SCHEMA["analyses"]}
    data["run"].update(t_end=1.5, h=0.025, t_settle=0.75)  # t_settle 2.0 moves to the new midpoint
    run_pipeline(data, str(tmp_path / "lib"))  # a str out_dir is a path as well
    assert_same_outputs(tmp_path / "cli", tmp_path / "lib")


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


def test_a_non_string_output_dir_is_refused():
    with pytest.raises(ConfigError, match="^/output_dir: expected a string path$"):
        load_config(small_config(output_dir=3))


def test_an_unknown_preset_is_refused(tmp_path, capsys):
    with pytest.raises(KeyError, match="unknown preset 'nope'; choose from example1, example2"):
        preset_config("nope")
    with pytest.raises(SystemExit) as exc:
        main(["preset", "nope", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_history_past_the_log_state_guard_at_t0_exits_3_naming_t0(tmp_path, capsys):
    data = short_preset("example2")
    data["history"]["phi1"] = 1.7976931348623157e308
    cfg = write_config(tmp_path / "overflow.json", data)
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "numerical failure: log-state overflow at t=0.0\n"
    assert not (tmp_path / "out").exists()
