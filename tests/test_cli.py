import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lgholling import ConfigError, load_config, run_config
from lgholling.cli import main
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


def test_run_config_equals_preset(tmp_path, example2_run):
    report_preset, _ = example2_run
    cfg = tmp_path / "ex2.json"
    cfg.write_text(json.dumps(preset_config("example2")), encoding="utf-8")
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


def test_emit_report_rejects_bare_report(tmp_path):
    from lgholling import emit_report
    with pytest.raises(ConfigError, match="nothing to report"):
        emit_report({"generated_at": "x", "config": {}, "model": {}}, tmp_path)


def test_step_above_delay_exits_3(tmp_path, capsys):
    data = small_config()
    data["run"]["h"] = 0.7  # exceeds the 0.5 delays
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "smallest delay" in err and "hint" in err


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
])
def test_malformed_value_exits_2_naming_its_path(tmp_path, capsys, section, key, value):
    data = small_config()
    data.setdefault(section, {})[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"/{section}/{key}" in err and "Traceback" not in err


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


def test_config_validation_exits_2(tmp_path, capsys):
    data = small_config()
    del data["model"]["c2"]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "/model/c2" in capsys.readouterr().err


def test_nonpositive_coefficient_exits_2(tmp_path, capsys):
    data = small_config()
    data["model"]["b"] = "cos(t)"  # crosses zero
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "coefficient b" in capsys.readouterr().err


def test_pipeline_accepts_expression_history(tmp_path):
    data = small_config()
    data["history"] = {"phi1": "0.5 + 0.1*cos(t)", "phi2": 0.4}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = load_report(tmp_path / "out")
    assert report["permanence"]["verification"]["observed"]["u_min"] > 0.0


def test_cli_run_small_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = load_report(tmp_path / "out")
    assert report["permanence"]["M1"] == pytest.approx(1.0, abs=1e-9)


def test_cli_simulate_with_random_histories(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()), encoding="utf-8")
    code = main(["simulate", str(cfg), "--out", str(tmp_path / "out"),
                 "--random-histories", "5", "--seed", "3"])
    assert code == 0
    report = load_report(tmp_path / "out")
    assert report["random_histories"]["all_positive"] is True
    assert report["random_histories"]["count"] == 5
    assert "permanence" not in report


def test_cli_single_analysis_subcommands(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()), encoding="utf-8")
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
