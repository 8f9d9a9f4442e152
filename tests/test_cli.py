"""End-to-end tests for the command-line front end."""

import csv
import math
import struct
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import yaml

from evoris import cli
from evoris.channel import sample_episodes
from evoris.cli import main
from evoris.harness import (config_from_mapping, export_channel_trace,
                            load_config, save_config)
from evoris.numerics import make_rng


@pytest.fixture()
def config_path(tmp_path):
    cfg = config_from_mapping({
        "scenario": {"n_tx": 2, "n_ris": 4, "horizon": 3, "episodes": 2},
        "arch": {"codebook_size": 2},
        "evo": {"l_pop": 4, "generations": 1, "t_e_train": 2},
        "lga": {"individuals": 4, "generations": 2},
        "eval_episodes": 2,
        "seed": 7,
        "policy": "random",
    })
    path = tmp_path / "config.yaml"
    save_config(cfg, path)
    return path


def test_train_random_policy(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    assert "random-seed7" in capsys.readouterr().out
    assert (out / "metrics.csv").exists()


def test_oracle_command_forces_policy(config_path, capsys):
    rc = main(["oracle", "--config", str(config_path)])
    assert rc == 0
    assert "oracle-seed7" in capsys.readouterr().out


def test_train_then_eval_genome(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--config", str(config_path), "--out", str(out),
               "--policy", "attention"])
    assert rc == 0
    trained = capsys.readouterr().out
    rc = main(["eval", "--config", str(config_path), "--policy", "attention",
               "--genome", str(out / "train" / "best.genome")])
    assert rc == 0
    # deterministic eval over the same seeds reproduces the trained metrics
    evaluated = capsys.readouterr().out
    assert evaluated.split(": ", 1)[1] == trained.split(": ", 1)[1]


def test_sweep_command(config_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(config_path), "--out", str(out),
               "--param", "scenario.tx_power_dbm", "--values", "10, 20"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert (out / "plot_scenario_tx_power_dbm.csv").exists()


def test_import_trace_reports_shape(config_path, tmp_path, capsys):
    from evoris.harness import load_config
    scenario = load_config(config_path).scenario
    trace = sample_episodes(scenario, 2, 3, make_rng(0))
    path = tmp_path / "eps.trace"
    export_channel_trace(path, trace)
    rc = main(["import-trace", "--trace", str(path),
               "--config", str(config_path)])
    assert rc == 0
    assert "2 episodes x 3 steps" in capsys.readouterr().out


def test_missing_config_is_an_error(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_bad_param_is_an_error(config_path, capsys):
    rc = main(["sweep", "--config", str(config_path),
               "--param", "scenario.bandwidth", "--values", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_import_trace_dim_mismatch_is_an_error(config_path, tmp_path, capsys):
    other = config_from_mapping({
        "scenario": {"n_tx": 2, "n_ris": 5, "horizon": 3, "episodes": 2},
        "arch": {"codebook_size": 2},
    })
    trace = sample_episodes(other.scenario, 1, 2, make_rng(1))
    path = tmp_path / "eps.trace"
    export_channel_trace(path, trace)
    rc = main(["import-trace", "--trace", str(path),
               "--config", str(config_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_dead_fitness_worker_is_one_error_line(config_path, tmp_path, monkeypatch,
                                               capsys, command):
    def broken(*_args, **_kwargs):
        raise BrokenProcessPool("A process in the process pool was terminated "
                                "abruptly while the future was running or pending.")

    monkeypatch.setattr(cli, "run_experiment", broken)
    monkeypatch.setattr(cli, "sweep", broken)
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "run"),
            "--policy", "attention", "--workers", "2"]
    if command == "sweep":
        argv += ["--param", "scenario.tx_power_dbm", "--values", "10"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: a fitness worker process died")


def test_eval_non_finite_genome_is_one_error_line(config_path, tmp_path, capsys):
    from evoris.harness import load_config
    from evoris.policy import config_signature

    arch = load_config(config_path).arch
    w = np.zeros(arch.genome_size)
    w[[5, 9]] = [np.nan, np.inf]
    path = tmp_path / "nan.genome"
    # save_genome refuses this payload, so the file's bytes are written here
    path.write_bytes(b"EVGENOM1" + struct.pack("<I", 1) + config_signature(arch)
                     + struct.pack("<Q", w.size) + w.astype("<f8").tobytes())
    rc = main(["eval", "--config", str(config_path), "--policy", "attention",
               "--genome", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert str(path) in lines[0] and "weight 5 " in lines[0]


def one_error_line(capsys, out):
    """The captured run printed nothing but one ``error:`` line and wrote nothing."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out.exists()
    return lines[0]


@pytest.mark.parametrize("field,value", [
    ("eval_episodes", "many"), ("runs", 2.5), ("seed", "abc"), ("oracle_cap", "big"),
    ("runs", True),
])
def test_non_integer_top_level_scalar_is_one_error_line(config_path, tmp_path, capsys,
                                                        field, value):
    data = yaml.safe_load(config_path.read_text())
    data[field] = value
    config_path.write_text(yaml.safe_dump(data))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(config_path), "--out", str(out),
               "--policy", "attention"])
    assert rc == 1
    line = one_error_line(capsys, out)
    assert line.startswith(f"error: {field}: expected an integer, got {value!r}")


@pytest.mark.parametrize("env,flag,source", [
    ("two", None, "EVORIS_WORKERS: expected an integer, got 'two'"),
    ("0", None, "EVORIS_WORKERS: must be >= 1, got 0"),
    (None, "0", "workers: must be >= 1, got 0"),
    ("4", "-5", "workers: must be >= 1, got -5"),
])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_bad_worker_count_is_one_error_line(config_path, tmp_path, monkeypatch, capsys,
                                            command, env, flag, source):
    # the count is refused before a run starts, so no worker process is made
    monkeypatch.delenv("EVORIS_WORKERS", raising=False)
    if env is not None:
        monkeypatch.setenv("EVORIS_WORKERS", env)
    out = tmp_path / "run"
    argv = [command, "--config", str(config_path), "--out", str(out),
            "--policy", "attention"]
    if flag is not None:
        argv += ["--workers", flag]
    if command == "sweep":
        argv += ["--param", "scenario.tx_power_dbm", "--values", "10"]
    assert main(argv) == 1
    assert one_error_line(capsys, out) == f"error: {source}"


@pytest.mark.parametrize("policy", ["ff", "lga", "random", "oracle"])
def test_phase_levels_of_a_binary_kind_are_one_error_line(config_path, tmp_path, capsys,
                                                          policy):
    data = yaml.safe_load(config_path.read_text())
    data["arch"]["phase_states"] = 4
    config_path.write_text(yaml.safe_dump(data))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(config_path), "--out", str(out),
               "--policy", policy])
    assert rc == 1
    assert one_error_line(capsys, out).startswith("error: arch.phase_states: 4 ")


COUNT, RATE = "an integer", "a finite real number"
FLAG, KAPPA = "true or false", "a finite real number or -inf"


@pytest.mark.parametrize("section,field,value,expected", [
    ("lga", "individuals", 2.5, COUNT), ("lga", "generations", 1.5, COUNT),
    ("lga", "n_parents", 3.0, COUNT), ("lga", "individuals", True, COUNT),
    ("lga", "p_mut", "0.1", RATE), ("evo", "l_pop", 8.5, COUNT),
    ("evo", "generations", 2.5, COUNT), ("evo", "t_e_train", 1.5, COUNT),
    ("evo", "sigma_mut", "0.2", RATE), ("evo", "p_mut", float("nan"), RATE),
    ("evo", "frozen_episodes", "no", FLAG), ("evo", "permutation_enabled", 0.0, FLAG),
    ("arch", "direct_branch", "no", FLAG), ("arch", "conv_channels", [8.7, 8], COUNT),
    ("arch", "phase_hidden", [16.5], COUNT), ("arch", "precoder_hidden", 64.5, COUNT),
    ("arch", "conv_kernel", 3.0, COUNT), ("arch", "codebook_size", 4.0, COUNT),
    ("arch", "conv_channels", "88", "a list of 2 values"),
    ("scenario", "horizon", 50.5, COUNT), ("scenario", "episodes", 2.5, COUNT),
    ("scenario", "direct_blocked", "no", FLAG), ("scenario", "kappa_h2_db", "10", KAPPA),
    ("scenario", "tx_power_dbm", float("nan"), RATE), ("scenario", "n_ris", 16.0, COUNT),
    ("scenario", "n_tx", True, COUNT), ("scenario", "kappa_h2_db", float("inf"), KAPPA),
    ("scenario", "kappa_h_db", float("inf"), KAPPA),
    ("scenario", "direct_attenuation_db", float("-inf"), RATE),
    ("aggregator", "hidden", 16.5, COUNT), (None, "out_dir", 5, "a string"),
])
def test_non_numeric_search_setting_is_one_error_line(config_path, tmp_path, capsys,
                                                      section, field, value, expected):
    data = yaml.safe_load(config_path.read_text())
    (data if section is None else data.setdefault(section, {}))[field] = value
    config_path.write_text(yaml.safe_dump(data))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(config_path), "--out", str(out),
               "--policy", "lga" if section == "lga" else "attention"])
    assert rc == 1
    name = field if section is None else f"{section}.{field}"
    got = value[0] if isinstance(value, list) else value   # the list's first element is bad
    assert one_error_line(capsys, out) == f"error: {name}: expected {expected}, got {got!r}"


def test_rayleigh_ris_rx_link_trains_and_evaluates(config_path, tmp_path, capsys):
    # a Ricean factor of -inf dB is the one infinity a config takes: no line of sight
    data = yaml.safe_load(config_path.read_text())
    data["scenario"]["kappa_h2_db"] = float("-inf")
    config_path.write_text(yaml.safe_dump(data))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(config_path), "--out", str(out),
               "--policy", "attention"])
    assert rc == 0
    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        row, = csv.DictReader(fh)
    assert math.isfinite(float(row["mean_snr_db"]))
    resolved = load_config(out / "config_resolved.yaml")
    assert resolved.scenario.kappa_h2_db == float("-inf")


def test_sweep_value_no_is_not_a_flag(config_path, tmp_path, capsys):
    # command-line values read YAML 1.2 booleans: only true and false
    out = tmp_path / "run"
    rc = main(["sweep", "--config", str(config_path), "--out", str(out),
               "--param", "evo.frozen_episodes", "--values", "no"])
    assert rc == 1
    assert one_error_line(capsys, out) == \
        "error: evo.frozen_episodes: expected true or false, got 'no'"


@pytest.mark.parametrize("values,entry", [
    ("[1,2", "'[1,2'"), ("10, {a", "'10, {a'"), ("*x", "'*x'"), ("\x01", "'\\x01'"),
])
def test_malformed_sweep_value_is_one_error_line(config_path, tmp_path, capsys, values,
                                                 entry):
    # an argument that is not one YAML flow sequence is named before anything runs
    out = tmp_path / "run"
    rc = main(["sweep", "--config", str(config_path), "--out", str(out),
               "--param", "scenario.n_ris", "--values", values])
    assert rc == 1
    assert one_error_line(capsys, out).startswith(
        f"error: sweep --values: {entry} is not a comma-separated list of YAML values (")


def test_list_sweep_value_for_an_integer_field_is_one_error_line(config_path, tmp_path,
                                                                 capsys):
    # "[8,8]" is one list value, which the field refuses before anything runs
    out = tmp_path / "run"
    rc = main(["sweep", "--config", str(config_path), "--out", str(out),
               "--param", "scenario.n_ris", "--values", "[8,8]"])
    assert rc == 1
    assert one_error_line(capsys, out) == \
        "error: scenario.n_ris: expected an integer, got [8, 8]"


def test_sweep_of_a_list_valued_field(config_path, tmp_path, capsys):
    # each position keeps its commas, and the CSV cells that hold one read back
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(config_path), "--out", str(out),
               "--param", "scenario.tx_position", "--values", "[0,0,2],[0,0,2.5]"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    points = ["[0, 0, 2]", "[0, 0, 2.5]"]
    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["param_value"] for row in rows] == points
    assert [row["run_id"] for row in rows] == [
        f"random-seed7-scenario.tx_position={p}" for p in points]
    assert all(None not in row and math.isfinite(float(row["mean_snr_db"]))
               for row in rows)
    with open(out / "plot_scenario_tx_position.csv", newline="", encoding="utf-8") as fh:
        header, *plot = csv.reader(fh)
    assert header == ["param_value", "policy", "mean_snr_db", "mean_rate", "std_err"]
    assert [row[:2] for row in plot] == [[p, "random"] for p in points]
    assert [row[2] for row in plot] == [row["mean_snr_db"] for row in rows]
    assert all(len(row) == len(header) for row in plot)


@pytest.mark.parametrize("field,value", [
    ("arch", 7), ("aggregator", 5), ("ff_hidden", 5), ("ff_hidden", ["x"]),
    ("ff_hidden", [0]), ("ff_hidden", [8.7]),
])
def test_malformed_config_field_is_one_error_line(config_path, tmp_path, capsys, field,
                                                  value):
    data = yaml.safe_load(config_path.read_text())
    data[field] = value
    config_path.write_text(yaml.safe_dump(data))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(config_path), "--out", str(out),
               "--policy", "ff"])
    assert rc == 1
    assert one_error_line(capsys, out).startswith(f"error: {field}: ")
