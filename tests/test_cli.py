"""End-to-end tests for the command-line front end."""

import struct
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import yaml

from evoris import cli
from evoris.channel import sample_episodes
from evoris.cli import main
from evoris.harness import (config_from_mapping, export_channel_trace,
                            save_config)
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
