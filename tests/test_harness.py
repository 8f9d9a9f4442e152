"""Tests for the config-driven experiment runner.

Covers config round-trips and validation messages, metric-file byte
reproducibility, oracle dominance on a tiny scenario, sweeps, plot data,
and the binary channel-trace interchange format.
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evoris import harness
from evoris.channel import sample_episodes
from evoris.cosyne import evaluate_fitness
from evoris.harness import (ConfigError, ExperimentConfig, MetricRecord,
                            METRIC_COLUMNS, config_from_mapping,
                            config_to_mapping, evaluate_genome,
                            export_channel_trace, export_results,
                            import_channel_trace, load_config, run_experiment,
                            save_config, set_config_parameter, sweep,
                            trained_policy_configs)
from evoris.baselines import lga_solve, random_baseline
from evoris.numerics import derive_rng, make_rng
from evoris.policy import forward
from evoris.system import evaluation_codebook, link_budget_from, snr


def tiny_mapping(**overrides):
    base = {
        "scenario": {"n_tx": 2, "n_ris": 4, "horizon": 3, "episodes": 2},
        "arch": {"codebook_size": 2},
        "evo": {"l_pop": 4, "generations": 1, "t_e_train": 2},
        "lga": {"individuals": 4, "generations": 2},
        "ff_hidden": [16, 16],
        "eval_episodes": 2,
        "seed": 7,
        "policy": "random",
    }
    base.update(overrides)
    return base


def tiny_config(**overrides) -> ExperimentConfig:
    return config_from_mapping(tiny_mapping(**overrides))


# -- config layer ---------------------------------------------------------------

def test_config_defaults_arch_from_scenario():
    cfg = config_from_mapping({"scenario": {"n_tx": 4, "n_ris": 9}})
    assert cfg.arch.n_tx == 4
    assert cfg.arch.n_ris == 9
    assert cfg.arch.codebook_size == 4
    # a scenario-only mapping picks up the stock trainer settings
    assert cfg.evo.l_pop == 100
    assert cfg.evo.sigma_mut == 0.2
    assert cfg.evo.p_mut == 0.3
    assert cfg.evo.generations == 25


def test_config_invalid_p_mut_names_field():
    with pytest.raises(ConfigError) as err:
        config_from_mapping(tiny_mapping(evo={"l_pop": 4, "p_mut": 1.5}))
    assert "evo" in str(err.value) and "p_mut" in str(err.value)



def test_config_malformed_position_names_scenario_and_field():
    with pytest.raises(ConfigError) as err:
        config_from_mapping(tiny_mapping(scenario={"n_tx": 2, "n_ris": 4,
                                                   "tx_position": [0.0, 0.0]}))
    assert str(err.value).startswith("scenario.tx_position: ")

def test_config_rejects_unknown_top_level():
    with pytest.raises(ConfigError) as err:
        config_from_mapping(tiny_mapping(metrics="everything"))
    assert "metrics" in str(err.value)


def test_config_rejects_unknown_policy():
    with pytest.raises(ConfigError):
        tiny_config(policy="dqn")


def test_config_rejects_dim_mismatch():
    with pytest.raises(ConfigError) as err:
        config_from_mapping(tiny_mapping(arch={"n_tx": 3, "codebook_size": 2}))
    assert "arch.n_tx" in str(err.value)


@pytest.mark.parametrize("policy", ["ff", "ff_cent", "lga", "random", "oracle"])
def test_config_refuses_phase_levels_a_kind_cannot_decide(policy):
    with pytest.raises(ConfigError) as err:
        tiny_config(policy=policy, arch={"codebook_size": 2, "phase_states": 4})
    assert str(err.value).startswith("arch.phase_states: 4 ")
    assert repr(policy) in str(err.value)
    # a sweep onto such a pairing is refused the same way
    with pytest.raises(ConfigError, match="arch.phase_states"):
        set_config_parameter(tiny_config(policy=policy), "arch.phase_states", 4)
    # binary phases stay accepted, and so do more levels for the attention policy
    assert tiny_config(policy=policy).arch.phase_states == 2
    assert tiny_config(policy="attention",
                       arch={"codebook_size": 2, "phase_states": 4}).arch.phase_states == 4


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_round_trip(tmp_path, path):
    first, second = tmp_path / "first.yaml", tmp_path / "second.yaml"
    save_config(load_config(path), first)
    save_config(load_config(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_numpy_numbers_are_accepted_and_saved_as_python_numbers(tmp_path):
    n = np.int64
    mapping = tiny_mapping(
        scenario={"n_tx": n(2), "n_ris": n(4), "horizon": n(3), "episodes": n(2),
                  "tx_power_dbm": np.float64(17.0)},
        arch={"codebook_size": n(2), "conv_channels": [n(4), n(4)]},
        evo={"l_pop": n(4), "generations": n(1), "t_e_train": n(2)},
        lga={"individuals": n(4), "generations": n(2), "n_parents": n(2)},
        aggregator={"hidden": n(8)}, ff_hidden=[n(16)], seed=n(7), oracle_cap=n(64))
    path = tmp_path / "config.yaml"
    save_config(config_from_mapping(mapping), path)
    loaded = load_config(path)
    counts = [loaded.scenario.n_tx, *loaded.arch.conv_channels, loaded.evo.l_pop,
              loaded.lga.n_parents, loaded.aggregator.hidden, *loaded.ff_hidden,
              loaded.seed, loaded.oracle_cap]
    assert counts == [2, 4, 4, 4, 2, 8, 16, 7, 64]
    assert all(type(v) is int for v in counts)
    assert type(loaded.scenario.tx_power_dbm) is float
    assert loaded.scenario.tx_power_dbm == 17.0


@pytest.mark.parametrize("section", ["scenario", "arch", "evo", "lga", "aggregator"])
def test_config_section_refuses_unknown_field(section):
    mapping = tiny_mapping(aggregator={})
    mapping[section]["bandwidth"] = 20.0
    with pytest.raises(ConfigError,
                       match=re.escape(f"{section}: unknown fields: ['bandwidth']")):
        config_from_mapping(mapping)


def test_config_aggregator_defaults():
    mapping = tiny_mapping(aggregator={})
    mapping["scenario"].update(
        ris_count=2, ris_positions=[[3.0, 3.0, 2.0], [6.0, 6.0, -2.0]])
    cfg = config_from_mapping(mapping)
    assert cfg.aggregator.ris_count == 2
    assert cfg.aggregator.codebook_size == cfg.arch.codebook_size


def test_trained_policy_configs_ff_multi_ris_rejected():
    mapping = tiny_mapping(policy="ff")
    mapping["scenario"].update(
        ris_count=2, ris_positions=[[3.0, 3.0, 2.0], [6.0, 6.0, -2.0]])
    cfg = config_from_mapping(mapping)
    with pytest.raises(ConfigError) as err:
        trained_policy_configs(cfg)
    assert "ff_cent" in str(err.value)


def test_set_config_parameter_dotted_path():
    cfg = tiny_config()
    out = set_config_parameter(cfg, "scenario.tx_power_dbm", 17.0)
    assert out.scenario.tx_power_dbm == 17.0
    assert cfg.scenario.tx_power_dbm == 30.0
    with pytest.raises(ConfigError):
        set_config_parameter(cfg, "scenario.bandwidth", 1.0)



@pytest.mark.parametrize("parameter,values", [("scenario.n_ris", [9, 6]),
                                              ("scenario.n_tx", [3, 4])])
def test_sweep_over_array_sizes_rederives_arch(parameter, values):
    cfg = tiny_config(policy="random")
    records = sweep(cfg, parameter, values)
    assert [r.param_value for r in records] == values
    assert all(np.isfinite(r.mean_snr_db) for r in records)
    leaf = parameter.split(".")[1]
    for value in values:
        point = set_config_parameter(cfg, parameter, value)
        assert getattr(point.scenario, leaf) == getattr(point.arch, leaf) == value
        assert point.arch.codebook_size == cfg.arch.codebook_size
    with pytest.raises(ConfigError, match="codebook_size"):
        set_config_parameter(cfg, "scenario.n_tx", 1)

# -- run_experiment ---------------------------------------------------------------

def test_random_policy_produces_record(tmp_path):
    cfg = tiny_config(policy="random", out_dir=str(tmp_path / "r"))
    records = run_experiment(cfg)
    assert len(records) == 1
    rec = records[0]
    assert rec.policy == "random"
    assert rec.evaluations == 2 * 3  # eval episodes x horizon
    assert np.isfinite(rec.mean_rate)
    assert (tmp_path / "r" / "metrics.csv").exists()
    assert (tmp_path / "r" / "run.json").exists()
    assert (tmp_path / "r" / "config_resolved.yaml").exists()


def test_metrics_csv_byte_identical(tmp_path):
    cfg_a = tiny_config(policy="lga", out_dir=str(tmp_path / "a"))
    cfg_b = tiny_config(policy="lga", out_dir=str(tmp_path / "b"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b


def test_oracle_dominates_all_policies():
    means = {}
    for policy in ("oracle", "random", "lga", "attention", "ff"):
        records = run_experiment(tiny_config(policy=policy))
        means[policy] = records[0].mean_snr_db
    for policy in ("random", "lga", "attention", "ff"):
        assert means["oracle"] >= means[policy]


def test_multiple_runs_get_distinct_ids(tmp_path):
    cfg = tiny_config(policy="random", runs=2)
    records = run_experiment(cfg)
    assert len(records) == 2
    assert records[0].run_id != records[1].run_id


def test_trained_run_writes_training_artifacts(tmp_path):
    cfg = tiny_config(policy="attention", out_dir=str(tmp_path / "t"))
    records = run_experiment(cfg)
    assert len(records) == 1
    assert (tmp_path / "t" / "train" / "best.genome").exists()
    assert (tmp_path / "t" / "train" / "history.csv").exists()


def test_trained_run_fails_fast_when_population_cannot_fit(tmp_path, monkeypatch):
    available = harness._mem_available_bytes()
    assert available is None or available > 0
    cfg = tiny_config(policy="attention", out_dir=str(tmp_path / "t"))
    policy_cfg, _ = trained_policy_configs(cfg)
    need = cfg.evo.l_pop * policy_cfg.genome_size * 8
    monkeypatch.setattr(harness, "_mem_available_bytes", lambda: need - 1)
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    assert "GB" in str(err.value) and "evo.l_pop" in str(err.value)
    assert not (tmp_path / "t").exists()  # nothing written
    # untrained kinds hold no population and are not checked
    run_experiment(tiny_config(policy="random"))
    # an exact fit, or an unreadable free-memory figure, lets training run
    for figure in (need, None):
        monkeypatch.setattr(harness, "_mem_available_bytes", lambda: figure)
        assert len(run_experiment(tiny_config(policy="attention"))) == 1


# -- evaluate_genome -----------------------------------------------------------

def test_evaluate_genome_round_trip(tmp_path):
    cfg = tiny_config(policy="attention", out_dir=str(tmp_path / "t"))
    trained = run_experiment(cfg)
    cfg_eval = tiny_config(policy="attention")
    records = evaluate_genome(cfg_eval, tmp_path / "t" / "train" / "best.genome")
    assert len(records) == 1
    # same genome, same eval seeds, deterministic eval: identical statistics
    assert records[0].mean_snr_db == trained[0].mean_snr_db
    assert records[0].mean_rate == trained[0].mean_rate


def test_evaluate_genome_rejects_untrained_policy(tmp_path):
    cfg = tiny_config(policy="random")
    with pytest.raises(ConfigError):
        evaluate_genome(cfg, tmp_path / "missing.genome")


# -- sweep -----------------------------------------------------------------------

def test_sweep_empty_values_no_records():
    assert sweep(tiny_config(policy="random"), "scenario.tx_power_dbm", []) == []


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ConfigError):
        sweep(tiny_config(), "scenario.bandwidth", [1.0])


@pytest.mark.parametrize("parameter, missing", [("scenaro.n_tx", "scenaro"),
                                                ("scenario.bandwidth", "scenario.bandwidth"),
                                                ("seed.value", "seed.value")])
def test_bad_sweep_path_reads_the_same_up_front_and_per_value(parameter, missing):
    # sweep checks the path before its first point; set_config_parameter,
    # which each point calls, must refuse it with the same message
    cfg = tiny_config()
    with pytest.raises(ConfigError) as up_front:
        sweep(cfg, parameter, [1.0])
    with pytest.raises(ConfigError) as per_value:
        set_config_parameter(cfg, parameter, 1.0)
    assert str(up_front.value) == str(per_value.value) == \
        f"sweep parameter {parameter!r}: no field {missing!r}"


def test_sweep_oracle_monotone_in_power(tmp_path):
    cfg = tiny_config(policy="oracle", out_dir=str(tmp_path / "s"))
    records = sweep(cfg, "scenario.tx_power_dbm", [10.0, 20.0, 30.0, 40.0])
    assert len(records) == 4
    snrs = [r.mean_snr_db for r in records]
    assert all(b >= a for a, b in zip(snrs, snrs[1:]))
    plot = tmp_path / "s" / "plot_scenario_tx_power_dbm.csv"
    assert plot.exists()
    lines = plot.read_text().splitlines()
    assert lines[0] == "param_value,policy,mean_snr_db,mean_rate,std_err"
    assert len(lines) == 5
    assert (tmp_path / "s" / "scenario_tx_power_dbm" / "10.0" /
            "metrics.csv").exists()


# -- export_results ---------------------------------------------------------------

def sample_record(**overrides) -> MetricRecord:
    base = dict(run_id="random-seed7", policy="random", param_name=None,
                param_value=None, mean_snr_db=3.25, mean_rate=1.125,
                std_err=0.0625, wall_time=0.5, evaluations=6)
    base.update(overrides)
    return MetricRecord(**base)


def test_export_csv_single_record(tmp_path):
    target = export_results([sample_record()], tmp_path, "csv")
    lines = target.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(METRIC_COLUMNS)
    assert "wall_time" not in lines[0]
    cells = lines[1].split(",")
    assert cells[0] == "random-seed7"
    assert float(cells[4]) == 3.25


def test_export_json_csv_value_agreement(tmp_path):
    rec = sample_record(mean_snr_db=0.1 + 0.2)  # not exactly representable
    csv_path = export_results([rec], tmp_path, "csv")
    json_path = export_results([rec], tmp_path, "json")
    csv_val = float(csv_path.read_text().splitlines()[1].split(",")[4])
    json_val = json.loads(json_path.read_text())[0]["mean_snr_db"]
    assert csv_val == json_val == rec.mean_snr_db  # bit-exact round trip


def test_export_rejects_empty_and_bad_format(tmp_path):
    with pytest.raises(ValueError):
        export_results([], tmp_path, "csv")
    with pytest.raises(ValueError):
        export_results([sample_record()], tmp_path, "parquet")


@pytest.mark.parametrize("out", [True, False])
@pytest.mark.parametrize("entry", ["run_experiment", "sweep"])
def test_bad_export_format_is_refused_before_anything_runs(tmp_path, monkeypatch,
                                                           entry, out):
    def refuse(*args, **kwargs):
        raise AssertionError("trained before the format was checked")
    monkeypatch.setattr(harness, "train", refuse)
    cfg = tiny_config(policy="attention",
                      out_dir=str(tmp_path / "run") if out else None)
    with pytest.raises(ValueError, match="unknown export format 'xml'"):
        if entry == "run_experiment":
            run_experiment(cfg, export_format="xml")
        else:
            sweep(cfg, "scenario.tx_power_dbm", [10, 20], export_format="xml")
    assert list(tmp_path.iterdir()) == []


# -- channel trace files -----------------------------------------------------------

def test_trace_round_trip(tmp_path):
    cfg = tiny_config()
    trace = sample_episodes(cfg.scenario, 2, 3, make_rng(0))
    path = tmp_path / "eps.trace"
    export_channel_trace(path, trace)
    loaded = import_channel_trace(path, cfg.scenario)
    assert len(loaded) == 2 and all(len(ep) == 3 for ep in loaded)
    for ep_in, ep_out in zip(trace, loaded):
        for cs_in, cs_out in zip(ep_in, ep_out):
            assert np.array_equal(cs_in.h, cs_out.h)
            assert np.array_equal(cs_in.h1_list[0], cs_out.h1_list[0])
            assert np.array_equal(cs_in.h2_list[0], cs_out.h2_list[0])


def test_trace_dims_mismatch_rejected(tmp_path):
    cfg = tiny_config()
    trace = sample_episodes(cfg.scenario, 1, 2, make_rng(1))
    path = tmp_path / "eps.trace"
    export_channel_trace(path, trace)
    other = config_from_mapping(tiny_mapping(
        scenario={"n_tx": 2, "n_ris": 5, "horizon": 3, "episodes": 2}))
    with pytest.raises(ValueError) as err:
        import_channel_trace(path, other.scenario)
    assert "n_ris" in str(err.value)


def test_trace_truncation_rejected(tmp_path):
    cfg = tiny_config()
    trace = sample_episodes(cfg.scenario, 1, 2, make_rng(2))
    path = tmp_path / "eps.trace"
    export_channel_trace(path, trace)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ValueError):
        import_channel_trace(path)


def test_trace_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.trace"
    path.write_bytes(b"NOTATRACE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        import_channel_trace(path)


def test_trace_misplaced_record_rejected(tmp_path):
    cfg = tiny_config()
    trace = sample_episodes(cfg.scenario, 1, 3, make_rng(2))
    path = tmp_path / "eps.trace"
    export_channel_trace(path, trace)
    blob = bytearray(path.read_bytes())
    record = (len(blob) - 28) // 3
    blob[28 + record + 4:28 + record + 8] = (2).to_bytes(4, "little")  # step of record 1
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=r"record 1: expected indices \(0, 1\), "
                                         r"found \(0, 2\)"):
        import_channel_trace(path)


def test_trace_non_finite_channel_rejected(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "eps.trace"
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        trace = sample_episodes(cfg.scenario, 2, 2, make_rng(2))
        trace[1][0].h2_list[0][1] = bad
        export_channel_trace(path, trace)
        with pytest.raises(ValueError, match=r"record 2 \(episode 1, step 0\)"):
            import_channel_trace(path)


def test_single_record_trace_drives_frozen_evaluation(tmp_path):
    cfg = tiny_config()
    trace = sample_episodes(cfg.scenario, 1, 1, make_rng(3))
    path = tmp_path / "one.trace"
    export_channel_trace(path, trace)
    loaded = import_channel_trace(path, cfg.scenario)
    w = make_rng(4).standard_normal(cfg.arch.genome_size) * 0.3
    f = evaluate_fitness(w, cfg.arch, cfg.scenario, 0, 0, mode="argmax",
                         trace=loaded)
    cs = loaded[0][0]
    out = forward(w, cfg.arch, cs.h, cs.h1_list[0], cs.h2_list[0], mode="argmax")
    cb = evaluation_codebook(cfg.scenario, cfg.arch.codebook_size)
    direct = snr(cs, out.phases, cb[:, out.precoder_index],
                 link_budget_from(cfg.scenario))
    assert f == direct


# -- per-block baselines -----------------------------------------------------------

def per_block_evaluation(cfg):
    """(per-episode gammas, evaluations) of ``policy: lga`` or ``random``,
    taken one block at a time on the evaluation streams."""
    scenario = cfg.scenario
    episodes = sample_episodes(scenario, cfg.eval_episodes, scenario.horizon,
                               derive_rng(cfg.seed, "eval", "channels"))
    budget = link_budget_from(scenario)
    codebook = evaluation_codebook(scenario, cfg.arch.codebook_size)
    rng = derive_rng(cfg.seed, "eval", "policy")
    per_episode, evaluations = [], 0
    for episode in episodes:
        gammas = []
        for cs in episode:
            if cfg.policy == "lga":
                res = lga_solve(cs, budget, codebook, cfg.lga, rng)
                gammas.append(res.gamma)
                evaluations += res.evaluations
            else:
                phases, idx = random_baseline(cs, codebook, rng)
                gammas.append(snr(cs, phases, codebook[:, idx], budget))
                evaluations += 1
        per_episode.append(np.array(gammas))
    return per_episode, evaluations


@pytest.mark.parametrize("policy", ["lga", "random"])
@pytest.mark.parametrize("config", ["single_ris_desk.yaml", "multi_ris_desk.yaml"])
def test_baseline_evaluation_equals_a_per_block_loop(config, policy):
    cfg = replace(load_config(CONFIGS[0].parent / config), policy=policy,
                  eval_episodes=3)
    per_episode, evaluations = harness.evaluate_policy(cfg)
    want, want_evaluations = per_block_evaluation(cfg)
    assert type(evaluations) is int and evaluations == want_evaluations
    assert len(per_episode) == len(want) == 3
    for got, ref in zip(per_episode, want):
        assert got.dtype == np.float64 and np.array_equal(got, ref)
