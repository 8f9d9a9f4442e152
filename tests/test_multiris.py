"""Tests for distributed multi-surface control and message accounting.

The aggregator is probed with hand-constructed weights implementing a
majority count; the joint rollout is replayed step by step; the single-RIS
bypass is compared against the plain evaluator on identical seeds.
"""

import numpy as np
import pytest

from evoris.channel import ScenarioConfig, sample_channel_set, sample_episodes
from evoris.cosyne import evaluate_fitness
from evoris.multiris import (AggregatorConfig, agent_act, aggregate_precoder,
                             aggregator_layout, encode_votes,
                             evaluate_fitness_multi, message_accounting,
                             split_joint_genome)
from evoris.numerics import make_rng
from evoris.policy import ArchConfig, forward
from evoris.system import evaluation_codebook, link_budget_from, snr

ARCH = ArchConfig(n_tx=2, n_ris=4, codebook_size=2, direct_branch=True)

SCN_K1 = ScenarioConfig(n_tx=2, n_ris=4, ris_count=1, horizon=3, episodes=2)
SCN_K2 = ScenarioConfig(n_tx=2, n_ris=4, ris_count=2,
                        ris_positions=((3.0, 3.0, 2.0), (6.0, 6.0, -2.0)),
                        rx_position=(10.0, 10.0, 5.0), direct_blocked=False,
                        direct_attenuation_db=10.0, horizon=3, episodes=2)
AGG_K2 = AggregatorConfig(ris_count=2, codebook_size=2)


# -- agent_act ----------------------------------------------------------------

def test_agent_zero_genome():
    cs = sample_channel_set(SCN_K2, make_rng(0))
    phases, vote = agent_act(np.zeros(ARCH.genome_size), ARCH, cs.h,
                             cs.h1_list[0], cs.h2_list[0])
    assert np.array_equal(phases, np.ones(4))
    assert vote == 0  # uniform probs, ties break to the lowest index


def test_agents_share_parameters():
    rng = make_rng(1)
    w = rng.standard_normal(ARCH.genome_size) * 0.3
    cs = sample_channel_set(SCN_K2, make_rng(2))
    out0 = agent_act(w, ARCH, cs.h, cs.h1_list[0], cs.h2_list[0])
    out0_again = agent_act(w, ARCH, cs.h, cs.h1_list[0], cs.h2_list[0])
    assert np.array_equal(out0[0], out0_again[0]) and out0[1] == out0_again[1]


def test_agent_equals_single_ris_pipeline():
    rng = make_rng(3)
    w = rng.standard_normal(ARCH.genome_size) * 0.3
    cs = sample_channel_set(SCN_K1, make_rng(4))
    phases, vote = agent_act(w, ARCH, cs.h, cs.h1_list[0], cs.h2_list[0])
    out = forward(w, ARCH, cs.h, cs.h1_list[0], cs.h2_list[0], mode="argmax")
    assert np.array_equal(phases, out.phases)
    assert vote == out.precoder_index


# -- encode_votes / aggregate_precoder -----------------------------------------

def test_encode_votes_one_hot_positions():
    cfg = AggregatorConfig(ris_count=2, codebook_size=4)
    x = encode_votes([3, 3], cfg)
    assert x.shape == (8,)
    assert np.array_equal(np.nonzero(x)[0], [3, 7])
    assert np.all(x[[3, 7]] == 1.0)


def test_encode_votes_rejects_out_of_range():
    cfg = AggregatorConfig(ris_count=2, codebook_size=4)
    with pytest.raises(ValueError):
        encode_votes([0, 4], cfg)
    with pytest.raises(ValueError):
        encode_votes([0], cfg)


def test_aggregate_zero_weights_uniform():
    cfg = AggregatorConfig(ris_count=2, codebook_size=4)
    idx, probs = aggregate_precoder(np.zeros(cfg.genome_size), cfg, [1, 2],
                                    mode="argmax")
    assert np.allclose(probs, 0.25, atol=1e-15)
    assert idx == 0


def majority_count_genome(cfg: AggregatorConfig) -> np.ndarray:
    """Weights whose logits are the per-index vote counts."""
    layout = aggregator_layout(cfg)
    w = np.zeros(layout.size)
    w0 = layout.view(w, "agg0.w")
    for k in range(cfg.ris_count):
        for v in range(cfg.codebook_size):
            w0[k * cfg.codebook_size + v, v] = 1.0
    w1 = layout.view(w, "agg1.w")
    for v in range(cfg.codebook_size):
        w1[v, v] = 1.0
    return w


def test_aggregate_majority_count_enumeration():
    cfg = AggregatorConfig(ris_count=2, codebook_size=4)
    w = majority_count_genome(cfg)
    for v1 in range(4):
        for v2 in range(4):
            idx, _ = aggregate_precoder(w, cfg, [v1, v2], mode="argmax")
            expected = int(np.argmax(np.bincount([v1, v2], minlength=4)))
            assert idx == expected


def test_aggregate_sampling_deterministic_given_rng():
    cfg = AggregatorConfig(ris_count=2, codebook_size=4)
    rng = make_rng(5)
    w = rng.standard_normal(cfg.genome_size)
    a = aggregate_precoder(w, cfg, [1, 3], make_rng(6), "sample")
    b = aggregate_precoder(w, cfg, [1, 3], make_rng(6), "sample")
    assert a[0] == b[0]
    with pytest.raises(ValueError):
        aggregate_precoder(w, cfg, [1, 3], None, "sample")


# -- split_joint_genome --------------------------------------------------------

def test_split_joint_genome_sizes():
    joint = np.arange(ARCH.genome_size + AGG_K2.genome_size, dtype=np.float64)
    g14, g5 = split_joint_genome(joint, ARCH, AGG_K2)
    assert g14.shape == (ARCH.genome_size,)
    assert g5.shape == (AGG_K2.genome_size,)
    assert np.array_equal(np.concatenate([g14, g5]), joint)
    with pytest.raises(ValueError):
        split_joint_genome(joint[:-1], ARCH, AGG_K2)


# -- evaluate_fitness_multi ----------------------------------------------------

def test_bypass_reduces_to_single_ris_evaluator():
    rng = make_rng(7)
    w = rng.standard_normal(ARCH.genome_size) * 0.3
    trace = sample_episodes(SCN_K1, 2, 3, make_rng(8))
    for mode in ("sample", "argmax"):
        multi = evaluate_fitness_multi(w, ARCH, None, SCN_K1, 0, 0,
                                       policy_rng=make_rng(9), mode=mode,
                                       aggregator="bypass", trace=trace)
        single = evaluate_fitness(w, ARCH, SCN_K1, 0, 0,
                                  policy_rng=make_rng(9), mode=mode,
                                  trace=trace)
        assert multi == single


def test_multi_frozen_single_step():
    rng = make_rng(10)
    joint = rng.standard_normal(ARCH.genome_size + AGG_K2.genome_size) * 0.3
    cs = sample_channel_set(SCN_K2, make_rng(11))
    f = evaluate_fitness_multi(joint, ARCH, AGG_K2, SCN_K2, 0, 0,
                               mode="argmax", trace=[[cs]])
    g14, g5 = split_joint_genome(joint, ARCH, AGG_K2)
    phase_list, votes = [], []
    for k in range(2):
        ph, vote = agent_act(g14, ARCH, cs.h, cs.h1_list[k], cs.h2_list[k])
        phase_list.append(ph)
        votes.append(vote)
    idx, _ = aggregate_precoder(g5, AGG_K2, votes, mode="argmax")
    cb = evaluation_codebook(SCN_K2, 2)
    gamma = snr(cs, phase_list, cb[:, idx], link_budget_from(SCN_K2))
    assert f == gamma


def test_multi_accumulation_matches_replay():
    rng = make_rng(12)
    joint = rng.standard_normal(ARCH.genome_size + AGG_K2.genome_size) * 0.3
    trace = sample_episodes(SCN_K2, 2, 3, make_rng(13))
    f = evaluate_fitness_multi(joint, ARCH, AGG_K2, SCN_K2, 0, 0,
                               mode="argmax", trace=trace)
    g14, g5 = split_joint_genome(joint, ARCH, AGG_K2)
    cb = evaluation_codebook(SCN_K2, 2)
    budget = link_budget_from(SCN_K2)
    gammas = []
    for episode in trace:
        for cs in episode:
            phase_list, votes = [], []
            for k in range(2):
                ph, vote = agent_act(g14, ARCH, cs.h, cs.h1_list[k],
                                     cs.h2_list[k])
                phase_list.append(ph)
                votes.append(vote)
            idx, _ = aggregate_precoder(g5, AGG_K2, votes, mode="argmax")
            gammas.append(snr(cs, phase_list, cb[:, idx], budget))
    assert abs(f - np.mean(gammas)) < 1e-15 * max(1.0, abs(f))


def test_multi_sampling_path_deterministic():
    rng = make_rng(14)
    joint = rng.standard_normal(ARCH.genome_size + AGG_K2.genome_size) * 0.3
    a = evaluate_fitness_multi(joint, ARCH, AGG_K2, SCN_K2, 3, 2,
                               rng=make_rng(15), policy_rng=make_rng(16))
    b = evaluate_fitness_multi(joint, ARCH, AGG_K2, SCN_K2, 3, 2,
                               rng=make_rng(15), policy_rng=make_rng(16))
    assert a == b


def test_multi_validation_errors():
    w = np.zeros(ARCH.genome_size)
    with pytest.raises(ValueError):
        evaluate_fitness_multi(w, ARCH, None, SCN_K2, 1, 1, rng=make_rng(17),
                               aggregator="bypass")
    with pytest.raises(ValueError):
        evaluate_fitness_multi(w, ARCH, AGG_K2, SCN_K1, 1, 1, rng=make_rng(18),
                               aggregator="bypass")
    with pytest.raises(ValueError):
        evaluate_fitness_multi(w, ARCH, None, SCN_K2, 1, 1, rng=make_rng(19))
    bad_agg = AggregatorConfig(ris_count=2, codebook_size=1)
    joint = np.zeros(ARCH.genome_size + bad_agg.genome_size)
    with pytest.raises(ValueError):
        evaluate_fitness_multi(joint, ARCH, bad_agg, SCN_K2, 1, 1,
                               rng=make_rng(20))


# -- message_accounting ---------------------------------------------------------

def test_vote_traffic_bits():
    scn = ScenarioConfig(n_tx=16, n_ris=20, ris_count=4,
                         ris_positions=((3.0, 3.0, 2.0), (6.0, 6.0, -2.0),
                                        (3.0, 3.0, -2.0), (6.0, 6.0, 2.0)),
                         rx_position=(10.0, 10.0, 5.0))
    rec = message_accounting(scn, "deployment", codebook_size=16)
    assert rec.bits_votes == 4 * 4
    assert rec.scalars_down == 2 * 16
    assert rec.scalars_up == 0
    assert rec.weight_broadcast_scalars == 0


def test_training_broadcasts_weights():
    rec = message_accounting(SCN_K2, "training", codebook_size=2,
                             genome_size=1234)
    assert rec.weight_broadcast_scalars == 1234
    rec_dep = message_accounting(SCN_K2, "deployment", codebook_size=2,
                                 genome_size=1234)
    assert rec_dep.weight_broadcast_scalars == 0


def test_centralized_pays_csi_uplink():
    dist = message_accounting(SCN_K2, "deployment", codebook_size=2)
    cent = message_accounting(SCN_K2, "deployment", codebook_size=2,
                              mode="centralized")
    n_tx, n_ris, k = SCN_K2.n_tx, SCN_K2.n_ris, SCN_K2.ris_count
    csi_term = 2 * n_tx * n_ris * k + 2 * n_ris * k
    assert cent.scalars_up == csi_term + 2 * n_tx
    assert cent.scalars_up - dist.scalars_down == csi_term
    assert cent.bits_phases == k * n_ris
    assert cent.bits_votes == 0


def test_single_beam_votes_are_free():
    rec = message_accounting(SCN_K2, "deployment", codebook_size=1)
    assert rec.bits_votes == 0


def test_message_accounting_validation():
    with pytest.raises(ValueError):
        message_accounting(SCN_K2, "inference", codebook_size=2)
    with pytest.raises(ValueError):
        message_accounting(SCN_K2, "deployment", codebook_size=2, mode="mesh")
