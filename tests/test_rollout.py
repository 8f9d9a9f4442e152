"""Tests for the batched episode rollout.

Every case replays the episode block step by step through the per-block
API (``forward``, or ``agent_act`` per surface plus ``aggregate_precoder``,
then ``snr``) and requires bitwise equality of phases, picks, gammas and
fitness, and that the sampling stream ends where per-step draws leave it.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evoris import multiris, policy
from evoris.channel import ChannelSet, ScenarioConfig, sample_episodes
from evoris.cosyne import evaluate_fitness
from evoris.harness import (export_channel_trace, import_channel_trace, load_config,
                            trained_policy_configs)
from evoris.multiris import (AggregatorConfig, agent_act, aggregate_precoder,
                             evaluate_fitness_multi, rollout, split_joint_genome)
from evoris.numerics import make_rng
from evoris.policy import ArchConfig, forward
from evoris.system import evaluation_codebook, link_budget_from, snr

ARCH = ArchConfig(n_tx=4, n_ris=8, codebook_size=4)
ARCH_D = ArchConfig(n_tx=4, n_ris=8, codebook_size=4, direct_branch=True)
ARCH_L4 = ArchConfig(n_tx=4, n_ris=8, codebook_size=4, phase_states=4)
SCN_K1 = ScenarioConfig(n_tx=4, n_ris=8, horizon=7, episodes=3)
SCN_K2 = ScenarioConfig(n_tx=4, n_ris=8, ris_count=2,
                        ris_positions=((3.0, 3.0, 2.0), (6.0, 6.0, -2.0)),
                        rx_position=(10.0, 10.0, 5.0), horizon=7, episodes=3)
AGG_K2 = AggregatorConfig(ris_count=2, codebook_size=4)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (case, policy config, aggregator config, scenario)
CASES = [("single", ARCH, None, SCN_K1),
         ("multi", ARCH_D, AGG_K2, SCN_K2),
         ("bypass", ARCH_D, None, SCN_K1),
         ("levels4", ARCH_L4, None, SCN_K1)]


def replay(values, arch, agg_cfg, scenario, trace, mode, rng):
    """Per-block reference: (phases, pick, gamma) of every step, in order."""
    cb = evaluation_codebook(scenario, arch.codebook_size)
    budget = link_budget_from(scenario)
    g14, g5 = split_joint_genome(values, arch, agg_cfg)
    steps = []
    for episode in trace:
        for cs in episode:
            if agg_cfg is None:
                out = forward(g14, arch, cs.h, cs.h1_list[0], cs.h2_list[0],
                              rng=rng, mode=mode)
                phases, idx = out.phases, out.precoder_index
            else:
                acts = [agent_act(g14, arch, cs.h, h1, h2)
                        for h1, h2 in zip(cs.h1_list, cs.h2_list)]
                phases = [ph for ph, _ in acts]
                idx, _ = aggregate_precoder(g5, agg_cfg, [v for _, v in acts], rng,
                                            mode)
            steps.append((phases, idx, snr(cs, phases, cb[:, idx], budget,
                                           arch.phase_states)))
    return steps


def recorded_rollout(monkeypatch, *args):
    """Run ``rollout`` and capture the (phases, precoder column, gamma) it scores,
    one record per step, and the number of steps of each ``snr`` call: a
    stacked call, one per pass, gives one record per block."""
    calls, sizes = [], []

    def recording_snr(cs, phases, v, budget, states=2):
        gamma = snr(cs, phases, v, budget, states)
        if isinstance(cs, list):
            calls.extend(zip(phases, v, gamma))
            sizes.append(len(cs))
        else:
            calls.append((phases, v, gamma))
            sizes.append(1)
        return gamma

    with monkeypatch.context() as m:
        m.setattr(multiris, "snr", recording_snr)
        gammas = rollout(*args)
    return gammas, calls, sizes


def unit_trace(scenario, episodes, horizon, seed):
    """CN(0, 1) channels: unit-scale inputs keep every step's decisions
    sensitive to which channels it was given."""
    rng = make_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    n_tx, n_ris, k = scenario.n_tx, scenario.n_ris, scenario.ris_count
    return [[ChannelSet(h=cn(n_tx), h1_list=[cn(n_tx, n_ris) for _ in range(k)],
                        h2_list=[cn(n_ris) for _ in range(k)])
             for _ in range(horizon)] for _ in range(episodes)]


def genome(arch, agg_cfg, seed):
    m = arch.genome_size + (agg_cfg.genome_size if agg_cfg is not None else 0)
    return make_rng(seed).standard_normal(m) * 0.3


@pytest.mark.parametrize("chunk_steps", [None, 1, 3, 7])
@pytest.mark.parametrize("mode", ["sample", "argmax"])
@pytest.mark.parametrize("case,arch,agg_cfg,scenario", CASES, ids=[c[0] for c in CASES])
def test_rollout_matches_per_block_replay(monkeypatch, case, arch, agg_cfg, scenario,
                                          mode, chunk_steps):
    if chunk_steps is not None:
        # horizon 7 runs in 7 passes of one step, 3 passes of 2, 2 and 3
        # steps, or one pass of the whole episode
        k = 1 if agg_cfg is None else agg_cfg.ris_count
        monkeypatch.setattr(multiris, "STEP_CHUNK_BYTES",
                            chunk_steps * k * multiris._step_bytes(arch))
    values = genome(arch, agg_cfg, 1)
    trace = unit_trace(scenario, 3, 7, 2)
    ref_rng, got_rng = make_rng(3), make_rng(3)
    ref = replay(values, arch, agg_cfg, scenario, trace, mode, ref_rng)
    gammas, calls, sizes = recorded_rollout(monkeypatch, values, arch, agg_cfg,
                                            scenario, trace, mode, got_rng)

    cb = evaluation_codebook(scenario, arch.codebook_size)
    assert [g.shape for g in gammas] == [(7,)] * 3
    assert sizes == {None: [7], 1: [1] * 7, 3: [2, 2, 3], 7: [7]}[chunk_steps] * 3
    assert len(calls) == len(ref) == 21
    for (phases, v, gamma), (ref_phases, ref_idx, ref_gamma) in zip(calls, ref):
        got = np.atleast_2d(np.asarray(phases))
        want = np.atleast_2d(np.asarray(ref_phases))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(v, cb[:, ref_idx])
        assert gamma == ref_gamma
    assert np.array_equal(np.concatenate(gammas), [g for _, _, g in ref])
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    total = 0.0
    for _, _, g in ref:
        total += g
    if case == "single":
        fitness = evaluate_fitness(values, arch, scenario, 0, 0, policy_rng=make_rng(3),
                                   mode=mode, trace=trace)
    else:
        fitness = evaluate_fitness_multi(
            values, arch, agg_cfg, scenario, 0, 0, policy_rng=make_rng(3), mode=mode,
            aggregator="network" if agg_cfg is not None else "bypass", trace=trace)
    assert fitness == total / len(ref)


@pytest.mark.parametrize("case,arch,agg_cfg,scenario", CASES, ids=[c[0] for c in CASES])
def test_rollout_stream_state_after_sampling(case, arch, agg_cfg, scenario):
    values = genome(arch, agg_cfg, 4)
    trace = unit_trace(scenario, 3, 7, 5)
    rng, scalar = make_rng(6), make_rng(6)
    rollout(values, arch, agg_cfg, scenario, trace, "sample", rng)
    for _ in range(3 * 7):
        scalar.random()
    assert rng.bit_generator.state == scalar.bit_generator.state


def test_rollout_argmax_draws_nothing():
    rng = make_rng(7)
    before = rng.bit_generator.state
    trace = unit_trace(SCN_K2, 2, 3, 8)
    rollout(genome(ARCH_D, AGG_K2, 9), ARCH_D, AGG_K2, SCN_K2, trace, "argmax", rng)
    assert rng.bit_generator.state == before


def test_rollout_validation():
    trace = unit_trace(SCN_K2, 1, 2, 10)
    with pytest.raises(ValueError):  # several surfaces need an aggregator
        rollout(genome(ARCH, None, 11), ARCH, None, SCN_K2, trace)
    with pytest.raises(ValueError):  # sampling without a stream
        rollout(genome(ARCH_D, AGG_K2, 12), ARCH_D, AGG_K2, SCN_K2, trace, "sample")


@pytest.mark.parametrize("surfaces", [4, 1])
def test_rollout_names_a_surface_count_mismatch_before_any_pass(monkeypatch, surfaces):
    cfg = load_config(CONFIGS / "multi_ris_desk.yaml")
    arch, agg_cfg = trained_policy_configs(cfg)
    assert agg_cfg.ris_count == 2
    trace = sample_episodes(cfg.scenario, 2, 6, make_rng(13))
    last = trace[-1][-1]  # the only bad step, in the block's last pass
    last.h1_list = (last.h1_list * 2)[:surfaces]
    last.h2_list = (last.h2_list * 2)[:surfaces]
    passes = []
    monkeypatch.setattr(multiris, "forward_steps",
                        lambda *args, **kwargs: passes.append(args))
    with pytest.raises(ValueError, match=f"a step has {surfaces} surfaces, the "
                                         "aggregator's ris_count is 2"):
        rollout(genome(arch, agg_cfg, 14), arch, agg_cfg, cfg.scenario, trace)
    assert passes == []


# -- golden values ------------------------------------------------------------
# Recorded with the step-by-step implementation that preceded the batched
# rollout (``forward`` on one step, ``agent_act`` per surface plus
# ``aggregate_precoder``, ``snr``, and the fitness functions' per-step
# loops), for genome(arch, agg_cfg, 1), unit_trace(scenario, 3, 4, 2) and
# make_rng(3) as the sampling stream.  Per case: (fitness, steps), each step
# (phase signs of every surface, precoder pick, gamma, precoder probs); floats
# as ``float.hex``.  The single-surface probs were recorded again when
# ``conv2d_same`` moved to per-tap products, which changed their last bits and
# nothing else.  Exact equality pins the arithmetic, so another NumPy or BLAS
# build may need the values recorded again.
GOLDEN = {
    ('multi', 'argmax'): ('0x1.5fa14bdf9cef1p+32', [
        ('---------++-++++', 2, '0x1.23cd0699256c9p+30',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-+-+++++++++++++', 2, '0x1.8274f00df218fp+32',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('++++++++------+-', 2, '0x1.343741eb9c00ep+33',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-------------+++', 2, '0x1.08d94fb485fcep+31',
         ('0x1.917365f698ba1p-3', '0x1.d054e81d7571dp-3',
          '0x1.3c5f9efa99c23p-2', '0x1.12bc39fb5f27cp-2')),
        ('-+++++++------++', 2, '0x1.47717536338e7p+33',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-+-----+---++--+', 3, '0x1.f04ba9d7aee9cp+31',
         ('0x1.878bb5254069fp-3', '0x1.3a094c646d28cp-3',
          '0x1.1e4aa608f4083p-2', '0x1.80ead932352e9p-2')),
        ('-+----++-+++++++', 2, '0x1.95678a046e2f9p+29',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-------+++-+++++', 2, '0x1.08a27d829f98cp+30',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-++-++++++-+--++', 2, '0x1.1833fb2fa7b76p+34',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('---+----------+-', 2, '0x1.491a01c13edbfp+31',
         ('0x1.8b66f38324cffp-3', '0x1.8e85b9e743b7bp-3',
          '0x1.7b868f6201a56p-2', '0x1.ef0633d1942d5p-3')),
        ('-+-+---++--+-+++', 2, '0x1.3dbc05b5f4accp+33',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-+----+--+-----+', 2, '0x1.1a63a04423784p+30',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
    ]),
    ('multi', 'sample'): ('0x1.9574003a2cc6dp+32', [
        ('---------++-++++', 0, '0x1.26eb58a5b8c2fp+32',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-+-+++++++++++++', 1, '0x1.3feb6e176e71ep+32',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('++++++++------+-', 3, '0x1.0650000968a43p+33',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-------------+++', 2, '0x1.08d94fb485fcep+31',
         ('0x1.917365f698ba1p-3', '0x1.d054e81d7571dp-3',
          '0x1.3c5f9efa99c23p-2', '0x1.12bc39fb5f27cp-2')),
        ('-+++++++------++', 0, '0x1.6f16d69ae2527p+33',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-+-----+---++--+', 2, '0x1.04a0b49908221p+34',
         ('0x1.878bb5254069fp-3', '0x1.3a094c646d28cp-3',
          '0x1.1e4aa608f4083p-2', '0x1.80ead932352e9p-2')),
        ('-+----++-+++++++', 2, '0x1.95678a046e2f9p+29',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-------+++-+++++', 0, '0x1.415129449ed22p+33',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-++-++++++-+--++', 3, '0x1.bc0d3b8801677p+26',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('---+----------+-', 0, '0x1.9a8ba8411b02ap+32',
         ('0x1.8b66f38324cffp-3', '0x1.8e85b9e743b7bp-3',
          '0x1.7b868f6201a56p-2', '0x1.ef0633d1942d5p-3')),
        ('-+-+---++--+-+++', 2, '0x1.3dbc05b5f4accp+33',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
        ('-+----+--+-----+', 2, '0x1.1a63a04423784p+30',
         ('0x1.8bba888d1526dp-3', '0x1.5456f3517479fp-3',
          '0x1.55dd25c213169p-2', '0x1.3a1a1c4ea818fp-2')),
    ]),
    ('single', 'argmax'): ('0x1.30b4dbf1ac9acp+31', [
        ('+++++++-', 1, '0x1.10912511ab52fp+30',
         ('0x1.4c2cdfdf71531p-8', '0x1.cec4acfa3414dp-1',
          '0x1.300eedf4e0358p-10', '0x1.70578e7894c34p-4')),
        ('-+++++++', 0, '0x1.97c1929e5e8d5p+26',
         ('0x1.f333216aeed9cp-1', '0x1.203f0100f0fb3p-7',
          '0x1.078b30467101dp-6', '0x1.f121db3b4b0eep-14')),
        ('++++-+++', 1, '0x1.5f1b8a85181aap+31',
         ('0x1.651139a401c25p-5', '0x1.adb999d87d746p-1',
          '0x1.119e6235e8ef5p-5', '0x1.56db634f1f03fp-4')),
        ('------++', 1, '0x1.12bc138467f19p+31',
         ('0x1.5782d5f49aec5p-5', '0x1.ea85d233af28cp-1',
          '0x1.5dfbfe40a2003p-17', '0x1.44e211cfd1b46p-18')),
        ('++++-++-', 1, '0x1.87b53da51949fp+31',
         ('0x1.2c2ee7eaf47c0p-6', '0x1.f69e607651b6cp-1',
          '0x1.0f4b7a719ef8ep-24', '0x1.315dfd83a4179p-20')),
        ('-------+', 1, '0x1.ca27bb8927bc2p+30',
         ('0x1.06be4cbe2a796p-3', '0x1.be243562aeec5p-1',
          '0x1.a9dbb2dda590bp-20', '0x1.60119280cd20ep-12')),
        ('-+----++', 1, '0x1.9fe3586c0c82bp+30',
         ('0x1.366456f577c79p-6', '0x1.f63b2f4f0aa64p-1',
          '0x1.3ead1639981edp-14', '0x1.ee2425f3b2f03p-15')),
        ('+--++++-', 1, '0x1.28266fb6bf677p+30',
         ('0x1.9644c769222a7p-16', '0x1.fff647e3fcc95p-1',
          '0x1.aec2abd8518b9p-25', '0x1.a278ec6e2219ap-15')),
        ('+-+++---', 0, '0x1.b2f347ecda36ap+32',
         ('0x1.b253c06da1cf9p-2', '0x1.b882e9e7e82f9p-3',
          '0x1.6efcd2d23b099p-5', '0x1.438b304422b79p-2')),
        ('--++++++', 0, '0x1.02f650179f663p+29',
         ('0x1.de4f6ef6a4760p-1', '0x1.0cd43aabca6d6p-4',
          '0x1.5f0b710da8a49p-13', '0x1.8fcd161bf91f3p-21')),
        ('++---++-', 1, '0x1.6c9b534564618p+32',
         ('0x1.172b6d3d481b4p-9', '0x1.fede9bfb89aa4p-1',
          '0x1.061e619a58e9ap-14', '0x1.03d2161d6554ep-16')),
        ('+------+', 1, '0x1.e1e6908eace0ep+30',
         ('0x1.629aca14ede2ap-19', '0x1.ffff9d831fd3bp-1',
          '0x1.0e40751fe0e9dp-23', '0x1.674af49fdb606p-23')),
    ]),
    ('single', 'sample'): ('0x1.ec0d61d6cc938p+30', [
        ('+++++++-', 1, '0x1.10912511ab52fp+30',
         ('0x1.4c2cdfdf71531p-8', '0x1.cec4acfa3414dp-1',
          '0x1.300eedf4e0358p-10', '0x1.70578e7894c34p-4')),
        ('-+++++++', 0, '0x1.97c1929e5e8d5p+26',
         ('0x1.f333216aeed9cp-1', '0x1.203f0100f0fb3p-7',
          '0x1.078b30467101dp-6', '0x1.f121db3b4b0eep-14')),
        ('++++-+++', 1, '0x1.5f1b8a85181aap+31',
         ('0x1.651139a401c25p-5', '0x1.adb999d87d746p-1',
          '0x1.119e6235e8ef5p-5', '0x1.56db634f1f03fp-4')),
        ('------++', 1, '0x1.12bc138467f19p+31',
         ('0x1.5782d5f49aec5p-5', '0x1.ea85d233af28cp-1',
          '0x1.5dfbfe40a2003p-17', '0x1.44e211cfd1b46p-18')),
        ('++++-++-', 1, '0x1.87b53da51949fp+31',
         ('0x1.2c2ee7eaf47c0p-6', '0x1.f69e607651b6cp-1',
          '0x1.0f4b7a719ef8ep-24', '0x1.315dfd83a4179p-20')),
        ('-------+', 1, '0x1.ca27bb8927bc2p+30',
         ('0x1.06be4cbe2a796p-3', '0x1.be243562aeec5p-1',
          '0x1.a9dbb2dda590bp-20', '0x1.60119280cd20ep-12')),
        ('-+----++', 1, '0x1.9fe3586c0c82bp+30',
         ('0x1.366456f577c79p-6', '0x1.f63b2f4f0aa64p-1',
          '0x1.3ead1639981edp-14', '0x1.ee2425f3b2f03p-15')),
        ('+--++++-', 1, '0x1.28266fb6bf677p+30',
         ('0x1.9644c769222a7p-16', '0x1.fff647e3fcc95p-1',
          '0x1.aec2abd8518b9p-25', '0x1.a278ec6e2219ap-15')),
        ('+-+++---', 3, '0x1.4b79171cd141cp+30',
         ('0x1.b253c06da1cf9p-2', '0x1.b882e9e7e82f9p-3',
          '0x1.6efcd2d23b099p-5', '0x1.438b304422b79p-2')),
        ('--++++++', 0, '0x1.02f650179f663p+29',
         ('0x1.de4f6ef6a4760p-1', '0x1.0cd43aabca6d6p-4',
          '0x1.5f0b710da8a49p-13', '0x1.8fcd161bf91f3p-21')),
        ('++---++-', 1, '0x1.6c9b534564618p+32',
         ('0x1.172b6d3d481b4p-9', '0x1.fede9bfb89aa4p-1',
          '0x1.061e619a58e9ap-14', '0x1.03d2161d6554ep-16')),
        ('+------+', 1, '0x1.e1e6908eace0ep+30',
         ('0x1.629aca14ede2ap-19', '0x1.ffff9d831fd3bp-1',
          '0x1.0e40751fe0e9dp-23', '0x1.674af49fdb606p-23')),
    ]),
}


def signs(phases):
    return "".join("+" if p > 0 else "-" for p in np.asarray(phases).ravel())


@pytest.mark.parametrize("case,mode", list(GOLDEN), ids=[f"{c}-{m}" for c, m in GOLDEN])
def test_rollout_and_forward_match_recorded_values(monkeypatch, case, mode):
    arch, agg_cfg, scenario = {"single": (ARCH, None, SCN_K1),
                               "multi": (ARCH_D, AGG_K2, SCN_K2)}[case]
    want_fitness, want = GOLDEN[(case, mode)]
    values = genome(arch, agg_cfg, 1)
    trace = unit_trace(scenario, 3, 4, 2)
    g14, g5 = split_joint_genome(values, arch, agg_cfg)

    rng = make_rng(3)
    for cs, (want_signs, want_idx, _, want_probs) in zip(
            [cs for episode in trace for cs in episode], want):
        if agg_cfg is None:
            out = forward(g14, arch, cs.h, cs.h1_list[0], cs.h2_list[0], rng=rng,
                          mode=mode)
            phases, idx, probs = out.phases, out.precoder_index, out.precoder_probs
        else:
            acts = [agent_act(g14, arch, cs.h, h1, h2)
                    for h1, h2 in zip(cs.h1_list, cs.h2_list)]
            phases = [ph for ph, _ in acts]
            idx, probs = aggregate_precoder(g5, agg_cfg, [v for _, v in acts], rng, mode)
        assert (signs(phases), idx) == (want_signs, want_idx)
        assert [float(p).hex() for p in probs] == list(want_probs)

    cb = evaluation_codebook(scenario, arch.codebook_size)
    gammas, calls, _ = recorded_rollout(monkeypatch, values, arch, agg_cfg, scenario,
                                        trace, mode, make_rng(3))
    assert [(signs(phases), float(gamma).hex()) for phases, _, gamma in calls] == \
        [(s, g) for s, _, g, _ in want]
    assert [np.flatnonzero((cb == v[:, None]).all(axis=0))[0] for _, v, _ in calls] == \
        [idx for _, idx, _, _ in want]
    assert [g.hex() for g in np.concatenate(gammas).tolist()] == [g for _, _, g, _ in want]

    if agg_cfg is None:
        fitness = evaluate_fitness(values, arch, scenario, 0, 0, policy_rng=make_rng(3),
                                   mode=mode, trace=trace)
    else:
        fitness = evaluate_fitness_multi(values, arch, agg_cfg, scenario, 0, 0,
                                         policy_rng=make_rng(3), mode=mode, trace=trace)
    assert fitness.hex() == want_fitness


# -- the TX-RIS attention computed once per rollout ----------------------------

def static_h1_trace(scenario, episodes, horizon, seed, shared):
    """``unit_trace`` with the first step's H1 at every step: the very same
    arrays when ``shared``, else equal copies (as an imported trace has)."""
    trace = unit_trace(scenario, episodes, horizon, seed)
    first = trace[0][0].h1_list
    for episode in trace:
        for cs in episode:
            cs.h1_list = list(first) if shared else [h1.copy() for h1 in first]
    return trace


def ricean_h1_trace(scenario, episodes, horizon, seed):
    return sample_episodes(replace(scenario, kappa_h1_db=10.0), episodes, horizon,
                           make_rng(seed))


TRACES = {
    "shared_h1": lambda scn: static_h1_trace(scn, 3, 7, 2, shared=True),
    "equal_h1": lambda scn: static_h1_trace(scn, 3, 7, 2, shared=False),
    "ricean_h1": lambda scn: ricean_h1_trace(scn, 3, 7, 2),
}


@pytest.mark.parametrize("trace_kind", list(TRACES))
@pytest.mark.parametrize("mode", ["sample", "argmax"])
@pytest.mark.parametrize("case,arch,agg_cfg,scenario", CASES, ids=[c[0] for c in CASES])
def test_rollout_tx_ris_attention_once_matches_replay(monkeypatch, case, arch, agg_cfg,
                                                      scenario, mode, trace_kind):
    k = 1 if agg_cfg is None else agg_cfg.ris_count
    # horizon 7 runs in three near-equal passes of at most 3 steps: 2, 2, 3
    monkeypatch.setattr(multiris, "STEP_CHUNK_BYTES", 3 * k * multiris._step_bytes(arch))
    values = genome(arch, agg_cfg, 1)
    trace = TRACES[trace_kind](scenario)
    ref_rng, got_rng = make_rng(3), make_rng(3)
    ref = replay(values, arch, agg_cfg, scenario, trace, mode, ref_rng)
    # the replay's ``forward`` calls fill the memo that the rollout reads too
    monkeypatch.setattr(policy, "_tx_ris_memo", [])

    batches = []
    attention_steps = policy.attention_steps

    def counting(tokens, *args, **kwargs):
        if tokens.shape[-1] == 2 * arch.n_tx:  # the TX-RIS branch's tokens
            batches.append(tokens.shape[0])
        return attention_steps(tokens, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(policy, "attention_steps", counting)
        gammas, calls, _ = recorded_rollout(monkeypatch, values, arch, agg_cfg,
                                            scenario, trace, mode, got_rng)
    if trace_kind == "ricean_h1":
        assert batches == [2 * k, 2 * k, 3 * k] * 3
    else:
        assert batches == [k]

    cb = evaluation_codebook(scenario, arch.codebook_size)
    assert len(calls) == len(ref) == 21
    for (phases, v, gamma), (ref_phases, ref_idx, ref_gamma) in zip(calls, ref):
        got = np.atleast_2d(np.asarray(phases))
        want = np.atleast_2d(np.asarray(ref_phases))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(v, cb[:, ref_idx])
        assert gamma == ref_gamma
    assert np.array_equal(np.concatenate(gammas), [g for _, _, g in ref])
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    total = 0.0
    for _, _, g in ref:
        total += g
    fitness_rng = make_rng(3)
    if case == "single":
        fitness = evaluate_fitness(values, arch, scenario, 0, 0, policy_rng=fitness_rng,
                                   mode=mode, trace=trace)
    else:
        fitness = evaluate_fitness_multi(
            values, arch, agg_cfg, scenario, 0, 0, policy_rng=fitness_rng, mode=mode,
            aggregator="network" if agg_cfg is not None else "bypass", trace=trace)
    assert fitness == total / len(ref)
    assert fitness_rng.bit_generator.state == ref_rng.bit_generator.state



@pytest.mark.parametrize("name", ["single_ris_desk", "multi_ris_desk"])
def test_rollout_of_imported_line_of_sight_trace_matches_sampled_block(
        tmp_path, monkeypatch, name):
    cfg = load_config(CONFIGS / f"{name}.yaml")
    assert cfg.scenario.kappa_h1_db is None  # one shared line-of-sight H1
    arch, agg_cfg = trained_policy_configs(cfg)
    scenario = cfg.scenario
    sampled = sample_episodes(scenario, 2, 6, make_rng(70))
    export_channel_trace(tmp_path / "block.trace", sampled)
    imported = import_channel_trace(tmp_path / "block.trace", scenario)
    # every step now holds its own H1 arrays, equal in value to the shared ones
    h1s = [h1 for episode in imported for cs in episode for h1 in cs.h1_list]
    assert len({id(h1) for h1 in h1s}) == len(h1s) == 12 * scenario.ris_count
    assert all(np.array_equal(h1, shared)
               for h1, shared in zip(h1s, sampled[0][0].h1_list * 12))
    values = genome(arch, agg_cfg, 71)
    want = rollout(values, arch, agg_cfg, scenario, sampled, "sample", make_rng(72))

    monkeypatch.setattr(policy, "_tx_ris_memo", [])
    calls = []
    tx_ris_attention = policy.tx_ris_attention

    def counting(w, arch, h1):
        calls.append(h1.shape[0])
        return tx_ris_attention(w, arch, h1)

    monkeypatch.setattr(policy, "tx_ris_attention", counting)
    got = rollout(values, arch, agg_cfg, scenario, imported, "sample", make_rng(72))
    assert calls == [scenario.ris_count]  # one call, one H1 per surface
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
