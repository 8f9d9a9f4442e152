"""Tests for the per-block search baselines.

The genetic search is bounded by the exhaustive enumerator; the enumerator
itself is checked against analytic scalar cases and random sampling lower
bounds; all returned SNRs are re-derived through the link evaluator.
"""

from pathlib import Path

import numpy as np
import pytest

from evoris import baselines
from evoris.baselines import (LgaParams, exhaustive_oracle, lga_solve, project,
                              random_baseline)
from evoris.channel import ChannelSet, sample_episodes
from evoris.harness import load_config
from evoris.numerics import derive_rng, make_rng
from evoris.system import (LinkBudget, dft_codebook, evaluation_codebook,
                           link_budget_from, snr)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

UNIT = LinkBudget(tx_power_w=1.0, noise_power_w=1.0)


def random_channel_set(rng, n_tx, n_ris, k=1, direct=True) -> ChannelSet:
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = cplx(n_tx) if direct else np.zeros(n_tx, dtype=np.complex128)
    return ChannelSet(h=h,
                      h1_list=[cplx(n_tx, n_ris) for _ in range(k)],
                      h2_list=[cplx(n_ris) for _ in range(k)])


def zero_channel_set(n_tx, n_ris) -> ChannelSet:
    return ChannelSet(h=np.zeros(n_tx, dtype=np.complex128),
                      h1_list=[np.zeros((n_tx, n_ris), dtype=np.complex128)],
                      h2_list=[np.zeros(n_ris, dtype=np.complex128)])


# -- lga_solve ----------------------------------------------------------------

def test_lga_zero_channels():
    cs = zero_channel_set(2, 4)
    res = lga_solve(cs, UNIT, dft_codebook(2), LgaParams(), make_rng(0))
    assert res.gamma == 0.0
    assert np.all(np.isin(res.phases, (-1.0, 1.0)))


def test_lga_two_point_exhaustive():
    # single element, direct link present: the coefficient sign matters
    cs = ChannelSet(h=np.array([1.0 + 0.5j]),
                    h1_list=[np.array([[0.8 - 0.3j]])],
                    h2_list=[np.array([0.6 + 0.9j])])
    cb = dft_codebook(1)
    # with 2 individuals and p_mut = 1/n_bits = 1 the one child is the top
    # string flipped, so the second generation scores both admissible strings
    res = lga_solve(cs, UNIT, cb, LgaParams(individuals=2, generations=2), make_rng(1))
    d = np.conj(cs.h[0]) * cb[0, 0]
    s = np.conj(cs.h1_list[0][0, 0]) * np.conj(cs.h2_list[0][0]) * cb[0, 0]
    best = max(abs(d + s) ** 2, abs(d - s) ** 2)
    assert abs(res.gamma - best) < 1e-12 * best


def test_lga_never_beats_oracle():
    rng = make_rng(2)
    cb = dft_codebook(2)
    for trial in range(10):
        cs = random_channel_set(rng, 2, 10)
        res = lga_solve(cs, UNIT, cb, LgaParams(), rng)
        _, _, gstar = exhaustive_oracle(cs, UNIT, cb)
        assert res.gamma <= gstar * (1.0 + 1e-12)


def test_lga_gamma_consistent_with_snr():
    rng = make_rng(3)
    cb = dft_codebook(2)
    cs = random_channel_set(rng, 2, 6)
    res = lga_solve(cs, UNIT, cb, LgaParams(), rng)
    recomputed = snr(cs, res.phases, cb[:, res.precoder_index], UNIT)
    assert abs(res.gamma - recomputed) < 1e-10 * max(recomputed, 1e-30)


def test_lga_evaluation_count():
    rng = make_rng(4)
    cs = random_channel_set(rng, 2, 6)
    params = LgaParams(individuals=7, generations=3)
    res = lga_solve(cs, UNIT, dft_codebook(2), params, rng)
    assert res.evaluations == 2 * 3 * 7


def test_lga_deterministic():
    cb = dft_codebook(2)
    cs = random_channel_set(make_rng(5), 2, 8)
    a = lga_solve(cs, UNIT, cb, LgaParams(), make_rng(6))
    b = lga_solve(cs, UNIT, cb, LgaParams(), make_rng(6))
    assert a.gamma == b.gamma
    assert a.precoder_index == b.precoder_index
    assert np.array_equal(a.phases, b.phases)


def test_lga_multi_ris_phase_split():
    rng = make_rng(7)
    cs = random_channel_set(rng, 2, 3, k=2)
    res = lga_solve(cs, UNIT, dft_codebook(2), LgaParams(), rng)
    assert isinstance(res.phases, np.ndarray) and len(res.phases) == 2
    assert all(p.shape == (3,) for p in res.phases)
    recomputed = snr(cs, res.phases, dft_codebook(2)[:, res.precoder_index], UNIT)
    assert abs(res.gamma - recomputed) < 1e-10 * max(recomputed, 1e-30)


def block_draws(rng, n_v, params, n_bits):
    """The block's draws in ``lga_solve``'s documented order: the initial
    populations, the crossover points (unless n_bits is 1) and the flips,
    each in one call."""
    n_ind, n_gen = params.individuals, params.generations
    n_parents = params.n_parents if params.n_parents is not None \
        else max(1, n_ind // 2)
    n_off = n_ind - n_parents
    p_mut = params.p_mut if params.p_mut is not None else 1.0 / n_bits
    pops = rng.integers(0, 2, size=(n_v, n_ind, n_bits)) * 2.0 - 1.0
    points = rng.integers(1, n_bits, size=(n_v, n_gen, n_off)) if n_bits > 1 \
        else np.zeros((n_v, n_gen, n_off), dtype=np.int64)
    flips = rng.random((n_v, n_gen, n_off, n_bits)) < p_mut
    return pops, points, flips


def per_beam_lga(cs, budget, codebook, params, rng):
    """The genetic search one beam at a time, on the block's draws made first:
    per beam its initial population, then per generation a sort and a
    breeding with that beam's crossover points and flips.  Fitness is the
    projected form ``scale * |b0 - pop @ z|^2`` that ``lga_solve`` uses, with
    b0 and z from ``project``'s product."""
    n_bits = sum(h2.shape[0] for h2 in cs.h2_list)
    n_parents = params.n_parents if params.n_parents is not None \
        else max(1, params.individuals // 2)
    n_off = params.individuals - n_parents
    pops, points, flips = block_draws(rng, codebook.shape[1], params, n_bits)
    # every beam's direct term b0 and projected cascade z, one product
    proj = np.concatenate([np.conj(cs.h)[:, None]] +
                          [np.conj(h1) * np.conj(h2)[None, :]
                           for h1, h2 in zip(cs.h1_list, cs.h2_list)], axis=1)
    bz = np.ascontiguousarray(codebook.T) @ np.ascontiguousarray(proj)
    scale = budget.tx_power_w / budget.noise_power_w
    best_gamma, best_flat, best_idx, evaluations = -1.0, None, -1, 0
    for v_idx in range(codebook.shape[1]):
        b0, z_re, z_im = bz[v_idx, 0], bz[v_idx, 1:].real.copy(), bz[v_idx, 1:].imag.copy()
        pop = pops[v_idx].copy()
        for gen in range(params.generations):
            re, im = b0.real - pop @ z_re, b0.imag - pop @ z_im
            gammas = scale * (re * re + im * im)
            evaluations += params.individuals
            order = np.argsort(-gammas, kind="stable")
            pop, gammas = pop[order], gammas[order]
            if gammas[0] > best_gamma:
                best_gamma, best_flat, best_idx = float(gammas[0]), pop[0].copy(), v_idx
            parents = pop[:n_parents]
            children = np.empty((n_off, n_bits))
            for j in range(n_off):
                c = int(points[v_idx, gen, j])
                children[j, :c] = parents[j % n_parents][:c]
                children[j, c:] = parents[(j + 1) % n_parents][c:]
            pop[n_parents:] = np.where(flips[v_idx, gen], -children, children)
    n = cs.h2_list[0].shape[0]
    phases = np.array([best_flat[k * n:(k + 1) * n] for k in range(cs.ris_count)])
    return phases, best_idx, best_gamma, evaluations


def lga_edge_cases():
    """(channels, codebook, params): one and two surfaces, one element, a
    blocked direct path, the smallest population, p_mut 0 and 1, the default
    and a single parent, 1-5 generations."""
    rng = make_rng(20)
    cases = []
    for i in range(48):
        k = 1 + i % 2
        n_ris = (1, 3, 16)[i % 3]
        n_tx = (1, 2, 4)[(i // 3) % 3]
        individuals = (2, 3, 15)[(i // 2) % 3]
        params = LgaParams(individuals=individuals, generations=1 + i % 5,
                           p_mut=(None, 0.0, 1.0, 0.3)[(i // 4) % 4],
                           n_parents=individuals - 1 if i % 5 == 0 else None)
        cs = random_channel_set(rng, n_tx, n_ris, k=k, direct=i % 4 != 0)
        cases.append((cs, dft_codebook(n_tx), params))
    return cases


@pytest.mark.parametrize("group_bytes", [baselines.LGA_GROUP_BYTES, 1, 1000])
def test_lga_equals_the_per_beam_search(monkeypatch, group_bytes):
    # the stacked search against one beam at a time; a lone block is one
    # group of all its beams under every budget
    monkeypatch.setattr(baselines, "LGA_GROUP_BYTES", group_bytes)
    budget = LinkBudget(tx_power_w=2.5, noise_power_w=1e-3)
    for seed, (cs, cb, params) in enumerate(lga_edge_cases()):
        rng_ref, rng = make_rng(100 + seed), make_rng(100 + seed)
        phases, idx, gamma, evaluations = per_beam_lga(cs, budget, cb, params, rng_ref)
        res = lga_solve(cs, budget, cb, params, rng)
        assert res.gamma == gamma and res.precoder_index == idx
        assert res.evaluations == evaluations
        assert res.phases.shape == phases.shape
        assert np.array_equal(res.phases, phases)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def assert_stack_equals_block_calls(blocks, budget, cb, params, seed):
    """A stacked search of ``blocks`` against one-block calls in order, and
    against the per-beam reference, on one stream each: every block's gamma,
    beam and phases, the evaluation total (an int) and the end state."""
    rng_ref, rng_one, rng = make_rng(seed), make_rng(seed), make_rng(seed)
    res = lga_solve(blocks, budget, cb, params, rng)
    assert type(res.evaluations) is int
    assert res.gamma.dtype == np.float64 and res.gamma.shape == (len(blocks),)
    assert res.precoder_index.dtype == np.int64 and len(res.phases) == len(blocks)
    assert res.phases.shape == (len(blocks),) + np.shape(blocks[0].h2_list)
    evaluations = 0
    for i, cs in enumerate(blocks):
        phases, idx, gamma, count = per_beam_lga(cs, budget, cb, params, rng_ref)
        one = lga_solve(cs, budget, cb, params, rng_one)
        assert res.gamma[i] == one.gamma == gamma, i
        assert res.precoder_index[i] == one.precoder_index == idx, i
        assert res.phases[i].shape == phases.shape
        assert np.array_equal(res.phases[i], phases)
        assert np.array_equal(res.phases[i], one.phases)
        evaluations += one.evaluations
        assert one.evaluations == count
    assert res.evaluations == evaluations
    assert rng.bit_generator.state == rng_one.bit_generator.state \
        == rng_ref.bit_generator.state


@pytest.mark.parametrize("group_bytes", [1, 20_000, baselines.LGA_GROUP_BYTES, 1 << 30])
def test_lga_stack_equals_one_block_calls(monkeypatch, group_bytes):
    # stacks of 1-4 blocks shaped as each edge case, the case's own block
    # first, the others with open and blocked direct paths; searched one block
    # per group, a block or a few per group, in the shipped groups, and all
    # in one group
    monkeypatch.setattr(baselines, "LGA_GROUP_BYTES", group_bytes)
    budget = LinkBudget(tx_power_w=2.5, noise_power_w=1e-3)
    rng = make_rng(34)
    for seed, (cs, cb, params) in enumerate(lga_edge_cases()):
        n_tx, k, n_ris = cs.h.shape[0], cs.ris_count, cs.h2_list[0].shape[0]
        blocks = [cs] + [random_channel_set(rng, n_tx, n_ris, k=k, direct=j % 2 == 0)
                         for j in range(seed % 4)]
        assert_stack_equals_block_calls(blocks, budget, cb, params, 200 + seed)


@pytest.mark.parametrize("group_bytes", [1, baselines.LGA_GROUP_BYTES, 1 << 30])
def test_lga_paper_stack_equals_one_block_calls(monkeypatch, group_bytes):
    # three configs/single_ris.yaml blocks, whose line-of-sight H1 is one
    # array shared by every block
    monkeypatch.setattr(baselines, "LGA_GROUP_BYTES", group_bytes)
    cfg = load_config(CONFIGS / "single_ris.yaml")
    (blocks,) = sample_episodes(cfg.scenario, 1, 3, derive_rng(cfg.seed, "eval", "channels"))
    cb = evaluation_codebook(cfg.scenario, cfg.arch.codebook_size)
    assert_stack_equals_block_calls(blocks, link_budget_from(cfg.scenario), cb, cfg.lga, 35)


@pytest.mark.parametrize("group_bytes", [1, 1 << 30])
def test_lga_stack_ties_go_to_the_lowest_beam(monkeypatch, group_bytes):
    # on a zero block every string of every beam scores 0: the first beam's
    # first top wins, whether each block is its own group or all share one
    monkeypatch.setattr(baselines, "LGA_GROUP_BYTES", group_bytes)
    rng = make_rng(40)
    blocks = [zero_channel_set(4, 3), random_channel_set(rng, 4, 3), zero_channel_set(4, 3)]
    assert_stack_equals_block_calls(blocks, UNIT, dft_codebook(4), LgaParams(), 41)
    res = lga_solve(blocks, UNIT, dft_codebook(4), LgaParams(), make_rng(41))
    assert res.precoder_index[0] == res.precoder_index[2] == 0


def test_lga_stack_names_a_block_without_a_finite_best():
    rng = make_rng(36)
    blocks = [random_channel_set(rng, 2, 4) for _ in range(3)]
    blocks[1].h[0] = np.nan
    with pytest.raises(ValueError, match="no finite best SNR on block 1"), \
            np.errstate(invalid="ignore"):
        lga_solve(blocks, UNIT, dft_codebook(2), LgaParams(), make_rng(37))


@pytest.mark.parametrize("blocks", [[], "mixed sizes", "mixed surfaces"])
def test_lga_refuses_an_empty_or_mixed_stack(blocks):
    rng = make_rng(38)
    if blocks == "mixed sizes":
        blocks = [random_channel_set(rng, 2, 4), random_channel_set(rng, 2, 5)]
    elif blocks == "mixed surfaces":
        blocks = [random_channel_set(rng, 2, 4), random_channel_set(rng, 2, 2, k=2)]
    with pytest.raises(ValueError, match="one block at least|same antenna"):
        lga_solve(blocks, UNIT, dft_codebook(2), LgaParams(), make_rng(39))


def test_lga_runs_of_whole_blocks_fit_the_byte_budget(monkeypatch):
    # each run of blocks makes its draws in one ``_draws`` call
    runs = []
    draws = baselines._draws
    monkeypatch.setattr(baselines, "_draws",
                        lambda rng, n_c, *rest: runs.append(n_c) or draws(rng, n_c, *rest))

    def run_sizes(blocks, cb, params):
        runs.clear()
        lga_solve(blocks, UNIT, cb, params, make_rng(42))
        return list(runs)

    # a paper-scale beam (15 strings of 400 bits, 8 offspring, 5 generations)
    # holds 150.4 kB, so a block of 16 beams runs alone
    assert baselines._beam_bytes(15, 8, 5, 400) == \
        8 * 400 * (2 * 15 + 5 + 2) + 2 * 5 * 8 * 400 == 150_400
    cfg = load_config(CONFIGS / "single_ris.yaml")
    (blocks,) = sample_episodes(cfg.scenario, 1, 2, derive_rng(cfg.seed, "eval", "channels"))
    assert run_sizes(blocks, evaluation_codebook(cfg.scenario, cfg.arch.codebook_size),
                     cfg.lga) == [1, 1]
    # a 50-block desk episode runs in two runs of 25 blocks, four of 12-13
    # with two surfaces
    rng = make_rng(43)
    for k, sizes in ((1, [25, 25]), (2, [12, 13, 12, 13])):
        blocks = [random_channel_set(rng, 4, 16, k=k) for _ in range(50)]
        assert run_sizes(blocks, dft_codebook(4), LgaParams()) == sizes
    # a block over the budget still runs, alone
    monkeypatch.setattr(baselines, "LGA_GROUP_BYTES", 1)
    assert run_sizes(blocks[:3], dft_codebook(4), LgaParams()) == [1, 1, 1]


@pytest.mark.parametrize("n_ris", [6, 1])
def test_lga_makes_the_documented_draws(n_ris):
    # the stream ends where a fresh one does after exactly the documented
    # draws: three calls, two with one element
    cs = random_channel_set(make_rng(27), 2, n_ris)
    params = LgaParams(individuals=5, generations=3)
    res_rng, ref_rng = make_rng(28), make_rng(28)
    lga_solve(cs, UNIT, dft_codebook(2), params, res_rng)
    block_draws(ref_rng, 2, params, n_ris)
    assert res_rng.bit_generator.state == ref_rng.bit_generator.state


def projected_gammas(cs, budget, codebook, pop):
    """(strings, beams) SNRs as the search scores them, scale * |b0 - pop @ z|^2
    with b0 and z from ``project``."""
    (b0,), (z,) = project([cs], codebook)
    re = b0.real - pop @ z.real.T
    im = b0.imag - pop @ z.imag.T
    return budget.tx_power_w / budget.noise_power_w * (re * re + im * im)


def full_cascade_gammas(cs, budget, codebook, pop):
    """scale * |(conj(h) + (-pop) @ B^T) @ v|^2, the full n_tx-wide effective
    channel of each string projected on each beam; and per beam, scale times
    the squared sum of the magnitudes of the terms of b0 and z = B^T v, the
    size that rounding in either form is relative to."""
    bt = np.concatenate([np.conj(h1) * np.conj(h2)[None, :]
                         for h1, h2 in zip(cs.h1_list, cs.h2_list)], axis=1).T
    scale = budget.tx_power_w / budget.noise_power_w
    gammas = scale * np.abs((np.conj(cs.h)[None, :] + (-pop) @ bt) @ codebook) ** 2
    terms = np.abs(cs.h) @ np.abs(codebook) + (np.abs(bt) @ np.abs(codebook)).sum(0)
    return gammas, scale * terms ** 2


def test_lga_fitness_equals_the_full_cascade():
    # the projected fitness scale * |b0 - pop @ z|^2 against the full effective
    # channel, on random blocks: one and two surfaces, open and blocked direct
    # paths, 1 to 16 antennas
    rng = make_rng(25)
    budget = LinkBudget(tx_power_w=2.5, noise_power_w=1e-3)
    for i, n_tx in enumerate((1, 2, 3, 4, 8, 16) * 4):
        k, direct = 1 + i % 2, (i // 2) % 2 == 0
        cs = random_channel_set(rng, n_tx, 5, k=k, direct=direct)
        cb = dft_codebook(n_tx)
        pop = rng.integers(0, 2, (6, 5 * k)) * 2.0 - 1.0
        ref, _ = full_cascade_gammas(cs, budget, cb, pop)
        got = projected_gammas(cs, budget, cb, pop)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref), (i, n_tx, k, direct)


def test_lga_fitness_equals_the_full_cascade_on_a_paper_block():
    # on configs/single_ris.yaml only DFT beam 0 is live; every other beam's
    # SNR is rounding noise in both forms, so it is held to the size of its
    # terms instead
    cfg = load_config(CONFIGS / "single_ris.yaml")
    (cs,), = sample_episodes(cfg.scenario, 1, 1, derive_rng(cfg.seed, "eval", "channels"))
    budget = link_budget_from(cfg.scenario)
    cb = evaluation_codebook(cfg.scenario, cfg.arch.codebook_size)
    pop = make_rng(26).integers(0, 2, (3, cfg.scenario.n_ris)) * 2.0 - 1.0
    ref, terms = full_cascade_gammas(cs, budget, cb, pop)
    got = projected_gammas(cs, budget, cb, pop)
    assert np.all(np.abs(got[:, 0] - ref[:, 0]) <= 1e-12 * ref[:, 0])
    assert np.all(ref[:, 1:] < 1e-20 * terms[1:])
    assert np.all(np.abs(got[:, 1:] - ref[:, 1:]) <= 1e-12 * terms[1:])


def test_project_of_a_stack_equals_one_block_calls():
    # every block's b0 and z, bit for bit, whatever its neighbours: stacks of
    # 1-4 blocks shaped as each edge case, and three paper blocks that share
    # one line-of-sight H1
    rng = make_rng(44)
    stacks = []
    for cs, cb, _ in lga_edge_cases():
        n_tx, k, n_ris = cs.h.shape[0], cs.ris_count, cs.h2_list[0].shape[0]
        stacks.append(([cs] + [random_channel_set(rng, n_tx, n_ris, k=k, direct=j % 2 == 0)
                               for j in range(3)], cb))
    cfg = load_config(CONFIGS / "single_ris.yaml")
    (paper,) = sample_episodes(cfg.scenario, 1, 3, derive_rng(cfg.seed, "eval", "channels"))
    stacks.append((paper, evaluation_codebook(cfg.scenario, cfg.arch.codebook_size)))
    for blocks, cb in stacks:
        b0, z = project(blocks, cb)
        n_bits = sum(h2.shape[0] for h2 in blocks[0].h2_list)
        assert b0.shape == (len(blocks), cb.shape[1])
        assert z.shape == (len(blocks), cb.shape[1], n_bits)
        for i, cs in enumerate(blocks):
            (one_b0,), (one_z,) = project([cs], cb)
            assert np.array_equal(b0[i], one_b0) and np.array_equal(z[i], one_z)


def test_project_does_not_depend_on_the_memory_layout():
    # C-ordered, Fortran-ordered and column-sliced codebooks give the same
    # bits, and so does a Fortran-ordered H1
    rng = make_rng(45)
    for n_tx in (1, 2, 3, 4, 8, 16):
        for n_v in (1, 3, n_tx):
            for k, n_ris in ((1, 1), (1, 5), (2, 3), (1, 16)):
                cs = random_channel_set(rng, n_tx, n_ris, k=k, direct=n_ris != 5)
                wide = rng.standard_normal((n_tx, n_v + 1)) \
                    + 1j * rng.standard_normal((n_tx, n_v + 1))
                cb = np.ascontiguousarray(wide[:, 1:])
                b0, z = project([cs], cb)
                fortran_h1 = ChannelSet(h=cs.h, h2_list=cs.h2_list,
                                        h1_list=[np.asfortranarray(h1) for h1 in cs.h1_list])
                for other_cs, other_cb in ((cs, np.asfortranarray(cb)), (cs, wide[:, 1:]),
                                           (fortran_h1, cb)):
                    other_b0, other_z = project([other_cs], other_cb)
                    assert np.array_equal(other_b0, b0) and np.array_equal(other_z, z), \
                        (n_tx, n_v, k, n_ris)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lga_refuses_non_finite_channels(bad):
    cs = random_channel_set(make_rng(23), 2, 4)
    cs.h[0] = bad
    with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
        lga_solve(cs, UNIT, dft_codebook(2), LgaParams(), make_rng(24))


BAD_CODEBOOKS = [np.zeros((2, 0), dtype=np.complex128), dft_codebook(3),
                 dft_codebook(2)[0]]


@pytest.mark.parametrize("codebook", BAD_CODEBOOKS, ids=["no beam", "3 rows", "1-d"])
def test_lga_refuses_a_codebook_of_the_wrong_shape(codebook):
    cs = random_channel_set(make_rng(29), 2, 4)
    with pytest.raises(ValueError, match=r"codebook .*got shape"):
        lga_solve(cs, UNIT, codebook, LgaParams(), make_rng(30))


def test_lga_params_validation():
    with pytest.raises(ValueError):
        LgaParams(individuals=1)
    with pytest.raises(ValueError):
        LgaParams(p_mut=1.5)
    with pytest.raises(ValueError):
        LgaParams(individuals=4, n_parents=4)


# -- exhaustive_oracle --------------------------------------------------------

def test_oracle_zero_channels_tie_break():
    cs = zero_channel_set(2, 3)
    phases, idx, gstar = exhaustive_oracle(cs, UNIT, dft_codebook(2))
    assert gstar == 0.0
    # all pairs tie at zero: lowest-lex string, lowest precoder index win
    assert np.array_equal(phases, [[-1.0, -1.0, -1.0]])
    assert idx == 0


def test_oracle_scalar_sign_rule():
    # one element, direct present: analytic max over the coefficient sign
    cs = ChannelSet(h=np.array([0.9 - 0.2j, 0.1 + 0.4j]),
                    h1_list=[np.array([[0.5 + 0.5j], [-0.3 + 0.1j]])],
                    h2_list=[np.array([1.1 - 0.7j])])
    cb = dft_codebook(2)
    phases, idx, gstar = exhaustive_oracle(cs, UNIT, cb)
    best = 0.0
    for coef in (1.0, -1.0):
        m = np.conj(cs.h) + coef * np.conj(cs.h1_list[0][:, 0]) * \
            np.conj(cs.h2_list[0][0])
        for j in range(2):
            best = max(best, abs(np.dot(m, cb[:, j])) ** 2)
    assert abs(gstar - best) < 1e-12 * best
    assert abs(snr(cs, phases, cb[:, idx], UNIT) - gstar) < 1e-12 * best


def test_oracle_blocked_scalar_is_sign_insensitive():
    cs = ChannelSet(h=np.zeros(2, dtype=np.complex128),
                    h1_list=[np.array([[0.5 + 0.5j], [-0.3 + 0.1j]])],
                    h2_list=[np.array([1.1 - 0.7j])])
    cb = dft_codebook(2)
    phases, _, gstar = exhaustive_oracle(cs, UNIT, cb)
    cascade = np.conj(cs.h1_list[0][:, 0]) * np.conj(cs.h2_list[0][0])
    analytic = max(abs(np.dot(cascade, cb[:, j])) ** 2 for j in range(2))
    # both coefficient signs reach the same magnitude; lowest-lex phase wins
    assert abs(gstar - analytic) < 1e-12 * analytic
    assert phases[0, 0] == -1.0


def test_oracle_upper_bounds_random_sampling():
    rng = make_rng(8)
    cs = random_channel_set(rng, 2, 4)
    cb = dft_codebook(2)
    _, _, gstar = exhaustive_oracle(cs, UNIT, cb)
    for _ in range(1000):
        phases = rng.integers(0, 2, 4) * 2.0 - 1.0
        v = cb[:, int(rng.integers(2))]
        assert snr(cs, phases, v, UNIT) <= gstar * (1.0 + 1e-12)


def test_oracle_matches_plain_python_enumeration():
    rng = make_rng(9)
    cs = random_channel_set(rng, 2, 3)
    cb = dft_codebook(2)
    phases, idx, gstar = exhaustive_oracle(cs, UNIT, cb)
    # independent reference: itertools-style nested loops
    best = (-1.0, None, None)
    for code in range(2 ** 3):
        phi = np.array([1.0 if (code >> (2 - i)) & 1 else -1.0
                        for i in range(3)])
        for j in range(2):
            g = snr(cs, phi, cb[:, j], UNIT)
            if g > best[0]:
                best = (g, phi, j)
    assert abs(gstar - best[0]) < 1e-12 * best[0]
    assert np.array_equal(phases, [best[1]])
    assert idx == best[2]


def test_oracle_respects_cap():
    cs = random_channel_set(make_rng(10), 2, 8)
    with pytest.raises(ValueError):
        exhaustive_oracle(cs, UNIT, dft_codebook(2), cap=2 ** 8)


def test_oracle_chunking_boundary():
    # n_bits large enough to exercise more than one enumeration chunk
    rng = make_rng(11)
    cs = random_channel_set(rng, 2, 15, direct=False)
    _, _, gstar = exhaustive_oracle(cs, UNIT, dft_codebook(2)[:, :1])
    for _ in range(200):
        phi = rng.integers(0, 2, 15) * 2.0 - 1.0
        assert snr(cs, phi, dft_codebook(2)[:, 0], UNIT) <= gstar * (1 + 1e-12)


@pytest.mark.parametrize("codebook", BAD_CODEBOOKS, ids=["no beam", "3 rows", "1-d"])
def test_oracle_refuses_a_codebook_of_the_wrong_shape(codebook):
    cs = random_channel_set(make_rng(31), 2, 4)
    with pytest.raises(ValueError, match=r"codebook .*got shape"):
        exhaustive_oracle(cs, UNIT, codebook)


# -- random_baseline ----------------------------------------------------------

def test_random_baseline_codomain_and_determinism():
    cs = random_channel_set(make_rng(12), 2, 5)
    cb = dft_codebook(2)
    a_phases, a_idx = random_baseline(cs, cb, make_rng(13))
    b_phases, b_idx = random_baseline(cs, cb, make_rng(13))
    assert np.all(np.isin(a_phases, (-1.0, 1.0)))
    assert 0 <= a_idx < 2
    assert np.array_equal(a_phases, b_phases) and a_idx == b_idx


def test_random_baseline_frequencies():
    cs = random_channel_set(make_rng(14), 2, 4)
    cb = dft_codebook(2)
    rng = make_rng(15)
    draws = np.stack([random_baseline(cs, cb, rng)[0] for _ in range(10_000)])
    freq_plus = (draws > 0).mean(axis=0)
    assert np.all(np.abs(freq_plus - 0.5) < 0.015)  # 3 sigma binomial


def test_random_baseline_multi_ris():
    cs = random_channel_set(make_rng(16), 2, 3, k=2)
    phases, idx = random_baseline(cs, dft_codebook(2), make_rng(17))
    assert isinstance(phases, np.ndarray) and len(phases) == 2
    assert all(p.shape == (3,) for p in phases)


@pytest.mark.parametrize("codebook", BAD_CODEBOOKS, ids=["no beam", "3 rows", "1-d"])
def test_random_baseline_refuses_a_codebook_of_the_wrong_shape(codebook):
    cs = random_channel_set(make_rng(32), 2, 4)
    with pytest.raises(ValueError, match=r"codebook .*got shape"):
        random_baseline(cs, codebook, make_rng(33))


# -- one phase layout ---------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_every_arm_gives_a_surface_by_element_array_that_snr_takes(k):
    rng = make_rng(50 + k)
    blocks = [random_channel_set(rng, 2, 3, k=k) for _ in range(3)]
    cs, cb = blocks[0], dft_codebook(2)

    def assert_grid(phases, shape):
        assert isinstance(phases, np.ndarray) and phases.dtype == np.float64
        assert phases.shape == shape and np.all(np.isin(phases, (-1.0, 1.0)))

    one = lga_solve(cs, UNIT, cb, LgaParams(), make_rng(60))
    assert_grid(one.phases, (k, 3))
    got = snr(cs, one.phases, cb[:, one.precoder_index], UNIT)
    assert abs(one.gamma - got) < 1e-10 * max(got, 1e-30)

    stack = lga_solve(blocks, UNIT, cb, LgaParams(), make_rng(61))
    assert_grid(stack.phases, (3, k, 3))
    got = snr(blocks, stack.phases, [cb[:, i] for i in stack.precoder_index], UNIT)
    assert np.all(np.abs(stack.gamma - got) < 1e-10 * np.maximum(got, 1e-30))

    phases, idx, gstar = exhaustive_oracle(cs, UNIT, cb)
    assert_grid(phases, (k, 3))
    assert abs(snr(cs, phases, cb[:, idx], UNIT) - gstar) < 1e-12 * gstar

    # one integers call per surface, then the beam: the stream of a list of
    # per-surface vectors
    ref, drawn = make_rng(62), make_rng(62)
    phases, idx = random_baseline(cs, cb, drawn)
    want = [ref.integers(0, 2, size=3) * 2.0 - 1.0 for _ in range(k)]
    assert_grid(phases, (k, 3))
    assert np.array_equal(phases, want) and idx == int(ref.integers(2))
    assert drawn.bit_generator.state == ref.bit_generator.state
    assert snr(cs, phases, cb[:, idx], UNIT) == snr(cs, want, cb[:, idx], UNIT)
    if k == 1:  # the lone (n_ris,) vector a single-surface decision gives
        assert snr(cs, phases[0], cb[:, idx], UNIT) == snr(cs, phases, cb[:, idx], UNIT)
