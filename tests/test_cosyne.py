"""Tests for the population trainer.

Operator statistics are bounded with 3-sigma binomial arithmetic computed
inline; fitness accumulation is replayed step by step with the link-level
evaluator; the permutation probability is checked against its closed form.
"""

import functools
import math
import multiprocessing
import os
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evoris import cosyne
from evoris.channel import ScenarioConfig, sample_episodes
from evoris.cosyne import (EvoParams, Population, _genome_policy_rng,
                           column_shuffle, crossover, evaluate_fitness,
                           evaluate_population, evolve_generation,
                           init_population, mutate,
                           permutation_probabilities, resolve_workers, train)
from evoris.harness import load_config, trained_policy_configs
from evoris.multiris import AggregatorConfig, evaluate_fitness_multi
from evoris.numerics import derive_seed, make_rng
from evoris.policy import ArchConfig, forward
from evoris.system import evaluation_codebook, link_budget_from, snr

ROOT = Path(__file__).resolve().parent.parent
SCN = ScenarioConfig(n_tx=2, n_ris=4, kappa_h2_db=10.0, kappa_h_db=10.0,
                     horizon=3, episodes=2)
ARCH = ArchConfig(n_tx=2, n_ris=4, codebook_size=2)
SCN_K2 = ScenarioConfig(n_tx=2, n_ris=4, ris_count=2,
                        ris_positions=((3.0, 3.0, 2.0), (6.0, 6.0, -2.0)),
                        rx_position=(10.0, 10.0, 5.0), direct_blocked=False,
                        direct_attenuation_db=10.0, horizon=3, episodes=2)
ARCH_D = ArchConfig(n_tx=2, n_ris=4, codebook_size=2, direct_branch=True)
AGG_K2 = AggregatorConfig(ris_count=2, codebook_size=2)


# -- init_population ----------------------------------------------------------

def test_init_population_zero_sigma():
    params = EvoParams(l_pop=4, init_sigma=0.0)
    pop = init_population(params, 10, make_rng(0))
    assert np.array_equal(pop.weights, np.zeros((4, 10)))
    assert np.all(np.isnan(pop.fitness))
    assert pop.generation == 0


def test_init_population_moments():
    params = EvoParams(l_pop=100, init_sigma=0.2)
    pop = init_population(params, 10_000, make_rng(1))
    vals = pop.weights.reshape(-1)  # 1e6 entries
    assert abs(vals.mean()) < 0.01
    assert abs(vals.std() - 0.2) < 0.002


def test_init_population_deterministic():
    params = EvoParams(l_pop=4)
    a = init_population(params, 32, make_rng(2))
    b = init_population(params, 32, make_rng(2))
    assert np.array_equal(a.weights, b.weights)


# -- evaluate_fitness ---------------------------------------------------------

def test_fitness_single_frozen_step():
    rng = make_rng(3)
    w = rng.standard_normal(ARCH.genome_size) * 0.3
    cs = sample_episodes(SCN, 1, 1, make_rng(4))[0][0]
    f = evaluate_fitness(w, ARCH, SCN, 0, 0, mode="argmax", trace=[[cs]])
    out = forward(w, ARCH, cs.h, cs.h1_list[0], cs.h2_list[0], mode="argmax")
    cb = evaluation_codebook(SCN, ARCH.codebook_size)
    gamma = snr(cs, out.phases, cb[:, out.precoder_index], link_budget_from(SCN))
    assert f == gamma


def test_fitness_identical_episodes_collapse():
    rng = make_rng(5)
    w = rng.standard_normal(ARCH.genome_size) * 0.3
    episode = sample_episodes(SCN, 1, 3, make_rng(6))[0]
    one = evaluate_fitness(w, ARCH, SCN, 0, 0, mode="argmax", trace=[episode])
    two = evaluate_fitness(w, ARCH, SCN, 0, 0, mode="argmax",
                           trace=[episode, episode])
    # identical decisions; only the summation order differs
    assert abs(one - two) < 1e-12 * one


def test_fitness_matches_per_step_accumulation():
    rng = make_rng(7)
    w = rng.standard_normal(ARCH.genome_size) * 0.3
    trace = sample_episodes(SCN, 2, 3, make_rng(8))
    f = evaluate_fitness(w, ARCH, SCN, 0, 0, mode="argmax", trace=trace)
    # replay every step with the link-level evaluator and average by hand
    cb = evaluation_codebook(SCN, ARCH.codebook_size)
    budget = link_budget_from(SCN)
    gammas = []
    for episode in trace:
        for cs in episode:
            out = forward(w, ARCH, cs.h, cs.h1_list[0], cs.h2_list[0],
                          mode="argmax")
            gammas.append(snr(cs, out.phases, cb[:, out.precoder_index], budget))
    assert abs(f - np.mean(gammas)) < 1e-15 * max(1.0, abs(f))


def test_fitness_sampling_path_equals_pregenerated_trace():
    # cases: (surfaces, mode); two surfaces go through the direct branch
    # and the vote aggregator
    for surfaces, mode in ((1, "argmax"), (1, "sample"), (2, "argmax"), (2, "sample")):
        rng = make_rng(9)
        if surfaces == 1:
            scn = SCN
            w = rng.standard_normal(ARCH.genome_size) * 0.3
            fitness = functools.partial(evaluate_fitness, w, ARCH, scn)
        else:
            scn = SCN_K2
            w = rng.standard_normal(ARCH_D.genome_size + AGG_K2.genome_size) * 0.3
            fitness = functools.partial(evaluate_fitness_multi, w, ARCH_D, AGG_K2, scn)
        live = fitness(3, 2, rng=make_rng(10), policy_rng=make_rng(11), mode=mode)
        trace = sample_episodes(scn, 2, 3, make_rng(10))
        frozen = fitness(0, 0, policy_rng=make_rng(11), mode=mode, trace=trace)
        assert live == frozen, (surfaces, mode)


def test_fitness_sample_mode_deterministic_given_rng():
    rng = make_rng(11)
    w = rng.standard_normal(ARCH.genome_size) * 0.3
    trace = sample_episodes(SCN, 2, 3, make_rng(12))
    a = evaluate_fitness(w, ARCH, SCN, 0, 0, policy_rng=make_rng(13),
                         mode="sample", trace=trace)
    b = evaluate_fitness(w, ARCH, SCN, 0, 0, policy_rng=make_rng(13),
                         mode="sample", trace=trace)
    assert a == b


def test_fitness_needs_rng_or_trace():
    with pytest.raises(ValueError):
        evaluate_fitness(np.zeros(ARCH.genome_size), ARCH, SCN, 3, 2)


# -- crossover ----------------------------------------------------------------

def test_crossover_identical_parents():
    p = make_rng(14).standard_normal(50)
    child = crossover(p, p.copy(), make_rng(15))
    assert np.array_equal(child, p)


class _AllHeads:
    """Generator stub whose uniform draws always pick the first parent."""

    def random(self, shape):
        return np.zeros(shape)


def test_crossover_forced_first_parent():
    rng = make_rng(16)
    p1, p2 = rng.standard_normal(50), rng.standard_normal(50)
    assert np.array_equal(crossover(p1, p2, _AllHeads()), p1)


def test_crossover_inheritance_fraction():
    rng = make_rng(17)
    n = 10_000
    p1, p2 = np.zeros(n), np.ones(n)
    child = crossover(p1, p2, rng)
    frac = np.mean(child == 0.0)
    assert abs(frac - 0.5) < 0.02  # 3 sigma binomial is 0.015


def test_crossover_rejects_length_mismatch():
    with pytest.raises(ValueError):
        crossover(np.zeros(3), np.zeros(4), make_rng(18))


# -- mutate -------------------------------------------------------------------

def test_mutate_zero_probability():
    g = make_rng(19).standard_normal(100)
    assert np.array_equal(mutate(g, 0.0, 0.2, make_rng(20)), g)


def test_mutate_zero_sigma():
    g = make_rng(21).standard_normal(100)
    assert np.array_equal(mutate(g, 1.0, 0.0, make_rng(22)), g)


def test_mutate_statistics():
    n = 10_000
    g = np.zeros(n)
    out = mutate(g, 0.3, 0.2, make_rng(23))
    changed = out != 0.0
    frac = changed.mean()
    assert abs(frac - 0.3) < 3.0 * math.sqrt(0.3 * 0.7 / n)  # ~0.014
    assert abs(out[changed].std() - 0.2) < 0.05 * 0.2


def test_mutate_stream_consumption_independent_of_p():
    # equal rng state afterwards regardless of the hit fraction
    g = np.zeros(100)
    a = make_rng(24)
    b = make_rng(24)
    mutate(g, 0.1, 0.2, a)
    mutate(g, 0.9, 0.2, b)
    assert a.random() == b.random()


# -- permutation probabilities / column shuffle --------------------------------

def test_permutation_probability_cases():
    probs = permutation_probabilities(np.array([4.0, 0.0, 2.0]), 4.0, 1)
    assert probs[0] == 0.0
    assert probs[1] == 1.0
    assert abs(probs[2] - 0.5) < 1e-15


def test_permutation_probability_large_m_closed_form():
    p = permutation_probabilities(np.array([0.5]), 1.0, 10 ** 6)[0]
    expected = 1.0 - math.exp(math.log(0.5) / 10 ** 6)  # about 6.93e-7
    assert abs(p - expected) < 0.01 * expected


def test_permutation_probability_degenerate_generation():
    probs = permutation_probabilities(np.zeros(4), 0.0, 100)
    assert np.array_equal(probs, np.zeros(4))
    with pytest.raises(ValueError):
        permutation_probabilities(np.array([-1.0]), 1.0, 10)


def test_column_shuffle_preserves_column_multisets():
    rng = make_rng(25)
    w = rng.standard_normal((10, 200))
    probs = rng.uniform(0.0, 1.0, 10)
    out = column_shuffle(w, probs, rng)
    assert out.shape == w.shape
    assert np.array_equal(np.sort(out, axis=0), np.sort(w, axis=0))


def test_column_shuffle_zero_probability_is_identity():
    w = make_rng(26).standard_normal((6, 50))
    out = column_shuffle(w, np.zeros(6), make_rng(27))
    assert np.array_equal(out, w)


def test_column_shuffle_deterministic_given_seed():
    rng = make_rng(28)
    w = rng.standard_normal((8, 100))
    probs = rng.uniform(0.0, 0.8, 8)
    a = column_shuffle(w, probs, make_rng(29))
    b = column_shuffle(w, probs, make_rng(29))
    assert np.array_equal(a, b)
    assert np.array_equal(np.sort(a, axis=0), np.sort(w, axis=0))


def test_column_shuffle_out_in_place_and_buffer_agree():
    # a fresh array, the input itself and a distinct buffer as destination
    # give the same bytes and leave the generator in the same state
    w = make_rng(40).standard_normal((8, 300))
    probs = np.linspace(0.0, 0.9, 8)
    rngs = [make_rng(41) for _ in range(3)]
    fresh = column_shuffle(w, probs, rngs[0])
    assert np.count_nonzero(fresh != w) > 100
    inplace = w.copy()
    assert column_shuffle(inplace, probs, rngs[1], out=inplace) is inplace
    buf = np.full_like(w, np.nan)
    source = w.copy()
    assert column_shuffle(source, probs, rngs[2], out=buf) is buf
    assert np.array_equal(source, w)
    for other in (inplace, buf):
        assert other.tobytes() == fresh.tobytes()
    states = [r.bit_generator.state for r in rngs]
    assert states[1] == states[0] and states[2] == states[0]


def _moved_per_column_law(probs):
    """Mean and variance of the entries one column loses to the shuffle.

    n marked entries (a sum of independent Bernoulli(p_r)) are permuted
    uniformly; an entry moves unless it is a fixed point, and a uniform
    permutation of n >= 1 has one fixed point on average with variance 1
    for n >= 2 (n = 1 always fixes its entry).  So E[moved | n] = max(n-1, 0)
    and Var[moved | n] = [n >= 2].
    """
    dist = np.array([1.0])  # P(n marked)
    for p in probs:
        dist = np.convolve(dist, [1.0 - p, p])
    n = np.arange(dist.size)
    given = np.maximum(n - 1, 0)
    mean = float(dist @ given)
    var = float(dist[2:].sum() + dist @ given ** 2 - mean ** 2)
    return mean, var


def test_column_shuffle_marking_law():
    # every entry is marked independently with its row's probability, so the
    # moved-entry count per column follows the closed form above
    m = 20_000
    cases = ([0.0, 1.0, 1.0, 1.0],
             [0.0, 0.05, 0.3, 0.7, 1.0, 0.5],
             [0.0, 0.001, 0.01, 0.02])
    for seed, probs in enumerate(cases):
        w = make_rng(200 + seed).standard_normal((len(probs), m))
        before = w.copy()
        out = column_shuffle(w, np.array(probs), make_rng(300 + seed))
        assert np.array_equal(w, before)  # the input is left as it was
        moved = np.count_nonzero(out != w)
        mean, var = _moved_per_column_law(probs)
        assert abs(moved - m * mean) <= 3.0 * math.sqrt(m * var), (probs, moved)
        # a row with p = 0 (the elite) is never touched, bit for bit
        assert out[0].tobytes() == w[0].tobytes()
        assert np.array_equal(np.sort(out, axis=0), np.sort(w, axis=0))
    # three fully marked rows: a column stays fixed with probability 1/3! = 1/6
    w = make_rng(210).standard_normal((3, m))
    out = column_shuffle(w, np.ones(3), make_rng(211))
    fixed = np.count_nonzero(np.all(out == w, axis=0))
    assert abs(fixed - m / 6) <= 3.0 * math.sqrt(m * (1 / 6) * (5 / 6))


# -- evaluate_population / evolve_generation -----------------------------------

def fitness_by_first_gene(values, index):
    return float(abs(values[0]))


def test_evaluate_population_sorts_descending():
    pop = Population(weights=np.array([[1.0], [3.0], [2.0]]),
                     fitness=np.full(3, np.nan))
    evaluate_population(pop, fitness_by_first_gene)
    assert np.array_equal(pop.fitness, [3.0, 2.0, 1.0])
    assert np.array_equal(pop.weights.ravel(), [3.0, 2.0, 1.0])


def test_evaluate_population_sorts_rows_in_place():
    # several permutation cycles and ties; fancy indexing is the reference
    w = make_rng(39).standard_normal((12, 5))
    w[[3, 7], 0] = w[5, 0]
    order = np.argsort(-np.abs(w[:, 0]), kind="stable")
    pop = Population(weights=w.copy(), fitness=np.full(12, np.nan))
    matrix = pop.weights
    evaluate_population(pop, fitness_by_first_gene)
    assert pop.weights is matrix
    assert np.array_equal(pop.weights, w[order])


def test_evaluate_population_rejects_nan():
    for bad in ("nan", "inf", "-inf"):
        pop = Population(weights=np.zeros((3, 1)), fitness=np.full(3, np.nan))
        with pytest.raises(ValueError):
            evaluate_population(pop, lambda values, index: float(bad))


def test_evolve_generation_single_parent_fallback():
    params = EvoParams(l_pop=4, p_mut=0.0, permutation_enabled=False,
                       generations=1)
    rng = make_rng(30)
    pop = Population(weights=rng.standard_normal((4, 6)),
                     fitness=np.full(4, np.nan))
    nxt = evolve_generation(pop, fitness_by_first_gene, params, rng)
    # one parent; p_mut 0 clones it into every offspring slot
    assert nxt.generation == 1
    for j in range(4):
        assert np.array_equal(nxt.weights[j], pop.weights[0])


def test_evolve_generation_identical_parents_degenerate():
    params = EvoParams(l_pop=8, p_mut=0.0, permutation_enabled=False)
    row = make_rng(31).standard_normal(5)
    pop = Population(weights=np.tile(row, (8, 1)), fitness=np.full(8, np.nan))
    nxt = evolve_generation(pop, fitness_by_first_gene, params, make_rng(32))
    assert np.array_equal(nxt.weights, np.tile(row, (8, 1)))


def test_evolve_generation_keeps_top_quartile():
    params = EvoParams(l_pop=8, p_mut=1.0, sigma_mut=0.5,
                       permutation_enabled=False)
    rng = make_rng(33)
    pop = Population(weights=rng.standard_normal((8, 6)),
                     fitness=np.full(8, np.nan))
    nxt = evolve_generation(pop, fitness_by_first_gene, params, rng)
    # parents occupy the top floor(8/4)=2 rows of the sorted population
    assert np.array_equal(nxt.weights[:2], pop.weights[:2])
    order = np.argsort(-pop.fitness, kind="stable")
    assert np.array_equal(order, np.arange(8))  # pop was sorted in place


def test_evolve_generation_offspring_counts():
    params = EvoParams(l_pop=12, p_mut=0.3, permutation_enabled=False)
    rng = make_rng(34)
    pop = Population(weights=rng.standard_normal((12, 4)),
                     fitness=np.full(12, np.nan))
    nxt = evolve_generation(pop, fitness_by_first_gene, params, rng)
    assert nxt.weights.shape == (12, 4)
    assert np.all(np.isnan(nxt.fitness))


def test_evolve_generation_breeds_in_place_keeping_parents():
    params = EvoParams(l_pop=8, p_mut=0.5, sigma_mut=0.5)
    w = make_rng(35).standard_normal((8, 40))
    # fitness spread over decades, so the marking probabilities reach 0.6
    # and several columns get two or more marks
    w[:, 0] = 10.0 ** (-5.0 * np.array([3, 0, 6, 1, 7, 2, 5, 4]))
    fitness = np.array([fitness_by_first_gene(row, i) for i, row in enumerate(w)])
    order = np.argsort(-fitness, kind="stable")
    pop = Population(weights=w.copy(), fitness=np.full(8, np.nan))
    rng = make_rng(36)
    nxt = evolve_generation(pop, fitness_by_first_gene, params, rng)
    # breeding and permutation both work on the input's matrix
    assert nxt.weights is pop.weights
    assert nxt.weights[0].tobytes() == w[order[0]].tobytes()  # elite p = 0
    assert np.array_equal(pop.fitness, fitness[order])
    # reference: breed into a copy, then permute into a fresh array from
    # the same stream state
    ref = Population(weights=w.copy(), fitness=np.full(8, np.nan))
    ref_rng = make_rng(36)
    bred = evolve_generation(ref, fitness_by_first_gene,
                             replace(params, permutation_enabled=False), ref_rng)
    probs = permutation_probabilities(ref.fitness, float(ref.fitness[0]), 40)
    expected = column_shuffle(bred.weights, probs, ref_rng)
    assert not np.array_equal(expected, bred.weights)
    assert nxt.weights.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_evolve_generation_peak_memory():
    params = EvoParams(l_pop=8)
    pop = Population(weights=make_rng(37).standard_normal((8, 200_000)),
                     fitness=np.full(8, np.nan))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nxt = evolve_generation(pop, fitness_by_first_gene, params, make_rng(38))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no population-sized allocation: only per-row scratch for the masks
    assert nxt.weights is pop.weights
    assert peak - base <= 0.25 * pop.weights.nbytes, (peak - base) / pop.weights.nbytes


# -- train --------------------------------------------------------------------

def tiny_params(**overrides):
    base = dict(l_pop=8, generations=3, t_e_train=2, init_sigma=0.2)
    base.update(overrides)
    return EvoParams(**base)


def test_train_zero_generations_returns_initial_best():
    result = train(SCN, ARCH, tiny_params(generations=0), seed=100)
    assert result.best_genome.shape == (ARCH.genome_size,)
    assert len(result.history) == 1
    assert result.history[0]["best_fitness"] == result.best_fitness


@pytest.mark.parametrize("generations, evaluations, breeds", [(3, 3, 2), (0, 1, 0)])
def test_train_evaluates_each_generation_and_breeds_between(monkeypatch, generations,
                                                            evaluations, breeds):
    calls = {"evaluate": 0, "breed": 0}
    real_evaluate, real_evolve = cosyne.evaluate_population, cosyne.evolve_generation

    def evaluate_population(pop, fitness_fn, map_fn=None):
        calls["evaluate"] += 1
        real_evaluate(pop, fitness_fn, map_fn)

    def evolve_generation(*args, **kwargs):
        calls["breed"] += 1
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(cosyne, "evaluate_population", evaluate_population)
    monkeypatch.setattr(cosyne, "evolve_generation", evolve_generation)
    result = train(SCN, ARCH, tiny_params(generations=generations), seed=107)
    assert calls == {"evaluate": evaluations, "breed": breeds}
    assert [r["generation"] for r in result.history] == list(range(evaluations))


def test_train_deterministic_history():
    a = train(SCN, ARCH, tiny_params(), seed=101)
    b = train(SCN, ARCH, tiny_params(), seed=101)
    assert [r["best_fitness"] for r in a.history] == \
        [r["best_fitness"] for r in b.history]
    assert np.array_equal(a.best_genome, b.best_genome)
    c = train(SCN, ARCH, tiny_params(), seed=102)
    assert a.best_fitness != c.best_fitness


def test_train_monotone_best_with_frozen_episodes():
    params = tiny_params(generations=6, permutation_enabled=False,
                         frozen_episodes=True)
    result = train(SCN, ARCH, params, seed=103)
    best = [r["best_fitness"] for r in result.history]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    assert result.best_fitness == best[-1]


def test_train_best_genome_rescores_to_best_fitness():
    # the best genome is read from the bred population after breeding
    # overwrote its lower rows; re-scored on its generation's block it must
    # reproduce its recorded fitness exactly
    seed, params = 106, tiny_params(generations=4)
    result = train(SCN, ARCH, params, seed=seed)
    gen = next(r["generation"] for r in result.history
               if r["best_fitness"] == result.best_fitness)
    channel_seed = derive_seed(seed, "episodes", gen)
    trace = sample_episodes(SCN, params.t_e_train, SCN.horizon, make_rng(channel_seed))
    again = evaluate_fitness(result.best_genome, ARCH, SCN, 0, 0, trace=trace,
                             policy_rng=_genome_policy_rng(channel_seed,
                                                           result.best_genome))
    assert again == result.best_fitness


def test_train_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    result = train(SCN, ARCH, tiny_params(generations=2), seed=104,
                   out_dir=out)
    assert (out / "history.csv").exists()
    assert (out / "best.genome").exists()
    assert (out / "checkpoints" / "gen_0001.genome").exists()
    from evoris.policy import load_genome
    assert np.array_equal(load_genome(out / "best.genome", ARCH),
                          result.best_genome)
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == "generation,best_fitness,mean_fitness,wall_time"


def test_train_parallel_matches_serial():
    params = tiny_params(generations=2)
    serial = train(SCN, ARCH, params, seed=105, workers=1)
    parallel = train(SCN, ARCH, params, seed=105, workers=2)
    assert serial.best_fitness == parallel.best_fitness
    assert np.array_equal(serial.best_genome, parallel.best_genome)
    assert [r["best_fitness"] for r in serial.history] == \
        [r["best_fitness"] for r in parallel.history]


# -- the fitness process pool ---------------------------------------------------

def _counting_pool(monkeypatch, **extra):
    """Patch cosyne.ProcessPoolExecutor with a subclass that counts its
    constructions (and passes ``extra`` to the executor); returns the count."""
    made = []

    class CountingPool(cosyne.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs, **extra)

    monkeypatch.setattr(cosyne, "ProcessPoolExecutor", CountingPool)
    return made


def _assert_same_run(serial, pooled):
    assert [(r["best_fitness"], r["mean_fitness"]) for r in serial.history] == \
        [(r["best_fitness"], r["mean_fitness"]) for r in pooled.history]
    assert serial.best_genome.tobytes() == pooled.best_genome.tobytes()


@pytest.mark.parametrize("generations", [3, 0])
def test_train_opens_one_pool_per_run(monkeypatch, generations):
    made = _counting_pool(monkeypatch)
    params = tiny_params(generations=generations)
    train(SCN, ARCH, params, seed=106, workers=1)
    assert made == []
    result = train(SCN, ARCH, params, seed=106, workers=2)
    assert len(made) == 1
    assert len(result.history) == max(1, generations)
    assert multiprocessing.active_children() == []


def test_train_worker_death_raises_and_leaves_no_process(monkeypatch):
    def die(*_args, **_kwargs):
        os._exit(1)

    monkeypatch.setattr(cosyne, "_genome_policy_rng", die)
    with pytest.raises(BrokenProcessPool):
        train(SCN, ARCH, tiny_params(), seed=107, workers=2)
    assert multiprocessing.active_children() == []


def test_train_failing_first_generation_starts_no_process(monkeypatch):
    class FirstGeneration(Exception):
        pass

    def first_generation(*_args, **_kwargs):
        raise FirstGeneration

    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        started.append(self)
        start(self)

    made = _counting_pool(monkeypatch)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    monkeypatch.setattr(cosyne, "sample_episodes", first_generation)
    with pytest.raises(FirstGeneration):
        train(SCN, ARCH, tiny_params(), seed=108, workers=2)
    assert len(made) == 1
    assert started == []
    assert multiprocessing.active_children() == []


def test_train_pooled_matches_serial_multi_surface():
    cfg = load_config(ROOT / "configs" / "multi_ris_desk.yaml")
    scenario = replace(cfg.scenario, horizon=4)
    arch, agg = trained_policy_configs(cfg)
    params = replace(cfg.evo, l_pop=8, generations=3, t_e_train=1)
    serial = train(scenario, arch, params, seed=109, agg_cfg=agg, workers=1)
    pooled = train(scenario, arch, params, seed=109, agg_cfg=agg, workers=2)
    _assert_same_run(serial, pooled)


def test_train_pooled_matches_serial_frozen_episodes(monkeypatch, tmp_path):
    params = tiny_params(generations=4, frozen_episodes=True)
    serial = train(SCN, ARCH, params, seed=110, workers=1)
    log = tmp_path / "samples"
    sample = cosyne.sample_episodes

    def logged_sample(*args, **kwargs):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return sample(*args, **kwargs)

    monkeypatch.setattr(cosyne, "sample_episodes", logged_sample)
    _assert_same_run(serial, train(SCN, ARCH, params, seed=110, workers=2))
    calls = log.read_text(encoding="ascii").split()
    # the parent samples at every generation; a worker samples the frozen
    # block at its first job and reuses it for every later generation
    assert calls.count(str(os.getpid())) == 4
    workers = [pid for pid in calls if pid != str(os.getpid())]
    assert 1 <= len(workers) == len(set(workers)) <= 2


def test_train_pooled_matches_serial_under_spawn(monkeypatch):
    made = _counting_pool(monkeypatch,
                          mp_context=multiprocessing.get_context("spawn"))
    params = tiny_params(generations=2)
    serial = train(SCN_K2, ARCH_D, params, seed=111, agg_cfg=AGG_K2, workers=1)
    pooled = train(SCN_K2, ARCH_D, params, seed=111, agg_cfg=AGG_K2, workers=2)
    assert len(made) == 1
    _assert_same_run(serial, pooled)
    assert multiprocessing.active_children() == []


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("EVORIS_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("EVORIS_WORKERS", "4")
    assert resolve_workers(None) == 4


def test_evo_params_validation():
    with pytest.raises(ValueError):
        EvoParams(l_pop=3)
    with pytest.raises(ValueError):
        EvoParams(p_mut=1.5)
    with pytest.raises(ValueError):
        EvoParams(sigma_mut=-0.1)
