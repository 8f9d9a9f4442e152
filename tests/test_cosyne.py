"""Tests for the population trainer.

Operator statistics are bounded with 3-sigma binomial arithmetic computed
inline; fitness accumulation is replayed step by step with the link-level
evaluator; the permutation probability is checked against its closed form.
"""

import functools
import math

import numpy as np
import pytest

from evoris.channel import ScenarioConfig, sample_episodes
from evoris.cosyne import (EvoParams, Population, column_shuffle, crossover,
                           evaluate_fitness, evaluate_population,
                           evolve_generation, init_population, mutate,
                           permutation_probabilities, resolve_workers, train)
from evoris.multiris import AggregatorConfig, evaluate_fitness_multi
from evoris.numerics import make_rng
from evoris.policy import ArchConfig, forward
from evoris.system import evaluation_codebook, link_budget_from, snr

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


def test_column_shuffle_chunked_matches_unchunked():
    rng = make_rng(28)
    w = rng.standard_normal((8, 100))
    probs = rng.uniform(0.0, 0.8, 8)
    a = column_shuffle(w, probs, make_rng(29), chunk=7)
    b = column_shuffle(w, probs, make_rng(29), chunk=7)
    assert np.array_equal(a, b)
    assert np.array_equal(np.sort(a, axis=0), np.sort(w, axis=0))


# -- evaluate_population / evolve_generation -----------------------------------

def fitness_by_first_gene(values, index):
    return float(abs(values[0]))


def test_evaluate_population_sorts_descending():
    pop = Population(weights=np.array([[1.0], [3.0], [2.0]]),
                     fitness=np.full(3, np.nan))
    evaluate_population(pop, fitness_by_first_gene)
    assert np.array_equal(pop.fitness, [3.0, 2.0, 1.0])
    assert np.array_equal(pop.weights.ravel(), [3.0, 2.0, 1.0])


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
