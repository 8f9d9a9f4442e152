"""Population trainer for flat-genome policies.

A population is a real matrix with individuals as rows and weight positions
as columns.  Each generation re-evaluates every row on a shared set of
channel episodes, sorts rows by fitness, breeds the top quartile into the
bottom three quarters via uniform crossover plus Gaussian mutation, and
finally swaps column entries between rows with a fitness-dependent
probability so weak individuals leak their coordinates into the gene pool.

Fitness is the mean per-step SNR of the policy over the episode block, so
it is nonnegative and directly comparable across generations when the
episode seeds are frozen.
"""

from __future__ import annotations

import csv
import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import ScenarioConfig, sample_episodes
from .multiris import rollout_fitness
from .numerics import derive_rng, derive_seed, make_rng
from .policy import save_genome
# bench/run.py traces these two names here; fitness reaches them via the rollout
from .policy import forward  # noqa: F401
from .system import snr  # noqa: F401


@dataclass(frozen=True)
class EvoParams:
    """Knobs of the generation loop."""

    l_pop: int = 100
    p_mut: float = 0.3
    sigma_mut: float = 0.2
    generations: int = 25
    t_e_train: int = 2
    permutation_enabled: bool = True
    init_sigma: float = 0.2
    frozen_episodes: bool = False

    def __post_init__(self):
        if self.l_pop < 4:
            raise ValueError("l_pop must be >= 4 (the parent quartile would be empty)")
        if not 0.0 <= self.p_mut <= 1.0:
            raise ValueError("p_mut must lie in [0, 1]")
        if self.sigma_mut < 0:
            raise ValueError("sigma_mut must be nonnegative")
        if self.init_sigma < 0:
            raise ValueError("init_sigma must be nonnegative")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.t_e_train < 1:
            raise ValueError("t_e_train must be >= 1")


@dataclass
class Population:
    """Weight matrix (l_pop, m) with per-row fitness; NaN marks unevaluated."""

    weights: np.ndarray
    fitness: np.ndarray
    generation: int = 0


def init_population(params: EvoParams, m: int, rng: np.random.Generator) -> Population:
    """Fresh population with i.i.d. N(0, init_sigma^2) entries, fitness unset."""
    if m < 1:
        raise ValueError("genome length must be >= 1")
    weights = rng.standard_normal((params.l_pop, m)) * params.init_sigma
    return Population(weights=weights, fitness=np.full(params.l_pop, np.nan),
                      generation=0)


def evaluate_fitness(values: np.ndarray, policy_cfg, scenario: ScenarioConfig,
                     t: int, t_e: int, rng=None, *, policy_rng=None,
                     mode: str = "sample", trace=None) -> float:
    """Mean per-step SNR of one genome over t_e episodes of t steps each.

    A pre-sampled ``trace`` (list of episodes, each a list of ChannelSets)
    defines the episode block, and t/t_e are ignored; without one the block
    is drawn from ``rng`` with ``sample_episodes``.  Precoder sampling draws
    from ``policy_rng``; argmax mode draws nothing.
    """
    return rollout_fitness(values, policy_cfg, None, scenario, t, t_e, rng, policy_rng,
                           mode, trace)


def crossover(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform crossover: each gene comes from either parent with prob 0.5."""
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if p1.shape != p2.shape:
        raise ValueError("parents must have equal length")
    take_first = rng.random(p1.shape) < 0.5
    return np.where(take_first, p1, p2)


def mutate(g: np.ndarray, p_mut: float, sigma_mut: float,
           rng: np.random.Generator) -> np.ndarray:
    """Perturb each gene by N(0, sigma_mut^2) noise with probability p_mut.

    The noise vector is drawn in full regardless of the hit mask so the rng
    stream advances identically for any p_mut.
    """
    g = np.asarray(g, dtype=np.float64)
    hit = rng.random(g.shape) < p_mut
    noise = rng.standard_normal(g.shape) * sigma_mut
    return g + np.where(hit, noise, 0.0)


def permutation_probabilities(fitness: np.ndarray, f_max: float, m: int) -> np.ndarray:
    """Per-row entry-permutation probability 1 - (f/f_max)^(1/m).

    Evaluated in the log domain (-expm1(log(f/f_max)/m)) so tiny
    probabilities at large m keep full relative precision.  f_max <= 0
    (a degenerate all-zero generation) returns all zeros.
    """
    fitness = np.asarray(fitness, dtype=np.float64)
    if m < 1:
        raise ValueError("m must be >= 1")
    if np.any(fitness < 0):
        raise ValueError("fitness entries must be nonnegative")
    if f_max <= 0:
        return np.zeros_like(fitness)
    ratio = np.clip(fitness / f_max, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        return -np.expm1(np.log(ratio) / m)


def column_shuffle(weights: np.ndarray, row_probs: np.ndarray,
                   rng: np.random.Generator, chunk: int = 65536) -> np.ndarray:
    """Mark entries with their row's probability, then permute marked entries
    within each column.  Preserves every column's value multiset exactly.
    """
    weights = np.array(weights, dtype=np.float64)
    l, m = weights.shape
    row_probs = np.asarray(row_probs, dtype=np.float64).reshape(l, 1)
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        mask = rng.random((l, stop - start)) < row_probs
        hit_cols = np.nonzero(mask.any(axis=0))[0]
        block = weights[:, start:stop]
        for j in hit_cols:
            rows = np.nonzero(mask[:, j])[0]
            if rows.size > 1:
                perm = rng.permutation(rows.size)
                block[rows, j] = block[rows[perm], j]
        weights[:, start:stop] = block
    return weights


def evaluate_population(pop: Population, fitness_fn, map_fn=None) -> None:
    """Fill fitness for every row, then sort rows best-first (stable)."""
    l = pop.weights.shape[0]
    if map_fn is None:
        results = [fitness_fn(pop.weights[i], i) for i in range(l)]
    else:
        results = list(map_fn(fitness_fn, pop))
    pop.fitness = np.asarray(results, dtype=np.float64)
    if pop.fitness.shape != (l,) or not np.all(np.isfinite(pop.fitness)):
        raise ValueError("fitness evaluation must return one finite value per row")
    order = np.argsort(-pop.fitness, kind="stable")
    pop.weights = pop.weights[order]
    pop.fitness = pop.fitness[order]


def evolve_generation(pop: Population, fitness_fn, params: EvoParams,
                      rng: np.random.Generator, map_fn=None) -> Population:
    """One full generation cycle; returns the (unevaluated) next population.

    The input population is evaluated and sorted in place, so its fitness
    vector afterwards holds this generation's ranking.  The returned
    population keeps the top floor(l/4) rows as-is and fills the rest with
    mutated crossover offspring of randomly paired top-quartile parents;
    entry permutation (when enabled) then swaps marked coordinates within
    columns, with offspring rows inheriting the marking probability of the
    rank position they replaced.
    """
    l, m = pop.weights.shape
    if l < 4:
        raise ValueError("population needs at least 4 rows")
    evaluate_population(pop, fitness_fn, map_fn)

    n_parents = l // 4
    next_w = pop.weights.copy()
    for j in range(n_parents, l):
        if n_parents == 1:
            child = pop.weights[0]
        else:
            i1 = int(rng.integers(n_parents))
            i2 = int(rng.integers(n_parents - 1))
            if i2 >= i1:
                i2 += 1
            child = crossover(pop.weights[i1], pop.weights[i2], rng)
        next_w[j] = mutate(child, params.p_mut, params.sigma_mut, rng)

    if params.permutation_enabled:
        probs = permutation_probabilities(pop.fitness, float(pop.fitness[0]), m)
        next_w = column_shuffle(next_w, probs, rng)

    return Population(weights=next_w, fitness=np.full(l, np.nan),
                      generation=pop.generation + 1)


@dataclass
class TrainResult:
    """Best-ever genome with its fitness and the per-generation history."""

    best_genome: np.ndarray
    best_fitness: float
    history: list[dict] = field(default_factory=list)


def _genome_policy_rng(channel_seed: int, values: np.ndarray):
    """Sampling stream tied to the genome's content, not its row position.

    Keyed this way a genome's fitness on a fixed episode block is a pure
    function of its weights, so re-evaluating an unchanged elite reproduces
    its score exactly and the parallel map stays order-independent.
    """
    digest = hashlib.sha256(np.ascontiguousarray(values)).hexdigest()
    return make_rng(derive_seed(channel_seed, "policy", digest))


_WORKER_CTX: dict = {}


def _init_worker(ctx):
    _WORKER_CTX.update(ctx)


def _worker_eval(args):
    index, values = args
    c = _WORKER_CTX
    policy_rng = _genome_policy_rng(c["channel_seed"], values)
    if c["agg_cfg"] is None:
        return evaluate_fitness(values, c["policy_cfg"], c["scenario"], 0, 0,
                                policy_rng=policy_rng, trace=c["trace"])
    from .multiris import evaluate_fitness_multi
    return evaluate_fitness_multi(values, c["policy_cfg"], c["agg_cfg"],
                                  c["scenario"], 0, 0, policy_rng=policy_rng,
                                  trace=c["trace"])


def resolve_workers(workers=None) -> int:
    """Worker count: explicit argument, else EVORIS_WORKERS, else 1."""
    if workers is None:
        workers = int(os.environ.get("EVORIS_WORKERS", "1"))
    return max(1, workers)


def train(scenario: ScenarioConfig, policy_cfg, params: EvoParams, seed: int, *,
          agg_cfg=None, out_dir=None, workers=None) -> TrainResult:
    """Run the generation loop and return the best genome ever evaluated.

    Each generation draws a fresh episode block (frozen_episodes pins it to
    the generation-0 block) and every individual is scored on that same
    block.  With generations == 0 the initial population is evaluated once
    and its best row returned.  ``out_dir`` enables history CSV plus
    per-generation checkpoints of the running best genome.
    """
    workers = resolve_workers(workers)
    genome_m = policy_cfg.genome_size + (agg_cfg.genome_size if agg_cfg else 0)
    pop = init_population(params, genome_m, derive_rng(seed, "init"))
    evo_rng = derive_rng(seed, "evolve")
    cfgs = (policy_cfg,) if agg_cfg is None else (policy_cfg, agg_cfg)

    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        (out_path / "checkpoints").mkdir(parents=True, exist_ok=True)

    best_values = None
    best_fitness = -np.inf
    history: list[dict] = []

    def run_generation(gen_index: int, evolve: bool):
        nonlocal pop, best_values, best_fitness
        t0 = time.perf_counter()
        channel_seed = derive_seed(seed, "episodes",
                                   0 if params.frozen_episodes else gen_index)
        trace = sample_episodes(scenario, params.t_e_train, scenario.horizon,
                                make_rng(channel_seed))
        ctx = {"policy_cfg": policy_cfg, "agg_cfg": agg_cfg, "scenario": scenario,
               "channel_seed": channel_seed, "trace": trace}

        if workers > 1:
            def map_fn(_fn, p):
                jobs = [(i, p.weights[i]) for i in range(p.weights.shape[0])]
                with ProcessPoolExecutor(max_workers=workers,
                                         initializer=_init_worker,
                                         initargs=(ctx,)) as pool:
                    return list(pool.map(_worker_eval, jobs))
            fitness_fn = None
        else:
            map_fn = None
            _init_worker(ctx)

            def fitness_fn(values, index):
                return _worker_eval((index, values))

        if evolve:
            pop = evolve_generation(pop, fitness_fn, params, evo_rng, map_fn=map_fn)
        else:
            evaluate_population(pop, fitness_fn, map_fn)
        return time.perf_counter() - t0

    for gen in range(params.generations):
        before = pop
        elapsed = run_generation(gen, evolve=True)
        if best_values is None or before.fitness[0] > best_fitness:
            best_fitness = float(before.fitness[0])
            best_values = before.weights[0].copy()
        history.append({"generation": gen, "best_fitness": float(before.fitness[0]),
                        "mean_fitness": float(before.fitness.mean()),
                        "wall_time": elapsed})
        if out_path is not None:
            save_genome(out_path / "checkpoints" / f"gen_{gen:04d}.genome",
                        best_values, *cfgs)

    if params.generations == 0:
        elapsed = run_generation(0, evolve=False)
        best_fitness = float(pop.fitness[0])
        best_values = pop.weights[0].copy()
        history.append({"generation": 0, "best_fitness": best_fitness,
                        "mean_fitness": float(pop.fitness.mean()),
                        "wall_time": elapsed})

    if out_path is not None:
        with open(out_path / "history.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["generation", "best_fitness", "mean_fitness", "wall_time"])
            writer.writeheader()
            for row in history:
                writer.writerow({k: repr(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
        save_genome(out_path / "best.genome", best_values, *cfgs)

    return TrainResult(best_genome=best_values, best_fitness=best_fitness,
                       history=history)
