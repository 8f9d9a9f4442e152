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

import contextlib
import csv
import functools
import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import ScenarioConfig, sample_episodes
from .multiris import rollout_fitness
from .numerics import check_fields, derive_rng, derive_seed, make_rng
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
        check_fields(self)
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


def crossover(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator,
              out: np.ndarray | None = None) -> np.ndarray:
    """Uniform crossover: each gene comes from either parent with prob 0.5.

    The child is written into ``out`` (which must not overlap ``p1``) when
    given, else into a new array; either way it is returned.
    """
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if p1.shape != p2.shape or p1.ndim != 1:
        raise ValueError("parents must be genomes of equal length")
    take_first = np.flatnonzero(rng.random(p1.shape) < 0.5)
    if out is None:
        out = p2.copy()
    else:
        np.copyto(out, p2)
    out[take_first] = p1[take_first]
    return out


def mutate(g: np.ndarray, p_mut: float, sigma_mut: float,
           rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """Perturb each gene by N(0, sigma_mut^2) noise with probability p_mut.

    ``rng`` gives one uniform per gene for the hit mask and one 64-bit seed
    for a PCG64 that draws a normal for each hit only, so ``rng`` advances
    identically for any p_mut.  The result goes into ``out`` when given
    (it may be ``g`` itself), else into a new array; either way it is
    returned.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1:
        raise ValueError("a genome must be one-dimensional")
    hits = np.flatnonzero(rng.random(g.shape) < p_mut)
    noise_rng = np.random.Generator(np.random.PCG64(rng.integers(2**64, dtype=np.uint64)))
    if out is None:
        out = g.copy()
    elif out is not g:
        np.copyto(out, g)
    out[hits] += noise_rng.standard_normal(hits.size) * sigma_mut
    return out


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
                   rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """Mark entries with their row's probability, then permute marked entries
    within each column.

    Row r draws k_r ~ Binomial(m, p_r), then k_r distinct columns: the same
    law as marking each entry independently with probability p_r, at a cost
    in the number of marks rather than in l*m.  A row with p_r = 0 is never
    touched.  Preserves every column's value multiset exactly.

    The result goes into ``out`` when given, else into a new array that
    leaves ``weights`` as it is; either way it is returned.  ``out=weights``
    permutes in place, and a distinct ``out`` first receives a copy of
    ``weights``.  Each column's marked entries are gathered before they are
    scattered, so every choice of ``out`` gives the same bytes and draws the
    same numbers from ``rng``.
    """
    if out is None:
        out = np.array(weights, dtype=np.float64)
    elif out is not weights:
        np.copyto(out, weights)
    l, m = out.shape
    counts = rng.binomial(m, np.asarray(row_probs, dtype=np.float64).reshape(l))
    rows = np.repeat(np.arange(l), counts)
    cols = np.concatenate([rng.choice(m, k, replace=False, shuffle=False)
                           for k in counts])
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    starts = np.flatnonzero(np.diff(cols, prepend=-1))
    sizes = np.diff(starts, append=cols.size)
    for start, size in zip(starts[sizes > 1], sizes[sizes > 1]):
        marked = rows[start:start + size]
        col = cols[start]
        out[marked, col] = out[marked[rng.permutation(size)], col]
    return out


def _permute_rows(weights: np.ndarray, order: np.ndarray) -> None:
    """weights[:] = weights[order], one permutation cycle at a time through a
    single row buffer."""
    buf = np.empty_like(weights[0])
    done = order == np.arange(order.size)
    for start in range(order.size):
        if done[start]:
            continue
        buf[:] = weights[start]
        i = start
        while order[i] != start:
            weights[i] = weights[order[i]]
            done[i] = True
            i = order[i]
        weights[i] = buf
        done[i] = True


def evaluate_population(pop: Population, fitness_fn, map_fn=None) -> None:
    """Fill fitness for every row, then sort rows best-first (stable), in
    place."""
    l = pop.weights.shape[0]
    if map_fn is None:
        results = [fitness_fn(pop.weights[i], i) for i in range(l)]
    else:
        results = list(map_fn(fitness_fn, pop))
    pop.fitness = np.asarray(results, dtype=np.float64)
    if pop.fitness.shape != (l,) or not np.all(np.isfinite(pop.fitness)):
        raise ValueError("fitness evaluation must return one finite value per row")
    order = np.argsort(-pop.fitness, kind="stable")
    _permute_rows(pop.weights, order)
    pop.fitness = pop.fitness[order]


def evolve_generation(pop: Population, fitness_fn, params: EvoParams,
                      rng: np.random.Generator, map_fn=None) -> Population:
    """One full generation cycle; returns the (unevaluated) next population.

    The input population is evaluated and sorted in place, so its fitness
    vector afterwards holds this generation's ranking and its top floor(l/4)
    rows the parents.  The rest of its rows are then overwritten with
    mutated crossover offspring of randomly paired parents.  Entry
    permutation (when enabled) then swaps marked coordinates within columns,
    in place, with offspring rows inheriting the marking probability of the
    rank position they replaced.  The returned population always shares the
    input's weight matrix, so a run holds one population matrix throughout.
    """
    l, m = pop.weights.shape
    if l < 4:
        raise ValueError("population needs at least 4 rows")
    evaluate_population(pop, fitness_fn, map_fn)

    n_parents = l // 4
    w = pop.weights
    for j in range(n_parents, l):
        child = w[j]
        if n_parents == 1:
            parent = w[0]
        else:
            i1 = int(rng.integers(n_parents))
            i2 = int(rng.integers(n_parents - 1))
            if i2 >= i1:
                i2 += 1
            parent = child = crossover(w[i1], w[i2], rng, out=child)
        mutate(parent, params.p_mut, params.sigma_mut, rng, out=child)

    if params.permutation_enabled:
        probs = permutation_probabilities(pop.fitness, float(pop.fitness[0]), m)
        column_shuffle(w, probs, rng, out=w)

    return Population(weights=w, fitness=np.full(l, np.nan),
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
    """Give this process one run's constant context and an empty block cache."""
    _WORKER_CTX.clear()
    _WORKER_CTX.update(ctx)


def _episode_block(channel_seed: int):
    """The episode block of ``channel_seed``, sampled once per seed in each
    process and kept until the next seed (frozen episodes keep one seed)."""
    c = _WORKER_CTX
    seed, block = c.get("block", (None, None))
    if seed != channel_seed:
        scenario = c["scenario"]
        block = sample_episodes(scenario, c["t_e_train"], scenario.horizon,
                                make_rng(channel_seed))
        c["block"] = (channel_seed, block)
    return block


def _worker_eval(values, index, channel_seed):
    """Fitness of one row on the block of ``channel_seed``; a pool job
    carries these three arguments and nothing else."""
    c = _WORKER_CTX
    trace = _episode_block(channel_seed)
    policy_rng = _genome_policy_rng(channel_seed, values)
    if c["agg_cfg"] is None:
        return evaluate_fitness(values, c["policy_cfg"], c["scenario"], 0, 0,
                                policy_rng=policy_rng, trace=trace)
    from .multiris import evaluate_fitness_multi
    return evaluate_fitness_multi(values, c["policy_cfg"], c["agg_cfg"],
                                  c["scenario"], 0, 0, policy_rng=policy_rng,
                                  trace=trace)


def resolve_workers(workers=None) -> int:
    """Worker count: explicit argument, else EVORIS_WORKERS, else 1.  A count
    below 1 or a non-integer EVORIS_WORKERS raises ValueError naming its source."""
    source = "workers"
    if workers is None:
        source, raw = "EVORIS_WORKERS", os.environ.get("EVORIS_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"EVORIS_WORKERS: expected an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"{source}: must be >= 1, got {workers}")
    return workers


def train(scenario: ScenarioConfig, policy_cfg, params: EvoParams, seed: int, *,
          agg_cfg=None, out_dir=None, workers=None) -> TrainResult:
    """Run the generation loop and return the best genome ever evaluated.

    Each generation draws a fresh episode block (frozen_episodes pins it to
    the generation-0 block), scores every individual on that same block and
    records the best row, and all but the last then breed the next
    population: a run of G generations evaluates G populations and breeds
    G - 1 times.  With generations == 0 the initial population is evaluated
    once and its best row returned.  ``out_dir`` enables history CSV plus
    per-generation checkpoints of the running best genome.  With more than
    one worker every generation's rows are scored in one process pool that
    lasts the whole call; with one they are scored in this process.
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
    ctx = {"policy_cfg": policy_cfg, "agg_cfg": agg_cfg, "scenario": scenario,
           "t_e_train": params.t_e_train}
    _init_worker(ctx)
    if workers > 1:
        # one pool per run; its workers start at the first job of generation 0
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                   initargs=(ctx,))

        def map_fn(fn, p):
            return pool.map(fn, p.weights, range(p.weights.shape[0]))
    else:
        pool, map_fn = contextlib.nullcontext(), None

    with pool:
        for gen in range(max(1, params.generations)):
            t0 = time.perf_counter()
            channel_seed = derive_seed(seed, "episodes",
                                       0 if params.frozen_episodes else gen)
            # sampled here in every mode, before any job: the serial path
            # scores on it, and pool workers sample the same block by seed
            _WORKER_CTX["block"] = (channel_seed, sample_episodes(
                scenario, params.t_e_train, scenario.horizon, make_rng(channel_seed)))
            fitness_fn = functools.partial(_worker_eval, channel_seed=channel_seed)

            # breeding keeps the sorted elite in row 0 of the shared matrix
            scored = pop
            if gen + 1 < params.generations:
                pop = evolve_generation(pop, fitness_fn, params, evo_rng, map_fn=map_fn)
            else:
                evaluate_population(pop, fitness_fn, map_fn)
            elapsed = time.perf_counter() - t0

            if scored.fitness[0] > best_fitness:
                best_fitness = float(scored.fitness[0])
                best_values = scored.weights[0].copy()
            history.append({"generation": gen, "best_fitness": float(scored.fitness[0]),
                            "mean_fitness": float(scored.fitness.mean()),
                            "wall_time": elapsed})
            if out_path is not None:
                save_genome(out_path / "checkpoints" / f"gen_{gen:04d}.genome",
                            best_values, *cfgs)

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
