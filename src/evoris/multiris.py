"""Distributed control of several RIS by agents sharing one policy genome.

Every surface runs the same attention-convolutional policy on its local
channel view (direct link, own TX-RIS matrix, own RIS-RX vector), keeps the
phase output, and sends only its argmax precoder index as a vote.  A small
receiver-side network turns the K votes into the final precoder.  The joint
genome is the concatenation of the shared policy weights and the aggregator
weights, trained as one vector.

``rollout`` is the one episode-block evaluator of every trained policy:
training fitness (single surface, bypass, or K agents plus the vote
aggregator) and harness evaluation all go through it.  Attention policies
run every step of an episode, and all K agents of a step, as one batched
pass; the fully-connected benchmark keeps its per-step pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ScenarioConfig, sample_episodes
from .numerics import relu, softmax_global
from .policy import (ArchConfig, FFConfig, GenomeLayout, ff_forward, forward,
                     forward_steps, genome_layout, select_index)
from .system import evaluation_codebook, link_budget_from, snr


@dataclass(frozen=True)
class AggregatorConfig:
    """Receiver-side vote-to-precoder network shapes.

    ``encoding`` is "one-hot" (K blocks of |V| indicator inputs, default) or
    "index" (K raw integer votes).
    """

    ris_count: int
    codebook_size: int
    hidden: int = 16
    encoding: str = "one-hot"

    def __post_init__(self):
        if self.ris_count < 1 or self.codebook_size < 1:
            raise ValueError("ris_count and codebook_size must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.encoding not in ("one-hot", "index"):
            raise ValueError(f"unknown vote encoding {self.encoding!r}")

    @property
    def input_size(self) -> int:
        if self.encoding == "one-hot":
            return self.ris_count * self.codebook_size
        return self.ris_count

    @property
    def genome_size(self) -> int:
        return aggregator_layout(self).size


@lru_cache(maxsize=None)
def aggregator_layout(cfg: AggregatorConfig) -> GenomeLayout:
    return GenomeLayout([
        ("agg0.w", (cfg.input_size, cfg.hidden)), ("agg0.b", (cfg.hidden,)),
        ("agg1.w", (cfg.hidden, cfg.codebook_size)), ("agg1.b", (cfg.codebook_size,)),
    ])


def encode_votes(votes, cfg: AggregatorConfig) -> np.ndarray:
    """Vote vector to network input under the configured encoding.

    ``votes`` is (K,) for one step or (B, K) for a stack of steps.
    """
    votes = np.asarray(votes, dtype=np.int64)
    if votes.shape[-1:] != (cfg.ris_count,) or votes.ndim > 2:
        raise ValueError(f"expected {cfg.ris_count} votes, got shape {votes.shape}")
    if np.any(votes < 0) or np.any(votes >= cfg.codebook_size):
        raise ValueError(f"votes must lie in [0, {cfg.codebook_size})")
    if cfg.encoding == "index":
        return votes.astype(np.float64)
    x = np.zeros(votes.shape[:-1] + (cfg.ris_count * cfg.codebook_size,))
    np.put_along_axis(x, np.arange(cfg.ris_count) * cfg.codebook_size + votes, 1.0,
                      axis=-1)
    return x


def agent_act(values: np.ndarray, arch: ArchConfig, h: np.ndarray,
              h1_k: np.ndarray, h2_k: np.ndarray):
    """One agent's local decision: its phase vector plus an argmax vote.

    Votes are deterministic by construction (argmax of the precoder probs,
    lowest index on ties), so agents never need a sampling stream.
    """
    out = forward(values, arch, h, h1_k, h2_k, mode="argmax")
    return out.phases, out.precoder_index


def aggregate_precoder(values_g5: np.ndarray, cfg: AggregatorConfig, votes,
                       rng=None, mode: str = "sample"):
    """Final precoder distribution and pick from the K votes.

    With a (B, K) stack of votes, returns (B,) picks and (B, V) probs;
    ``rng`` feeds ``select_index``.
    """
    values_g5 = np.asarray(values_g5, dtype=np.float64).reshape(-1)
    layout = aggregator_layout(cfg)
    if values_g5.size != layout.size:
        raise ValueError(f"aggregator genome has {values_g5.size} values, "
                         f"needs {layout.size}")
    x = encode_votes(votes, cfg)
    lead = x.shape[:-1]
    x = x.reshape(lead + (1, -1))
    hid = relu(x @ layout.view(values_g5, "agg0.w") + layout.view(values_g5, "agg0.b"))
    logits = hid @ layout.view(values_g5, "agg1.w") + layout.view(values_g5, "agg1.b")
    probs = softmax_global(logits.reshape(lead + (-1,)), steps=bool(lead))
    return select_index(probs, rng, mode), probs


def split_joint_genome(values: np.ndarray, arch: ArchConfig,
                       agg_cfg: AggregatorConfig | None):
    """Split the concatenated (policy, aggregator) genome into its parts."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n_policy = genome_layout(arch).size
    n_total = n_policy + (agg_cfg.genome_size if agg_cfg is not None else 0)
    if values.size != n_total:
        raise ValueError(f"joint genome has {values.size} values, needs {n_total}")
    if agg_cfg is None:
        return values, None
    return values[:n_policy], values[n_policy:]


# Working-set budget of one batched policy pass in ``rollout``.  Steps go
# through the network in chunks whose largest per-step arrays (attention
# scores and im2col matrix) fit in it.  A desk-scale step (n_ris=16, ~94 kB)
# runs 5 to a chunk: larger chunks measured no faster per step and raise
# peak memory by the chunk's size.  A paper-scale step (400x400 scores,
# 7.8 MB im2col) runs alone, where batching measured slower per step.
STEP_CHUNK_BYTES = 512 << 10


def _step_bytes(arch: ArchConfig) -> int:
    """Bytes of the largest per-step arrays of a batched policy pass."""
    return 8 * (arch.n_ris * arch.n_ris +
                arch.n_ris * arch.d_cat * max(arch.conv_channels) * arch.conv_kernel ** 2)


def _chunk_actions(g14, g5, arch: ArchConfig, agg_cfg: AggregatorConfig | None, steps,
                   mode, rng):
    """Phases (n, K, n_ris) and precoder picks (n,) for n steps in one pass."""
    if agg_cfg is None:
        if any(cs.ris_count != 1 for cs in steps):
            raise ValueError("the attention policy takes a single-RIS channel view; "
                             "use an aggregator for several surfaces")
        phases, idx, _ = forward_steps(g14, arch, np.stack([cs.h for cs in steps]),
                                       np.stack([cs.h1_list[0] for cs in steps]),
                                       np.stack([cs.h2_list[0] for cs in steps]),
                                       rng, mode)
        return phases[:, None], idx
    # row i * K + k holds agent k of step i
    k = agg_cfg.ris_count
    phases, votes, _ = forward_steps(
        g14, arch, np.repeat(np.stack([cs.h for cs in steps]), k, axis=0),
        np.stack([h1 for cs in steps for h1 in cs.h1_list]),
        np.stack([h2 for cs in steps for h2 in cs.h2_list]), mode="argmax")
    idx, _ = aggregate_precoder(g5, agg_cfg, votes.reshape(-1, k), rng, mode)
    return phases.reshape(len(steps), k, -1), idx


def rollout(values: np.ndarray, policy_cfg, agg_cfg: AggregatorConfig | None,
            scenario: ScenarioConfig, episodes, mode: str = "argmax",
            policy_rng=None) -> list[np.ndarray]:
    """Per-step SNR of a trained policy over an episode block.

    Returns one gamma vector per episode.  An attention policy without an
    aggregator acts on the lone surface's channels (the single-RIS and
    bypass case); with one, K agents vote and the aggregator picks the
    precoder.  An episode's steps (times agents) are stacked and go through
    ``forward_steps`` a chunk of ``STEP_CHUNK_BYTES`` at a time; phases,
    picks and gammas are bit-identical to calling ``forward`` (or
    ``agent_act`` plus ``aggregate_precoder``) and ``snr`` step by step.
    Sampling draws one uniform per step from ``policy_rng`` with one call
    per chunk, in step order, which leaves the stream where per-step draws
    would; argmax draws nothing.  The fully-connected policy runs
    ``ff_forward`` step by step.
    """
    codebook = evaluation_codebook(scenario, policy_cfg.codebook_size)
    budget = link_budget_from(scenario)
    episodes = [list(episode) for episode in episodes]
    gammas = []
    if isinstance(policy_cfg, FFConfig):
        for episode in episodes:
            g = np.empty(len(episode))
            for i, cs in enumerate(episode):
                out = ff_forward(values, policy_cfg, cs, rng=policy_rng, mode=mode)
                g[i] = snr(cs, out.phases, codebook[:, out.precoder_index], budget)
            gammas.append(g)
        return gammas
    if not isinstance(policy_cfg, ArchConfig):
        raise TypeError(f"unsupported policy config {type(policy_cfg).__name__}")

    g14, g5 = split_joint_genome(values, policy_cfg, agg_cfg)
    if agg_cfg is not None and agg_cfg.codebook_size != policy_cfg.codebook_size:
        raise ValueError("aggregator and policy codebook sizes must agree")
    if agg_cfg is not None and agg_cfg.ris_count != scenario.ris_count:
        raise ValueError("aggregator ris_count must match the scenario")
    k = 1 if agg_cfg is None else agg_cfg.ris_count
    chunk = max(1, STEP_CHUNK_BYTES // (k * _step_bytes(policy_cfg)))
    for episode in episodes:
        g = np.empty(len(episode))
        for s in range(0, len(episode), chunk):
            steps = episode[s:s + chunk]
            phases, idx = _chunk_actions(g14, g5, policy_cfg, agg_cfg, steps, mode,
                                         policy_rng)
            for i, cs in enumerate(steps):
                g[s + i] = snr(cs, list(phases[i]), codebook[:, idx[i]], budget,
                               policy_cfg.phase_states)
        gammas.append(g)
    return gammas


def rollout_fitness(values: np.ndarray, policy_cfg, agg_cfg: AggregatorConfig | None,
                    scenario: ScenarioConfig, t: int, t_e: int, rng, policy_rng,
                    mode: str, trace) -> float:
    """Mean per-step SNR over ``trace``, else over t_e x t steps drawn from ``rng``.

    Without a trace the block is ``sample_episodes(scenario, t_e, t, rng)``,
    rolled out exactly like a trace.  Picks sample from ``policy_rng``.  The
    mean sums the per-step SNRs left to right in step order.
    """
    if trace is None:
        if rng is None:
            raise ValueError("need an rng when no channel trace is given")
        trace = sample_episodes(scenario, t_e, t, rng)
    total = 0.0
    count = 0
    for episode in rollout(values, policy_cfg, agg_cfg, scenario, trace, mode,
                           policy_rng):
        for g in episode.tolist():
            total += g
            count += 1
    if count == 0:
        raise ValueError("the channel trace is empty")
    return total / count


def evaluate_fitness_multi(values: np.ndarray, arch: ArchConfig,
                           agg_cfg: AggregatorConfig | None,
                           scenario: ScenarioConfig, t: int, t_e: int, rng=None, *,
                           policy_rng=None, mode: str = "sample",
                           aggregator: str = "network", trace=None) -> float:
    """Mean per-step SNR of the joint multi-RIS genome.

    Per step every agent acts on its local channels; with the "network"
    aggregator the argmax votes feed the receiver-side net whose output is
    sampled (or argmaxed) into the final precoder.  The "bypass" mode,
    valid only for a single surface, passes the lone agent's own
    mode-selected precoder straight through, which reduces the rollout to
    the single-RIS evaluator exactly.
    """
    if aggregator not in ("network", "bypass"):
        raise ValueError(f"unknown aggregator mode {aggregator!r}")
    if aggregator == "bypass":
        if scenario.ris_count != 1:
            raise ValueError("aggregator bypass requires exactly one RIS")
        if agg_cfg is not None:
            raise ValueError("bypass mode takes no aggregator config")
    elif agg_cfg is None:
        raise ValueError("network aggregation needs an AggregatorConfig")
    return rollout_fitness(values, arch, agg_cfg, scenario, t, t_e, rng, policy_rng,
                           mode, trace)


@dataclass(frozen=True)
class OverheadRecord:
    """Per-coherence-block message counts for one operating mode and phase."""

    mode: str
    phase: str
    scalars_up: int
    scalars_down: int
    bits_votes: int
    bits_phases: int
    weight_broadcast_scalars: int


def message_accounting(scenario: ScenarioConfig, phase: str, codebook_size: int,
                       genome_size: int = 0,
                       mode: str = "distributed") -> OverheadRecord:
    """Count the control traffic one coherence block costs.

    Distributed operation: the receiver broadcasts the direct channel
    (2*n_tx real scalars) and each of the K agents uplinks one vote of
    ceil(log2 |V|) bits; training additionally broadcasts the genome before
    every fitness evaluation.  Centralized operation instead uplinks the
    full CSI and downlinks K binary phase vectors of n_ris bits each.
    """
    if phase not in ("training", "deployment"):
        raise ValueError(f"unknown phase {phase!r}")
    if mode not in ("distributed", "centralized"):
        raise ValueError(f"unknown mode {mode!r}")
    if codebook_size < 1:
        raise ValueError("codebook_size must be >= 1")
    k = scenario.ris_count
    if mode == "distributed":
        return OverheadRecord(
            mode=mode, phase=phase,
            scalars_up=0,
            scalars_down=2 * scenario.n_tx,
            bits_votes=k * math.ceil(math.log2(codebook_size)),
            bits_phases=0,
            weight_broadcast_scalars=genome_size if phase == "training" else 0)
    csi = 2 * scenario.n_tx * scenario.n_ris * k + 2 * scenario.n_ris * k \
        + 2 * scenario.n_tx
    return OverheadRecord(mode=mode, phase=phase, scalars_up=csi, scalars_down=0,
                          bits_votes=0, bits_phases=k * scenario.n_ris,
                          weight_broadcast_scalars=0)
