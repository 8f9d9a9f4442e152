"""Distributed control of several RIS by agents sharing one policy genome.

Every surface runs the same attention-convolutional policy on its local
channel view (direct link, own TX-RIS matrix, own RIS-RX vector), keeps the
phase output, and sends only its argmax precoder index as a vote.  A small
receiver-side network turns the K votes into the final precoder.  The joint
genome is the concatenation of the shared policy weights and the aggregator
weights, trained as one vector.

``rollout`` is the one episode-block evaluator of every trained policy:
training fitness (single surface, bypass, or K agents plus the vote
aggregator) and harness evaluation all go through it.  Both network kinds
run an episode's steps (times the K agents of an attention step) in the same
batched passes, each scored by one stacked ``snr`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ScenarioConfig, sample_episodes
from .numerics import relu, softmax_global
from .policy import (ArchConfig, FFConfig, GenomeLayout, _memo_tx_ris_attention,
                     ff_forward_steps, forward, forward_steps, select_index)
from .system import evaluation_codebook, link_budget_from, snr


@dataclass(frozen=True)
class AggregatorConfig:
    """Receiver-side vote-to-precoder network shapes.

    The K votes enter one-hot: K blocks of |V| indicator inputs.
    """

    ris_count: int
    codebook_size: int
    hidden: int = 16

    def __post_init__(self):
        if self.ris_count < 1 or self.codebook_size < 1:
            raise ValueError("ris_count and codebook_size must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")

    @property
    def input_size(self) -> int:
        return self.ris_count * self.codebook_size

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
    """Vote vector to one-hot network input.

    ``votes`` is (K,) for one step or (B, K) for a stack of steps.
    """
    votes = np.asarray(votes, dtype=np.int64)
    if votes.shape[-1:] != (cfg.ris_count,) or votes.ndim > 2:
        raise ValueError(f"expected {cfg.ris_count} votes, got shape {votes.shape}")
    if np.any(votes < 0) or np.any(votes >= cfg.codebook_size):
        raise ValueError(f"votes must lie in [0, {cfg.codebook_size})")
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


def split_joint_genome(values: np.ndarray, arch, agg_cfg: AggregatorConfig | None):
    """Split the concatenated (policy, aggregator) genome into its parts."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n_policy = arch.genome_size
    n_total = n_policy + (agg_cfg.genome_size if agg_cfg is not None else 0)
    if values.size != n_total:
        raise ValueError(f"joint genome has {values.size} values, needs {n_total}")
    return values[:n_policy], None if agg_cfg is None else values[n_policy:]


# Working-set budget of one batched policy pass in ``rollout``.  An episode
# goes through the network in the fewest near-equal passes whose rows (steps,
# times surfaces for attention) fit in it at ``_step_bytes`` each.  A desk
# attention row (n_ris=16) counts 94 kB, so a pass takes up to 31 rows: a
# 50-step desk episode runs in 2 passes on one surface and 4 on two.  On a
# 2 vCPU Xeon with one BLAS thread, those ran 10-35% faster at 26-32 rows per
# pass than at 11-21, and one-surface episodes 37% slower again at 50 rows; a
# 25-row pass peaks at ~1.4 MB (tracemalloc), within a 2 MiB L2 cache.  A
# paper-scale row (9.1 MB) runs alone, where batching measured slower.  A desk
# ``ff`` row (23 kB) runs a 50-step episode in one pass: 0.57x the time of
# one-step passes, and level with 25-step ones.
STEP_CHUNK_BYTES = 45 << 16


def _step_bytes(cfg) -> int:
    """Bytes a row counts against ``STEP_CHUNK_BYTES``: for attention its scores
    and the k k C (n_ris, d_cat) per-tap products of the widest conv layer, for
    the fully-connected net its input and hidden activations.  A coarse size,
    the budget being set by measured pass times."""
    if isinstance(cfg, FFConfig):
        return 8 * (cfg.input_size + sum(cfg.hidden))
    return 8 * (cfg.n_ris * cfg.n_ris +
                cfg.n_ris * cfg.d_cat * max(cfg.conv_channels) * cfg.conv_kernel ** 2)


def _chunk_actions(g14, g5, arch, agg_cfg: AggregatorConfig | None, steps,
                   mode, rng, a_tx_ris: dict):
    """Phases (n, K, n_ris) and precoder picks (n,) for n steps in one pass.

    ``a_tx_ris`` maps the ``id`` of each H1 array met so far in the block to
    its TX-RIS attention row; an attention pass adds its new ones in one memo call."""
    if isinstance(arch, FFConfig):
        return ff_forward_steps(g14, arch, steps, rng, mode)[:2]
    # row i * K + k holds surface k of step i
    h = np.stack([cs.h for cs in steps])
    h2 = np.stack([h2 for cs in steps for h2 in cs.h2_list])
    h1s = [h1 for cs in steps for h1 in cs.h1_list]
    new = list({id(h1): h1 for h1 in h1s if id(h1) not in a_tx_ris}.values())
    if new:
        h1 = np.asarray(np.stack(new), dtype=np.complex128)
        if h1.shape[1:] != (arch.n_tx, arch.n_ris):
            raise ValueError("channel shapes do not match the architecture")
        a_tx_ris.update(zip(map(id, new), _memo_tx_ris_attention(g14, arch, h1)))
    a1 = np.stack([a_tx_ris[id(h1)] for h1 in h1s])
    if agg_cfg is None:
        phases, idx, _ = forward_steps(g14, arch, h, None, h2, rng, mode, a_tx_ris=a1)
        return phases[:, None], idx
    k = agg_cfg.ris_count
    phases, votes, _ = forward_steps(g14, arch, np.repeat(h, k, axis=0), None, h2,
                                     mode="argmax", a_tx_ris=a1)
    idx, _ = aggregate_precoder(g5, agg_cfg, votes.reshape(-1, k), rng, mode)
    return phases.reshape(len(steps), k, -1), idx


def _step_shape(policy_cfg, agg_cfg, scenario, episodes) -> tuple[int, int]:
    """Network rows per step (one for the fully-connected policy, one per agent)
    and phase levels, once the configs and every step's surface count pass."""
    if isinstance(policy_cfg, FFConfig):
        if agg_cfg is not None:
            raise ValueError("the fully-connected policy takes no aggregator")
        k, rows, states, owner = policy_cfg.ris_count, 1, 2, "the policy's ris_count is"
    elif agg_cfg is None:
        k, rows, states = 1, 1, policy_cfg.phase_states
        owner = "an attention policy without an aggregator takes"
    elif agg_cfg.codebook_size != policy_cfg.codebook_size:
        raise ValueError("aggregator and policy codebook sizes must agree")
    elif agg_cfg.ris_count != scenario.ris_count:
        raise ValueError("aggregator ris_count must match the scenario")
    else:
        k = rows = agg_cfg.ris_count
        states, owner = policy_cfg.phase_states, "the aggregator's ris_count is"
    bad = next((cs.ris_count for episode in episodes for cs in episode
                if cs.ris_count != k), None)
    if bad is not None:
        raise ValueError(f"a step has {bad} surfaces, {owner} {k}")
    return rows, states


def rollout(values: np.ndarray, policy_cfg, agg_cfg: AggregatorConfig | None,
            scenario: ScenarioConfig, episodes, mode: str = "argmax",
            policy_rng=None) -> list[np.ndarray]:
    """Per-step SNR of a trained policy over an episode block.

    Returns one gamma vector per episode.  A fully-connected policy acts on
    all its surfaces' channels at once.  An attention policy without an
    aggregator acts on the lone surface's channels (the single-RIS and bypass
    case); with one, K agents vote and the aggregator picks the precoder.
    Every step must carry the policy's surface count, checked before the
    first pass.  An episode's steps (times agents) go through
    ``ff_forward_steps`` or ``forward_steps`` in passes of at most
    ``STEP_CHUNK_BYTES``, each scored by one stacked ``snr`` call; phases,
    picks and gammas are bit-identical to one-block calls (``ff_forward``,
    ``forward``, or ``agent_act`` plus ``aggregate_precoder``, then ``snr``)
    step by step.  Each H1 array's TX-RIS attention comes from the memo
    ``forward`` uses, in the first pass that meets it: a line-of-sight H1
    (shared, or equal copies in an imported trace) is attended once per
    surface and genome, a Ricean H1 once per step.  Sampling draws one
    uniform per step from ``policy_rng``, one call per pass in step order,
    which leaves the stream where per-step draws would; argmax draws nothing.
    """
    codebook = evaluation_codebook(scenario, policy_cfg.codebook_size)
    budget = link_budget_from(scenario)
    episodes = [list(episode) for episode in episodes]
    rows, states = _step_shape(policy_cfg, agg_cfg, scenario, episodes)
    g14, g5 = split_joint_genome(values, policy_cfg, agg_cfg)
    chunk = max(1, STEP_CHUNK_BYTES // (rows * _step_bytes(policy_cfg)))
    a_tx_ris = {}
    gammas = []
    for episode in episodes:
        g = np.empty(len(episode))
        # the fewest passes that fit the budget, near-equal in size
        passes = -(-len(episode) // chunk)
        bounds = [len(episode) * i // passes for i in range(passes + 1)] if passes else []
        for s, e in zip(bounds, bounds[1:]):
            steps = episode[s:e]
            phases, idx = _chunk_actions(g14, g5, policy_cfg, agg_cfg, steps, mode,
                                         policy_rng, a_tx_ris)
            g[s:e] = snr(steps, phases, [codebook[:, i] for i in idx], budget, states)
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
