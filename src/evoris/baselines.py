"""Non-neural reference policies for per-block phase/precoder selection.

All three act on one ChannelSet at a time: a small per-precoder genetic
search over binary phase strings, an exhaustive enumerator for instances
small enough to brute-force, and a uniform random control arm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .numerics import check_fields
from .system import LinkBudget


@dataclass(frozen=True)
class LgaParams:
    """Per-precoder genetic search settings.

    ``p_mut`` defaults to one expected bit flip per string (1/n_bits) and
    ``n_parents`` to half the population.  The search keeps the top-ranked
    parents unchanged each generation (steady-state survivors, so at least
    one elite), breeds the rest by single-point crossover of rank-ordered
    parent pairs, and bit-flips offspring entries.
    """

    individuals: int = 15
    generations: int = 5
    p_mut: float | None = None
    n_parents: int | None = None

    def __post_init__(self):
        check_fields(self)
        if self.individuals < 2:
            raise ValueError("individuals must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.p_mut is not None and not 0.0 <= self.p_mut <= 1.0:
            raise ValueError("p_mut must lie in [0, 1]")
        if self.n_parents is not None and not 1 <= self.n_parents < self.individuals:
            raise ValueError("n_parents must lie in [1, individuals)")


@dataclass
class LgaResult:
    phases: object
    precoder_index: int
    gamma: float
    evaluations: int


def _cascade_matrix(cs: ChannelSet) -> np.ndarray:
    """Columns such that m = conj(h) + B @ coef for concatenated RIS coefs."""
    blocks = [np.conj(h1) * np.conj(h2)[None, :]
              for h1, h2 in zip(cs.h1_list, cs.h2_list)]
    return np.concatenate(blocks, axis=1)


def _require_codebook(cs: ChannelSet, codebook: np.ndarray) -> None:
    """Raise ValueError, naming the shape, unless ``codebook`` is (n_tx, beams)
    with a beam at least."""
    n_tx, shape = cs.h.shape[0], np.shape(codebook)
    if len(shape) != 2 or shape[0] != n_tx or shape[1] == 0:
        raise ValueError(f"codebook must be (n_tx, beams) = ({n_tx}, >= 1), "
                         f"got shape {shape}")


def _split_phases(cs: ChannelSet, flat: np.ndarray):
    if cs.ris_count == 1:
        return flat.copy()
    n = cs.h2_list[0].shape[0]
    return [flat[k * n:(k + 1) * n].copy() for k in range(cs.ris_count)]


# Bytes a group may hold, counted per beam by ``_beam_bytes``.  A block's
# beams are searched in the fewest near-equal groups under it.  Every desk
# block (<= 48 kB) is one group; a paper-scale beam (individuals 15, n_bits
# 400, 5 generations) holds 150 kB, so the 16 paper beams run in four groups
# of four.  The block's draws come before the groups, outside this budget, and
# do not depend on it.  On a 2 vCPU Xeon with one BLAS thread (``tools/ab.py
# --paper --paths lga --lga-stream-changed``, 30 rounds of 50 paper blocks;
# time over that of the search with per-beam draws this one replaced, at four
# beams per group), one beam per group ran at 1.12, two at 0.93, four at
# 0.84, eight at 0.82 and all 16 at 0.84.  Eight are within the ~3% an A/A run
# reads of four, so the budget keeps four.
LGA_GROUP_BYTES = 640 << 10


def _beam_bytes(n_ind: int, n_off: int, n_gen: int, n_bits: int) -> int:
    """Bytes one beam's search works on in a group: the population and its
    ranked copy (float64), the crossover masks and flips (bool), the best
    string of each generation (float64) and the projected cascade's real and
    imaginary parts.  The population and flips are the beam's rows of the
    block-wide draws, allocated before the groups, outside the budget."""
    return 8 * n_bits * (2 * n_ind + n_gen + 2) + 2 * n_gen * n_off * n_bits


def _beam_groups(n_v: int, beam_bytes: int) -> list[tuple[int, int]]:
    """(start, stop) of the fewest near-equal runs of ``n_v`` beams whose
    ``beam_bytes`` each fit ``LGA_GROUP_BYTES`` (one beam at least)."""
    groups = -(-n_v // max(1, LGA_GROUP_BYTES // beam_bytes))
    bounds = [n_v * i // groups for i in range(groups + 1)]
    return list(zip(bounds, bounds[1:]))


def lga_solve(cs: ChannelSet, budget: LinkBudget, codebook: np.ndarray,
              params: LgaParams, rng: np.random.Generator,
              init: np.ndarray | None = None) -> LgaResult:
    """Best (phases, precoder) found by an independent genetic search per beam.

    For every codebook column a small population of {-1,+1} strings evolves
    for the configured generations; the best pair ever evaluated wins, with
    ties broken toward the lowest precoder index and then the earliest
    generation.  ``init`` optionally seeds each per-beam search with a fixed
    starting population.

    With the beam v fixed, a string of phases p reflects with coefficients
    -p, and its SNR is ``scale * |b0 - p @ z|^2`` with ``b0 = conj(h) @ v``
    and the projected cascade ``z = B^T v`` (n_bits values; Zhang et al.,
    IEEE JSTSP 2022), so each beam's fitness takes two real products of its
    population with z's real and imaginary parts.

    No draw depends on a fitness, so the block makes all of its draws first,
    in at most three calls, with n_v beams and n_off = individuals - n_parents
    offspring:

    1. the initial populations, ``rng.integers(0, 2, size=(n_v, individuals,
       n_bits)) * 2.0 - 1.0``, skipped when ``init`` is given (every beam
       then starts from ``init``);
    2. the crossover points, ``rng.integers(1, n_bits, size=(n_v,
       generations, n_off))``, skipped when n_bits is 1 (every point 0);
    3. the flips, ``rng.random((n_v, generations, n_off, n_bits)) < p_mut``
       (breeding follows the last generation too).

    Each group of beams (see ``LGA_GROUP_BYTES``) then evolves on its rows of
    these as one (beams, individuals, n_bits) stack, with per beam the same
    products, sort and breeding as a search run alone, so neither the result
    nor the stream's end state depends on the grouping.  Raises ValueError
    when the codebook is not (n_tx, beams) with a beam at least, and when the
    best SNR found is not finite (every SNR NaN, or an overflow).
    """
    _require_codebook(cs, codebook)
    n_bits = sum(h2.shape[0] for h2 in cs.h2_list)
    p_mut = params.p_mut if params.p_mut is not None else 1.0 / n_bits
    n_parents = params.n_parents if params.n_parents is not None \
        else max(1, params.individuals // 2)
    n_ind, n_gen = params.individuals, params.generations
    n_off = n_ind - n_parents
    if init is not None:
        init = np.asarray(init, dtype=np.float64)
        if init.shape != (n_ind, n_bits):
            raise ValueError("init population must be (individuals, n_bits)")
        if not np.all(np.isin(init, (-1.0, 1.0))):
            raise ValueError("init population entries must be -1 or +1")

    # row 0 projects a beam onto the direct path (b0), the rest onto the
    # cascade (z)
    proj = np.vstack([np.conj(cs.h), _cascade_matrix(cs).T])
    scale = budget.tx_power_w / budget.noise_power_w
    # child j crosses the rank-ordered parents j and j + 1 (cyclically)
    p1 = np.arange(n_off) % n_parents
    p2 = (p1 + 1) % n_parents
    bit = np.arange(n_bits)

    n_v = codebook.shape[1]
    # the block's three draws; each group evolves on views of them
    if init is None:
        pops = rng.integers(0, 2, size=(n_v, n_ind, n_bits)) * 2.0 - 1.0
    else:
        pops = np.repeat(init[None], n_v, axis=0)
    points = rng.integers(1, n_bits, size=(n_v, n_gen, n_off)) if n_bits > 1 \
        else np.zeros((n_v, n_gen, n_off), dtype=np.int64)
    flips = rng.random((n_v, n_gen, n_off, n_bits)) < p_mut
    best_gamma, best_flat, best_idx = -1.0, None, -1
    for a, b in _beam_groups(n_v, _beam_bytes(n_ind, n_off, n_gen, n_bits)):
        g = b - a
        pop = pops[a:b]
        second = bit >= points[a:b, ..., None]
        # each beam's column keeps the strides of codebook[:, v], so its
        # projection is the one-column product a beam searched alone makes
        bz = np.matmul(proj, codebook[:, a:b].T[:, :, None])
        b0 = bz[:, 0]
        z_re = np.ascontiguousarray(bz[:, 1:].real)
        z_im = np.ascontiguousarray(bz[:, 1:].imag)
        rows = np.arange(g)[:, None] * n_ind
        ranked = np.empty_like(pop)
        tops = np.empty((g, n_gen))
        firsts = np.empty((g, n_gen, n_bits))
        for gen in range(n_gen):
            re = b0.real - np.matmul(pop, z_re)[..., 0]
            im = b0.imag - np.matmul(pop, z_im)[..., 0]
            gammas = scale * (re * re + im * im)
            order = rows + np.argsort(-gammas, axis=1, kind="stable")
            pop.reshape(-1, n_bits).take(order, axis=0, out=ranked)
            pop, ranked = ranked, pop
            tops[:, gen] = gammas.reshape(-1)[order[:, 0]]
            firsts[:, gen] = pop[:, 0]
            # single-point crossover: bits before the point come from the
            # first parent, the rest from the second; then the flips
            children = pop[:, n_parents:]
            pop.take(p1, axis=1, out=children)
            np.copyto(children, pop.take(p2, axis=1), where=second[:, gen])
            np.negative(children, out=children, where=flips[a:b, gen])
        # a one-beam-at-a-time scan keeps the first strictly better top, so
        # the earliest maximum in beam-major order; NaN tops never win
        seq = np.where(tops > best_gamma, tops, -np.inf).ravel()
        k = int(np.argmax(seq))
        if seq[k] > best_gamma:
            best_gamma, best_idx = float(seq[k]), a + k // n_gen
            best_flat = firsts.reshape(-1, n_bits)[k]
    if best_flat is None or not np.isfinite(best_gamma):
        raise ValueError("lga_solve found no finite best SNR; the channels or "
                         "the link budget are not finite")
    return LgaResult(phases=_split_phases(cs, best_flat), precoder_index=best_idx,
                     gamma=best_gamma, evaluations=n_v * n_gen * n_ind)


def exhaustive_oracle(cs: ChannelSet, budget: LinkBudget, codebook: np.ndarray,
                      cap: int = 2 ** 20) -> tuple:
    """Exact SNR maximizer over all binary phase strings and codebook beams.

    Enumerates the 2^n_bits strings in ascending lexicographic order
    (-1 before +1) in chunks; ties resolve to the lexicographically lowest
    string and then the lowest precoder index.  Refuses instances where
    2^n_bits * |V| exceeds ``cap``, and a codebook that is not (n_tx, beams)
    with a beam at least.
    """
    _require_codebook(cs, codebook)
    n_bits = sum(h2.shape[0] for h2 in cs.h2_list)
    n_v = codebook.shape[1]
    total = (1 << n_bits) * n_v
    if total > cap:
        raise ValueError(f"search space 2^{n_bits} * {n_v} = {total} exceeds cap {cap}")

    base = np.conj(cs.h)
    bt = _cascade_matrix(cs).T
    scale = budget.tx_power_w / budget.noise_power_w
    shifts = np.arange(n_bits - 1, -1, -1, dtype=np.uint64)

    best_gamma = -1.0
    best_flat = None
    best_idx = -1
    chunk = 1 << 14
    for start in range(0, 1 << n_bits, chunk):
        stop = min(start + chunk, 1 << n_bits)
        idx = np.arange(start, stop, dtype=np.uint64)
        bits = (idx[:, None] >> shifts[None, :]) & np.uint64(1)
        phases = bits.astype(np.float64) * 2.0 - 1.0          # bit 0 -> -1, 1 -> +1
        coefs = -phases                                        # -1 reflects as +1
        m = base[None, :] + coefs @ bt
        gammas = scale * np.abs(m @ codebook) ** 2             # (chunk, |V|)
        flat_pos = int(np.argmax(gammas))
        g = float(gammas.reshape(-1)[flat_pos])
        if g > best_gamma:
            best_gamma = g
            best_flat = phases[flat_pos // n_v].copy()
            best_idx = flat_pos % n_v

    return _split_phases(cs, best_flat), best_idx, best_gamma


def random_baseline(cs: ChannelSet, codebook: np.ndarray,
                    rng: np.random.Generator) -> tuple:
    """Uniform random phases (per RIS, in order) and codebook index.

    Refuses a codebook that is not (n_tx, beams) with a beam at least."""
    _require_codebook(cs, codebook)
    phase_list = [rng.integers(0, 2, size=h2.shape[0]) * 2.0 - 1.0
                  for h2 in cs.h2_list]
    idx = int(rng.integers(codebook.shape[1]))
    phases = phase_list[0] if cs.ris_count == 1 else phase_list
    return phases, idx
