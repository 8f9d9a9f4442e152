"""Non-neural reference policies for per-block phase/precoder selection.

A small per-precoder genetic search over binary phase strings, which takes
one ChannelSet or a stack of them, an exhaustive enumerator for instances
small enough to brute-force, and a uniform random control arm; the last two
act on one ChannelSet at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .numerics import check_fields, even_runs
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
    """What ``lga_solve`` found: for one block its phases, beam and SNR; for a
    stack of B blocks a list of B phases and (B,) arrays of beams and SNRs.
    ``evaluations`` counts the strings scored, over the whole stack."""

    phases: object
    precoder_index: int | np.ndarray
    gamma: float | np.ndarray
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


# Bytes one group may hold, counted per beam by ``_beam_bytes``.  A stack of
# blocks is searched in the fewest near-equal runs of whole blocks that fit
# this budget, one block at least; each run makes its blocks' draws, in block
# order, then evolves all of its (block, beam) rows as one group.  A desk
# block holds 24 kB (48 kB with two surfaces), so a 50-block desk episode runs
# in two groups of 25 blocks (four of 12-13 with two surfaces); a paper-scale
# block (16 beams of 150 kB: individuals 15, n_bits 400, 5 generations) does
# not fit and runs alone, one group of its 16 beams.  The draws lie outside
# the budget, and the bits do not depend on it.  On a 2 vCPU Xeon with one
# BLAS thread, time over that of one search per block (``tools/ab.py
# --paths lga_eval``, 30 rounds of 5 desk episodes; an A/A run read 1.00 and
# 1.01): budgets that fit 1, 2, 5, 10, 25 and 50 one-surface desk blocks ran
# at 1.03, 0.72, 0.57, 0.50, 0.53 and 0.49, and on two-surface blocks (half as
# many fit) at 1.39, 1.01, 0.79, 0.65, 0.61 and 0.58, with traced peaks rising
# from 0.32 to 2.1 and from 0.53 to 2.2 MB; this budget read 0.48 and 0.58 at
# 1.2 and 1.4 MB.  On paper blocks (``--paper``, 30 rounds, A/A 0.99-1.01),
# one group of 16 beams read 0.99 per block (``--paths lga``, 50 blocks) and
# 0.97 in evaluation (``lga_eval``) against four groups of four, at a traced
# peak of 3.6 and 5.5 MB (3.4 and 5.2 MB).
LGA_GROUP_BYTES = 640 << 10


def _beam_bytes(n_ind: int, n_off: int, n_gen: int, n_bits: int) -> int:
    """Bytes one beam's search works on in a group: the population and its
    ranked copy (float64), the crossover masks and flips (bool), the best
    string of each generation (float64) and the projected cascade's real and
    imaginary parts.  The population and flips are the beam's rows of its
    block's draws, allocated when its run starts, outside the budget."""
    return 8 * n_bits * (2 * n_ind + n_gen + 2) + 2 * n_gen * n_off * n_bits


def _projector(blocks) -> np.ndarray:
    """(B, 1 + n_bits, n_tx) per block: row 0 projects a beam onto the direct
    path (b0), the rest onto the cascade (z).  Each block's matrix is
    ``_cascade_matrix``'s transpose below conj(h), with the same elementwise
    products and the layout a ``vstack`` of the two has, which the
    projection's products depend on: column-major, or row-major when a
    single row or column makes both parts row-major too."""
    h1 = np.array([b.h1_list for b in blocks])
    n_b, k, n_tx, n = h1.shape
    proj = np.empty((n_b, n_tx, 1 + k * n), dtype=np.complex128)
    proj[:, :, 0] = np.conj([b.h for b in blocks])
    np.multiply(np.conj(h1).transpose(0, 2, 1, 3),
                np.conj([b.h2_list for b in blocks])[:, None],
                out=proj[:, :, 1:].reshape(n_b, n_tx, k, n))
    proj = proj.transpose(0, 2, 1)
    return np.ascontiguousarray(proj) if k * n == 1 or n_tx == 1 else proj


def _draws(rng, n_c, n_v, n_ind, n_gen, n_off, n_bits, p_mut, init):
    """The draws of ``n_c`` consecutive blocks as (n_c, n_v, ...) arrays of
    initial populations, crossover points and flips; each block makes its
    calls in ``lga_solve``'s order before the next block's."""
    pops = np.empty((n_c, n_v, n_ind, n_bits)) if init is None \
        else np.tile(init, (n_c, n_v, 1, 1))
    points = np.zeros((n_c, n_v, n_gen, n_off), dtype=np.int64)
    flips = np.empty((n_c, n_v, n_gen, n_off, n_bits), dtype=bool)
    for i in range(n_c):
        if init is None:
            np.multiply(rng.integers(0, 2, size=pops.shape[1:]), 2.0, out=pops[i])
        if n_bits > 1:
            points[i] = rng.integers(1, n_bits, size=points.shape[1:])
        np.less(rng.random(flips.shape[1:]), p_mut, out=flips[i])
    if init is None:
        pops -= 1.0
    return pops, points, flips


def lga_solve(cs: ChannelSet | list[ChannelSet], budget: LinkBudget,
              codebook: np.ndarray, params: LgaParams, rng: np.random.Generator,
              init: np.ndarray | None = None) -> LgaResult:
    """Best (phases, precoder) found by an independent genetic search per beam.

    For every codebook column a small population of {-1,+1} strings evolves
    for the configured generations; the best pair ever evaluated wins, with
    ties broken toward the lowest precoder index and then the earliest
    generation.  ``init`` optionally seeds each per-beam search with a fixed
    starting population.

    ``cs`` is one ChannelSet, or a list of B blocks with equal antenna,
    surface and element counts.  A stack gives an ``LgaResult`` whose
    ``phases`` is a list of the B blocks' phases, ``precoder_index`` an int64
    and ``gamma`` a float64 array of B entries, and ``evaluations`` the total
    over the blocks, an int.  Every block's result, and the stream's end
    state, are those of one-block calls on the blocks in order.

    With the beam v fixed, a string of phases p reflects with coefficients
    -p, and its SNR is ``scale * |b0 - p @ z|^2`` with ``b0 = conj(h) @ v``
    and the projected cascade ``z = B^T v`` (n_bits values; Zhang et al.,
    IEEE JSTSP 2022), so each beam's fitness takes two real products of its
    population with z's real and imaginary parts.

    No draw depends on a fitness, so each block makes all of its draws
    first, in at most three calls, with n_v beams and n_off = individuals -
    n_parents offspring:

    1. the initial populations, ``rng.integers(0, 2, size=(n_v, individuals,
       n_bits)) * 2.0 - 1.0``, skipped when ``init`` is given (every beam
       then starts from ``init``);
    2. the crossover points, ``rng.integers(1, n_bits, size=(n_v,
       generations, n_off))``, skipped when n_bits is 1 (every point 0);
    3. the flips, ``rng.random((n_v, generations, n_off, n_bits)) < p_mut``
       (breeding follows the last generation too).

    The stack is searched in runs of whole blocks (see ``LGA_GROUP_BYTES``);
    each run makes its blocks' draws, block by block, then evolves its
    (block, beam) rows as one (rows, individuals, n_bits) stack, with per row
    the same products, sort and breeding as a beam searched alone, so neither
    the results nor the stream's end state depend on the runs or on the
    stacking.  Raises ValueError when the stack is empty or its blocks differ
    in shape, when the codebook is not (n_tx, beams) with a beam at least,
    and when a block's best SNR found is not finite (every SNR NaN, or an
    overflow).
    """
    stacked = isinstance(cs, (list, tuple))
    blocks = cs if stacked else [cs]
    if not blocks:
        raise ValueError("lga_solve needs one block at least")
    _require_codebook(blocks[0], codebook)
    sizes = [h2.shape for h2 in blocks[0].h2_list]
    if any(b.h.shape != blocks[0].h.shape or [h2.shape for h2 in b.h2_list] != sizes
           for b in blocks):
        raise ValueError("every block of a stack needs the same antenna, surface "
                         "and element counts")
    n_bits = sum(shape[0] for shape in sizes)
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

    scale = budget.tx_power_w / budget.noise_power_w
    # child j crosses the rank-ordered parents j and j + 1 (cyclically)
    p1 = np.arange(n_off) % n_parents
    p2 = (p1 + 1) % n_parents
    bit = np.arange(n_bits)

    n_b, n_v = len(blocks), codebook.shape[1]
    best_gamma = np.empty(n_b)
    best_idx = np.empty(n_b, dtype=np.int64)
    best_flat = np.empty((n_b, n_bits))

    def search(c0, c1):
        # one run of blocks: its draws, then its rows as one group; the run's
        # arrays are freed before the next run draws
        n_c = c1 - c0
        g = n_c * n_v
        pops, points, flips = _draws(rng, n_c, n_v, n_ind, n_gen, n_off, n_bits,
                                     p_mut, init)
        pop = pops.reshape(g, n_ind, n_bits)
        second = bit >= points.reshape(g, n_gen, n_off)[..., None]
        flip = flips.reshape(g, n_gen, n_off, n_bits)
        # each beam's column keeps the strides of codebook[:, v], so its
        # projection is the one-column product a beam searched alone makes
        bz = np.matmul(_projector(blocks[c0:c1])[:, None], codebook.T[None, :, :, None])
        bz = bz.reshape(g, n_bits + 1, 1)
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
            np.negative(children, out=children, where=flip[:, gen])
        # a one-beam-at-a-time scan keeps the first strictly better top, so per
        # block the earliest maximum in beam-major order; NaN tops never win
        tops = np.where(np.isnan(tops), -np.inf, tops).reshape(n_c, n_v * n_gen)
        k = np.argmax(tops, axis=1)
        at = np.arange(n_c)
        best_gamma[c0:c1] = tops[at, k]
        best_idx[c0:c1] = k // n_gen
        best_flat[c0:c1] = firsts.reshape(n_c, n_v * n_gen, n_bits)[at, k]

    fit = LGA_GROUP_BYTES // (n_v * _beam_bytes(n_ind, n_off, n_gen, n_bits))
    for c0, c1 in even_runs(n_b, fit):
        search(c0, c1)
    bad = np.flatnonzero(~(np.isfinite(best_gamma) & (best_gamma >= 0.0)))
    if bad.size:
        where = f" on block {bad[0]}" if stacked else ""
        raise ValueError(f"lga_solve found no finite best SNR{where}; the channels "
                         "or the link budget are not finite")
    evaluations = n_v * n_gen * n_ind
    if not stacked:
        return LgaResult(phases=_split_phases(cs, best_flat[0]),
                         precoder_index=int(best_idx[0]), gamma=float(best_gamma[0]),
                         evaluations=evaluations)
    return LgaResult(phases=[_split_phases(b, flat) for b, flat in zip(blocks, best_flat)],
                     precoder_index=best_idx, gamma=best_gamma,
                     evaluations=n_b * evaluations)


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
