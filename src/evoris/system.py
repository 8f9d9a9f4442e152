"""Link-level quantities: codebook precoding, RIS phase action and SNR.

The receiver sees the direct channel plus, per RIS, the cascade of the
TX-RIS matrix, the diagonal reflection coefficients and the RIS-RX vector.
Everything here is deterministic dense algebra on a ChannelSet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, ScenarioConfig


@dataclass(frozen=True)
class LinkBudget:
    """Transmit and noise power in linear watts."""

    tx_power_w: float
    noise_power_w: float

    def __post_init__(self):
        if self.tx_power_w <= 0 or self.noise_power_w <= 0:
            raise ValueError("powers must be positive")


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def link_budget_from(cfg: ScenarioConfig) -> LinkBudget:
    return LinkBudget(tx_power_w=dbm_to_watt(cfg.tx_power_dbm),
                      noise_power_w=dbm_to_watt(cfg.noise_dbm))


def dft_codebook(n_tx: int) -> np.ndarray:
    """Unit-norm DFT precoder codebook, one column per beam.

    Entry (n, m) is exp(-2j pi n m / N) / sqrt(N); columns are orthonormal.
    """
    if n_tx < 1:
        raise ValueError("n_tx must be >= 1")
    n = np.arange(n_tx)
    return np.exp(-2j * np.pi * np.outer(n, n) / n_tx) / math.sqrt(n_tx)


def evaluation_codebook(cfg: ScenarioConfig, codebook_size: int) -> np.ndarray:
    """First ``codebook_size`` DFT beams for the scenario's array size."""
    full = dft_codebook(cfg.n_tx)
    if codebook_size > full.shape[1]:
        raise ValueError(f"codebook_size {codebook_size} exceeds n_tx {cfg.n_tx}")
    return full[:, :codebook_size]


def phase_to_coefficient(phase, states: int = 2) -> np.ndarray:
    """Map a discrete phase decision to its unit-modulus reflection coefficient.

    Binary mode (states == 2) takes decisions in {-1, +1}: -1 reflects with
    coefficient +1, +1 reflects with coefficient -1.  Multi-state mode takes
    integer levels s in {0..states-1} mapped to exp(2j pi s / states).
    """
    arr = np.asarray(phase)
    if states == 2:
        vals = arr.astype(np.float64)
        if not np.all((vals == -1.0) | (vals == 1.0)):
            raise ValueError("binary phases must be -1 or +1")
        return np.where(vals < 0, 1.0 + 0.0j, -1.0 + 0.0j)
    if states < 2:
        raise ValueError("states must be >= 2")
    levels = arr.astype(np.int64)
    if not np.array_equal(levels, arr):
        raise ValueError("multi-state phases must be integers")
    if np.any(levels < 0) or np.any(levels >= states):
        raise ValueError(f"phase levels must lie in [0, {states})")
    return np.exp(2j * np.pi * levels / states)


_PHASE_SHAPE_ERROR = "each phase vector must be 1-D with one entry per RIS element"


def _one_block_phases(cs: ChannelSet, phases) -> np.ndarray:
    """One block's phases, one vector per RIS or a single vector when
    ris_count == 1, as a (1, K, n_ris) array."""
    if isinstance(phases, np.ndarray) and phases.ndim == 1:
        phases = [phases]
    elif isinstance(phases, (list, tuple)) and phases and np.isscalar(phases[0]):
        phases = [np.asarray(phases)]
    if len(phases) != cs.ris_count:
        raise ValueError(f"expected {cs.ris_count} phase vectors, got {len(phases)}")
    try:
        return np.asarray(phases)[None]
    except ValueError:  # vectors of unequal lengths
        raise ValueError(_PHASE_SHAPE_ERROR) from None


def effective_channel(cs, phases, states: int = 2) -> np.ndarray:
    """Combined direct-plus-reflected channel seen at the receiver.

    For one ChannelSet ``cs``, ``phases`` is one vector per RIS (a single
    vector is accepted when ris_count == 1), and the result is conj(h) +
    sum_k conj(H1_k) diag(coef_k) conj(h2_k) as an (N_TX,) vector.  For a list
    of B blocks with equal surface counts, ``phases`` is (B, K, n_ris) and the
    result (B, N_TX); each row has the bits of the one-block call.  The phases
    are validated once; an H1 array shared by every block (a line-of-sight
    H1) is broadcast, each block's product being the same matrix-vector
    product as a one-block call.
    """
    stacked = isinstance(cs, (list, tuple))
    blocks = cs if stacked else [cs]
    phases = np.asarray(phases) if stacked else _one_block_phases(cs, phases)
    k = blocks[0].ris_count
    if any(b.ris_count != k for b in blocks):
        raise ValueError("every block of a stack needs the same surface count")
    if phases.shape[:2] != (len(blocks), k):
        raise ValueError(f"expected phases of shape ({len(blocks)}, {k}, n_ris), "
                         f"got {phases.shape}")
    h2 = np.array([b.h2_list for b in blocks])
    if phases.shape != h2.shape:
        raise ValueError(_PHASE_SHAPE_ERROR)
    x = np.conj(h2) * phase_to_coefficient(phases, states)
    m = np.conj(np.array([b.h for b in blocks]))
    for j in range(k):
        h1 = [b.h1_list[j] for b in blocks]
        shared = all(a is h1[0] for a in h1)
        m = m + (np.conj(h1[0] if shared else np.array(h1)) @ x[:, j, :, None])[..., 0]
    return m if stacked else m[0]


def snr(cs, phases, v, budget: LinkBudget, states: int = 2):
    """Receive SNR (P / sigma^2) |m . v|^2 for precoder column v.

    One block gives a float.  A list of B blocks, with phases (B, K, n_ris)
    and a sequence of B precoder columns, gives a (B,) array whose entries
    have the bits of the one-block calls: the effective channels come from
    one stacked ``effective_channel``, and each block finishes with its own
    dot product and scalar arithmetic, as a one-block call does.  The
    columns may not come as one array: ``codebook[:, idx]`` would be walked
    by rows, which pass every check when B == n_tx.
    """
    m = effective_channel(cs, phases, states)
    stacked = m.ndim == 2
    if stacked and isinstance(v, np.ndarray):
        raise ValueError("stacked snr takes a sequence of precoder columns, "
                         "not an array")
    rows, columns = (m, v) if stacked else ([m], [v])
    if len(columns) != len(rows):
        raise ValueError(f"expected {len(rows)} precoder columns, got {len(columns)}")
    scale = budget.tx_power_w / budget.noise_power_w
    gammas = []
    for m_b, v_b in zip(rows, columns):
        v_b = np.asarray(v_b)
        if v_b.shape != m_b.shape:
            raise ValueError("precoder length must match n_tx")
        gammas.append(scale * abs(np.dot(m_b, v_b)) ** 2)
    return np.array(gammas) if stacked else gammas[0]
