"""Link-level quantities: codebook precoding, RIS phase action, SNR and rate.

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
        if not np.all(np.isin(vals, (-1.0, 1.0))):
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


def effective_channel(cs: ChannelSet, phases, states: int = 2) -> np.ndarray:
    """Combined direct-plus-reflected channel seen at the receiver.

    ``phases`` is one vector per RIS (a single vector is accepted when
    ris_count == 1).  Returns conj(h) + sum_k conj(H1_k) diag(coef_k)
    conj(h2_k) as an (N_TX,) vector.
    """
    if isinstance(phases, np.ndarray) and phases.ndim == 1:
        phases = [phases]
    elif isinstance(phases, (list, tuple)) and phases and np.isscalar(phases[0]):
        phases = [np.asarray(phases)]
    if len(phases) != cs.ris_count:
        raise ValueError(f"expected {cs.ris_count} phase vectors, got {len(phases)}")
    m = np.conj(cs.h)
    for h1, h2, ph in zip(cs.h1_list, cs.h2_list, phases):
        ph = np.asarray(ph)
        if ph.shape != h2.shape:
            raise ValueError("each phase vector must be 1-D with one entry per "
                             "RIS element")
        coef = phase_to_coefficient(ph, states)
        m = m + np.conj(h1) @ (np.conj(h2) * coef)
    return m


def snr(cs: ChannelSet, phases, v: np.ndarray, budget: LinkBudget,
        states: int = 2) -> float:
    """Receive SNR (P / sigma^2) |m . v|^2 for precoder column v."""
    v = np.asarray(v)
    m = effective_channel(cs, phases, states)
    if v.shape != m.shape:
        raise ValueError("precoder length must match n_tx")
    return budget.tx_power_w / budget.noise_power_w * abs(np.dot(m, v)) ** 2


def rate(gamma: float) -> float:
    """Spectral efficiency log2(1 + gamma) in bit/s/Hz."""
    if gamma < 0:
        raise ValueError("SNR must be nonnegative")
    return math.log2(1.0 + gamma)
