"""Tests for SNR/rate evaluation and the discrete action spaces.

The derived cases evaluate the effective channel and SNR with independent
naive summation code written here, then compare.
"""

import math

import numpy as np
import pytest

from evoris.channel import ChannelSet, ScenarioConfig
from evoris.numerics import make_rng
from evoris.system import (LinkBudget, dbm_to_watt, dft_codebook,
                           effective_channel, evaluation_codebook,
                           link_budget_from, phase_to_coefficient, rate, snr)

UNIT = LinkBudget(tx_power_w=1.0, noise_power_w=1.0)


def random_channel_set(rng, n_tx, n_ris, k, direct=True) -> ChannelSet:
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = cplx(n_tx) if direct else np.zeros(n_tx, dtype=np.complex128)
    return ChannelSet(h=h,
                      h1_list=[cplx(n_tx, n_ris) for _ in range(k)],
                      h2_list=[cplx(n_ris) for _ in range(k)])


# -- dft_codebook -------------------------------------------------------------

def test_dft_codebook_n1():
    cb = dft_codebook(1)
    assert cb.shape == (1, 1)
    assert abs(cb[0, 0] - 1.0) < 1e-15


def test_dft_codebook_n2():
    cb = dft_codebook(2)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(cb[:, 0], [s, s], atol=1e-15)
    assert np.allclose(cb[:, 1], [s, -s], atol=1e-15)


def test_dft_codebook_n4_column1():
    cb = dft_codebook(4)
    assert np.allclose(cb[:, 1], 0.5 * np.array([1, -1j, -1, 1j]), atol=1e-14)


def test_dft_codebook_orthonormal():
    cb = dft_codebook(8)
    gram = cb.conj().T @ cb
    assert np.max(np.abs(gram - np.eye(8))) < 1e-12


def test_evaluation_codebook_slices_columns():
    cfg = ScenarioConfig(n_tx=4, n_ris=4)
    cb = evaluation_codebook(cfg, 3)
    assert cb.shape == (4, 3)
    assert np.array_equal(cb, dft_codebook(4)[:, :3])
    with pytest.raises(ValueError):
        evaluation_codebook(cfg, 5)


# -- phase mapping ------------------------------------------------------------

def test_phase_to_coefficient_binary():
    assert phase_to_coefficient(-1) == 1 + 0j
    assert phase_to_coefficient(+1) == -1 + 0j


def test_phase_to_coefficient_multistate():
    assert abs(phase_to_coefficient(1, states=4) - 1j) < 1e-15
    assert abs(phase_to_coefficient(0, states=4) - 1.0) < 1e-15
    assert abs(phase_to_coefficient(2, states=4) + 1.0) < 1e-15


def test_phase_coefficients_validation():
    cs = random_channel_set(make_rng(0), 2, 2, 1)
    with pytest.raises(ValueError):
        effective_channel(cs, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        effective_channel(cs, np.array([4, 0]), states=4)
    with pytest.raises(ValueError):
        effective_channel(cs, [np.ones((2, 2))])


def test_distinct_coefficients():
    # the two admissible binary states reflect with distinct coefficients
    assert phase_to_coefficient(-1) != phase_to_coefficient(+1)


# -- effective_channel --------------------------------------------------------

def test_effective_channel_all_zero():
    cs = ChannelSet(h=np.zeros(2, dtype=np.complex128),
                    h1_list=[np.zeros((2, 3), dtype=np.complex128)],
                    h2_list=[np.zeros(3, dtype=np.complex128)])
    m = effective_channel(cs, np.array([-1.0, 1.0, -1.0]))
    assert np.array_equal(m, np.zeros(2, dtype=np.complex128))


def test_effective_channel_scalar_cascade():
    cs = ChannelSet(h=np.zeros(2, dtype=np.complex128),
                    h1_list=[np.array([[1.0], [0.0]], dtype=np.complex128)],
                    h2_list=[np.array([1.0], dtype=np.complex128)])
    m = effective_channel(cs, np.array([-1.0]))  # coefficient +1
    assert np.allclose(m, [1.0, 0.0], atol=1e-15)


def test_effective_channel_matches_naive_summation():
    rng = make_rng(0)
    for _ in range(20):
        cs = random_channel_set(rng, 3, 4, 2)
        phases = [rng.integers(0, 2, 4) * 2.0 - 1.0 for _ in range(2)]
        # independent reference: per-element accumulation of the cascade
        ref = np.conj(cs.h).copy()
        for k in range(2):
            for i in range(4):
                coef = 1.0 if phases[k][i] < 0 else -1.0
                for a in range(3):
                    ref[a] += np.conj(cs.h1_list[k][a, i]) * coef * \
                        np.conj(cs.h2_list[k][i])
        m = effective_channel(cs, phases)
        assert np.max(np.abs(m - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_effective_channel_rejects_wrong_lengths():
    cs = random_channel_set(make_rng(1), 2, 3, 1)
    with pytest.raises(ValueError):
        effective_channel(cs, np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        effective_channel(cs, [np.ones(3) * -1.0, np.ones(3) * -1.0])


# -- snr / rate ---------------------------------------------------------------

def test_snr_zero_channels():
    cs = ChannelSet(h=np.zeros(2, dtype=np.complex128),
                    h1_list=[np.zeros((2, 2), dtype=np.complex128)],
                    h2_list=[np.zeros(2, dtype=np.complex128)])
    v = dft_codebook(2)[:, 0]
    assert snr(cs, np.array([-1.0, -1.0]), v, UNIT) == 0.0


def test_snr_direct_only_half():
    cs = ChannelSet(h=np.array([1.0 + 0j, 0.0 + 0j]),
                    h1_list=[np.zeros((2, 1), dtype=np.complex128)],
                    h2_list=[np.zeros(1, dtype=np.complex128)])
    v = dft_codebook(2)[:, 0]  # (1/sqrt 2)[1, 1]
    gamma = snr(cs, np.array([-1.0]), v, UNIT)
    assert abs(gamma - 0.5) < 1e-12


def test_snr_matches_independent_formula():
    rng = make_rng(2)
    for _ in range(1000):
        n_tx = int(rng.integers(1, 5))
        n_ris = int(rng.integers(1, 5))
        k = int(rng.integers(1, 3))
        cs = random_channel_set(rng, n_tx, n_ris, k)
        phases = [rng.integers(0, 2, n_ris) * 2.0 - 1.0 for _ in range(k)]
        v = dft_codebook(n_tx)[:, int(rng.integers(n_tx))]
        p, s2 = float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10))
        # independent reference built from scratch with explicit diag()
        m_ref = np.conj(cs.h)
        for kk in range(k):
            coefs = np.where(np.asarray(phases[kk]) < 0, 1.0 + 0j, -1.0 + 0j)
            m_ref = m_ref + np.conj(cs.h1_list[kk]) @ np.diag(coefs) @ \
                np.conj(cs.h2_list[kk])
        ref = (p / s2) * abs(np.sum(m_ref * v)) ** 2
        got = snr(cs, phases if k > 1 else phases[0], v,
                  LinkBudget(tx_power_w=p, noise_power_w=s2))
        assert abs(got - ref) < 1e-10 * max(ref, 1e-30)


def test_snr_global_phase_invariance_when_direct_blocked():
    rng = make_rng(3)
    cs = random_channel_set(rng, 3, 4, 1, direct=False)
    phases = rng.integers(0, 2, 4) * 2.0 - 1.0
    v = dft_codebook(3)[:, 1]
    g0 = snr(cs, phases, v, UNIT)
    rot = np.exp(1j * 0.731)
    cs_rot = ChannelSet(h=cs.h * rot, h1_list=[cs.h1_list[0] * rot],
                        h2_list=[cs.h2_list[0] * rot])
    # cascade picks up conj(rot)^2, |.|^2 removes it; direct is zero
    assert abs(snr(cs_rot, phases, v, UNIT) - g0) < 1e-9 * max(g0, 1e-30)


def test_snr_joint_rotation_invariance_with_direct():
    rng = make_rng(4)
    cs = random_channel_set(rng, 3, 4, 1, direct=True)
    phases = rng.integers(0, 2, 4) * 2.0 - 1.0
    v = dft_codebook(3)[:, 0]
    g0 = snr(cs, phases, v, UNIT)
    rot = np.exp(1j * 1.234)
    cs_rot = ChannelSet(h=cs.h * rot, h1_list=[m.copy() for m in cs.h1_list],
                        h2_list=[h2 * rot for h2 in cs.h2_list])
    assert abs(snr(cs_rot, phases, v, UNIT) - g0) < 1e-9 * max(g0, 1e-30)


def test_rate_values():
    assert rate(0.0) == 0.0
    assert rate(1.0) == 1.0
    assert rate(3.0) == 2.0
    with pytest.raises(ValueError):
        rate(-0.1)


# -- link budget --------------------------------------------------------------

def test_dbm_watt_round_trip():
    assert abs(dbm_to_watt(30.0) - 1.0) < 1e-15
    assert abs(dbm_to_watt(0.0) - 1e-3) < 1e-18


def test_link_budget_from_scenario():
    cfg = ScenarioConfig(n_tx=2, n_ris=4, tx_power_dbm=30.0, noise_dbm=-50.0)
    budget = link_budget_from(cfg)
    assert abs(budget.tx_power_w - 1.0) < 1e-15
    assert abs(budget.noise_power_w - 1e-8) < 1e-22
    with pytest.raises(ValueError):
        LinkBudget(tx_power_w=0.0, noise_power_w=1.0)
