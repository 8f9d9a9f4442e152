"""Tests for geometry-driven channel sampling.

Derived cases use per-element phase loops and Monte Carlo moment estimates
as references; sampling determinism is checked at the seed level.
"""

import math

import numpy as np
import pytest

from evoris.channel import (ScenarioConfig, sample_channel_set, sample_episodes,
                            sample_ricean, scenario_from_mapping,
                            scenario_to_mapping, steering_vector,
                            stack_real_imag)
from evoris.numerics import make_rng

WAVELENGTH = 0.1
SPACING = WAVELENGTH / 2.0


def small_scenario(**overrides):
    base = dict(n_tx=2, n_ris=4, ris_count=1,
                tx_position=(0.0, 0.0, 2.0), rx_position=(8.0, 10.0, 1.5),
                ris_positions=((0.0, 3.0, 2.0),),
                horizon=3, episodes=2)
    base.update(overrides)
    return ScenarioConfig(**base)


# -- steering_vector ----------------------------------------------------------

def test_steering_broadside():
    # direction orthogonal to the x-axis line of elements: zero path difference
    out = steering_vector("linear", 2, np.array([0.0, 1.0, 0.0]),
                          WAVELENGTH, SPACING)
    assert np.allclose(out, [1.0, 1.0], atol=1e-12)


def test_steering_endfire_half_wavelength():
    out = steering_vector("linear", 2, np.array([1.0, 0.0, 0.0]),
                          WAVELENGTH, SPACING)
    # half-wavelength spacing along the look direction: pi phase step
    assert np.allclose(out, [1.0, -1.0], atol=1e-12)


def test_steering_planar_matches_phase_loop():
    rng = make_rng(0)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    out = steering_vector("planar", 4, d, WAVELENGTH, SPACING)
    # reference: explicit per-element positions on the x-z grid
    ref = np.empty(4, dtype=np.complex128)
    for n in range(4):
        pos = np.array([(n % 2) * SPACING, 0.0, (n // 2) * SPACING])
        ref[n] = np.exp(1j * 2.0 * np.pi / WAVELENGTH * float(pos @ d))
    assert np.max(np.abs(out - ref)) < 1e-12


def test_steering_unit_modulus():
    rng = make_rng(1)
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    out = steering_vector("linear", 8, d, WAVELENGTH, SPACING)
    assert np.allclose(np.abs(out), 1.0, atol=1e-12)


def test_steering_rejects_bad_direction():
    with pytest.raises(ValueError):
        steering_vector("linear", 2, np.array([2.0, 0.0, 0.0]), WAVELENGTH, SPACING)


# -- sample_ricean ------------------------------------------------------------

def test_ricean_los_limit():
    rng = make_rng(2)
    los = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 2)))
    avg_power = 0.7
    out = sample_ricean(3, 2, 300.0, los, avg_power, rng)
    assert np.max(np.abs(out - math.sqrt(avg_power) * los)) < 1e-6


def test_ricean_pure_gaussian_variance():
    rng = make_rng(3)
    avg_power = 0.5
    los = np.ones((1, 4), dtype=np.complex128)
    draws = np.stack([sample_ricean(1, 4, float("-inf"), los, avg_power, rng)
                      for _ in range(100_000)])
    power = np.mean(np.abs(draws) ** 2, axis=0)
    assert np.all(np.abs(power - avg_power) < 0.03 * avg_power)


def test_ricean_10db_power_split():
    rng = make_rng(4)
    kappa = 10.0  # linear, i.e. 10 dB
    avg_power = 1.3
    los = np.exp(1j * np.array([[0.3, -1.2, 2.0]]))
    draws = np.stack([sample_ricean(1, 3, 10.0, los, avg_power, rng)
                      for _ in range(100_000)])
    power = np.mean(np.abs(draws) ** 2, axis=0)
    assert np.all(np.abs(power - avg_power) < 0.03 * avg_power)
    # the deterministic part of every draw is the LOS component
    los_power = np.abs(draws.mean(axis=0)) ** 2
    frac = los_power / power
    target = kappa / (kappa + 1.0)
    assert np.all(np.abs(frac - target) < 0.03 * target)


def test_ricean_rejects_zero_los_entry():
    with pytest.raises(ValueError):
        sample_ricean(1, 2, 10.0, np.array([[1.0, 0.0]]), 1.0, make_rng(5))


# -- sample_channel_set / sample_episodes -------------------------------------

def test_blocked_direct_is_zero():
    cs = sample_channel_set(small_scenario(direct_blocked=True), make_rng(6))
    assert np.array_equal(cs.h, np.zeros(2, dtype=np.complex128))


def test_two_ris_shapes():
    cfg = small_scenario(ris_count=2,
                         ris_positions=((0.0, 3.0, 2.0), (6.0, 6.0, -2.0)))
    cs = sample_channel_set(cfg, make_rng(7))
    assert cs.ris_count == 2
    assert len(cs.h1_list) == 2 and len(cs.h2_list) == 2
    for h1, h2 in zip(cs.h1_list, cs.h2_list):
        assert h1.shape == (2, 4)
        assert h2.shape == (4,)


def test_channel_set_seed_determinism():
    cfg = small_scenario(direct_blocked=False, kappa_h1_db=10.0)
    a = sample_channel_set(cfg, make_rng(8))
    b = sample_channel_set(cfg, make_rng(8))
    c = sample_channel_set(cfg, make_rng(9))
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.h1_list[0], b.h1_list[0])
    assert np.array_equal(a.h2_list[0], b.h2_list[0])
    assert not np.array_equal(a.h2_list[0], c.h2_list[0])


def test_pure_los_h1_is_deterministic():
    cfg = small_scenario(kappa_h1_db=None)
    a = sample_channel_set(cfg, make_rng(10))
    b = sample_channel_set(cfg, make_rng(11))
    # different seeds, but the TX-RIS link is pure LOS: identical matrices
    assert np.array_equal(a.h1_list[0], b.h1_list[0])
    assert not np.array_equal(a.h2_list[0], b.h2_list[0])


def test_direct_attenuation_scales_power():
    cfg0 = small_scenario(direct_blocked=False, direct_attenuation_db=0.0)
    cfg10 = small_scenario(direct_blocked=False, direct_attenuation_db=10.0)
    h0 = sample_channel_set(cfg0, make_rng(12)).h
    h10 = sample_channel_set(cfg10, make_rng(12)).h
    # same draws, 10 dB less power = amplitude ratio sqrt(10)
    assert np.allclose(h10 * math.sqrt(10.0), h0, atol=1e-12)


def test_sample_episodes_layout_and_determinism():
    cfg = small_scenario()
    trace = sample_episodes(cfg, 2, 3, make_rng(13))
    assert len(trace) == 2 and all(len(ep) == 3 for ep in trace)
    again = sample_episodes(cfg, 2, 3, make_rng(13))
    assert np.array_equal(trace[1][2].h2_list[0], again[1][2].h2_list[0])


def test_planar_needs_square_count():
    with pytest.raises(ValueError):
        small_scenario(n_ris=6, ris_geometry="planar")
    assert small_scenario(n_ris=6).resolved_ris_geometry() == "linear"
    assert small_scenario(n_ris=4).resolved_ris_geometry() == "planar"


# -- stack_real_imag ----------------------------------------------------------

def test_stack_real_imag_scalar_cases():
    cs_like = sample_channel_set(small_scenario(n_tx=1, n_ris=1), make_rng(14))
    cs_like.h = np.array([1 + 2j])
    cs_like.h1_list = [np.array([[1j]])]
    cs_like.h2_list = [np.array([0.5 - 0.5j])]
    h_t, h1_t, h2_t = stack_real_imag(cs_like)
    assert np.array_equal(h_t, [1.0, 2.0])
    assert np.array_equal(h1_t[0], [[0.0], [1.0]])
    assert np.array_equal(h2_t[0], [0.5, -0.5])


def test_stack_real_imag_round_trip():
    rng = make_rng(15)
    cs = sample_channel_set(small_scenario(n_tx=2, n_ris=3, kappa_h1_db=5.0), rng)
    _, h1_t, _ = stack_real_imag(cs)
    rebuilt = h1_t[0][0:2, :] + 1j * h1_t[0][2:4, :]
    assert np.array_equal(rebuilt, cs.h1_list[0])


# -- scenario (de)serialization -----------------------------------------------

def test_scenario_round_trip():
    cfg = small_scenario(ris_count=2,
                         ris_positions=((3.0, 3.0, 2.0), (6.0, 6.0, -2.0)),
                         direct_blocked=False, direct_attenuation_db=10.0)
    assert scenario_from_mapping(scenario_to_mapping(cfg)) == cfg


def test_scenario_mapping_rejects_unknown_field():
    d = scenario_to_mapping(small_scenario())
    d["bandwidth"] = 20.0
    with pytest.raises(ValueError):
        scenario_from_mapping(d)


def test_scenario_rejects_duplicate_positions():
    with pytest.raises(ValueError):
        small_scenario(ris_positions=((0.0, 0.0, 2.0),))
