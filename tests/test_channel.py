"""Tests for geometry-driven channel sampling.

Derived cases use per-element phase loops and Monte Carlo moment estimates
as references; sampling determinism is checked at the seed level.
"""

import hashlib
import json
import math
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from evoris.channel import (ScenarioConfig, sample_channel_set, sample_episodes,
                            sample_ricean, steering_vector)
from evoris.harness import config_from_mapping, config_to_mapping, load_config
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


# -- scenario (de)serialization -----------------------------------------------

def test_scenario_round_trip():
    cfg = small_scenario(ris_count=2,
                         ris_positions=((3.0, 3.0, 2.0), (6.0, 6.0, -2.0)),
                         direct_blocked=False, direct_attenuation_db=10.0)
    mapping = config_to_mapping(config_from_mapping({"scenario": asdict(cfg)}))
    assert mapping["scenario"]["ris_positions"] == [[3.0, 3.0, 2.0], [6.0, 6.0, -2.0]]
    assert config_from_mapping(mapping).scenario == cfg


def test_scenario_mapping_rejects_unknown_field():
    d = asdict(small_scenario())
    d["bandwidth"] = 20.0
    with pytest.raises(ValueError, match=re.escape("scenario: unknown fields: ['bandwidth']")):
        config_from_mapping({"scenario": d})


def test_scenario_rejects_duplicate_positions():
    with pytest.raises(ValueError):
        small_scenario(ris_positions=((0.0, 0.0, 2.0),))


def test_list_positions_equal_tuple_positions():
    # positions given as lists become float tuples, so the config hashes
    # as the key of the geometry cache
    as_lists = ScenarioConfig(n_tx=4, n_ris=16, ris_count=2, direct_blocked=False,
                              tx_position=[0, 0, 2], rx_position=[8.0, 10, 1.5],
                              ris_positions=[[0.0, 3.0, 2.0], [6, 6, -2]])
    as_tuples = ScenarioConfig(n_tx=4, n_ris=16, ris_count=2, direct_blocked=False,
                               ris_positions=((0.0, 3.0, 2.0), (6.0, 6.0, -2.0)))
    a = sample_episodes(as_lists, 2, 3, make_rng(12))
    b = sample_episodes(as_tuples, 2, 3, make_rng(12))
    for cs_a, cs_b in zip(sum(a, []), sum(b, [])):
        assert np.array_equal(cs_a.h, cs_b.h)
        for x, y in zip(cs_a.h1_list + cs_a.h2_list, cs_b.h1_list + cs_b.h2_list):
            assert np.array_equal(x, y)
    assert as_lists == as_tuples and hash(as_lists) == hash(as_tuples)
    positions = [as_lists.tx_position, as_lists.rx_position, *as_lists.ris_positions]
    assert all(type(p) is tuple and all(type(x) is float for x in p) for p in positions)



@pytest.mark.parametrize("field,bad", [
    ("tx_position", (0.0, 0.0)),
    ("rx_position", (8.0, 10.0, 1.5, 0.0)),
    ("ris_positions", ((0.0, 3.0),)),
    ("tx_position", (0.0, float("nan"), 2.0)),
    ("ris_positions", ((0.0, 3.0, float("inf")),)),
    ("rx_position", 8.0),
])
def test_scenario_rejects_malformed_positions(field, bad):
    with pytest.raises(ValueError, match=re.escape(field)):
        ScenarioConfig(n_tx=4, n_ris=16, **{field: bad})

# -- pinned draws and the shared line-of-sight H1 ------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_NAMES = ("single_ris", "single_ris_desk", "multi_ris_k2", "multi_ris_k4",
                "multi_ris_desk")


def config_scenario(name):
    return load_config(CONFIGS / f"{name}.yaml").scenario


def ricean_h1(scenario):
    return replace(scenario, kappa_h1_db=10.0)


# First three sample_channel_set draws from make_rng(31) per scenario: the
# SHA-256 (first 16 hex digits) of h, every H1 and every h2 of each draw as
# little-endian complex128, then of the generator state afterwards.  Recorded
# while H1 and the steering vectors were still rebuilt on every draw, so they
# pin that caching the geometry changes no bit and no draw.
PINNED_DRAWS = {
    "single_ris": (("3fe0545111d53839", "f9f1f198df65aad9", "67127e94731fd162"),
                   "4456f69bd7ac710d"),
    "single_ris_desk": (("866244c327cf40e8", "83f1ddcdbea24bd6", "41af3c2a12ac088d"),
                        "7a14397762864c0f"),
    "single_ris_desk+ricean_h1": (
        ("260f781f022223ec", "7f88fb0c14de0eb7", "7911d40eb6138369"), "695efd64fb648942"),
    "multi_ris_k2": (("45ab427bbf392c70", "7a189b3ee1a1eb14", "4947941e3a1c72f5"),
                     "1b45643a18c05f46"),
    "multi_ris_k4": (("e6698f6dbe5cfe1b", "73f056413146c1ac", "d1b98066d7a58f39"),
                     "390d36a4f51eb0ab"),
    "multi_ris_desk": (("e0bed3dc6e280e54", "8c3186602fadcc3d", "b0231c242b7786fc"),
                       "59368993e3dd1b3a"),
}


def draw_digest(cs):
    digest = hashlib.sha256()
    for a in [cs.h, *cs.h1_list, *cs.h2_list]:
        digest.update(np.ascontiguousarray(a, dtype="<c16").tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("case", list(PINNED_DRAWS))
def test_draws_and_stream_match_recorded_bytes(case):
    name, _, variant = case.partition("+")
    scenario = config_scenario(name)
    if variant:
        scenario = ricean_h1(scenario)
    want_draws, want_state = PINNED_DRAWS[case]
    rng = make_rng(31)
    assert tuple(draw_digest(sample_channel_set(scenario, rng)) for _ in range(3)) == \
        want_draws
    state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    assert hashlib.sha256(state).hexdigest()[:16] == want_state


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_line_of_sight_h1_is_one_shared_read_only_array(name):
    scenario = config_scenario(name)
    assert scenario.kappa_h1_db is None
    steps = [cs for episode in sample_episodes(scenario, 2, 3, make_rng(32))
             for cs in episode]
    again = sample_channel_set(scenario, make_rng(33))
    firsts = steps[0].h1_list
    assert len({id(h1) for h1 in firsts}) == scenario.ris_count
    for cs in steps[1:] + [again]:
        assert all(h1 is first for h1, first in zip(cs.h1_list, firsts))
    for h1 in firsts:
        assert not h1.flags.writeable
        with pytest.raises(ValueError):
            h1[0, 0] = 0.0
    # the random parts stay fresh, writable arrays
    assert steps[0].h2_list[0] is not steps[1].h2_list[0]
    assert steps[0].h2_list[0].flags.writeable


def test_ricean_h1_is_a_fresh_array_per_step():
    scenario = ricean_h1(config_scenario("single_ris_desk"))
    steps = [cs for episode in sample_episodes(scenario, 2, 3, make_rng(34))
             for cs in episode]
    h1s = [cs.h1_list[0] for cs in steps]
    assert len({id(h1) for h1 in h1s}) == len(h1s)
    assert all(h1.flags.writeable for h1 in h1s)
    assert not any(np.array_equal(h1s[0], h1) for h1 in h1s[1:])


# -- one vectorized draw per episode --------------------------------------------

# Variants of each shipped scenario: a Ricean H1, Rayleigh fading on every
# link, and the direct link opened where the config blocks it.
VARIANTS = {
    "ricean_h1": dict(kappa_h1_db=10.0),
    "rayleigh": dict(kappa_h1_db=-math.inf, kappa_h2_db=-math.inf, kappa_h_db=-math.inf),
    "open_direct": dict(direct_blocked=False),
}

# sample_episodes(scenario, 2, 3, make_rng(35)) per scenario: the SHA-256
# (first 16 hex digits) of h, every H1 and every h2 of every block in order,
# as little-endian complex128, then of the generator state afterwards.
# Recorded while each block still drew its links one law at a time, so they
# pin that one draw per episode changes no bit and no draw.  An open direct
# link that a config already opens is no variant.
PINNED_BLOCKS = {
    "single_ris": ("0734240e70f813a4", "ceffaad33bfd442e"),
    "single_ris+ricean_h1": ("8f22f0b036e349a5", "2ede960da245cf41"),
    "single_ris+rayleigh": ("5352453e58793640", "2ede960da245cf41"),
    "single_ris+open_direct": ("777b5347f823c313", "ce793cac48ea9179"),
    "single_ris_desk": ("1801bba5c64cab03", "34f28e4c631908fe"),
    "single_ris_desk+ricean_h1": ("9cb1ac6949ae5971", "81b9a3d143bba92a"),
    "single_ris_desk+rayleigh": ("a1647b11cda4537c", "81b9a3d143bba92a"),
    "single_ris_desk+open_direct": ("b6fff9b6db74e793", "17df4a74d472634a"),
    "multi_ris_k2": ("f3a95e58e6a777df", "77cdcf0007d34ae1"),
    "multi_ris_k2+ricean_h1": ("5dd5ab0e33327f0a", "7be049a5008d6e1b"),
    "multi_ris_k2+rayleigh": ("5c4a7b12873ce6db", "7be049a5008d6e1b"),
    "multi_ris_k4": ("339f9c6e8c3aaf16", "cb190bebecb0b91b"),
    "multi_ris_k4+ricean_h1": ("f81ad6e34cfc52d6", "bdc66e7e932b1153"),
    "multi_ris_k4+rayleigh": ("19cacced20855824", "bdc66e7e932b1153"),
    "multi_ris_desk": ("5ae5b361d632b4dc", "a08bf276872a896a"),
    "multi_ris_desk+ricean_h1": ("8b041f835e112777", "f77f5027b45269ce"),
    "multi_ris_desk+rayleigh": ("3116bf98500c9d67", "f77f5027b45269ce"),
}


def case_scenario(case):
    name, _, variant = case.partition("+")
    scenario = config_scenario(name)
    return replace(scenario, **VARIANTS[variant]) if variant else scenario


def block_arrays(block):
    return [a for episode in block for cs in episode
            for a in [cs.h, *cs.h1_list, *cs.h2_list]]


@pytest.mark.parametrize("case", list(PINNED_BLOCKS))
def test_episode_blocks_match_recorded_bytes(case):
    rng = make_rng(35)
    block = sample_episodes(case_scenario(case), 2, 3, rng)
    digest = hashlib.sha256()
    for a in block_arrays(block):
        digest.update(np.ascontiguousarray(a, dtype="<c16").tobytes())
    state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    assert (digest.hexdigest()[:16], hashlib.sha256(state).hexdigest()[:16]) == \
        PINNED_BLOCKS[case]


@pytest.mark.parametrize("case", ["multi_ris_desk+ricean_h1", "single_ris_desk+open_direct",
                                  "single_ris_desk"])
def test_writing_one_block_leaves_every_other_block_unchanged(case):
    scenario = case_scenario(case)
    block = sample_episodes(scenario, 2, 3, make_rng(36))
    steps = [cs for episode in block for cs in episode]
    for i, cs in enumerate(steps):
        writable = [cs.h, *cs.h2_list, *(cs.h1_list if scenario.kappa_h1_db is not None
                                         else [])]
        assert all(a.flags.writeable for a in writable)
        before = [a.copy() for a in block_arrays(block)]
        for a in writable:
            a[...] = 7.0 + 7.0j
        after = block_arrays(block)
        others = [k for k, a in enumerate(after) if not any(a is w for w in writable)]
        assert all(np.array_equal(after[k], before[k]) for k in others), i
        assert all(np.all(a == 7.0 + 7.0j) for a in writable)


@pytest.mark.parametrize("case", ["single_ris_desk", "multi_ris_desk+ricean_h1",
                                  "single_ris_desk+open_direct"])
def test_sample_channel_set_is_the_one_block_episode(case):
    scenario = case_scenario(case)
    rng_a, rng_b = make_rng(37), make_rng(37)
    for _ in range(3):
        a = sample_channel_set(scenario, rng_a)
        b = sample_episodes(scenario, 1, 1, rng_b)[0][0]
        for x, y in zip([a.h, *a.h1_list, *a.h2_list], [b.h, *b.h1_list, *b.h2_list]):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
