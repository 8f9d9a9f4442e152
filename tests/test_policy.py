"""Tests for the policy networks and genome plumbing.

Layout sizes are checked against explicit hand-counted arithmetic; the
attention and conv stages against step-by-step reference computations; the
full forward pass against a manual composition of the verified stages.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evoris import policy as policy_module
from evoris.channel import ChannelSet, sample_channel_set, sample_episodes
from evoris.harness import load_config, trained_policy_configs
from evoris.multiris import agent_act
from evoris.numerics import make_rng
from evoris.policy import (ArchConfig, FFConfig, PolicyOutput, attention_branch,
                           cnn_forward, config_signature, ff_forward, ff_inputs,
                           ff_layout,
                           forward, forward_steps, genome_layout, load_genome,
                           merge_branches, phase_head, precoder_head, save_genome,
                           select_index)

TOY = ArchConfig(n_tx=2, n_ris=4, codebook_size=2)


def toy_channels(seed=0, n_tx=2, n_ris=4):
    rng = make_rng(seed)
    h = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    h1 = rng.standard_normal((n_tx, n_ris)) + 1j * rng.standard_normal((n_tx, n_ris))
    h2 = rng.standard_normal(n_ris) + 1j * rng.standard_normal(n_ris)
    return h, h1, h2


# -- genome_layout ------------------------------------------------------------

def test_layout_deterministic():
    a = genome_layout(TOY)
    b = genome_layout(ArchConfig(n_tx=2, n_ris=4, codebook_size=2))
    assert a.size == b.size
    assert list(a.segments) == list(b.segments)
    assert all(a.segments[k] == b.segments[k] for k in a.segments)


def test_layout_toy_hand_count():
    # hand count, segment by segment, for N_TX=2, N_RIS=4, |V|=2, defaults
    d1 = 2 * 2            # stacked re/im rows of the TX-RIS tokens
    dc = d1 + 2           # concat feature width
    attn = 3 * d1 * d1 + 3 * 2 * 2
    conv = (8 * 1 * 9 + 8) + (8 * 8 * 9 + 8) + (1 * 8 * 9 + 1)
    phase = (dc * 16 + 16) + (16 * 1 + 1)
    prec = (4 * dc * 64 + 64) + (64 * 2 + 2)
    assert genome_layout(TOY).size == attn + conv + phase + prec
    assert TOY.genome_size == 2656


def test_layout_full_scale_budget():
    arch = ArchConfig(n_tx=16, n_ris=400, codebook_size=16)
    d1, dc = 32, 34
    attn = 3 * d1 * d1 + 3 * 4
    conv = (8 * 9 + 8) + (8 * 8 * 9 + 8) + (8 * 9 + 1)
    phase = (dc * 16 + 16) + (16 + 1)
    prec = (400 * dc * 64 + 64) + (64 * 16 + 16)
    assert arch.genome_size == attn + conv + phase + prec == 875_902
    assert arch.genome_size < 920_000


def test_layout_views_tile_the_genome():
    layout = genome_layout(TOY)
    w = np.arange(layout.size, dtype=np.float64)
    seen = np.concatenate([layout.view(w, name).reshape(-1)
                           for name in layout.segments])
    assert np.array_equal(seen, w)


def test_ff_layout_full_scale():
    cfg = FFConfig(n_tx=16, n_ris=400, codebook_size=16)
    assert cfg.input_size == 2 * 16 + 2 * 16 * 400 + 2 * 400
    widths = (cfg.input_size, 800, 600, 600, 500, 200)
    total = sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(5))
    total += 200 * 400 + 400 + 200 * 16 + 16
    assert cfg.genome_size == total == 12_231_916


# -- attention_branch ---------------------------------------------------------

def test_attention_zero_weights():
    x = make_rng(0).standard_normal((3, 2))
    z = np.zeros((2, 2))
    out, scores = attention_branch(x, z, z, z, return_scores=True)
    assert np.allclose(scores, 1.0 / 9.0, atol=1e-15)
    assert np.array_equal(out, np.zeros((3, 2)))


def test_attention_uniform_scores_average_tokens():
    x = make_rng(1).standard_normal((3, 2))
    z = np.zeros((2, 2))
    out = attention_branch(x, z, z, np.eye(2))
    # uniform global softmax: every output row is (mean of token rows) / n
    expected = np.tile(x.mean(axis=0) / 3.0, (3, 1))
    assert np.allclose(out, expected, atol=1e-14)


def test_attention_matches_reference():
    rng = make_rng(2)
    x = rng.standard_normal((3, 2))
    wq, wk, wv = (rng.standard_normal((2, 2)) for _ in range(3))
    # step-by-step reference
    q = x @ wq
    k = x @ wk
    raw = q @ k.T / np.sqrt(2.0)
    e = np.exp(raw - raw.max())
    s = e / e.sum()
    ref = s @ (x @ wv)
    out, scores = attention_branch(x, wq, wk, wv, return_scores=True)
    assert np.max(np.abs(out - ref)) < 1e-10
    assert abs(scores.sum() - 1.0) < 1e-12


def test_attention_rejects_nonsquare_weights():
    with pytest.raises(ValueError):
        attention_branch(np.zeros((3, 2)), np.zeros((2, 3)), np.zeros((2, 2)),
                         np.zeros((2, 2)))


# -- merge_branches -----------------------------------------------------------

def test_merge_shape():
    out = merge_branches(np.zeros((4, 4)), np.zeros((4, 2)))
    assert out.shape == (4, 6)


def test_merge_constant_rows_vanish():
    a1 = np.full((4, 4), 2.0)
    a2 = np.full((4, 2), 2.0)
    a0 = np.full((4, 6), -3.0)
    assert np.array_equal(merge_branches(a1, a2, a0), np.zeros((4, 6)))


def test_merge_matches_reference():
    rng = make_rng(3)
    a1 = rng.standard_normal((4, 4))
    a2 = rng.standard_normal((4, 2))
    a0 = rng.standard_normal((4, 6))
    # independent row-normalization reference
    cat = np.hstack([a1, a2])

    def norm_rows(m):
        mu = m.mean(axis=1, keepdims=True)
        var = m.var(axis=1, keepdims=True)
        return (m - mu) / np.sqrt(var + 1e-5)

    ref = norm_rows(cat) + norm_rows(a0)
    assert np.max(np.abs(merge_branches(a1, a2, a0) - ref)) < 1e-12


def test_merge_rejects_mismatched_direct():
    with pytest.raises(ValueError):
        merge_branches(np.zeros((4, 4)), np.zeros((4, 2)), np.zeros((4, 5)))


# -- cnn_forward --------------------------------------------------------------

def test_cnn_identity_stack():
    # 1x1 unit kernels and zero biases: the three convs compose to tanh, tanh, linear
    arch = ArchConfig(n_tx=2, n_ris=4, codebook_size=2, conv_kernel=1,
                      conv_channels=(1, 1))
    layout = genome_layout(arch)
    w = np.zeros(layout.size)
    for name in ("conv0.w", "conv1.w", "conv2.w"):
        layout.view(w, name)[...] = 1.0
    x = make_rng(4).standard_normal((4, arch.d_cat))
    assert np.array_equal(cnn_forward(x, w, arch), np.tanh(np.tanh(x)))


def test_cnn_zero_kernels_bias_passthrough():
    w = np.zeros(TOY.genome_size)
    layout = genome_layout(TOY)
    layout.view(w, "conv2.b")[...] = 0.75
    x = make_rng(5).standard_normal((4, TOY.d_cat))
    # zero final kernel cuts all input dependence; only the last bias remains
    assert np.array_equal(cnn_forward(x, w, TOY), np.full((4, TOY.d_cat), 0.75))


def test_cnn_matches_loop_oracle():
    rng = make_rng(6)
    w = rng.standard_normal(TOY.genome_size) * 0.3
    layout = genome_layout(TOY)
    x = rng.standard_normal((4, TOY.d_cat))

    def conv_loops(inp, kern, bias):
        c_out, c_in, kk, _ = kern.shape
        _, hh, ww = inp.shape
        pad = (kk - 1) // 2
        padded = np.zeros((c_in, hh + 2 * pad, ww + 2 * pad))
        padded[:, pad:pad + hh, pad:pad + ww] = inp
        out = np.zeros((c_out, hh, ww))
        for o in range(c_out):
            for i in range(hh):
                for j in range(ww):
                    out[o, i, j] = bias[o] + np.sum(
                        padded[:, i:i + kk, j:j + kk] * kern[o])
        return out

    ref = x[None]
    ref = np.tanh(conv_loops(ref, layout.view(w, "conv0.w"), layout.view(w, "conv0.b")))
    ref = np.tanh(conv_loops(ref, layout.view(w, "conv1.w"), layout.view(w, "conv1.b")))
    ref = conv_loops(ref, layout.view(w, "conv2.w"), layout.view(w, "conv2.b"))[0]
    assert np.max(np.abs(cnn_forward(x, w, TOY) - ref)) < 1e-12


# -- phase_head ---------------------------------------------------------------

def test_phase_head_zero_weights_all_plus_one():
    w = np.zeros(TOY.genome_size)
    x = make_rng(7).standard_normal((4, TOY.d_cat))
    assert np.array_equal(phase_head(x, w, TOY), np.ones(4))


def test_phase_head_codomain():
    rng = make_rng(8)
    w = rng.standard_normal(TOY.genome_size)
    for _ in range(20):
        x = rng.standard_normal((4, TOY.d_cat))
        out = phase_head(x, w, TOY)
        assert out.shape == (4,)
        assert np.all(np.isin(out, (-1.0, 1.0)))


def test_phase_head_row_equivariance():
    rng = make_rng(9)
    w = rng.standard_normal(TOY.genome_size)
    x = rng.standard_normal((4, TOY.d_cat))
    swapped = x[[2, 1, 0, 3]]
    out = phase_head(x, w, TOY)
    assert np.array_equal(phase_head(swapped, w, TOY), out[[2, 1, 0, 3]])


def test_phase_head_multistate_levels():
    arch = ArchConfig(n_tx=2, n_ris=4, codebook_size=2, phase_states=4)
    rng = make_rng(10)
    w = rng.standard_normal(arch.genome_size)
    out = phase_head(rng.standard_normal((4, arch.d_cat)), w, arch)
    assert out.dtype.kind == "i"
    assert np.all((out >= 0) & (out < 4))


# -- precoder_head ------------------------------------------------------------

def crafted_probs_genome(arch, probs):
    """Weights making the head output exactly ``probs`` for any input."""
    layout = genome_layout(arch)
    w = np.zeros(layout.size)
    layout.view(w, "prec1.b")[...] = np.log(probs)
    return w


def test_precoder_head_zero_weights_uniform():
    w = np.zeros(TOY.genome_size)
    x = make_rng(11).standard_normal((4, TOY.d_cat))
    idx, probs = precoder_head(x, w, TOY, mode="argmax")
    assert np.allclose(probs, 0.5, atol=1e-15)
    assert idx == 0  # argmax tie-break: lowest index


def test_precoder_head_argmax():
    arch = ArchConfig(n_tx=4, n_ris=4, codebook_size=3)
    w = crafted_probs_genome(arch, np.array([0.1, 0.7, 0.2]))
    x = np.zeros((4, arch.d_cat))
    idx, probs = precoder_head(x, w, arch, mode="argmax")
    assert idx == 1
    assert np.allclose(probs, [0.1, 0.7, 0.2], atol=1e-12)


def test_precoder_head_sampling_frequencies():
    arch = ArchConfig(n_tx=4, n_ris=4, codebook_size=3)
    target = np.array([0.1, 0.7, 0.2])
    w = crafted_probs_genome(arch, target)
    x = np.zeros((4, arch.d_cat))
    rng = make_rng(12)
    counts = np.zeros(3)
    n = 100_000
    for _ in range(n):
        idx, _ = precoder_head(x, w, arch, rng=rng, mode="sample")
        counts[idx] += 1
    assert np.all(np.abs(counts / n - target) < 0.01)


def test_precoder_head_sample_needs_rng():
    w = np.zeros(TOY.genome_size)
    with pytest.raises(ValueError):
        precoder_head(np.zeros((4, TOY.d_cat)), w, TOY, mode="sample")


def test_select_index_stack_matches_scalar_picks():
    probs = make_rng(30).dirichlet(np.ones(4), size=50)
    rng, scalar = make_rng(31), make_rng(31)
    picks = select_index(probs, rng, "sample")
    assert picks.shape == (50,)
    assert [select_index(p, scalar, "sample") for p in probs] == picks.tolist()
    assert rng.bit_generator.state == scalar.bit_generator.state
    assert np.array_equal(select_index(probs, mode="argmax"), np.argmax(probs, axis=1))


class FixedUniform:
    """Stand-in stream whose scalar draw is a chosen uniform."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_select_index_inverts_the_cdf():
    probs = np.array([0.25, 0.0, 0.5, 0.25])
    picks = [select_index(probs, FixedUniform(u), "sample")
             for u in (0.0, 0.2499, 0.25, 0.7499, 0.75, 0.9999)]
    assert picks == [0, 0, 2, 2, 3, 3]
    with pytest.raises(ValueError):
        select_index(probs, mode="greedy")


# -- forward ------------------------------------------------------------------

def test_forward_zero_genome():
    h, h1, h2 = toy_channels(13)
    out = forward(np.zeros(TOY.genome_size), TOY, h, h1, h2, mode="argmax")
    assert np.array_equal(out.phases, np.ones(4))
    assert np.allclose(out.precoder_probs, 0.5, atol=1e-15)


def test_forward_shapes_and_determinism():
    rng = make_rng(14)
    w = rng.standard_normal(TOY.genome_size) * 0.2
    h, h1, h2 = toy_channels(15)
    a = forward(w, TOY, h, h1, h2, rng=make_rng(99), mode="sample")
    b = forward(w, TOY, h, h1, h2, rng=make_rng(99), mode="sample")
    assert isinstance(a, PolicyOutput)
    assert a.phases.shape == (4,)
    assert a.precoder_probs.shape == (2,)
    assert np.array_equal(a.phases, b.phases)
    assert a.precoder_index == b.precoder_index
    assert np.array_equal(a.precoder_probs, b.precoder_probs)


def test_forward_matches_manual_composition():
    rng = make_rng(16)
    w = rng.standard_normal(TOY.genome_size) * 0.3
    h, h1, h2 = toy_channels(17)
    layout = genome_layout(TOY)
    # compose the verified stages by hand
    tokens1 = np.concatenate([h1.real, h1.imag], axis=0).T
    tokens2 = np.column_stack([h2.real, h2.imag])
    a1 = attention_branch(tokens1, layout.view(w, "attn_tx_ris.wq"),
                          layout.view(w, "attn_tx_ris.wk"),
                          layout.view(w, "attn_tx_ris.wv"))
    a2 = attention_branch(tokens2, layout.view(w, "attn_ris_rx.wq"),
                          layout.view(w, "attn_ris_rx.wk"),
                          layout.view(w, "attn_ris_rx.wv"))
    feat = cnn_forward(merge_branches(a1, a2), w, TOY)
    ref_phases = phase_head(feat, w, TOY)
    ref_idx, ref_probs = precoder_head(feat, w, TOY, mode="argmax")
    out = forward(w, TOY, h, h1, h2, mode="argmax")
    assert np.array_equal(out.phases, ref_phases)
    assert out.precoder_index == ref_idx
    assert np.array_equal(out.precoder_probs, ref_probs)


@pytest.mark.parametrize("mode", ["sample", "argmax"])
def test_forward_steps_equal_per_step_forward(mode):
    arch = ArchConfig(n_tx=2, n_ris=4, codebook_size=2, direct_branch=True)
    w = make_rng(32).standard_normal(arch.genome_size) * 0.3
    steps = [toy_channels(40 + i) for i in range(5)]
    h, h1, h2 = (np.stack(c) for c in zip(*steps))
    rng, ref_rng = make_rng(33), make_rng(33)
    phases, idx, probs = forward_steps(w, arch, h, h1, h2, rng=rng, mode=mode)
    for i, (hi, h1i, h2i) in enumerate(steps):
        out = forward(w, arch, hi, h1i, h2i, rng=ref_rng, mode=mode)
        assert np.array_equal(phases[i], out.phases)
        assert idx[i] == out.precoder_index
        assert np.array_equal(probs[i], out.precoder_probs)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_forward_direct_branch_uses_direct_channel():
    arch = ArchConfig(n_tx=2, n_ris=4, codebook_size=2, direct_branch=True)
    rng = make_rng(18)
    w = rng.standard_normal(arch.genome_size) * 0.3
    h, h1, h2 = toy_channels(19)
    out0 = forward(w, arch, h, h1, h2, mode="argmax")
    out1 = forward(w, arch, h + (0.5 + 0.25j), h1, h2, mode="argmax")
    # the direct channel must reach the feature map when the branch is on
    assert (not np.array_equal(out0.precoder_probs, out1.precoder_probs)) or \
        (not np.array_equal(out0.phases, out1.phases))


def test_forward_no_direct_branch_ignores_h():
    rng = make_rng(20)
    w = rng.standard_normal(TOY.genome_size) * 0.3
    h, h1, h2 = toy_channels(21)
    out0 = forward(w, TOY, h, h1, h2, mode="argmax")
    out1 = forward(w, TOY, h * 0, h1, h2, mode="argmax")
    assert np.array_equal(out0.phases, out1.phases)
    assert out0.precoder_index == out1.precoder_index


def test_forward_rejects_wrong_genome_length():
    h, h1, h2 = toy_channels(22)
    with pytest.raises(ValueError):
        forward(np.zeros(TOY.genome_size - 1), TOY, h, h1, h2, mode="argmax")


# -- ff_inputs ----------------------------------------------------------------

def test_ff_inputs_scalar_cases():
    cs = ChannelSet(h=np.array([1 + 2j]), h1_list=[np.array([[1j]])],
                    h2_list=[np.array([0.5 - 0.5j])])
    assert np.array_equal(ff_inputs([cs]), [[1.0, 2.0, 0.0, 1.0, 0.5, -0.5]])


def test_ff_inputs_round_trip():
    # per step: h, then per surface H1 (real rows above imaginary rows) and h2
    rng = make_rng(15)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    steps = [ChannelSet(h=cn(2), h1_list=[cn(2, 3), cn(2, 3)], h2_list=[cn(3), cn(3)])
             for _ in range(2)]
    x = ff_inputs(steps)
    cfg = FFConfig(n_tx=2, n_ris=3, codebook_size=2, ris_count=2)
    assert x.shape == (2, cfg.input_size)
    for row, cs in zip(x, steps):
        assert np.array_equal(row[:2] + 1j * row[2:4], cs.h)
        for part, h1, h2 in zip(np.split(row[4:], 2), cs.h1_list, cs.h2_list):
            h1_t = part[:12].reshape(4, 3)
            assert np.array_equal(h1_t[:2] + 1j * h1_t[2:], h1)
            assert np.array_equal(part[12:15] + 1j * part[15:], h2)


# -- ff_forward ---------------------------------------------------------------

def test_ff_forward_shapes_single_ris():
    cfg = FFConfig(n_tx=2, n_ris=4, codebook_size=2, hidden=(8, 8))
    rng = make_rng(23)
    w = rng.standard_normal(cfg.genome_size) * 0.3
    h, h1, h2 = toy_channels(24)
    cs = ChannelSet(h=h, h1_list=[h1], h2_list=[h2])
    out = ff_forward(w, cfg, cs, mode="argmax")
    assert out.phases.shape == (4,)
    assert np.all(np.isin(out.phases, (-1.0, 1.0)))
    assert abs(out.precoder_probs.sum() - 1.0) < 1e-9


def test_ff_forward_multi_ris_phase_grid():
    cfg = FFConfig(n_tx=2, n_ris=3, codebook_size=2, ris_count=2, hidden=(8,))
    rng = make_rng(25)
    w = rng.standard_normal(cfg.genome_size) * 0.3
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cs = ChannelSet(h=cplx(2), h1_list=[cplx(2, 3), cplx(2, 3)],
                    h2_list=[cplx(3), cplx(3)])
    out = ff_forward(w, cfg, cs, mode="argmax")
    assert out.phases.shape == (2, 3)


def test_ff_forward_zero_genome():
    cfg = FFConfig(n_tx=2, n_ris=4, codebook_size=2, hidden=(8,))
    h, h1, h2 = toy_channels(26)
    cs = ChannelSet(h=h, h1_list=[h1], h2_list=[h2])
    out = ff_forward(np.zeros(cfg.genome_size), cfg, cs, mode="argmax")
    assert np.array_equal(out.phases, np.ones(4))
    assert np.allclose(out.precoder_probs, 0.5, atol=1e-15)


# -- genome files -------------------------------------------------------------

def test_genome_round_trip(tmp_path):
    w = make_rng(27).standard_normal(TOY.genome_size)
    path = tmp_path / "toy.genome"
    save_genome(path, w, TOY)
    assert np.array_equal(load_genome(path, TOY), w)


def test_genome_rejects_other_config(tmp_path):
    w = np.zeros(TOY.genome_size)
    path = tmp_path / "toy.genome"
    save_genome(path, w, TOY)
    other = ArchConfig(n_tx=2, n_ris=4, codebook_size=2, precoder_hidden=32)
    with pytest.raises(ValueError):
        load_genome(path, other)


def test_genome_rejects_truncation(tmp_path):
    w = np.zeros(TOY.genome_size)
    path = tmp_path / "toy.genome"
    save_genome(path, w, TOY)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        load_genome(path, TOY)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_genome_refuses_non_finite_and_writes_nothing(tmp_path, bad):
    w = np.zeros(TOY.genome_size)
    w[[3, 7]] = bad
    path = tmp_path / "toy.genome"
    with pytest.raises(ValueError, match="weight 3 ") as err:
        save_genome(path, w, TOY)
    assert str(path) in str(err.value)
    assert not path.exists()


def test_config_signature_orders_and_distinguishes():
    a = config_signature(TOY)
    b = config_signature(ArchConfig(n_tx=2, n_ris=4, codebook_size=2))
    c = config_signature(ArchConfig(n_tx=2, n_ris=4, codebook_size=2,
                                    phase_states=4))
    assert a == b
    assert a != c


# -- paper-shape golden values --------------------------------------------------
# ``forward`` at the shapes of configs/single_ris.yaml (n_tx=16, n_ris=400, 16
# beams) for make_rng(1).standard_normal(m) * 0.2 on the first
# ``sample_channel_set`` block of make_rng(22).  Recorded before the TX-RIS
# attention was computed once per rollout: probs as ``float.hex``, phases as the
# SHA-256 of their little-endian float64 bytes (all +1 but element 398; the raw
# paper-scale channels are small, so the global softmaxes are near uniform and
# every element sees almost the same features).  The probs were recorded again
# when ``conv2d_same`` moved to per-tap products, which changed their last bits
# and nothing else.  Exact equality pins the arithmetic, so another NumPy or
# BLAS build may need the values recorded again.
PAPER_PROBS = (
    "0x1.2d939a058d341p-6", "0x1.3c0014fe791eep-7", "0x1.c7636f137cb7ap-7",
    "0x1.58d0381a8fa7fp-7", "0x1.9d6031fec41c9p-4", "0x1.4607259135d79p-6",
    "0x1.a6ae9ce5caa43p-8", "0x1.db71028f87fe2p-3", "0x1.8e645b60772ffp-6",
    "0x1.d87213c529ca5p-3", "0x1.35f3ae2d4a9f5p-4", "0x1.6007f3f9cd9cep-5",
    "0x1.17d29049f5d43p-5", "0x1.11c87125a57fap-4", "0x1.24caa3478ca14p-4",
    "0x1.57e8e9137be20p-5")
PAPER_PHASES_SHA256 = "2ab8892011f00d2971d15dc374ee261cc615f045431c6aa0d08d29a4698b1cc9"


def test_paper_shape_forward_matches_recorded_values():
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" /
                      "single_ris.yaml")
    arch, _ = trained_policy_configs(cfg)
    assert (arch.n_tx, arch.n_ris, arch.codebook_size) == (16, 400, 16)
    w = make_rng(1).standard_normal(arch.genome_size) * 0.2
    cs = sample_channel_set(cfg.scenario, make_rng(22))
    out = forward(w, arch, cs.h, cs.h1_list[0], cs.h2_list[0], mode="argmax")
    assert out.precoder_index == 7
    assert tuple(float(p).hex() for p in out.precoder_probs) == PAPER_PROBS
    assert hashlib.sha256(out.phases.astype("<f8").tobytes()).hexdigest() == \
        PAPER_PHASES_SHA256
    sampled = forward(w, arch, cs.h, cs.h1_list[0], cs.h2_list[0], rng=make_rng(23))
    assert sampled.precoder_index == 10
    assert np.array_equal(sampled.phases, out.phases)


# -- the TX-RIS attention memo of ``forward`` -----------------------------------
# Every case compares ``forward`` (which consults the memo) bit for bit with
# ``forward_steps`` given a freshly computed attention, and the sampling
# streams they leave behind.

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_policy(name, kappa_h1_db=None):
    """A config's arch and scenario (its line-of-sight H1 replaced by a Ricean
    one for a finite ``kappa_h1_db``) with a seeded genome."""
    cfg = load_config(CONFIGS / f"{name}.yaml")
    assert cfg.scenario.kappa_h1_db is None
    w = make_rng(41).standard_normal(cfg.arch.genome_size) * 0.3
    return cfg.arch, replace(cfg.scenario, kappa_h1_db=kappa_h1_db), w


def reference_forward(w, arch, h, h1, h2, rng, mode):
    """``forward_steps`` on one step with a fresh TX-RIS attention, never the memo's."""
    h1 = np.array(h1)[None]
    phases, idx, probs = forward_steps(w, arch, np.asarray(h)[None], h1,
                                       np.asarray(h2)[None], rng, mode,
                                       a_tx_ris=policy_module.tx_ris_attention(w, arch, h1))
    return phases[0], int(idx[0]), probs[0]


def assert_same_output(out, ref):
    phases, idx, probs = ref
    assert out.phases.dtype == phases.dtype and np.array_equal(out.phases, phases)
    assert out.precoder_index == idx
    assert np.array_equal(out.precoder_probs, probs)


@pytest.fixture()
def empty_memo(monkeypatch):
    monkeypatch.setattr(policy_module, "_tx_ris_memo", [])


def counting_tx_ris_attention(monkeypatch):
    calls = []
    original = policy_module.tx_ris_attention

    def counting(w, arch, h1):
        calls.append(h1.shape[0])
        return original(w, arch, h1)

    monkeypatch.setattr(policy_module, "tx_ris_attention", counting)
    return calls


@pytest.mark.parametrize("mode", ["sample", "argmax"])
@pytest.mark.parametrize("name,kappa_h1_db", [("single_ris_desk", None),
                                              ("multi_ris_desk", None),
                                              ("single_ris_desk", 10.0)],
                         ids=["single_desk", "multi_desk", "single_desk_ricean"])
def test_forward_memo_matches_forward_steps(empty_memo, name, kappa_h1_db, mode):
    arch, scenario, w = config_policy(name, kappa_h1_db)
    blocks = [cs for episode in sample_episodes(scenario, 2, 4, make_rng(42))
              for cs in episode]
    rng, ref_rng = make_rng(43), make_rng(43)
    for cs in blocks:
        # the surfaces alternate, as the agents of a multi-surface block do
        for h1, h2 in zip(cs.h1_list, cs.h2_list):
            ref = reference_forward(w, arch, cs.h, h1, h2, ref_rng, mode)
            assert_same_output(forward(w, arch, cs.h, h1, h2, rng=rng, mode=mode), ref)
            if mode == "argmax":
                phases, vote = agent_act(w, arch, cs.h, h1, h2)
                assert np.array_equal(phases, ref[0]) and vote == ref[1]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    memo_size = len(policy_module._tx_ris_memo)
    assert memo_size == (scenario.ris_count if kappa_h1_db is None
                         else policy_module._TX_RIS_MEMO_ENTRIES)


def test_forward_memo_sees_tx_ris_weights_changed_in_place(empty_memo):
    w = make_rng(44).standard_normal(TOY.genome_size) * 0.3
    h, h1, h2 = toy_channels(45)
    before = forward(w, TOY, h, h1, h2, mode="argmax")
    genome_layout(TOY).view(w, "attn_tx_ris.wv")[:] *= -3.0
    ref = reference_forward(w, TOY, h, h1, h2, None, "argmax")
    assert not np.array_equal(ref[2], before.precoder_probs)  # a stale hit would show
    assert_same_output(forward(w, TOY, h, h1, h2, mode="argmax"), ref)
    assert len(policy_module._tx_ris_memo) == 2


def test_forward_memo_sees_h1_changed_in_place(empty_memo, monkeypatch):
    w = make_rng(46).standard_normal(TOY.genome_size) * 0.3
    h, h1, h2 = toy_channels(47)
    before = forward(w, TOY, h, h1, h2, mode="argmax")
    h1[:, 1] = 2.0 - 1.5j
    ref = reference_forward(w, TOY, h, h1, h2, None, "argmax")
    assert not np.array_equal(ref[2], before.precoder_probs)  # a stale hit would show
    assert_same_output(forward(w, TOY, h, h1, h2, mode="argmax"), ref)
    # a read-only copy with the same values hits the new entry
    calls = counting_tx_ris_attention(monkeypatch)
    frozen = h1.copy()
    frozen.flags.writeable = False
    assert_same_output(forward(w, TOY, h, frozen, h2, mode="argmax"), ref)
    assert calls == []
    assert len(policy_module._tx_ris_memo) == 2


@pytest.mark.parametrize("name", ["single_ris_desk", "multi_ris_desk"])
def test_forward_memo_computes_line_of_sight_attention_once_per_surface(
        empty_memo, monkeypatch, name):
    arch, scenario, w = config_policy(name)
    calls = counting_tx_ris_attention(monkeypatch)
    blocks = [cs for episode in sample_episodes(scenario, 2, 5, make_rng(48))
              for cs in episode]
    for cs in blocks:
        for h1, h2 in zip(cs.h1_list, cs.h2_list):
            agent_act(w, arch, cs.h, h1, h2)
    assert calls == [1] * scenario.ris_count


@pytest.mark.parametrize("fault,message", [
    ("short genome", "genome has"),
    ("H1 one element short", "channel shapes do not match"),
    ("NaN weight and short h", "channel shapes do not match"),
])
def test_forward_memo_leaves_malformed_inputs_to_forward_steps(empty_memo, fault, message):
    w = make_rng(60).standard_normal(TOY.genome_size) * 0.3
    h, h1, h2 = toy_channels(61)
    if fault == "short genome":
        w = w[:-1]
    elif fault == "H1 one element short":
        h1 = h1[:, :-1]
    else:
        genome_layout(TOY).view(w, "attn_tx_ris.wq")[0, 0] = np.nan
        h = h[:-1]
    with pytest.raises(ValueError, match=message):
        forward(w, TOY, h, h1, h2, mode="argmax")
    assert policy_module._tx_ris_memo == []


def test_forward_memo_keeps_its_bound_most_recent_first(empty_memo, monkeypatch):
    bound = policy_module._TX_RIS_MEMO_ENTRIES
    # every shipped config's surfaces fit
    assert all(load_config(path).scenario.ris_count <= bound
               for path in CONFIGS.glob("*.yaml"))
    w = make_rng(50).standard_normal(TOY.genome_size) * 0.3
    h, _, h2 = toy_channels(51)
    h1s = [toy_channels(52 + i)[1] for i in range(bound + 3)]
    calls = counting_tx_ris_attention(monkeypatch)
    for i, h1 in enumerate(h1s):
        forward(w, TOY, h, h1, h2, mode="argmax")
        assert len(policy_module._tx_ris_memo) == min(i + 1, bound)
    memo_h1 = [key[1] for key, _ in policy_module._tx_ris_memo]
    assert memo_h1 == [h1.tobytes() for h1 in reversed(h1s[-bound:])]
    # a hit moves its entry to the front; an evicted H1 is computed again
    forward(w, TOY, h, h1s[-bound], h2, mode="argmax")
    assert policy_module._tx_ris_memo[0][0][1] == h1s[-bound].tobytes()
    assert len(calls) == len(h1s)
    ref = reference_forward(w, TOY, h, h1s[0], h2, None, "argmax")
    assert_same_output(forward(w, TOY, h, h1s[0], h2, mode="argmax"), ref)
    assert len(calls) == len(h1s) + 2  # the reference computes its own
    assert len(policy_module._tx_ris_memo) == bound
    assert all(not out.flags.writeable for _, out in policy_module._tx_ris_memo)
