"""Tests for the shared numeric kernels.

Derived cases compare against independent straight-loop or closed-form
reference implementations written inline, never against the kernel itself.
"""

import numpy as np
import pytest

from evoris.numerics import (conv2d_same, derive_rng, derive_seed, layer_norm,
                             make_rng, relu, sign_pm1, softmax_global)


# -- rng plumbing -------------------------------------------------------------

def test_make_rng_reproducible():
    a = make_rng(1234).standard_normal(16)
    b = make_rng(1234).standard_normal(16)
    assert np.array_equal(a, b)


def test_derive_seed_deterministic_and_namespaced():
    assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)
    assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)
    assert derive_seed(7, "a") != derive_seed(8, "a")
    assert derive_seed(7, "init") != derive_seed(7, "evolve")


def test_derive_rng_matches_derive_seed():
    a = derive_rng(3, "x").standard_normal(4)
    b = make_rng(derive_seed(3, "x")).standard_normal(4)
    assert np.array_equal(a, b)


# -- softmax_global -----------------------------------------------------------

def test_softmax_global_all_zero_is_uniform():
    out = softmax_global(np.zeros((2, 2)))
    assert np.allclose(out, 0.25, atol=1e-15)
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_global_ln2_case():
    m = np.array([[np.log(2.0), 0.0], [0.0, 0.0]])
    out = softmax_global(m)
    assert np.allclose(out, [[0.4, 0.2], [0.2, 0.2]], atol=1e-12)


def test_softmax_global_matches_direct_formula():
    rng = make_rng(1)
    m = rng.standard_normal((5, 5)) * 3.0
    # direct exp/sum with max-subtraction stabilization
    e = np.exp(m - m.max())
    ref = e / e.sum()
    out = softmax_global(m)
    assert np.max(np.abs(out - ref)) < 1e-12 * np.max(ref)
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_global_rejects_nonfinite():
    with pytest.raises(ValueError):
        softmax_global(np.array([np.inf, 0.0]))


def test_softmax_global_steps_normalize_each_step_alone():
    m = make_rng(8).standard_normal((3, 5, 5)) * 3.0
    out = softmax_global(m, steps=True)
    for i in range(3):
        assert np.array_equal(out[i], softmax_global(m[i]))


# -- layer_norm ---------------------------------------------------------------

def test_layer_norm_unit_row():
    out = layer_norm(np.array([1.0, -1.0]))
    assert np.allclose(out, [1.0, -1.0], atol=1e-5)


def test_layer_norm_constant_row_is_zero():
    out = layer_norm(np.array([5.0, 5.0, 5.0]))
    assert np.array_equal(out, np.zeros(3))


def test_layer_norm_moments():
    rng = make_rng(2)
    # scale up so the epsilon term is negligible against the row variance
    row = rng.standard_normal(256) * 10.0
    out = layer_norm(row)
    assert abs(out.mean()) < 1e-9
    assert abs(out.var() - 1.0) < 1e-6


def test_layer_norm_per_row():
    rng = make_rng(3)
    m = rng.standard_normal((4, 32)) * 5.0
    out = layer_norm(m)
    rows = np.stack([layer_norm(m[i]) for i in range(4)])
    assert np.allclose(out, rows, atol=1e-14)


# -- conv2d_same --------------------------------------------------------------

def _conv2d_loops(inp, kernels, bias):
    """Quadruple-loop direct cross-correlation with zero padding (reference)."""
    c_out, c_in, k, _ = kernels.shape
    _, h, w = inp.shape
    pad = (k - 1) // 2
    padded = np.zeros((c_in, h + 2 * pad, w + 2 * pad))
    padded[:, pad:pad + h, pad:pad + w] = inp
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for c in range(c_in):
                    for a in range(k):
                        for b in range(k):
                            acc += padded[c, i + a, j + b] * kernels[o, c, a, b]
                out[o, i, j] = acc + bias[o]
    return out


def test_conv2d_same_identity_kernel():
    rng = make_rng(4)
    inp = rng.standard_normal((1, 5, 7))
    kernels = np.ones((1, 1, 1, 1))
    out = conv2d_same(inp, kernels, np.zeros(1))
    assert np.array_equal(out, inp)


def test_conv2d_same_zero_kernels_constant_bias():
    inp = make_rng(5).standard_normal((2, 4, 4))
    bias = np.array([1.5, -2.0])
    out = conv2d_same(inp, np.zeros((2, 2, 3, 3)), bias)
    assert np.array_equal(out[0], np.full((4, 4), 1.5))
    assert np.array_equal(out[1], np.full((4, 4), -2.0))


def test_conv2d_same_matches_loop_oracle():
    rng = make_rng(6)
    inp = rng.standard_normal((1, 6, 6))
    kernels = rng.standard_normal((2, 1, 3, 3))
    bias = rng.standard_normal(2)
    ref = _conv2d_loops(inp, kernels, bias)
    out = conv2d_same(inp, kernels, bias)
    assert np.max(np.abs(out - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_conv2d_same_stacked_steps_equal_single_calls():
    rng = make_rng(9)
    inp = rng.standard_normal((4, 3, 6, 5))
    kernels = rng.standard_normal((2, 3, 3, 3))
    bias = rng.standard_normal(2)
    out = conv2d_same(inp, kernels, bias)
    assert out.shape == (4, 2, 6, 5)
    for i in range(4):
        assert np.array_equal(out[i], conv2d_same(inp[i], kernels, bias))


def test_conv2d_same_rejects_even_kernel():
    with pytest.raises(ValueError):
        conv2d_same(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))


def test_conv2d_same_rejects_channel_mismatch():
    with pytest.raises(ValueError):
        conv2d_same(np.zeros((2, 4, 4)), np.zeros((1, 1, 3, 3)), np.zeros(1))


# -- pointwise helpers --------------------------------------------------------

def test_relu():
    out = relu(np.array([-2.0, 0.0, 3.0]))
    assert np.array_equal(out, [0.0, 0.0, 3.0])


def test_sign_pm1_tie_break():
    out = sign_pm1(np.array([-0.5, 0.0, 0.5]))
    assert np.array_equal(out, [-1.0, 1.0, 1.0])
    assert set(np.unique(sign_pm1(make_rng(7).standard_normal(100)))) <= {-1.0, 1.0}
