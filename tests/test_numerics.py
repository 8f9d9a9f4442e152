"""Tests for the shared numeric kernels.

Derived cases compare against independent straight-loop or closed-form
reference implementations written inline, never against the kernel itself.
"""

import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from evoris.numerics import (FieldError, check_fields, conv2d_same, derive_rng,
                             derive_seed, even_runs, layer_norm, make_rng, relu,
                             sign_pm1, softmax_global)


# -- check_fields: the one rule for config fields ------------------------------

@dataclass(frozen=True)
class Fields:
    count: int = 1
    rate: float = 0.5
    kappa: float | None = field(default=None, metadata={"neg_inf": True})
    flag: bool = False
    name: str = "x"
    pair: tuple[int, int] = (1, 2)
    points: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        check_fields(self)


def test_check_fields_stores_each_field_as_its_annotated_type():
    f = Fields(count=np.int64(3), rate=Fraction(1, 4), kappa=-math.inf,
               pair=[np.int32(4), 5], points=[[0, 1, np.float32(2.0)]])
    assert f == Fields(count=3, rate=0.25, kappa=-math.inf, pair=(4, 5),
                       points=((0.0, 1.0, 2.0),))
    assert [type(v) for v in (f.count, f.rate, *f.pair, *f.points[0])] == \
        [int, float, int, int, float, float, float]
    assert Fields(kappa=None).kappa is None and Fields(kappa=3).kappa == 3.0


@pytest.mark.parametrize("name,value,message", [
    ("count", 2.0, "expected an integer, got 2.0"),
    ("count", True, "expected an integer, got True"),
    pytest.param("rate", 10 ** 400, "expected a finite real number, got 1" + "0" * 400,
                 id="rate-int-past-float-range"),
    ("rate", -math.inf, "expected a finite real number, got -inf"),
    ("rate", "0.5", "expected a finite real number, got '0.5'"),
    ("kappa", math.inf, "expected a finite real number or -inf, got inf"),
    ("flag", 1, "expected true or false, got 1"),
    ("name", 5, "expected a string, got 5"),
    ("pair", (1, 2, 3), "expected a list of 2 values, got (1, 2, 3)"),
    ("pair", "12", "expected a list of 2 values, got '12'"),
    ("points", [[0, 1]], "expected a list of 3 values, got [0, 1]"),
    ("points", [[0, 1, math.nan]], "expected a finite real number, got nan"),
])
def test_check_fields_refuses_a_value_naming_the_field(name, value, message):
    with pytest.raises(FieldError) as err:
        Fields(**{name: value})
    assert str(err.value) == f"{name}: {message}"


# -- even_runs ----------------------------------------------------------------

def test_even_runs_are_the_fewest_near_equal_runs():
    assert even_runs(0, 5) == [] and even_runs(0, 0) == []
    # a cap below one still takes one item per run
    assert even_runs(3, 0) == even_runs(3, -4) == [(0, 1), (1, 2), (2, 3)]
    assert even_runs(4, 4) == [(0, 4)] and even_runs(4, 100) == [(0, 4)]
    assert even_runs(50, 31) == [(0, 25), (25, 50)]
    assert even_runs(50, 15) == [(0, 12), (12, 25), (25, 37), (37, 50)]
    for n in range(1, 40):
        for cap in range(1, 12):
            runs = even_runs(n, cap)
            sizes = [b - a for a, b in runs]
            # contiguous, covering, within the cap, the fewest, near-equal
            assert [a for a, _ in runs] == [0] + [b for _, b in runs[:-1]]
            assert sum(sizes) == n and all(1 <= size <= cap for size in sizes)
            assert len(runs) == -(-n // cap)
            assert max(sizes) - min(sizes) <= 1


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


# (B or None, C_in, C_out, k, H, W): several input channels, one output channel,
# k in {1, 3, 5}, non-square maps and stacked steps
ORACLE_CASES = [(None, 3, 2, 3, 5, 7), (None, 8, 1, 3, 9, 4), (2, 2, 3, 5, 6, 8),
                (3, 4, 1, 1, 4, 6), (2, 1, 3, 5, 7, 3), (None, 8, 8, 3, 16, 10)]


@pytest.mark.parametrize("b,c_in,c_out,k,h,w", ORACLE_CASES)
def test_conv2d_same_multi_channel_matches_loop_oracle(b, c_in, c_out, k, h, w):
    rng = make_rng(10)
    inp = rng.standard_normal((c_in, h, w) if b is None else (b, c_in, h, w))
    kernels = rng.standard_normal((c_out, c_in, k, k))
    bias = rng.standard_normal(c_out)
    out = conv2d_same(inp, kernels, bias)
    steps = [inp] if b is None else list(inp)
    ref = np.stack([_conv2d_loops(x, kernels, bias) for x in steps])
    assert out.shape == inp.shape[:-3] + (c_out, h, w)
    assert np.max(np.abs(out.reshape(ref.shape) - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


# The three layers of the paper-scale network (configs/single_ris.yaml: a
# 400 x 34 map, channels 1 -> 8 -> 8 -> 1, 3 x 3 kernels)
PAPER_CONVS = [(1, 8), (8, 8), (8, 1)]


@pytest.mark.parametrize("c_in,c_out", PAPER_CONVS)
def test_conv2d_same_stacked_steps_equal_single_calls_at_paper_shape(c_in, c_out):
    rng = make_rng(11)
    inp = rng.standard_normal((3, c_in, 400, 34))
    kernels = rng.standard_normal((c_out, c_in, 3, 3))
    bias = rng.standard_normal(c_out)
    out = conv2d_same(inp, kernels, bias)
    for i in range(3):
        assert np.array_equal(out[i], conv2d_same(inp[i], kernels, bias))


CONV_DIGEST_SCRIPT = """
import hashlib
from evoris.numerics import conv2d_same, make_rng
rng = make_rng(12)
for c_in, c_out in {convs!r}:
    out = conv2d_same(rng.standard_normal((c_in, 400, 34)),
                      rng.standard_normal((c_out, c_in, 3, 3)), rng.standard_normal(c_out))
    print(hashlib.sha256(out.astype("<f8").tobytes()).hexdigest())
"""


def test_conv2d_same_bits_do_not_depend_on_blas_threads():
    root = Path(__file__).resolve().parent.parent
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c",
                               CONV_DIGEST_SCRIPT.format(convs=PAPER_CONVS)],
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        digests[threads] = done.stdout.split()
    assert len(digests["1"]) == len(PAPER_CONVS)
    assert digests["1"] == digests["2"]


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
