"""Dense linear-algebra and neural-primitive kernels shared by all modules.

Everything here is a pure function of its inputs.  Complex and real
matrices are plain numpy arrays (complex128 / float64); randomness always
flows through an explicit ``numpy.random.Generator`` handle backed by the
PCG64 bit generator, never through module-level state.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Project-wide RNG: PCG64 streams are reproducible bit-for-bit across
# platforms for a given seed.
GENERATOR = "pcg64"

LAYER_NORM_EPS = 1e-5


def make_rng(seed: int) -> np.random.Generator:
    """Return the project's named generator seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(master: int, *path) -> int:
    """Derive a child seed from a master seed and a namespace path.

    Path elements may be ints or strings; the derivation hashes the
    canonical textual form, so equal paths give equal seeds on every
    platform and distinct paths collide only with sha256 probability.
    """
    text = repr(int(master)) + "/" + "/".join(str(p) for p in path)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(master: int, *path) -> np.random.Generator:
    """Generator seeded from ``derive_seed(master, *path)``."""
    return make_rng(derive_seed(master, *path))


def softmax_global(m: np.ndarray, steps: bool = False) -> np.ndarray:
    """Softmax normalized over *all* entries of the array.

    The output has the same shape as the input, every entry lies in
    (0, 1), and the total sum is 1.  Stabilized by subtracting the global
    maximum before exponentiation.  With ``steps`` the leading axis indexes
    independent steps and each step's entries are normalized on their own,
    bit for bit as if that step were passed alone.
    """
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("softmax_global requires finite input")
    flat = m.reshape(m.shape[:1] + (-1,) if steps else (-1,))
    e = np.exp(flat - flat.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)).reshape(m.shape)


def layer_norm(m: np.ndarray, eps: float = LAYER_NORM_EPS) -> np.ndarray:
    """Normalize each row to zero mean and (epsilon-stabilized) unit variance.

    No learnable affine parameters; downstream layers carry any needed
    scale or shift.  A 1-D input is treated as a single row.
    """
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("layer_norm requires finite input")
    mean = m.mean(axis=-1, keepdims=True)
    var = m.var(axis=-1, keepdims=True)
    return (m - mean) / np.sqrt(var + eps)


def conv2d_same(inp: np.ndarray, kernels: np.ndarray,
                bias: np.ndarray) -> np.ndarray:
    """2-D cross-correlation with zero padding preserving spatial dims.

    Args:
        inp: (C_in, H, W) input tensor, or (B, C_in, H, W) for B steps.
        kernels: (C_out, C_in, k, k) filter bank, k odd.
        bias: (C_out,) per-channel bias.

    Returns:
        (C_out, H, W) output, (B, C_out, H, W) for stacked input.  No kernel
        flip (deep-learning convention).  Each step is one (C_out, C_in k k)
        by (C_in k k, H W) product over its im2col matrix, so a stacked call
        gives every step the same bits as a call on that step alone.
    """
    inp = np.asarray(inp, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if inp.ndim not in (3, 4) or kernels.ndim != 4:
        raise ValueError("conv2d_same expects (C,H,W) or (B,C,H,W) input and "
                         "(O,C,k,k) kernels")
    c_out, c_in, k, k2 = kernels.shape
    if k != k2 or k % 2 == 0:
        raise ValueError(f"kernel must be square with odd size, got {k}x{k2}")
    if inp.shape[-3] != c_in:
        raise ValueError(f"input channels {inp.shape[-3]} != kernel channels {c_in}")
    if bias.shape != (c_out,):
        raise ValueError(f"bias must have shape ({c_out},)")
    lead, (h, w) = inp.shape[:-3], inp.shape[-2:]
    pad = (k - 1) // 2
    padded = np.zeros(inp.shape[:-2] + (h + 2 * pad, w + 2 * pad))
    padded[..., pad:pad + h, pad:pad + w] = inp
    # im2col: cols[..., c, i, j, y, x] = padded[..., c, y + i, x + j]
    cols = np.empty(inp.shape[:-2] + (k, k, h, w))
    for i in range(k):
        for j in range(k):
            cols[..., i, j, :, :] = padded[..., i:i + h, j:j + w]
    out = (kernels.reshape(c_out, -1) @ cols.reshape(lead + (c_in * k * k, h * w))
           ).reshape(lead + (c_out, h, w))
    out += bias[:, None, None]
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Sign with the tie sign(0) = +1, mapping into exactly {-1.0, +1.0}."""
    return np.where(np.asarray(x) >= 0.0, 1.0, -1.0)
