"""Dense linear-algebra and neural-primitive kernels shared by all modules.

Everything here is a pure function of its inputs.  Complex and real
matrices are plain numpy arrays (complex128 / float64); randomness always
flows through an explicit ``numpy.random.Generator`` handle backed by the
PCG64 bit generator, never through module-level state.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import math
import numbers
import typing

import numpy as np

LAYER_NORM_EPS = 1e-5


class FieldError(ValueError):
    """A settings field holds a value of the wrong kind; the message opens
    with the field's name, so a config section can prefix its own."""


# a scalar annotation: the instances it takes, and what they are
_SCALARS = {int: (numbers.Integral, "an integer"),
            float: (numbers.Real, "a finite real number"),
            bool: (bool, "true or false"), str: (str, "a string")}


def _convert(tp, v, neg_inf: bool = False):
    """``v`` stored as annotation ``tp``; else FieldError, not yet naming the field."""
    args = typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return v
    if type(None) in args:
        inner, = set(args) - {type(None)}
        return v if v is None else _convert(inner, v, neg_inf)
    if typing.get_origin(tp) is tuple:
        count = "" if args[-1] is Ellipsis else f"{len(args)} "
        if not isinstance(v, (list, tuple)) or count and len(v) != len(args):
            raise FieldError(f"expected a list of {count}values, got {v!r}")
        return tuple(_convert(args[0], x) for x in v)
    kind, expected = _SCALARS[tp]
    # a bool is no number, and only a bool is a flag
    if isinstance(v, kind) and (tp is bool or not isinstance(v, bool)):
        with contextlib.suppress(OverflowError):   # an int past float's range
            if tp is not float or math.isfinite(v) or neg_inf and v == -math.inf:
                return tp(v)
    raise FieldError(f"expected {expected}{' or -inf' if neg_inf else ''}, got {v!r}")


@functools.cache
def _field_rules(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata.get("neg_inf", False))
                 for f in dataclasses.fields(cls))


def check_fields(obj) -> None:
    """Store each field of the dataclass ``obj`` as its annotated type.

    ``int`` takes any ``numbers.Integral``, ``float`` a finite ``numbers.Real``
    (also ``-inf`` where the field's metadata holds ``neg_inf: True``), neither
    a bool; ``bool`` only True or False; ``str`` a string; ``X | None`` also
    None; ``tuple[T, ...]`` and ``tuple[T, T]`` a list or tuple of T values of
    that length, stored as a tuple.  A field annotated with another dataclass
    is left to that class.  Anything else raises FieldError("<field>: expected
    <what>, got <value>"), which names the field for a tuple element too.
    """
    for name, tp, neg_inf in _field_rules(type(obj)):
        try:
            object.__setattr__(obj, name, _convert(tp, getattr(obj, name), neg_inf))
        except FieldError as exc:
            raise FieldError(f"{name}: {exc}") from None


def even_runs(n: int, cap: int) -> list[tuple[int, int]]:
    """(start, stop) of the fewest near-equal runs of ``n`` items holding at
    most ``cap`` items each (one at least); none when ``n`` is 0."""
    count = -(-n // max(1, cap))
    bounds = [0] + [n * i // count for i in range(1, count + 1)]
    return list(zip(bounds, bounds[1:]))


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
    if not np.isfinite(m).all():
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
    if not np.isfinite(m).all():
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
        flip (deep-learning convention).  The input is zero-padded once.
        With one input channel, one (C_out, k k) by (k k, H W) product over
        the im2col matrix gives the output.  With more, the padded rows have
        width Wp = W + k - 1 and a spare row below, so tap (i, j) of every
        output position is the contiguous run of H Wp values that starts at
        i Wp + j in each channel.  Each tap is a (C_out, C_in) product on
        its runs, the products are summed in tap order, row-major over
        (i, j), and the k - 1 extra output columns per row are dropped (the
        result is a view).  A stacked call does the same products per step,
        so every step has the bits of a call on that step alone; a stack of
        several steps adds each tap's product to a running sum as it goes,
        which holds two tap products live instead of k k.
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
    wp = w + 2 * pad
    padded = np.zeros(inp.shape[:-2] + (h + 2 * pad + 1, wp))
    padded[..., pad:pad + h, pad:pad + w] = inp
    # Views on the buffer, not numpy's as_strided, which after some 10^4
    # calls keeps a ~1 MB block for the life of the process.
    *s_lead, s_chan, s_row, s_col = padded.strides
    if c_in == 1:
        # im2col, cols[..., i, j, y, x] = padded[..., 0, y + i, x + j], at
        # exact width: a width-padded operand (9 x 14,400 at paper scale)
        # crosses ~1 MB, where OpenBLAS 0.3.31 measured ~70% slower per column
        cols = np.ndarray(lead + (k, k, h, w), buffer=padded,
                          strides=tuple(s_lead) + (s_row, s_col, s_row, s_col))
        out = kernels.reshape(c_out, k * k) @ cols.reshape(lead + (k * k, h * w))
        out += bias[:, None]
        return out.reshape(lead + (c_out, h, w))
    # taps[..., i, j, c, x] = padded[..., c, :, :].ravel()[i * wp + j + x]
    taps = np.ndarray(lead + (k, k, c_in, h * wp), buffer=padded,
                      strides=tuple(s_lead) + (s_row, s_col, s_chan, s_col))
    w_taps = kernels.transpose(2, 3, 0, 1)
    # A stack sums tap by tap, holding two tap products instead of k k: on 25
    # desk steps (2.7 MB of products) that ran at 0.70 of one stacked matmul.
    # A lone step keeps the stacked matmul: per-tap, its 2 k k - 1 NumPy
    # calls made desk decisions 1.18-1.24x slower (tools/ab.py, 30 rounds).
    if lead and lead[0] > 1:
        out = w_taps[0, 0] @ taps[:, 0, 0]
        for i, j in list(np.ndindex(k, k))[1:]:
            out += w_taps[i, j] @ taps[:, i, j]
    else:
        out = (w_taps @ taps).sum(axis=(-4, -3))
    out += bias[:, None]
    return out.reshape(lead + (c_out, h, wp))[..., :w]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Sign with the tie sign(0) = +1, mapping into exactly {-1.0, +1.0}."""
    return np.where(np.asarray(x) >= 0.0, 1.0, -1.0)
