"""Work counts computed from shapes alone, never measured.

Flops count one multiply-add as two flops and one elementwise operation as
one; softmax costs five per entry (max, subtract, exp, sum, divide).  Bytes
count every float64 operand, weight and result of a layer once, so they are
the traffic of a forward that keeps nothing in cache.  Both repeat exactly
for a given architecture, which lets later changes cite them as counts.
"""

from __future__ import annotations

import pickle

F64 = 8


def _matmul(n: int, k: int, m: int) -> int:
    return 2 * n * k * m


def attention(n: int, d: int) -> tuple[int, int]:
    """(flops, bytes) of one global-softmax self-attention on (n, d) tokens."""
    flops = 3 * _matmul(n, d, d) + _matmul(n, d, n) + n * n \
        + 5 * n * n + _matmul(n, n, d)
    values = n * d + 3 * d * d + 3 * n * d + 2 * n * n + n * d
    return flops, F64 * values


def conv(c_in: int, c_out: int, k: int, h: int, w: int) -> tuple[int, int]:
    """(flops, bytes) of one same-padded convolution plus bias."""
    flops = 2 * c_out * c_in * k * k * h * w + c_out * h * w
    values = c_in * h * w + c_out * c_in * k * k + c_out + c_out * h * w
    return flops, F64 * values


def dense(n: int, k: int, m: int) -> tuple[int, int]:
    """(flops, bytes) of x (n, k) @ w (k, m) + b."""
    return _matmul(n, k, m) + n * m, F64 * (n * k + k * m + m + n * m)


def forward_counts(arch) -> dict[str, tuple[int, int]]:
    """Per-layer (flops, bytes) of one attention-policy forward pass."""
    n, d1, dc = arch.n_ris, 2 * arch.n_tx, arch.d_cat
    c1, c2 = arch.conv_channels
    k = arch.conv_kernel
    out = {
        "policy.attention_tx_ris": attention(n, d1),
        "policy.attention_ris_rx": attention(n, 2),
    }
    if arch.direct_branch:
        fa, ba = attention(arch.n_tx, 2)
        fd, bd = dense(1, 2 * arch.n_tx, dc * n)
        out["policy.attention_direct"] = (fa + fd, ba + bd)
    else:
        out["policy.attention_direct"] = (0, 0)
    out["policy.merge"] = (8 * n * dc + (2 * n * dc if arch.direct_branch else 0),
                           F64 * (2 + 2 * arch.direct_branch) * n * dc)
    convs = [conv(1, c1, k, n, dc), conv(c1, c2, k, n, dc), conv(c2, 1, k, n, dc)]
    out["numerics.conv2d_same"] = (sum(f for f, _ in convs), sum(b for _, b in convs))
    widths = (dc,) + tuple(arch.phase_hidden) + (1 if arch.phase_states == 2
                                                 else arch.phase_states,)
    layers = [dense(n, widths[i], widths[i + 1]) for i in range(len(widths) - 1)]
    out["policy.phase_head"] = (sum(f for f, _ in layers), sum(b for _, b in layers))
    h0 = dense(1, n * dc, arch.precoder_hidden)
    h1 = dense(1, arch.precoder_hidden, arch.codebook_size)
    out["policy.precoder_head"] = (h0[0] + h1[0] + 5 * arch.codebook_size,
                                   h0[1] + h1[1])
    out["policy.forward"] = (sum(f for f, _ in out.values()),
                             sum(b for _, b in out.values()))
    return out


def population_bytes(l_pop: int, genome_size: int) -> int:
    return l_pop * genome_size * F64


def pickled_bytes(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
