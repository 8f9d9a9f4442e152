"""Policy networks mapping channel state to RIS phases and a precoder pick.

Two families live here: an attention-convolutional policy that works on the
channel matrices directly, and a plain fully-connected benchmark that takes
every channel flattened into one vector.  Both are evaluated straight from a
flat float64 parameter vector; fixed slices of that vector are reshaped into
per-layer weights on every call, so population-based trainers can treat the
whole network as a single real genome.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from .channel import ChannelSet
from .numerics import check_fields, conv2d_same, layer_norm, relu, sign_pm1, softmax_global


@dataclass(frozen=True)
class ArchConfig:
    """Shape parameters of the attention-convolutional policy."""

    n_tx: int
    n_ris: int
    codebook_size: int
    conv_kernel: int = 3
    conv_channels: tuple[int, int] = (8, 8)
    phase_hidden: tuple[int, ...] = (16,)
    precoder_hidden: int = 64
    direct_branch: bool = False
    phase_states: int = 2

    def __post_init__(self):
        check_fields(self)
        if min(self.n_tx, self.n_ris, self.codebook_size) < 1:
            raise ValueError("n_tx, n_ris and codebook_size must be >= 1")
        if self.conv_kernel < 1 or self.conv_kernel % 2 == 0:
            raise ValueError("conv_kernel must be odd and positive")
        if min(self.conv_channels) < 1:
            raise ValueError("conv_channels must hold two positive channel counts")
        if not self.phase_hidden or min(self.phase_hidden) < 1:
            raise ValueError("phase_hidden must hold positive layer widths")
        if self.precoder_hidden < 1:
            raise ValueError("precoder_hidden must be >= 1")
        if self.phase_states < 2:
            raise ValueError("phase_states must be >= 2")

    @property
    def d_cat(self) -> int:
        """Feature width after column-concatenating the two RIS-sized branches."""
        return 2 * self.n_tx + 2

    @property
    def genome_size(self) -> int:
        return genome_layout(self).size


@dataclass(frozen=True)
class FFConfig:
    """Shape parameters of the flat fully-connected benchmark policy."""

    n_tx: int
    n_ris: int
    codebook_size: int
    ris_count: int = 1
    hidden: tuple[int, ...] = (800, 600, 600, 500, 200)

    def __post_init__(self):
        check_fields(self)
        if min(self.n_tx, self.n_ris, self.codebook_size, self.ris_count) < 1:
            raise ValueError("all size fields must be >= 1")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError("hidden must hold positive layer widths")

    @property
    def input_size(self) -> int:
        per_ris = 2 * self.n_tx * self.n_ris + 2 * self.n_ris
        return 2 * self.n_tx + self.ris_count * per_ris

    @property
    def genome_size(self) -> int:
        return ff_layout(self).size


class GenomeLayout:
    """Mapping from named parameter tensors to slices of one flat vector."""

    def __init__(self, shapes):
        self.segments: dict[str, tuple[int, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in shapes:
            shape = tuple(int(s) for s in shape)
            self.segments[name] = (offset, shape)
            offset += math.prod(shape)
        self.size = offset

    def view(self, w: np.ndarray, name: str) -> np.ndarray:
        offset, shape = self.segments[name]
        return w[offset:offset + math.prod(shape)].reshape(shape)


def _phase_out_width(arch: ArchConfig) -> int:
    return 1 if arch.phase_states == 2 else arch.phase_states


@lru_cache(maxsize=None)
def genome_layout(arch: ArchConfig) -> GenomeLayout:
    """Canonical slice layout of the attention-convolutional genome."""
    d1 = 2 * arch.n_tx
    dc = arch.d_cat
    c1, c2 = arch.conv_channels
    k = arch.conv_kernel
    shapes = []
    shapes += [(f"attn_tx_ris.{n}", (d1, d1)) for n in ("wq", "wk", "wv")]
    shapes += [(f"attn_ris_rx.{n}", (2, 2)) for n in ("wq", "wk", "wv")]
    if arch.direct_branch:
        shapes += [(f"attn_direct.{n}", (2, 2)) for n in ("wq", "wk", "wv")]
        shapes += [("direct.w", (d1, dc * arch.n_ris)), ("direct.b", (dc * arch.n_ris,))]
    shapes += [("conv0.w", (c1, 1, k, k)), ("conv0.b", (c1,)),
               ("conv1.w", (c2, c1, k, k)), ("conv1.b", (c2,)),
               ("conv2.w", (1, c2, k, k)), ("conv2.b", (1,))]
    widths = (dc,) + arch.phase_hidden + (_phase_out_width(arch),)
    for i in range(len(widths) - 1):
        shapes += [(f"phase{i}.w", (widths[i], widths[i + 1])),
                   (f"phase{i}.b", (widths[i + 1],))]
    shapes += [("prec0.w", (arch.n_ris * dc, arch.precoder_hidden)),
               ("prec0.b", (arch.precoder_hidden,)),
               ("prec1.w", (arch.precoder_hidden, arch.codebook_size)),
               ("prec1.b", (arch.codebook_size,))]
    return GenomeLayout(shapes)


@lru_cache(maxsize=None)
def ff_layout(cfg: FFConfig) -> GenomeLayout:
    """Canonical slice layout of the fully-connected benchmark genome."""
    widths = (cfg.input_size,) + cfg.hidden
    shapes = []
    for i in range(len(widths) - 1):
        shapes += [(f"fc{i}.w", (widths[i], widths[i + 1])),
                   (f"fc{i}.b", (widths[i + 1],))]
    last = widths[-1]
    n_phase = cfg.ris_count * cfg.n_ris
    shapes += [("phase.w", (last, n_phase)), ("phase.b", (n_phase,)),
               ("prec.w", (last, cfg.codebook_size)), ("prec.b", (cfg.codebook_size,))]
    return GenomeLayout(shapes)


@dataclass
class PolicyOutput:
    """Discrete actions of one forward pass plus the precoder distribution."""

    phases: np.ndarray
    precoder_index: int
    precoder_probs: np.ndarray


def attention_steps(tokens: np.ndarray, wq: np.ndarray, wk: np.ndarray,
                    wv: np.ndarray, return_scores: bool = False):
    """Global-softmax self-attention over a stack of token sets (B, n, d).

    Each step is computed with the same matrix products as a single token
    set, so every step's output equals ``attention_branch`` on it bit for bit.
    """
    x = np.asarray(tokens, dtype=np.float64)
    d = x.shape[-1]
    for w in (wq, wk, wv):
        if w.shape != (d, d):
            raise ValueError(f"attention weights must be ({d}, {d})")
    q = x @ wq
    k = x @ wk
    scores = softmax_global(q @ np.swapaxes(k, -1, -2) / np.sqrt(d), steps=True)
    out = scores @ (x @ wv)
    if return_scores:
        return out, scores
    return out


def attention_branch(tokens: np.ndarray, wq: np.ndarray, wk: np.ndarray,
                     wv: np.ndarray, return_scores: bool = False):
    """Self-attention with the softmax normalized over the whole score matrix.

    Scores are (X Wq)(X Wk)^T / sqrt(d) passed through a softmax across all
    n^2 entries (not per row), then applied to the value projection X Wv.
    """
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("tokens must be 2-D (n_tokens, d)")
    if return_scores:
        out, scores = attention_steps(x[None], wq, wk, wv, return_scores=True)
        return out[0], scores[0]
    return attention_steps(x[None], wq, wk, wv)[0]


def direct_features(a_direct: np.ndarray, w: np.ndarray, arch: ArchConfig) -> np.ndarray:
    """Dense map of the flattened direct-branch attention output (n_tx, 2)
    onto the (n_ris, d_cat) feature grid; a leading step axis is kept."""
    layout = genome_layout(arch)
    lead = a_direct.shape[:-2]
    flat = a_direct.reshape(lead + (1, -1))
    out = flat @ layout.view(w, "direct.w") + layout.view(w, "direct.b")
    return out.reshape(lead + (arch.n_ris, arch.d_cat))


def merge_branches(a_tx_ris: np.ndarray, a_ris_rx: np.ndarray,
                   a_direct: np.ndarray | None = None) -> np.ndarray:
    """Combine branch outputs into the (n_ris, d_cat) feature map.

    The two RIS-sized outputs are column-concatenated and row-normalized;
    when present, the row-normalized direct-branch map is added on top.
    Inputs may carry a leading step axis.
    """
    if a_tx_ris.shape[:-1] != a_ris_rx.shape[:-1]:
        raise ValueError("branch outputs must agree on the token count")
    a_c = np.concatenate([a_tx_ris, a_ris_rx], axis=-1)
    merged = layer_norm(a_c)
    if a_direct is not None:
        if a_direct.shape != a_c.shape:
            raise ValueError("direct-branch features must match the merged shape")
        merged = merged + layer_norm(a_direct)
    return merged


def cnn_forward(features: np.ndarray, w: np.ndarray, arch: ArchConfig) -> np.ndarray:
    """Three same-padded conv layers 1 -> c1 -> c2 -> 1: tanh, tanh, linear.

    ``features`` is one (n_ris, d_cat) map or a (B, n_ris, d_cat) stack.
    """
    layout = genome_layout(arch)
    x = features[..., None, :, :]
    x = np.tanh(conv2d_same(x, layout.view(w, "conv0.w"), layout.view(w, "conv0.b")))
    x = np.tanh(conv2d_same(x, layout.view(w, "conv1.w"), layout.view(w, "conv1.b")))
    x = conv2d_same(x, layout.view(w, "conv2.w"), layout.view(w, "conv2.b"))
    return x[..., 0, :, :]


def phase_head(features: np.ndarray, w: np.ndarray, arch: ArchConfig) -> np.ndarray:
    """Per-element phase decisions from the (n_ris, d_cat) feature map.

    Binary mode thresholds a tanh scalar per row into {-1, +1} with ties
    going to +1; multi-state mode picks the argmax of per-row level scores.
    A leading step axis on ``features`` carries through to the output.
    """
    layout = genome_layout(arch)
    n_layers = len(arch.phase_hidden) + 1
    x = features
    for i in range(n_layers - 1):
        x = np.tanh(x @ layout.view(w, f"phase{i}.w") + layout.view(w, f"phase{i}.b"))
    last = n_layers - 1
    y = x @ layout.view(w, f"phase{last}.w") + layout.view(w, f"phase{last}.b")
    if arch.phase_states == 2:
        return sign_pm1(np.tanh(y[..., 0]))
    return np.argmax(y, axis=-1)


def select_index(probs: np.ndarray, rng=None, mode: str = "sample"):
    """Codebook pick from precoder probabilities: the one selection rule.

    ``probs`` is one distribution (V,), giving an int, or a (B, V) stack,
    giving a (B,) index array.  "argmax" takes the lowest maximizing index
    and draws nothing.  "sample" inverts the cumulative distribution at one
    uniform per distribution drawn from ``rng`` (one vector draw for a
    stack, which advances the stream exactly like that many scalar draws).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if mode == "argmax":
        idx = np.argmax(probs, axis=-1)
    elif mode == "sample":
        if rng is None:
            raise ValueError("sampling mode needs an rng")
        u = rng.random() if probs.ndim == 1 else rng.random(probs.shape[0])
        # entries of the nondecreasing CDF at or below u: searchsorted(side="right")
        below = np.cumsum(probs, axis=-1) <= np.expand_dims(u, -1)
        idx = np.minimum(np.count_nonzero(below, axis=-1), probs.shape[-1] - 1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return int(idx) if probs.ndim == 1 else idx


def precoder_head(features: np.ndarray, w: np.ndarray, arch: ArchConfig,
                  rng=None, mode: str = "sample"):
    """Codebook index from the flattened feature map via softmax logits.

    With a (B, n_ris, d_cat) stack, returns (B,) indices and (B, V) probs;
    ``rng`` feeds ``select_index``.
    """
    layout = genome_layout(arch)
    lead = features.shape[:-2]
    x = features.reshape(lead + (1, -1))
    hid = relu(x @ layout.view(w, "prec0.w") + layout.view(w, "prec0.b"))
    logits = hid @ layout.view(w, "prec1.w") + layout.view(w, "prec1.b")
    probs = softmax_global(logits.reshape(lead + (-1,)), steps=bool(lead))
    return select_index(probs, rng, mode), probs


def tx_ris_attention(w: np.ndarray, arch: ArchConfig, h1: np.ndarray) -> np.ndarray:
    """TX-RIS branch output (B, n_ris, 2 n_tx) for complex H1 stacked (B, n_tx, n_ris).

    Each element's token is its column of H1, real parts above imaginary.
    ``w`` is the flat float64 genome.
    """
    layout = genome_layout(arch)
    tokens = np.swapaxes(np.concatenate([h1.real, h1.imag], axis=1), -1, -2)
    return attention_steps(tokens,
                           layout.view(w, "attn_tx_ris.wq"),
                           layout.view(w, "attn_tx_ris.wk"),
                           layout.view(w, "attn_tx_ris.wv"))


def forward_steps(w: np.ndarray, arch: ArchConfig, h: np.ndarray, h1, h2: np.ndarray,
                  rng=None, mode: str = "sample"):
    """Policy pass over B stacked steps at once.

    Channels come complex with a leading step axis: h (B, n_tx), h2 (B, n_ris),
    and H1 as B (n_tx, n_ris) matrices: a (B, n_tx, n_ris) stack, or a sequence
    in which steps may share one array.  Returns (phases (B, n_ris), precoder
    indices (B,), probs (B, V)); each step's result is bit-identical to
    ``forward`` on that step alone.  Sampling draws one uniform per step
    from ``rng``, in step order.

    The TX-RIS attention always comes from ``_memo_tx_ris_attention``, which
    gives each step the bits of a fresh ``tx_ris_attention`` of its H1.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    layout = genome_layout(arch)
    if w.size != layout.size:
        raise ValueError(f"genome has {w.size} values, architecture needs {layout.size}")
    h = np.asarray(h, dtype=np.complex128)
    h2 = np.asarray(h2, dtype=np.complex128)
    b = h.shape[0] if h.ndim else 0
    if b < 1 or h.shape != (b, arch.n_tx) or h2.shape != (b, arch.n_ris) or len(h1) != b:
        raise ValueError("channel shapes do not match the architecture")
    a1 = _memo_tx_ris_attention(w, arch, list(h1))  # every array alive: no id repeats

    tokens_ris_rx = np.stack([h2.real, h2.imag], axis=-1)
    a2 = attention_steps(tokens_ris_rx,
                         layout.view(w, "attn_ris_rx.wq"),
                         layout.view(w, "attn_ris_rx.wk"),
                         layout.view(w, "attn_ris_rx.wv"))
    a0 = None
    if arch.direct_branch:
        tokens_direct = np.stack([h.real, h.imag], axis=-1)
        a3 = attention_steps(tokens_direct,
                             layout.view(w, "attn_direct.wq"),
                             layout.view(w, "attn_direct.wk"),
                             layout.view(w, "attn_direct.wv"))
        a0 = direct_features(a3, w, arch)
    feat = cnn_forward(merge_branches(a1, a2, a0), w, arch)
    idx, probs = precoder_head(feat, w, arch, rng, mode)
    return phase_head(feat, w, arch), idx, probs


# The one TX-RIS cache: the attention rows computed so far, as [(weights bytes,
# H1 bytes, arch), row] entries, most recent first.  A line-of-sight H1 is one
# array shared by every block of a scenario, so one entry per surface and genome
# serves every later pass.  The bound is the largest shipped ``ris_count``
# (multi_ris_k4.yaml); a paper-scale entry holds ~230 kB, plus the rest of the
# read-only output its row is a view of (at most a rollout pass).  Changed in
# place, never rebound.
_TX_RIS_MEMO_ENTRIES = 4
_tx_ris_memo: list = []


def _memo_tx_ris_attention(w, arch: ArchConfig, h1s: list) -> np.ndarray:
    """``tx_ris_attention`` (B, n_ris, 2 n_tx) of a float64 genome that fits
    ``arch`` and a list of B H1 matrices, served from the memo; a matrix of
    another shape raises before anything enters the memo.

    Each distinct array of the call is keyed once: first by ``id`` within the
    call, then by the bits of the TX-RIS weights and of its complex128 values,
    so an entry answers only the inputs it was computed from, even if the
    caller's arrays change in place later, and a hit returns the bits a fresh
    call would give.  A hit moves to the front.  The misses, equal bits taken
    once, are computed in one call whose steps each have the bits of a lone
    call, and enter at the front, the last one first.
    """
    start = genome_layout(arch).segments["attn_tx_ris.wq"][0]  # wk and wv follow wq
    weights = w[start:start + 3 * (2 * arch.n_tx) ** 2].tobytes()
    entries, new = {}, []  # the memo entry of each distinct array by id; the misses
    for a in h1s:
        if id(a) in entries:
            continue
        h1 = np.asarray(a, dtype=np.complex128)
        if h1.shape != (arch.n_tx, arch.n_ris):
            raise ValueError("channel shapes do not match the architecture")
        key = (weights, h1.tobytes(), arch)
        for i, entry in enumerate(_tx_ris_memo):
            if entry[0] == key:
                if i:
                    _tx_ris_memo.insert(0, _tx_ris_memo.pop(i))
                break
        else:
            entry = next((e for e in new if e[0] == key), None)
            if entry is None:
                entry = [key, h1]  # holds the H1 until its row is computed
                new.append(entry)
        entries[id(a)] = entry
    if new:
        out = tx_ris_attention(w, arch, np.array([h1 for _, h1 in new]))
        out.flags.writeable = False
        for entry, row in zip(new, out):
            entry[1] = row
        _tx_ris_memo[:0] = new[::-1]
        del _tx_ris_memo[_TX_RIS_MEMO_ENTRIES:]
    rows = [entries[id(a)][1] for a in h1s]
    # np.array stacks equal-shaped rows in a third of np.stack's time (25 desk rows)
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def forward(w: np.ndarray, arch: ArchConfig, h: np.ndarray, h1: np.ndarray,
            h2: np.ndarray, rng=None, mode: str = "sample") -> PolicyOutput:
    """Full policy pass from complex channels to discrete actions.

    Channels come in complex (h (n_tx,), h1 (n_tx, n_ris), h2 (n_ris,));
    real/imag stacking happens internally.  ``mode`` controls the precoder
    pick: "sample" draws from the softmax, "argmax" is deterministic.  This
    is the one-step case of ``forward_steps``, memo included.
    """
    phases, idx, probs = forward_steps(w, arch, np.asarray(h)[None], [h1],
                                       np.asarray(h2)[None], rng, mode)
    return PolicyOutput(phases=phases[0], precoder_index=int(idx[0]),
                        precoder_probs=probs[0])


def ff_inputs(steps) -> np.ndarray:
    """Benchmark inputs (B, input_size) of B ChannelSets: h, then per surface H1
    (row by row) and h2, each channel's real parts above its imaginary parts."""
    h = np.array([cs.h for cs in steps])
    h1 = np.array([cs.h1_list for cs in steps])
    h2 = np.array([cs.h2_list for cs in steps])
    b, k = h1.shape[:2]
    h1_t = np.concatenate([h1.real, h1.imag], axis=2).reshape(b, k, -1)
    per_ris = np.concatenate([h1_t, h2.real, h2.imag], axis=-1)
    return np.concatenate([h.real, h.imag, per_ris.reshape(b, -1)], axis=-1)


def ff_forward_steps(w: np.ndarray, cfg: FFConfig, steps, rng=None,
                     mode: str = "sample"):
    """Benchmark pass over B ChannelSets at once: phases (B, ris_count, n_ris),
    precoder indices (B,) and probs (B, V).  The trunk's (B, 1, n) @ (n, h)
    products are one vector-matrix product per step, so each step has the bits
    of a pass on it alone.  Sampling draws one uniform per step, in step order.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    layout = ff_layout(cfg)
    if w.size != layout.size:
        raise ValueError(f"genome has {w.size} values, architecture needs {layout.size}")
    x = ff_inputs(steps)[:, None]
    if x.shape[-1] != cfg.input_size:
        raise ValueError(f"a step has {x.shape[-1]} channel inputs, the architecture "
                         f"({cfg.ris_count} RIS) takes {cfg.input_size}")
    for i in range(len(cfg.hidden)):
        x = relu(x @ layout.view(w, f"fc{i}.w") + layout.view(w, f"fc{i}.b"))
    raw = np.tanh(x @ layout.view(w, "phase.w") + layout.view(w, "phase.b"))
    logits = x @ layout.view(w, "prec.w") + layout.view(w, "prec.b")
    probs = softmax_global(logits[:, 0], steps=True)
    phases = sign_pm1(raw).reshape(len(steps), cfg.ris_count, cfg.n_ris)
    return phases, select_index(probs, rng, mode), probs


def ff_forward(w: np.ndarray, cfg: FFConfig, cs: ChannelSet,
               rng=None, mode: str = "sample") -> PolicyOutput:
    """Benchmark pass: every channel flattened into one input vector.

    Phases come out as (n_ris,) for a single RIS and (ris_count, n_ris)
    otherwise; the precoder pick follows the same sample/argmax contract
    as the attention policy.  This is the one-step case of ``ff_forward_steps``.
    """
    phases, idx, probs = ff_forward_steps(w, cfg, [cs], rng, mode)
    return PolicyOutput(phases=phases[0, 0] if cfg.ris_count == 1 else phases[0],
                        precoder_index=int(idx[0]), precoder_probs=probs[0])


# -- genome files ------------------------------------------------------------

_GENOME_MAGIC = b"EVGENOM1"
_GENOME_VERSION = 1


def config_signature(*cfgs) -> bytes:
    """8-byte digest identifying an ordered tuple of network configs."""
    payload = repr([(type(c).__name__, sorted(asdict(c).items())) for c in cfgs])
    return hashlib.sha256(payload.encode("utf-8")).digest()[:8]


def _require_finite(path, w: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise ValueError(f"{path}: genome weight {bad[0]} is {w[bad[0]]}, not finite")


def save_genome(path, w: np.ndarray, *cfgs) -> None:
    """Write a flat genome with a header binding it to its config(s); a
    non-finite weight is refused before the file is opened."""
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    expected = sum(c.genome_size for c in cfgs)
    if w.size != expected:
        raise ValueError(f"genome has {w.size} values, configs need {expected}")
    _require_finite(path, w)
    with open(path, "wb") as fh:
        fh.write(_GENOME_MAGIC)
        fh.write(struct.pack("<I", _GENOME_VERSION))
        fh.write(config_signature(*cfgs))
        fh.write(struct.pack("<Q", w.size))
        fh.write(w.astype("<f8").tobytes())


def load_genome(path, *cfgs) -> np.ndarray:
    """Read a genome written by save_genome, checking header and length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 28 or blob[:8] != _GENOME_MAGIC:
        raise ValueError(f"{path}: not a genome file")
    version = struct.unpack_from("<I", blob, 8)[0]
    if version != _GENOME_VERSION:
        raise ValueError(f"{path}: unsupported genome version {version}")
    if blob[12:20] != config_signature(*cfgs):
        raise ValueError(f"{path}: genome was saved for a different configuration")
    m = struct.unpack_from("<Q", blob, 20)[0]
    data = blob[28:]
    if len(data) != 8 * m:
        raise ValueError(f"{path}: genome payload is truncated")
    expected = sum(c.genome_size for c in cfgs)
    if m != expected:
        raise ValueError(f"{path}: genome length {m} does not match configured size {expected}")
    w = np.frombuffer(data, dtype="<f8").astype(np.float64)
    _require_finite(path, w)
    return w
