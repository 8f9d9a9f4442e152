"""Per-coherence-block channel generation for single- and multi-RIS links.

Geometry-driven Ricean fading: LOS components come from steering vectors
of the configured array geometries and node positions, NLOS components are
i.i.d. complex Gaussian, and free-space pathloss is applied per link
segment.  All sampling is pure given a Generator handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numerics import check_fields

Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, fading and power description of one simulated link.

    Ricean factors are in dB, ``-inf`` for no line of sight (Rayleigh);
    ``kappa_h1_db=None`` makes every TX-RIS channel purely line-of-sight.
    Power levels are dBm, converted to linear watts once, at link-budget
    construction.  ``episodes`` is checked, but neither training nor
    evaluation reads it: training draws ``EvoParams.t_e_train`` episodes and
    evaluation ``eval_episodes``.
    """

    n_tx: int = 16
    n_ris: int = 400
    ris_count: int = 1
    tx_position: Vec3 = (0.0, 0.0, 2.0)
    rx_position: Vec3 = (8.0, 10.0, 1.5)
    ris_positions: tuple[Vec3, ...] = ((0.0, 3.0, 2.0),)
    kappa_h2_db: float = field(default=10.0, metadata={"neg_inf": True})
    kappa_h_db: float = field(default=10.0, metadata={"neg_inf": True})
    kappa_h1_db: float | None = field(default=None, metadata={"neg_inf": True})
    direct_blocked: bool = True
    direct_attenuation_db: float = 0.0
    carrier_wavelength: float = 0.1
    tx_power_dbm: float = 30.0
    noise_dbm: float = -50.0
    horizon: int = 50
    episodes: int = 20
    ris_geometry: str = "auto"

    def __post_init__(self):
        # positions become float tuples: the config keys the geometry cache
        check_fields(self)
        if self.n_tx < 1:
            raise ValueError("n_tx must be >= 1")
        if self.n_ris < 1:
            raise ValueError("n_ris must be >= 1")
        if self.ris_count < 1:
            raise ValueError("ris_count must be >= 1")
        if len(self.ris_positions) != self.ris_count:
            raise ValueError(
                f"expected {self.ris_count} RIS positions, got {len(self.ris_positions)}")
        if self.horizon < 1 or self.episodes < 1:
            raise ValueError("horizon and episodes must be >= 1")
        if self.carrier_wavelength <= 0:
            raise ValueError("carrier_wavelength must be positive")
        if self.ris_geometry not in ("auto", "planar", "linear"):
            raise ValueError(f"unknown ris_geometry {self.ris_geometry!r}")
        positions = [self.tx_position, self.rx_position, *self.ris_positions]
        if len(set(positions)) != len(positions):
            raise ValueError("node positions must be distinct")
        if self.resolved_ris_geometry() == "planar":
            side = math.isqrt(self.n_ris)
            if side * side != self.n_ris:
                raise ValueError(
                    f"planar RIS needs a perfect-square element count, got {self.n_ris}")

    def resolved_ris_geometry(self) -> str:
        if self.ris_geometry != "auto":
            return self.ris_geometry
        side = math.isqrt(self.n_ris)
        return "planar" if side * side == self.n_ris else "linear"


@dataclass
class ChannelSet:
    """One coherence-block realization of every involved channel.

    ``h`` is the direct TX-RX vector (N_TX,), ``h1_list`` holds the
    TX-RIS matrices (N_TX, N_RIS) and ``h2_list`` the RIS-RX vectors
    (N_RIS,), one entry per RIS.
    """

    h: np.ndarray
    h1_list: list[np.ndarray]
    h2_list: list[np.ndarray]

    @property
    def ris_count(self) -> int:
        return len(self.h1_list)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def free_space_gain(distance: float, wavelength: float) -> float:
    """Free-space amplitude gain lambda / (4 pi d); power is its square."""
    distance = max(distance, 1e-3)
    return wavelength / (4.0 * math.pi * distance)


def _element_positions(geometry: str, n: int, spacing: float) -> np.ndarray:
    if geometry == "linear":
        pos = np.zeros((n, 3))
        pos[:, 0] = np.arange(n) * spacing
        return pos
    if geometry == "planar":
        side = math.isqrt(n)
        if side * side != n:
            raise ValueError(f"planar array needs a square element count, got {n}")
        idx = np.arange(n)
        pos = np.zeros((n, 3))
        pos[:, 0] = (idx % side) * spacing
        pos[:, 2] = (idx // side) * spacing
        return pos
    raise ValueError(f"unknown array geometry {geometry!r}")


def steering_vector(geometry: str, n_elements: int, direction: np.ndarray,
                    wavelength: float, spacing: float) -> np.ndarray:
    """Array response exp(j k <d, r_n>) with the first element as phase reference.

    ``direction`` must be a unit 3-vector; entries are unit modulus by
    construction.
    """
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise ValueError("direction must have unit norm")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    pos = _element_positions(geometry, n_elements, spacing)
    phase = (2.0 * math.pi / wavelength) * (pos @ direction)
    return np.exp(1j * phase)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _Ricean:
    """A Ricean-faded matrix law with its deterministic part precomputed.

    ``los`` is sqrt(k/(k+1)) * los_hat (read-only), ``nlos`` is
    sqrt(1/(k+1)) and ``amp`` is sqrt(avg_power).
    """

    los: np.ndarray
    nlos: float
    amp: float

    def apply(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """The law on standard normals ``re`` and ``im`` of shape
        (..., rows, cols): one matrix per leading index, each entry's bits
        those of a draw of that matrix alone.

        The result is amp * (los + nlos * ((re + 1j * im) / sqrt(2))), each
        step after the first taken in place on the one temporary: a sum, or a
        product with a real scalar, has the same bits with its operands
        swapped.
        """
        g = re + 1j * im
        g /= math.sqrt(2.0)
        g *= self.nlos
        g += self.los
        g *= self.amp
        return g


def _ricean(rows: int, cols: int, kappa_db: float, los: np.ndarray,
            avg_power: float) -> _Ricean:
    los = np.asarray(los, dtype=np.complex128).reshape(rows, cols)
    if avg_power <= 0:
        raise ValueError("avg_power must be positive")
    mags = np.abs(los)
    if np.any(mags == 0):
        raise ValueError("LOS entries must be nonzero for unit-modulus normalization")
    los_hat = los / mags
    kappa = db_to_linear(kappa_db)
    return _Ricean(los=_read_only(math.sqrt(kappa / (kappa + 1.0)) * los_hat),
                   nlos=math.sqrt(1.0 / (kappa + 1.0)), amp=math.sqrt(avg_power))


def sample_ricean(rows: int, cols: int, kappa_db: float, los: np.ndarray,
                  avg_power: float, rng: np.random.Generator) -> np.ndarray:
    """Draw a Ricean-faded matrix around a unit-modulus-normalized LOS term.

    Output is sqrt(avg_power) * (sqrt(k/(k+1)) * los_hat + sqrt(1/(k+1)) * G)
    with G i.i.d. standard complex Gaussian and k the linear Ricean factor,
    so E[|entry|^2] == avg_power for every k.  One ``standard_normal`` call
    draws the real parts, then the imaginary parts.
    """
    law = _ricean(rows, cols, kappa_db, los, avg_power)
    re, im = rng.standard_normal((2, rows, cols))
    return law.apply(re, im)


def _unit(vec: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(vec)
    if n == 0:
        raise ValueError("zero-length direction between coincident nodes")
    return vec / n


@dataclass(frozen=True)
class _RisLink:
    """One surface's links: ``h1`` is the shared read-only TX-RIS matrix of a
    line-of-sight link (``kappa_h1_db is None``), else None and ``h1_law``
    draws it; ``h2_law`` is the law of the RIS-RX vector as an (n_ris, 1)
    column."""

    h1: np.ndarray | None
    h1_law: _Ricean | None
    h2_law: _Ricean


@dataclass(frozen=True)
class _Geometry:
    direct_law: _Ricean | None   # None when the direct link is blocked
    links: tuple[_RisLink, ...]
    laws: tuple[_Ricean, ...]    # every drawn law, in draw order


@lru_cache(maxsize=32)
def _geometry(cfg: ScenarioConfig) -> _Geometry:
    """Steering vectors, path gains and LOS terms of a scenario, built once.

    Every array is read-only: a line-of-sight H1 is handed to every
    ChannelSet drawn from the scenario.
    """
    lam = cfg.carrier_wavelength
    spacing = lam / 2.0
    ris_geom = cfg.resolved_ris_geometry()
    tx = np.asarray(cfg.tx_position, dtype=np.float64)
    rx = np.asarray(cfg.rx_position, dtype=np.float64)

    direct_law = None
    if not cfg.direct_blocked:
        d = np.linalg.norm(rx - tx)
        los = steering_vector("linear", cfg.n_tx, _unit(rx - tx), lam, spacing)
        power = free_space_gain(d, lam) ** 2 * db_to_linear(-cfg.direct_attenuation_db)
        direct_law = _ricean(cfg.n_tx, 1, cfg.kappa_h_db, los[:, None], power)

    links = []
    for pos in cfg.ris_positions:
        ris = np.asarray(pos, dtype=np.float64)
        d1 = np.linalg.norm(ris - tx)
        d2 = np.linalg.norm(rx - ris)
        a_tx = steering_vector("linear", cfg.n_tx, _unit(ris - tx), lam, spacing)
        a_ris_tx = steering_vector(ris_geom, cfg.n_ris, _unit(tx - ris), lam, spacing)
        los_h1 = np.outer(a_tx, np.conj(a_ris_tx))
        p1 = free_space_gain(d1, lam) ** 2
        h1 = h1_law = None
        if cfg.kappa_h1_db is None:
            h1 = _read_only(math.sqrt(p1) * los_h1)
        else:
            h1_law = _ricean(cfg.n_tx, cfg.n_ris, cfg.kappa_h1_db, los_h1, p1)
        a_ris_rx = steering_vector(ris_geom, cfg.n_ris, _unit(rx - ris), lam, spacing)
        p2 = free_space_gain(d2, lam) ** 2
        links.append(_RisLink(h1=h1, h1_law=h1_law, h2_law=_ricean(
            cfg.n_ris, 1, cfg.kappa_h2_db, a_ris_rx[:, None], p2)))
    laws = [direct_law] + [law for link in links for law in (link.h1_law, link.h2_law)]
    return _Geometry(direct_law=direct_law, links=tuple(links),
                     laws=tuple(law for law in laws if law is not None))


def sample_channel_set(cfg: ScenarioConfig, rng: np.random.Generator) -> ChannelSet:
    """Draw one i.i.d. coherence-block realization for the configured
    scenario: the one-block case of ``sample_episodes``."""
    return sample_episodes(cfg, 1, 1, rng)[0][0]


def _draw(laws: tuple[_Ricean, ...], horizon: int,
          rng: np.random.Generator) -> list[np.ndarray]:
    """Each law of ``laws`` for ``horizon`` steps, (horizon, rows, cols) per
    law, from one ``standard_normal`` call of (horizon, n) normals: a step's
    row holds each law's real parts, then its imaginary parts, law by law."""
    z = rng.standard_normal((horizon, sum(2 * law.los.size for law in laws)))
    out, at = [], 0
    for law in laws:
        size, shape = law.los.size, (horizon, *law.los.shape)
        out.append(law.apply(z[:, at:at + size].reshape(shape),
                             z[:, at + size:at + 2 * size].reshape(shape)))
        at += 2 * size
    return out


def sample_episodes(cfg: ScenarioConfig, episodes: int, horizon: int,
                    rng: np.random.Generator) -> list[list[ChannelSet]]:
    """Pre-draw a block of i.i.d. channel realizations, episode-major.

    Returns ``episodes`` lists of ``horizon`` ChannelSets each.  Draw order
    is fixed: per step the direct link, then per surface a Ricean TX-RIS
    matrix and the RIS-RX vector, so equal seeds give identical blocks.
    Each episode is one ``standard_normal`` call; the generator keeps no
    state between calls, so the stream and every bit equal a step-by-step
    draw.  A step's ``h``, ``h2`` and Ricean ``H1`` are writable,
    non-overlapping row views of its episode's arrays.  A blocked direct
    link is an exact zero vector and consumes no randomness.  The geometry
    is computed once per scenario; a line-of-sight H1 (``kappa_h1_db is
    None``) draws nothing and is one shared read-only array in every
    ChannelSet of the scenario.
    """
    if episodes < 1 or horizon < 1:
        raise ValueError("episodes and horizon must be >= 1")
    geo = _geometry(cfg)
    block = []
    for _ in range(episodes):
        drawn = iter(_draw(geo.laws, horizon, rng))
        h = (np.zeros((horizon, cfg.n_tx), dtype=np.complex128)
             if geo.direct_law is None else next(drawn).reshape(horizon, cfg.n_tx))
        h1s, h2s = [], []
        for link in geo.links:
            h1s.append([link.h1] * horizon if link.h1_law is None else next(drawn))
            h2s.append(next(drawn).reshape(horizon, cfg.n_ris))
        block.append([ChannelSet(h=h[t], h1_list=[h1[t] for h1 in h1s],
                                 h2_list=[h2[t] for h2 in h2s])
                      for t in range(horizon)])
    return block
