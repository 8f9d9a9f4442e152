"""Per-coherence-block channel generation for single- and multi-RIS links.

Geometry-driven Ricean fading: LOS components come from steering vectors
of the configured array geometries and node positions, NLOS components are
i.i.d. complex Gaussian, and free-space pathloss is applied per link
segment.  All sampling is pure given a Generator handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

Vec3 = tuple[float, float, float]


def _position(name: str, p) -> Vec3:
    """A node position as a float 3-tuple; anything else raises, naming ``name``."""
    try:
        xyz = tuple(float(x) for x in p)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected 3 finite coordinates, got {p!r}") from None
    if len(xyz) != 3 or not all(math.isfinite(x) for x in xyz):
        raise ValueError(f"{name}: expected 3 finite coordinates, got {p!r}")
    return xyz


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, fading and power description of one simulated link.

    Ricean factors are in dB; ``kappa_h1_db=None`` makes every TX-RIS
    channel purely line-of-sight.  Power levels are dBm and converted to
    linear watts once, at link-budget construction.
    """

    n_tx: int = 16
    n_ris: int = 400
    ris_count: int = 1
    tx_position: Vec3 = (0.0, 0.0, 2.0)
    rx_position: Vec3 = (8.0, 10.0, 1.5)
    ris_positions: tuple[Vec3, ...] = ((0.0, 3.0, 2.0),)
    kappa_h2_db: float = 10.0
    kappa_h_db: float = 10.0
    kappa_h1_db: float | None = None
    direct_blocked: bool = True
    direct_attenuation_db: float = 0.0
    carrier_wavelength: float = 0.1
    tx_power_dbm: float = 30.0
    noise_dbm: float = -50.0
    horizon: int = 50
    episodes: int = 20
    ris_geometry: str = "auto"

    def __post_init__(self):
        # float tuples: the config is hashed as the key of the geometry cache
        object.__setattr__(self, "tx_position", _position("tx_position", self.tx_position))
        object.__setattr__(self, "rx_position", _position("rx_position", self.rx_position))
        object.__setattr__(self, "ris_positions", tuple(
            _position(f"ris_positions[{i}]", p) for i, p in enumerate(self.ris_positions)))
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
        if len({tuple(p) for p in positions}) != len(positions):
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

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        shape = self.los.shape
        g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
        return self.amp * (self.los + self.nlos * g)


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
    so E[|entry|^2] == avg_power for every k.
    """
    return _ricean(rows, cols, kappa_db, los, avg_power).draw(rng)


def _unit(vec: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(vec)
    if n == 0:
        raise ValueError("zero-length direction between coincident nodes")
    return vec / n


@dataclass(frozen=True)
class _RisLink:
    """One surface's links: ``h1`` is the shared read-only TX-RIS matrix of a
    line-of-sight link (``kappa_h1_db is None``), else None and ``h1_law``
    draws it; ``h2_law`` draws the RIS-RX vector as an (n_ris, 1) column."""

    h1: np.ndarray | None
    h1_law: _Ricean | None
    h2_law: _Ricean


@dataclass(frozen=True)
class _Geometry:
    direct_law: _Ricean | None   # None when the direct link is blocked
    links: tuple[_RisLink, ...]


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
    return _Geometry(direct_law=direct_law, links=tuple(links))


def sample_channel_set(cfg: ScenarioConfig, rng: np.random.Generator) -> ChannelSet:
    """Draw one i.i.d. coherence-block realization for the configured scenario.

    Draw order is fixed (direct link first, then per-RIS TX-RIS and RIS-RX)
    so equal seeds give identical ChannelSets.  A blocked direct link is an
    exact zero vector and consumes no randomness.  The geometry is computed
    once per scenario; a line-of-sight H1 (``kappa_h1_db is None``) draws
    nothing and is one shared read-only array in every ChannelSet of the
    scenario.
    """
    geo = _geometry(cfg)
    if geo.direct_law is None:
        h = np.zeros(cfg.n_tx, dtype=np.complex128)
    else:
        h = geo.direct_law.draw(rng).ravel()

    h1_list, h2_list = [], []
    for link in geo.links:
        h1_list.append(link.h1 if link.h1_law is None else link.h1_law.draw(rng))
        h2_list.append(link.h2_law.draw(rng).ravel())

    return ChannelSet(h=h, h1_list=h1_list, h2_list=h2_list)


def sample_episodes(cfg: ScenarioConfig, episodes: int, horizon: int,
                    rng: np.random.Generator) -> list[list[ChannelSet]]:
    """Pre-draw a block of i.i.d. channel realizations, episode-major.

    Returns ``episodes`` lists of ``horizon`` ChannelSets each, drawn in the
    same order a step-by-step rollout would consume them.
    """
    if episodes < 1 or horizon < 1:
        raise ValueError("episodes and horizon must be >= 1")
    return [[sample_channel_set(cfg, rng) for _ in range(horizon)]
            for _ in range(episodes)]


# -- scenario (de)serialization: plain mappings for the config files ---------

def scenario_to_mapping(cfg: ScenarioConfig) -> dict:
    d = asdict(cfg)
    d["tx_position"] = list(cfg.tx_position)
    d["rx_position"] = list(cfg.rx_position)
    d["ris_positions"] = [list(p) for p in cfg.ris_positions]
    return d


def scenario_from_mapping(d: dict) -> ScenarioConfig:
    known = set(ScenarioConfig.__dataclass_fields__)
    bad = set(d) - known
    if bad:
        raise ValueError(f"unknown scenario fields: {sorted(bad)}")
    return ScenarioConfig(**d)

