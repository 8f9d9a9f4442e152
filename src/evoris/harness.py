"""Config-driven experiment runner: train, evaluate, sweep, export.

A run is fully described by (config, master seed).  Seeds are namespaced so
training and evaluation never share channel draws, and metric files contain
no wall-clock data, which keeps repeated runs byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import re
import time
from dataclasses import asdict, dataclass, fields
from functools import reduce
from pathlib import Path

import numpy as np
import yaml

from .baselines import LgaParams, exhaustive_oracle, lga_solve, random_baseline
from .channel import ChannelSet, ScenarioConfig, sample_episodes
from .cosyne import EvoParams, resolve_workers, train
from .multiris import AggregatorConfig, rollout
# bench/run.py traces these two names here; trained kinds reach them via rollout
from .multiris import agent_act, aggregate_precoder  # noqa: F401
from .numerics import FieldError, check_fields, derive_rng, derive_seed
from .policy import ArchConfig, FFConfig, load_genome
from .system import evaluation_codebook, link_budget_from, snr

POLICY_KINDS = ("attention", "ff", "ff_cent", "lga", "random", "oracle")
TRAINED_KINDS = ("attention", "ff", "ff_cent")


class ConfigError(ValueError):
    """Configuration file problem, with the offending field in the message."""


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig
    arch: ArchConfig
    evo: EvoParams
    lga: LgaParams
    policy: str = "attention"
    eval_episodes: int = 20
    seed: int = 0
    runs: int = 1
    out_dir: str | None = None
    aggregator: AggregatorConfig | None = None
    ff_hidden: tuple[int, ...] = (800, 600, 600, 500, 200)
    oracle_cap: int = 2 ** 20

    def __post_init__(self):
        try:
            check_fields(self)
        except FieldError as exc:
            raise ConfigError(str(exc)) from exc
        if self.policy not in POLICY_KINDS:
            raise ConfigError(f"policy: unknown kind {self.policy!r}, "
                              f"expected one of {list(POLICY_KINDS)}")
        if not self.ff_hidden or min(self.ff_hidden) < 1:
            raise ConfigError(f"ff_hidden: expected a list of positive integer layer "
                              f"widths, got {list(self.ff_hidden)!r}")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes: must be >= 1")
        if self.runs < 1:
            raise ConfigError("runs: must be >= 1")
        if self.arch.n_tx != self.scenario.n_tx:
            raise ConfigError(f"arch.n_tx: {self.arch.n_tx} does not match "
                              f"scenario.n_tx {self.scenario.n_tx}")
        if self.arch.n_ris != self.scenario.n_ris:
            raise ConfigError(f"arch.n_ris: {self.arch.n_ris} does not match "
                              f"scenario.n_ris {self.scenario.n_ris}")
        if self.arch.codebook_size > self.scenario.n_tx:
            raise ConfigError("arch.codebook_size: cannot exceed scenario.n_tx")
        if self.arch.phase_states != 2 and self.policy != "attention":
            # the baselines and the ff networks decide binary phases only
            raise ConfigError(f"arch.phase_states: {self.arch.phase_states} phase levels "
                              f"are supported by policy 'attention' only, not "
                              f"{self.policy!r}, which decides binary phases")
        if self.aggregator is not None:
            if self.aggregator.ris_count != self.scenario.ris_count:
                raise ConfigError("aggregator.ris_count: must match scenario.ris_count")
            if self.aggregator.codebook_size != self.arch.codebook_size:
                raise ConfigError("aggregator.codebook_size: must match arch.codebook_size")


@dataclass
class MetricRecord:
    """One evaluated run; statistics cover the declared eval episodes only."""

    run_id: str
    policy: str
    param_name: str | None
    param_value: object
    mean_snr_db: float
    mean_rate: float
    std_err: float
    wall_time: float
    evaluations: int


METRIC_COLUMNS = ("run_id", "policy", "param_name", "param_value",
                  "mean_snr_db", "mean_rate", "std_err", "evaluations")
EXPORT_FORMATS = ("csv", "json")


# -- config (de)serialization ------------------------------------------------

def _build_section(name, cls, mapping, **defaults):
    """``cls`` from the config section ``name``; ``defaults`` fill absent fields."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{name}: expected a mapping, got {mapping!r}")
    unknown = set(mapping) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{name}: unknown fields: {sorted(unknown)}")
    try:
        return cls(**{**defaults, **mapping})
    except FieldError as exc:
        raise ConfigError(f"{name}.{exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def config_from_mapping(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a mapping")
    bad = set(data) - {f.name for f in fields(ExperimentConfig)}
    if bad:
        raise ConfigError(f"unknown config fields: {sorted(bad)}")

    scenario = _build_section("scenario", ScenarioConfig, data.get("scenario", {}))
    arch = _build_section("arch", ArchConfig, data.get("arch", {}), n_tx=scenario.n_tx,
                          n_ris=scenario.n_ris, codebook_size=scenario.n_tx)
    sections = {"scenario": scenario, "arch": arch,
                "evo": _build_section("evo", EvoParams, data.get("evo", {})),
                "lga": _build_section("lga", LgaParams, data.get("lga", {})),
                "aggregator": None}
    if data.get("aggregator") is not None:
        sections["aggregator"] = _build_section(
            "aggregator", AggregatorConfig, data["aggregator"],
            ris_count=scenario.ris_count, codebook_size=arch.codebook_size)
    return ExperimentConfig(**{**data, **sections})


def _plain(value):
    """``value`` with every tuple turned into a list, for the YAML writer."""
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return {k: _plain(v) for k, v in value.items()} if isinstance(value, dict) else value


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    data = _plain(asdict(cfg))
    if data["aggregator"] is None:
        del data["aggregator"]
    return data


class ConfigLoader(yaml.SafeLoader):
    """Reads YAML 1.2 booleans: yes, no, on and off stay strings, which a flag refuses."""


ConfigLoader.add_constructor("tag:yaml.org,2002:bool", lambda _, node: {
    "true": True, "false": False}.get(node.value.lower(), node.value))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if data is None:
        data = {}
    return config_from_mapping(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_mapping(cfg), fh, sort_keys=True)


# -- policy construction and evaluation --------------------------------------

def trained_policy_configs(cfg: ExperimentConfig):
    """(policy_cfg, agg_cfg) pair the configured policy kind trains with."""
    k = cfg.scenario.ris_count
    if cfg.policy == "attention":
        if k == 1:
            return cfg.arch, None
        agg = cfg.aggregator or AggregatorConfig(ris_count=k,
                                                 codebook_size=cfg.arch.codebook_size)
        return cfg.arch, agg
    if cfg.policy == "ff" and k != 1:
        raise ConfigError("policy: kind 'ff' drives a single RIS; "
                          "use 'ff_cent' for multi-RIS scenarios")
    if cfg.policy in ("ff", "ff_cent"):
        return FFConfig(n_tx=cfg.scenario.n_tx, n_ris=cfg.scenario.n_ris,
                        codebook_size=cfg.arch.codebook_size, ris_count=k,
                        hidden=cfg.ff_hidden), None
    raise ConfigError(f"policy: {cfg.policy!r} is not a trained kind")


def evaluate_policy(cfg: ExperimentConfig, genome=None, policy_cfg=None,
                    agg_cfg=None):
    """Roll the configured policy over the evaluation episode block.

    Returns (per-episode gamma arrays, candidate-evaluation count).  Trained
    kinds act deterministically (argmax), each episode as one batched
    ``rollout``.  The genetic search and the random arm consume the
    evaluation policy stream block by block, in order; each episode is one
    stacked ``lga_solve``, or for the random arm its blocks' draws followed
    by one stacked ``snr``.  The exhaustive oracle searches block by block.
    """
    scenario = cfg.scenario
    episodes = sample_episodes(scenario, cfg.eval_episodes, scenario.horizon,
                               derive_rng(cfg.seed, "eval", "channels"))
    if cfg.policy in TRAINED_KINDS:
        per_episode = rollout(genome, policy_cfg, agg_cfg, scenario, episodes)
        return per_episode, sum(len(episode) for episode in episodes)
    budget = link_budget_from(scenario)
    codebook = evaluation_codebook(scenario, cfg.arch.codebook_size)
    policy_rng = derive_rng(cfg.seed, "eval", "policy")
    n_bits = scenario.n_ris * scenario.ris_count
    per_episode = []
    evaluations = 0
    for episode in episodes:
        if cfg.policy == "lga":
            res = lga_solve(episode, budget, codebook, cfg.lga, policy_rng)
            gammas = res.gamma
            evaluations += res.evaluations
        elif cfg.policy == "random":
            picks = [random_baseline(cs, codebook, policy_rng) for cs in episode]
            gammas = snr(episode, np.array([p for p, _ in picks]),
                         [codebook[:, i] for _, i in picks], budget)
            evaluations += len(episode)
        else:
            gammas = np.empty(len(episode))
            for i, cs in enumerate(episode):
                _, _, gammas[i] = exhaustive_oracle(cs, budget, codebook,
                                                    cap=cfg.oracle_cap)
            evaluations += len(episode) * (1 << n_bits) * codebook.shape[1]
        per_episode.append(gammas)
    return per_episode, evaluations


def _summarize(run_id, policy, per_episode, evaluations, wall_time,
               param_name=None, param_value=None) -> MetricRecord:
    all_gammas = np.concatenate(per_episode)
    mean_gamma = float(all_gammas.mean())
    mean_snr_db = 10.0 * math.log10(mean_gamma) if mean_gamma > 0 else float("-inf")
    mean_rate = float(np.log2(1.0 + all_gammas).mean())
    ep_means = np.array([float(e.mean()) for e in per_episode])
    std_err = float(ep_means.std(ddof=1) / math.sqrt(len(ep_means))) \
        if len(ep_means) > 1 else 0.0
    return MetricRecord(run_id=run_id, policy=policy, param_name=param_name,
                        param_value=param_value, mean_snr_db=mean_snr_db,
                        mean_rate=mean_rate, std_err=std_err,
                        wall_time=wall_time, evaluations=int(evaluations))


def _mem_available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, or None where unreadable."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _check_population_fits(cfg: ExperimentConfig) -> None:
    """Raise ConfigError when the training population exceeds free memory.

    Training holds one l_pop x genome float64 matrix for the whole run, and
    it dwarfs everything else at scale.  Skipped where the free memory
    cannot be read.
    """
    policy_cfg, agg_cfg = trained_policy_configs(cfg)
    genome = policy_cfg.genome_size + (agg_cfg.genome_size if agg_cfg else 0)
    need = cfg.evo.l_pop * genome * 8
    available = _mem_available_bytes()
    if available is not None and need > available:
        raise ConfigError(f"evo.l_pop: a population of {cfg.evo.l_pop} x {genome} "
                          f"weights needs {need / 1e9:.2f} GB of memory, but only "
                          f"{available / 1e9:.2f} GB is available")


def run_experiment(cfg: ExperimentConfig, *, param_name=None, param_value=None,
                   export_format: str = "csv", workers=None) -> list[MetricRecord]:
    """Train (when the policy is evolved) and evaluate; emit artifacts.

    One MetricRecord per independent run.  Artifacts under out_dir: the
    resolved config, per-run training history and best genome, metrics.csv
    (or .json) and a run.json sidecar carrying the wall-clock data that is
    deliberately kept out of the metric files.  A trained kind whose
    population cannot fit in the available memory raises ConfigError, and a
    worker count that ``resolve_workers`` refuses or an export format not in
    ``EXPORT_FORMATS`` raises ValueError, before anything is trained or
    written.
    """
    _require_export_format(export_format)
    workers = resolve_workers(workers)
    if cfg.policy in TRAINED_KINDS:
        _check_population_fits(cfg)
    out_path = None
    if cfg.out_dir is not None:
        out_path = Path(cfg.out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out_path / "config_resolved.yaml")

    records = []
    for r in range(cfg.runs):
        t0 = time.perf_counter()
        genome = policy_cfg = agg_cfg = None
        if cfg.policy in TRAINED_KINDS:
            policy_cfg, agg_cfg = trained_policy_configs(cfg)
            train_dir = None
            if out_path is not None:
                train_dir = out_path / (f"train_{r}" if cfg.runs > 1 else "train")
            result = train(cfg.scenario, policy_cfg, cfg.evo,
                           derive_seed(cfg.seed, "train", r),
                           agg_cfg=agg_cfg, out_dir=train_dir, workers=workers)
            genome = result.best_genome
        per_episode, evaluations = evaluate_policy(cfg, genome, policy_cfg, agg_cfg)
        run_id = f"{cfg.policy}-seed{cfg.seed}" + (f"-run{r}" if cfg.runs > 1 else "")
        if param_name is not None:
            run_id += f"-{param_name}={param_value}"
        records.append(_summarize(run_id, cfg.policy, per_episode, evaluations,
                                  time.perf_counter() - t0, param_name, param_value))

    if out_path is not None:
        export_results(records, out_path, export_format)
        sidecar = {"seed": cfg.seed, "policy": cfg.policy,
                   "wall_times": {rec.run_id: rec.wall_time for rec in records}}
        with open(out_path / "run.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
    return records


def set_config_parameter(cfg: ExperimentConfig, parameter: str, value):
    """New config with one dotted-path field replaced, e.g. scenario.noise_dbm.

    ``scenario.n_tx`` and ``scenario.n_ris`` also set the architecture's copy
    of that size, so a sweep over the array sizes keeps the two in step.
    """
    mapping = config_to_mapping(cfg)
    node, leaf = _config_field(mapping, parameter)
    node[leaf] = value
    if parameter in ("scenario.n_tx", "scenario.n_ris"):
        mapping["arch"][leaf] = value
    return config_from_mapping(mapping)


def sweep(cfg: ExperimentConfig, parameter: str, values, *,
          export_format: str = "csv", workers=None) -> list[MetricRecord]:
    """One full experiment per value, everything else (seed included) fixed.

    Every point reuses the same master seed so evaluation channels are
    common random numbers across the sweep axis.  Each point writes into a
    directory named after the value its config stores, each run of
    characters other than letters, digits and ``.+-`` as one "_"
    (``[0, 0, 2]`` as ``0.0_0.0_2.0``).  Results aggregate into the base out_dir with a
    plot-data CSV alongside.  A bad path or export format is refused before
    the first point runs.
    """
    _require_export_format(export_format)
    if not isinstance(parameter, str) or not parameter:
        raise ConfigError("sweep parameter: must be a non-empty dotted path")
    _config_field(config_to_mapping(cfg), parameter)
    records = []
    base_out = Path(cfg.out_dir) if cfg.out_dir is not None else None
    for value in values:
        point = set_config_parameter(cfg, parameter, value)
        if base_out is not None:
            stored = str(reduce(getattr, parameter.split("."), point))
            point.out_dir = str(base_out / parameter.replace(".", "_") /
                                re.sub(r"[^\w.+-]+", "_", stored).strip("_"))
        records.extend(run_experiment(point, param_name=parameter,
                                      param_value=value,
                                      export_format=export_format,
                                      workers=workers))
    if base_out is not None and records:
        base_out.mkdir(parents=True, exist_ok=True)
        export_results(records, base_out, export_format)
        _write_plot_data(records, base_out, parameter)
    return records


def _config_field(mapping: dict, parameter: str) -> tuple[dict, str]:
    """(mapping that holds it, leaf name) of the dotted path ``parameter`` in a
    config mapping; a path that leaves the mapping raises ConfigError naming
    its first prefix that is not there."""
    parts = parameter.split(".")
    node = mapping
    for depth, part in enumerate(parts, 1):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"sweep parameter {parameter!r}: no field "
                              f"{'.'.join(parts[:depth])!r}")
        parent, node = node, node[part]
    return parent, parts[-1]


def _write_plot_data(records, out_path: Path, parameter: str) -> None:
    name = f"plot_{parameter.replace('.', '_')}.csv"
    _write_csv(out_path / name,
               ("param_value", "policy", "mean_snr_db", "mean_rate", "std_err"), records)


# -- results export ----------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(target: Path, columns, records) -> None:
    """A header of ``columns``, then one line of cells per record, each ending
    in a line feed; a cell with a comma in it (a list-valued sweep point, in
    ``param_value`` and ``run_id``) is quoted, so ``csv.reader`` reads it back."""
    with open(target, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(getattr(rec, col)) for col in columns] for rec in records)


def _require_export_format(format: str) -> None:
    if format not in EXPORT_FORMATS:
        raise ValueError(f"unknown export format {format!r}, expected one of "
                         f"{', '.join(EXPORT_FORMATS)}")


def export_results(records, out_dir, format: str = "csv"):
    """Write metrics in a stable column order with full-precision floats.

    Wall time never enters these files so byte-level reproducibility holds;
    it lives in the run.json sidecar instead.
    """
    if not records:
        raise ValueError("no records to export")
    _require_export_format(format)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    if format == "csv":
        target = out_path / "metrics.csv"
        _write_csv(target, METRIC_COLUMNS, records)
    else:
        payload = [{col: getattr(rec, col) for col in METRIC_COLUMNS}
                   for rec in records]
        target = out_path / "metrics.json"
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return target


# -- channel trace files ------------------------------------------------------

_TRACE_MAGIC = b"CHTRACE1"
_TRACE_HEADER = len(_TRACE_MAGIC) + 5 * 4


def _trace_record(n_tx: int, n_ris: int, k: int) -> np.dtype:
    """One step of a trace file: episode and step index, then the channels."""
    return np.dtype([("e", "<u4"), ("t", "<u4"), ("h", "<c16", (n_tx,)),
                     ("ris", [("h1", "<c16", (n_tx, n_ris)), ("h2", "<c16", (n_ris,))],
                      (k,))])


def export_channel_trace(path, trace) -> None:
    """Write episodes of ChannelSets as little-endian binary records.

    Layout: magic, (n_tx, n_ris, k, n_episodes, horizon) as u32, then one
    ``_trace_record`` per step: episode u32, step u32, h, then per RIS its
    TX-RIS matrix (row-major) and RIS-RX vector, every complex value as
    re/im float64.
    """
    if not trace or not trace[0]:
        raise ValueError("trace must hold at least one episode with one step")
    first = trace[0][0]
    n_tx = first.h.shape[0]
    n_ris = first.h2_list[0].shape[0]
    k = first.ris_count
    horizon = len(trace[0])
    for e, episode in enumerate(trace):
        if len(episode) != horizon:
            raise ValueError(f"episode {e}: expected {horizon} steps, "
                             f"got {len(episode)}")
    steps = [cs for episode in trace for cs in episode]
    records = np.empty(len(steps), dtype=_trace_record(n_tx, n_ris, k))
    records["e"], records["t"] = np.divmod(np.arange(len(steps)), horizon)
    records["h"] = [cs.h for cs in steps]
    records["ris"]["h1"] = [cs.h1_list for cs in steps]
    records["ris"]["h2"] = [cs.h2_list for cs in steps]
    with open(path, "wb") as fh:
        fh.write(_TRACE_MAGIC)
        fh.write(np.array([n_tx, n_ris, k, len(trace), horizon], dtype="<u4").tobytes())
        fh.write(records.tobytes())


def import_channel_trace(path, scenario: ScenarioConfig | None = None):
    """Read a trace written by export_channel_trace; optionally check dims.

    Returns a list of episodes, each a list of ChannelSets, usable wherever
    freshly sampled channels are.  Malformed input (a wrong size, misplaced
    record indices, a non-finite channel value) raises ValueError naming the
    first failing record.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _TRACE_HEADER or blob[:8] != _TRACE_MAGIC:
        raise ValueError(f"{path}: not a channel trace file")
    n_tx, n_ris, k, n_episodes, horizon = np.frombuffer(blob, "<u4", 5, 8).tolist()
    if min(n_tx, n_ris, k, n_episodes, horizon) < 1:
        raise ValueError(f"{path}: degenerate header dimensions")
    if scenario is not None:
        if (n_tx, n_ris, k) != (scenario.n_tx, scenario.n_ris, scenario.ris_count):
            raise ValueError(
                f"{path}: trace dims (n_tx={n_tx}, n_ris={n_ris}, k={k}) do not "
                f"match scenario (n_tx={scenario.n_tx}, n_ris={scenario.n_ris}, "
                f"k={scenario.ris_count})")
    record = _trace_record(n_tx, n_ris, k)
    expected = _TRACE_HEADER + n_episodes * horizon * record.itemsize
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for "
                         f"{n_episodes}x{horizon} records, got {len(blob)}")
    records = np.frombuffer(blob, record, offset=_TRACE_HEADER)
    e, t = np.divmod(np.arange(records.size), horizon)
    bad = np.flatnonzero((records["e"] != e) | (records["t"] != t))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{path}: record {i}: expected indices ({e[i]}, {t[i]}), "
                         f"found ({records['e'][i]}, {records['t'][i]})")
    h = records["h"].astype(np.complex128)
    h1 = records["ris"]["h1"].astype(np.complex128)
    h2 = records["ris"]["h2"].astype(np.complex128)
    finite = (np.isfinite(h).all(axis=1) & np.isfinite(h1).all(axis=(1, 2, 3))
              & np.isfinite(h2).all(axis=(1, 2)))
    bad = np.flatnonzero(~finite)
    if bad.size:
        i = bad[0]
        raise ValueError(f"{path}: record {i} (episode {e[i]}, step {t[i]}): "
                         "non-finite channel value")
    return [[ChannelSet(h=h[i], h1_list=list(h1[i]), h2_list=list(h2[i]))
             for i in range(ep * horizon, (ep + 1) * horizon)]
            for ep in range(n_episodes)]


def evaluate_genome(cfg: ExperimentConfig, genome_path,
                    export_format: str = "csv") -> list[MetricRecord]:
    """Evaluate a saved genome under the config's scenario, no training; an
    export format not in ``EXPORT_FORMATS`` raises ValueError first."""
    _require_export_format(export_format)
    if cfg.policy not in TRAINED_KINDS:
        raise ConfigError(f"policy: {cfg.policy!r} has no genome to evaluate")
    policy_cfg, agg_cfg = trained_policy_configs(cfg)
    cfgs = (policy_cfg,) if agg_cfg is None else (policy_cfg, agg_cfg)
    genome = load_genome(genome_path, *cfgs)
    t0 = time.perf_counter()
    per_episode, evaluations = evaluate_policy(cfg, genome, policy_cfg, agg_cfg)
    rec = _summarize(f"{cfg.policy}-seed{cfg.seed}-eval", cfg.policy,
                     per_episode, evaluations, time.perf_counter() - t0)
    if cfg.out_dir is not None:
        out_path = Path(cfg.out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        export_results([rec], out_path, export_format)
    return [rec]
