"""Workload definitions and the process bootstrap shared by every entry point.

``bootstrap`` must run before numpy is first imported: it pins every BLAS
and OpenMP pool to one thread (unpinned OpenBLAS made the 400x32 attention
score matmul swing between 0.23 ms and 16 ms) and puts the checkout's
``src/`` first on the import path, refusing to run against any other
installed copy of the library.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or configs)."""


def bootstrap():
    """Pin threads, import the checkout's evoris and return the package."""
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the thread pins were set")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "evoris" / "__init__.py").is_file():
        raise BenchError(f"no library sources under {src}")
    sys.path.insert(0, str(src))
    import evoris
    if Path(evoris.__file__).resolve().parent != (src / "evoris").resolve():
        raise BenchError(f"evoris imported from {evoris.__file__}, not from {src}")
    return evoris


@dataclass(frozen=True)
class Workload:
    name: str
    config: str             # config file, relative to the checkout root
    l_pop: int
    workers: int            # fitness workers of the untraced run
    generations: int        # fixed, so the trained genome depends on the seed only
    train_horizon: int      # steps per training episode (the block is cut short)
    train_episodes: int
    eval_episodes: int      # eval block = eval_episodes x the config's horizon
    setup_probes: int       # set-up is timed in this many fresh processes
    oracle_blocks: int = 0  # traced run only: exhaustive search on this many blocks
    gain_floor_db: float = 0.0  # the trained policy must beat random by this much
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload("desk_single", "configs/single_ris_desk.yaml", l_pop=40, workers=1,
             generations=20, train_horizon=25, train_episodes=1, eval_episodes=20,
             setup_probes=9, oracle_blocks=25,
             gain_floor_db=3.0,  # acceptance criterion 6's reference
             why="tiny arrays, one process: a generation is mostly Python and NumPy "
                 "call overhead inside policy.forward, where a batched rollout shows"),
    Workload("full_single", "configs/single_ris.yaml", l_pop=100, workers=1,
             generations=3, train_horizon=2, train_episodes=1, eval_episodes=2,
             setup_probes=2,
             why="paper shapes and population (701 MB matrix): array-bound kernels, "
                 "genome hashing, column shuffle and peak memory, little call overhead"),
    Workload("desk_multi", "configs/multi_ris_desk.yaml", l_pop=20, workers=2,
             generations=20, train_horizon=25, train_episodes=1, eval_episodes=20,
             setup_probes=9,
             why="two surfaces, direct branch and vote aggregator, and the only "
                 "fitness that goes through the per-generation process pool"),
)}


@dataclass
class Setup:
    """Everything a run needs, built from the workload and the seed only."""

    train_scenario: object
    evo: object
    eval_cfg: object
    policy_cfg: object
    agg_cfg: object
    train_seed: int


def build(workload: Workload, seed: int, *, scale: float = 1.0) -> Setup:
    """Generated configs for ``workload``; ``scale`` < 1 shrinks it for tests."""
    from dataclasses import replace

    from evoris import harness
    from evoris.numerics import derive_seed

    path = ROOT / workload.config
    if not path.is_file():
        raise BenchError(f"missing config {path}")
    cfg = harness.load_config(path)

    def shrink(n, floor):
        return max(floor, round(n * scale))

    evo = replace(cfg.evo, l_pop=shrink(workload.l_pop, 4),
                  generations=shrink(workload.generations, 2),
                  t_e_train=workload.train_episodes)
    train_scenario = replace(cfg.scenario,
                             horizon=shrink(workload.train_horizon, 1))
    eval_scenario = replace(cfg.scenario, horizon=shrink(cfg.scenario.horizon, 2))
    eval_cfg = replace(cfg, scenario=eval_scenario, evo=evo, seed=seed,
                       eval_episodes=shrink(workload.eval_episodes, 1), out_dir=None)
    policy_cfg, agg_cfg = harness.trained_policy_configs(eval_cfg)
    return Setup(train_scenario=train_scenario, evo=evo, eval_cfg=eval_cfg,
                 policy_cfg=policy_cfg, agg_cfg=agg_cfg,
                 train_seed=derive_seed(seed, "train", 0))
