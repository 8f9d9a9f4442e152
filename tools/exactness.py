"""Digests of the three exactness runs, for comparing two checkouts.

    python3 tools/exactness.py

Trains and evaluates, into a temporary directory that is removed afterwards:

- ``attention`` on ``configs/single_ris_desk.yaml``, 6 generations;
- ``attention`` on ``configs/multi_ris_desk.yaml``, 6 generations;
- ``ff`` on ``configs/single_ris_desk.yaml``, 2 generations, ``l_pop`` 8;
- the ``multi_ris_desk.yaml`` run again with 2 fitness worker processes.

and prints one line per artifact: the run, the artifact and the SHA-256 of
its bytes (``metrics.csv``, ``best.genome``, and the ``generation``,
``best_fitness`` and ``mean_fitness`` columns of ``history.csv``, which
leave out the wall times).  ``best.genome[28:]`` is the genome's payload
without its 28-byte header, so a change to the config signature in the
header alone shows as a differing ``best.genome`` line next to an equal
payload line.  For the two attention runs a ``decisions`` line adds the
SHA-256 of the argmax decisions of ``best.genome`` on every block of the run's
evaluation episodes, taken one block at a time through the one-block decision
path: ``policy.forward`` for a single surface, ``multiris.agent_act`` per
surface plus ``multiris.aggregate_precoder`` for several.  Each block
contributes its phases as little-endian float64 and its precoder index as a
little-endian int64.  Every run but the last scores fitness in one
process; the last run's digests must equal those of the same run in one
process, and the tool exits with status 1 when they do not.  Two checkouts
that print the same lines train, evaluate and decide bit for bit alike.  The library is imported from this
checkout's ``src/``, with BLAS pinned to one thread.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (run name, config, policy, evo overrides, fitness workers)
RUNS = (
    ("attention-single_desk", "configs/single_ris_desk.yaml", "attention",
     {"generations": 6}, 1),
    ("attention-multi_desk", "configs/multi_ris_desk.yaml", "attention",
     {"generations": 6}, 1),
    ("ff-single_desk", "configs/single_ris_desk.yaml", "ff",
     {"generations": 2, "l_pop": 8}, 1),
    ("attention-multi_desk-workers2", "configs/multi_ris_desk.yaml", "attention",
     {"generations": 6}, 2),
)
# the pooled run and the one-process run whose digests it must repeat
POOLED, SERIAL = "attention-multi_desk-workers2", "attention-multi_desk"
HISTORY_COLUMNS = ("generation", "best_fitness", "mean_fitness")
GENOME_HEADER_BYTES = 28


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def history_digest(path: Path) -> str:
    """SHA-256 of the history's fitness columns, written back as CSV."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            writer.writerow([row[c] for c in HISTORY_COLUMNS])
    return sha256(out.getvalue().encode("utf-8"))


def decisions_digest(cfg, genome_path: Path) -> str:
    """SHA-256 of the one-block argmax decisions over the evaluation episodes."""
    import numpy as np
    from evoris import harness, multiris, policy
    from evoris.channel import sample_episodes
    from evoris.numerics import derive_rng

    arch, agg_cfg = harness.trained_policy_configs(cfg)
    cfgs = (arch,) if agg_cfg is None else (arch, agg_cfg)
    g14, g5 = multiris.split_joint_genome(policy.load_genome(genome_path, *cfgs),
                                          arch, agg_cfg)
    scenario = cfg.scenario
    episodes = sample_episodes(scenario, cfg.eval_episodes, scenario.horizon,
                               derive_rng(cfg.seed, "eval", "channels"))
    digest = hashlib.sha256()
    for cs in (cs for episode in episodes for cs in episode):
        if agg_cfg is None:
            out = policy.forward(g14, arch, cs.h, cs.h1_list[0], cs.h2_list[0],
                                 mode="argmax")
            phase_list, idx = [out.phases], out.precoder_index
        else:
            acts = [multiris.agent_act(g14, arch, cs.h, h1, h2)
                    for h1, h2 in zip(cs.h1_list, cs.h2_list)]
            idx, _ = multiris.aggregate_precoder(g5, agg_cfg, [v for _, v in acts],
                                                 None, "argmax")
            phase_list = [phases for phases, _ in acts]
        for phases in phase_list:
            digest.update(np.asarray(phases, dtype="<f8").tobytes())
        digest.update(struct.pack("<q", int(idx)))
    return digest.hexdigest()


def run_digests(harness, name, config, policy, evo, workers, tmp: Path) -> list[str]:
    out = tmp / name
    mapping = harness.config_to_mapping(harness.load_config(ROOT / config))
    mapping["policy"] = policy
    mapping["out_dir"] = str(out)
    mapping["evo"].update(evo)
    cfg = harness.config_from_mapping(mapping)
    harness.run_experiment(cfg, workers=workers)
    genome_path = out / "train" / "best.genome"
    genome = genome_path.read_bytes()
    lines = [f"{name} metrics.csv {sha256((out / 'metrics.csv').read_bytes())}",
             f"{name} history.csv[{','.join(HISTORY_COLUMNS)}] "
             f"{history_digest(out / 'train' / 'history.csv')}",
             f"{name} best.genome {sha256(genome)}",
             f"{name} best.genome[{GENOME_HEADER_BYTES}:] "
             f"{sha256(genome[GENOME_HEADER_BYTES:])}"]
    if policy == "attention":
        lines.append(f"{name} decisions {decisions_digest(cfg, genome_path)}")
    return lines


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from evoris import harness

    digests = {}
    with tempfile.TemporaryDirectory(prefix="evoris-exactness-") as tmp:
        for name, config, policy, evo, workers in RUNS:
            lines = run_digests(harness, name, config, policy, evo, workers, Path(tmp))
            digests[name] = [line.split(" ", 1)[1] for line in lines]
            for line in lines:
                print(line, flush=True)
    if digests[POOLED] != digests[SERIAL]:
        print(f"{POOLED} differs from {SERIAL}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
