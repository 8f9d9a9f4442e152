"""Digests of the exactness runs, for comparing two checkouts.

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
process, and the tool exits with status 1 when they do not.

The desk runs cannot see a change of bits that only paper shapes reach, so two
``paper-single`` lines follow: a seeded genome (``make_rng(seed)``, scaled by
0.2) decides on 8 blocks of ``configs/single_ris.yaml``, one episode drawn
from the config's evaluation channel stream, through ``policy.forward`` in
argmax mode, one block at a time.  The ``decisions`` line digests its phases
and precoder indices as above, and the ``precoder_probs`` line the
little-endian float64 bytes of every block's precoder probabilities.  Two
checkouts that print the same lines train, evaluate and decide bit for bit
alike.

Three lines cover the genetic-search baseline (``baselines.lga_solve``): the
``metrics.csv`` of ``policy: lga`` on ``configs/single_ris_desk.yaml`` and on
``configs/multi_ris_desk.yaml``, and a ``paper-single lga`` line, the SHA-256
of one stacked ``lga_solve`` call, the path ``harness.evaluate_policy``
takes, on the same 8 paper-scale blocks with the config's ``lga`` settings
and its evaluation policy stream: per block its phases (little-endian
float64), precoder index (int64) and gamma (float64).  The tool exits with
status 1 unless those, and the stream's end state, equal one-block calls on
the blocks in order.  They print after the lines above, which keep their
order.

Last come the four lines of the centralized fully-connected policy,
``ff_cent`` on ``configs/multi_ris_desk.yaml`` (2 generations, ``l_pop`` 8),
digested as the ``ff`` run is.

A ``saved`` line per config file under ``configs/`` ends the list: the SHA-256
of the bytes ``harness.save_config`` writes for the loaded config, so a change
to how configs are read or written shows too.  The library is imported from
this checkout's ``src/``, with BLAS pinned to one thread.
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
# per-block baseline runs: (run name, config, policy); they write metrics only
BASELINE_RUNS = (
    ("lga-single_desk", "configs/single_ris_desk.yaml", "lga"),
    ("lga-multi_desk", "configs/multi_ris_desk.yaml", "lga"),
)
# a trained run whose lines print after all of the above
FF_CENT_RUN = ("ff_cent-multi_desk", "configs/multi_ris_desk.yaml", "ff_cent",
               {"generations": 2, "l_pop": 8}, 1)
# the pooled run and the one-process run whose digests it must repeat
POOLED, SERIAL = "attention-multi_desk-workers2", "attention-multi_desk"
HISTORY_COLUMNS = ("generation", "best_fitness", "mean_fitness")
GENOME_HEADER_BYTES = 28
# the paper-scale decision line: config, blocks and genome scale
PAPER_CONFIG, PAPER_BLOCKS, PAPER_GENOME_SCALE = "configs/single_ris.yaml", 8, 0.2


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


def update_decision(digest, phase_list, idx) -> None:
    """Feed one block's phases (little-endian float64) and index (int64) to ``digest``."""
    import numpy as np
    for phases in phase_list:
        digest.update(np.asarray(phases, dtype="<f8").tobytes())
    digest.update(struct.pack("<q", int(idx)))


def decisions_digest(cfg, genome_path: Path) -> str:
    """SHA-256 of the one-block argmax decisions over the evaluation episodes."""
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
        update_decision(digest, phase_list, idx)
    return digest.hexdigest()


def paper_digests(harness) -> list[str]:
    """The ``paper-single`` decisions and precoder-probability lines."""
    import numpy as np
    from evoris import policy
    from evoris.channel import sample_episodes
    from evoris.numerics import derive_rng, make_rng

    cfg = harness.load_config(ROOT / PAPER_CONFIG)
    arch, _ = harness.trained_policy_configs(cfg)
    w = make_rng(cfg.seed).standard_normal(arch.genome_size) * PAPER_GENOME_SCALE
    blocks, = sample_episodes(cfg.scenario, 1, PAPER_BLOCKS,
                              derive_rng(cfg.seed, "eval", "channels"))
    decisions, probs = hashlib.sha256(), hashlib.sha256()
    for cs in blocks:
        out = policy.forward(w, arch, cs.h, cs.h1_list[0], cs.h2_list[0], mode="argmax")
        update_decision(decisions, [out.phases], out.precoder_index)
        probs.update(np.asarray(out.precoder_probs, dtype="<f8").tobytes())
    return [f"paper-single decisions {decisions.hexdigest()}",
            f"paper-single precoder_probs {probs.hexdigest()}"]


def lga_digest(results) -> str:
    """SHA-256 of (phases, precoder index, gamma) per block, as the
    ``paper-single lga`` line digests them."""
    digest = hashlib.sha256()
    for phases, idx, gamma in results:
        update_decision(digest, [phases], idx)
        digest.update(struct.pack("<d", gamma))
    return digest.hexdigest()


def paper_lga_digest(harness) -> str | None:
    """The ``paper-single lga`` line, or None when the stacked search differs
    from one-block calls."""
    from evoris.channel import sample_episodes
    from evoris.numerics import derive_rng
    from evoris.system import evaluation_codebook, link_budget_from

    cfg = harness.load_config(ROOT / PAPER_CONFIG)
    blocks, = sample_episodes(cfg.scenario, 1, PAPER_BLOCKS,
                              derive_rng(cfg.seed, "eval", "channels"))
    budget = link_budget_from(cfg.scenario)
    codebook = evaluation_codebook(cfg.scenario, cfg.arch.codebook_size)
    rng, one_rng = (derive_rng(cfg.seed, "eval", "policy") for _ in range(2))
    res = harness.lga_solve(blocks, budget, codebook, cfg.lga, rng)
    ones = [harness.lga_solve(cs, budget, codebook, cfg.lga, one_rng) for cs in blocks]
    digest = lga_digest(zip(res.phases, res.precoder_index, res.gamma))
    if digest != lga_digest((one.phases, one.precoder_index, one.gamma) for one in ones) \
            or rng.bit_generator.state != one_rng.bit_generator.state:
        return None
    return f"paper-single lga {digest}"


def run_digests(harness, name, config, policy, evo, workers, tmp: Path) -> list[str]:
    out = tmp / name
    mapping = harness.config_to_mapping(harness.load_config(ROOT / config))
    mapping["policy"] = policy
    mapping["out_dir"] = str(out)
    mapping["evo"].update(evo)
    cfg = harness.config_from_mapping(mapping)
    harness.run_experiment(cfg, workers=workers)
    if policy not in harness.TRAINED_KINDS:
        return [f"{name} metrics.csv {sha256((out / 'metrics.csv').read_bytes())}"]
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


def saved_config_digests(harness, tmp: Path) -> list[str]:
    """One ``saved`` line per shipped config: SHA-256 of its ``save_config`` bytes."""
    lines = []
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        out = tmp / f"saved-{path.name}"
        harness.save_config(harness.load_config(path), out)
        lines.append(f"configs/{path.name} saved {sha256(out.read_bytes())}")
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
        for line in paper_digests(harness):
            print(line, flush=True)
        for name, config, policy in BASELINE_RUNS:
            for line in run_digests(harness, name, config, policy, {}, 1, Path(tmp)):
                print(line, flush=True)
        line = paper_lga_digest(harness)
        if line is None:
            print("paper-single lga: the stacked search differs from one-block "
                  "calls", file=sys.stderr)
            return 1
        print(line, flush=True)
        for line in run_digests(harness, *FF_CENT_RUN, Path(tmp)):
            print(line, flush=True)
        for line in saved_config_digests(harness, Path(tmp)):
            print(line, flush=True)
    if digests[POOLED] != digests[SERIAL]:
        print(f"{POOLED} differs from {SERIAL}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
