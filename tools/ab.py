"""In-process A/B of two checkouts: the same inputs through both, alternately.

    python3 tools/ab.py --base DIR [--change DIR] [--rounds 30] [--paper]
                        [--paths train,eval,decide,lga,lga_eval,sample]
                        [--lga-stream-changed]

Copies each checkout's ``src/evoris`` into a temporary directory under its own
package name (``evoris_base``, ``evoris_change``; the package imports itself
relatively, so each copy runs its own code) and imports both into this
process.  ``--change`` defaults to this checkout; ``--base`` is typically a
``git archive`` of the parent commit.  For each of ``configs/single_ris_desk.yaml``
and ``configs/multi_ris_desk.yaml`` (and ``configs/single_ris.yaml`` with
``--paper``) it times six paths:

- ``train``: ``multiris.rollout`` in sample mode of a training block
  (``t_e_train`` episodes of 25 steps) for each of 20 seeded genomes, each
  with its own seeded policy stream, as training fitness does;
- ``eval``: ``multiris.rollout`` in argmax mode of the evaluation block
  (``eval_episodes`` episodes of the config's horizon) for the first genome,
  as harness evaluation does;
- ``decide``: one-block argmax decisions of the first genome on the first 200
  blocks of the evaluation block, through ``policy.forward`` for one surface,
  or ``multiris.agent_act`` per surface plus ``multiris.aggregate_precoder``;
- ``lga``: ``harness.lga_solve`` with the config's ``lga`` settings, one
  block per call, on the first 50 blocks of the evaluation block, drawing
  from a policy stream seeded per round;
- ``lga_eval``: ``harness.evaluate_policy`` with ``policy: lga`` and a quarter
  of the config's ``eval_episodes`` (the bench's LGA unit), its channels and
  policy stream seeded by the round, which runs on any tree whatever
  ``lga_solve`` takes;
- ``sample``: ``channel.sample_episodes`` of the evaluation block, drawn as
  the other paths draw it; the SHA-256 of every ``h``, ``h1_list`` and
  ``h2_list`` array and of the stream's end state is taken after the clock
  stops.

Round r draws its channel blocks from seed r; each tree samples them with its
own code.  The two trees run each path back to back, the base first on even
rounds, and their outputs (gammas; phases, picks and precoder probabilities)
must be bitwise equal, else the tool stops with status 1 (for ``lga_eval``
the per-episode gammas and the evaluation count; for ``sample`` every array
and the stream's end state).  ``lga`` is the one
path compared another way: its phases, beams and the policy stream's end
state must be bitwise equal, while its gammas are compared by their largest
relative difference, which the tool prints, so a search that scores the same
strings with other arithmetic can be timed against the old one.  With
``--lga-stream-changed``, for a search that draws other strings from the same
law, the two trees' ``lga`` outputs are not compared: instead each block's
gamma must equal ``system.snr`` of that tree's own phases and beam, within
1e-10 of the same sum taken over the magnitudes of its terms (the check of
``bench/run.py``), else the tool stops with status 1; it prints each tree's
mean SNR over the timed blocks, in dB of the mean gamma; ``lga_eval``
cannot run with it.  The first
half of the rounds runs in a child process that imports the base first, the
second half in one that imports the change first.  After its timed rounds, each
child runs every path once more per tree, untimed, under ``tracemalloc``
(NumPy reports its array buffers to it), on the blocks of its last round.
It prints, per config and path, the median paired ratio of the change's time
over the base's (pooled, and per child), the rounds where the change was
faster, the median times, and each tree's traced peak (the larger of the two
children's): the bytes the path holds at once, a count that repeats exactly
from run to run, unlike a process's resident size.  BLAS is pinned to one
thread before NumPy is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIGS = ("configs/single_ris_desk.yaml", "configs/multi_ris_desk.yaml")
PAPER_CONFIG = "configs/single_ris.yaml"
PATHS = ("train", "eval", "decide", "lga", "lga_eval", "sample")
TRAIN_HORIZON, GENOMES, DECISION_BLOCKS, GENOME_SCALE = 25, 20, 200, 0.3
LGA_BLOCKS = 50
SNR_RTOL = 1e-10


def load_tree(checkout: Path, name: str, tmp: Path):
    """Import ``checkout``'s ``src/evoris`` as the package ``name``."""
    src = checkout / "src" / "evoris"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: {checkout} has no src/evoris package")
    shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("harness", "multiris", "policy", "channel", "system")}


class Side:
    """One tree's config objects and timed paths for one config file."""

    def __init__(self, tree, config: Path, genomes):
        self.tree = tree
        cfg = tree["harness"].load_config(config)
        self.cfg = cfg
        self.arch, self.agg = tree["harness"].trained_policy_configs(cfg)
        self.genomes = genomes
        self.budget = tree["system"].link_budget_from(cfg.scenario)
        self.codebook = tree["system"].evaluation_codebook(cfg.scenario,
                                                           cfg.arch.codebook_size)

    def blocks(self, seed: int):
        """(training block, evaluation block) of round ``seed``."""
        import numpy as np
        sample = self.tree["channel"].sample_episodes
        scn = self.cfg.scenario
        train_scn = replace(scn, horizon=TRAIN_HORIZON)
        self.train_block = sample(train_scn, self.cfg.evo.t_e_train, TRAIN_HORIZON,
                                  np.random.default_rng([seed, 0]))
        self.train_scn = train_scn
        self.eval_block = sample(scn, self.cfg.eval_episodes, scn.horizon,
                                 np.random.default_rng([seed, 1]))

    def train(self, seed: int) -> bytes:
        import numpy as np
        rollout = self.tree["multiris"].rollout
        out = []
        for i, w in enumerate(self.genomes):
            gammas = rollout(w, self.arch, self.agg, self.train_scn, self.train_block,
                             "sample", np.random.default_rng([seed, 2, i]))
            out += [g.tobytes() for g in gammas]
        return b"".join(out)

    def eval(self, _seed: int) -> bytes:
        gammas = self.tree["multiris"].rollout(self.genomes[0], self.arch, self.agg,
                                               self.cfg.scenario, self.eval_block,
                                               "argmax")
        return b"".join(g.tobytes() for g in gammas)

    def decide(self, _seed: int) -> bytes:
        import numpy as np
        multiris, policy = self.tree["multiris"], self.tree["policy"]
        g14, g5 = multiris.split_joint_genome(self.genomes[0], self.arch, self.agg)
        steps = [cs for episode in self.eval_block for cs in episode][:DECISION_BLOCKS]
        out = []
        for cs in steps:
            if self.agg is None:
                res = policy.forward(g14, self.arch, cs.h, cs.h1_list[0], cs.h2_list[0],
                                     mode="argmax")
                phases, idx, probs = [res.phases], res.precoder_index, res.precoder_probs
            else:
                acts = [multiris.agent_act(g14, self.arch, cs.h, h1, h2)
                        for h1, h2 in zip(cs.h1_list, cs.h2_list)]
                phases = [ph for ph, _ in acts]
                idx, probs = multiris.aggregate_precoder(g5, self.agg,
                                                         [v for _, v in acts],
                                                         None, "argmax")
            out += [np.asarray(p).tobytes() for p in phases]
            out += [np.int64(idx).tobytes(), np.asarray(probs).tobytes()]
        return b"".join(out)

    def lga(self, seed: int):
        """(phases, beams and stream end state as bytes, gammas) of the search."""
        import numpy as np
        rng = np.random.default_rng([seed, 3])
        steps = [cs for episode in self.eval_block for cs in episode][:LGA_BLOCKS]
        out, gammas, self.lga_results = [], [], []
        for cs in steps:
            res = self.tree["harness"].lga_solve(cs, self.budget, self.codebook,
                                                 self.cfg.lga, rng)
            self.lga_results.append((cs, res))
            # the bytes of K rows whether a tree gives an array or a list of them
            out.append(np.asarray(res.phases).tobytes())
            out.append(np.int64(res.precoder_index).tobytes())
            gammas.append(res.gamma)
        out.append(repr(rng.bit_generator.state).encode())
        return b"".join(out), gammas

    def lga_eval(self, seed: int) -> bytes:
        """Per-episode gammas and evaluation count of ``harness.evaluate_policy``
        with ``policy: lga`` on a quarter of the evaluation episodes."""
        import numpy as np
        cfg = replace(self.cfg, policy="lga", seed=seed,
                      eval_episodes=max(1, self.cfg.eval_episodes // 4))
        per_episode, evaluations = self.tree["harness"].evaluate_policy(cfg)
        return b"".join([g.tobytes() for g in per_episode]
                        + [np.int64(evaluations).tobytes()])

    def sample(self, seed: int):
        """Draw the evaluation block of round ``seed``; returns a function that
        gives the SHA-256 of every array of every block, in order, and of the
        stream's end state, so that the time is the draw's alone."""
        import numpy as np
        rng = np.random.default_rng([seed, 1])
        scn = self.cfg.scenario
        block = self.tree["channel"].sample_episodes(scn, self.cfg.eval_episodes,
                                                     scn.horizon, rng)

        def digest() -> str:
            h = hashlib.sha256()
            for a in (a for episode in block for cs in episode
                      for a in [cs.h, *cs.h1_list, *cs.h2_list]):
                h.update(np.ascontiguousarray(a).data)
            h.update(repr(rng.bit_generator.state).encode())
            return h.hexdigest()
        return digest

    def check_lga(self) -> str | None:
        """The first block of the last ``lga`` call whose gamma is not
        ``system.snr`` of its phases and beam, within ``SNR_RTOL`` of
        P/sigma^2 (sum_i |m_i v_i|)^2 for the effective channel m; else None."""
        import numpy as np
        p_over_n = self.budget.tx_power_w / self.budget.noise_power_w
        for i, (cs, res) in enumerate(self.lga_results):
            v = self.codebook[:, res.precoder_index]
            # an older tree gives one surface's phases as a bare (n_ris,) vector
            phases = np.reshape(res.phases, (cs.ris_count, -1))
            m = np.conj(cs.h) + sum(np.conj(h1) @ (-ph * np.conj(h2))
                                    for h1, h2, ph in zip(cs.h1_list, cs.h2_list, phases))
            want = self.tree["system"].snr(cs, res.phases, v, self.budget)
            if not abs(res.gamma - want) <= SNR_RTOL * p_over_n * np.sum(np.abs(m * v)) ** 2:
                return f"block {i}: gamma {res.gamma!r} != system.snr {want!r}"
        return None


def timed(fn, seed):
    """(seconds, SHA-256 of the bit-compared output, gammas or None); a path
    that returns a function is timed without it, and it gives the digest."""
    t0 = time.perf_counter()
    out = fn(seed)
    elapsed = time.perf_counter() - t0
    if callable(out):
        return elapsed, out(), None
    out, gammas = out if isinstance(out, tuple) else (out, None)
    return elapsed, hashlib.sha256(out).hexdigest(), gammas


def relative_gap(a, b) -> float:
    """Largest |a_i - b_i| / max(|a_i|, |b_i|) over two gamma lists; equal
    entries count 0."""
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y),
               default=0.0)


def traced_peak(fn, seed) -> int:
    """Peak bytes traced by ``tracemalloc`` during one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_config(config: Path, trees, rounds, paths, lga_stream_changed=False):
    """Per path, the base's and the change's time in each round of ``rounds``,
    each tree's traced peak on the last round's blocks, the largest relative
    gamma difference of the paths compared by it, and with
    ``lga_stream_changed`` each tree's [sum, count] of its ``lga`` gammas."""
    import numpy as np
    probe = trees["change"]["harness"].load_config(config)
    arch, agg = trees["change"]["harness"].trained_policy_configs(probe)
    m = arch.genome_size + (agg.genome_size if agg is not None else 0)
    genomes = np.random.default_rng(7).standard_normal((GENOMES, m)) * GENOME_SCALE
    sides = {name: Side(tree, config, genomes) for name, tree in trees.items()}
    times = {path: {"base": [], "change": []} for path in paths}
    gaps, lga_sums = {}, {name: [0.0, 0] for name in sides}
    for r in rounds:
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for name in order:
            sides[name].blocks(r)
        for path in paths:
            digests, gammas = {}, {}
            for name in order:
                elapsed, digests[name], gammas[name] = timed(getattr(sides[name], path), r)
                times[path][name].append(elapsed)
            if path == "lga" and lga_stream_changed:
                for name in order:
                    fault = sides[name].check_lga()
                    if fault is not None:
                        raise SystemExit(f"error: {config.name} lga: {name} round {r} "
                                         f"{fault}")
                    lga_sums[name][0] += sum(gammas[name])
                    lga_sums[name][1] += len(gammas[name])
                continue
            if digests["base"] != digests["change"]:
                raise SystemExit(f"error: {config.name} {path}: outputs differ in round {r}")
            if gammas["base"] is not None:
                gaps[path] = max(gaps.get(path, 0.0),
                                 relative_gap(gammas["base"], gammas["change"]))
    peaks = {path: {name: traced_peak(getattr(sides[name], path), rounds[-1])
                    for name in sides} for path in paths}
    return times, peaks, gaps, (lga_sums if lga_stream_changed else None)


def configs_of(args):
    return list(DESK_CONFIGS) + ([PAPER_CONFIG] if args.paper else [])


def child(args, paths, first: str, rounds) -> None:
    """Time ``rounds`` in this process, importing the ``first`` tree first, and
    print one JSON line of times per config."""
    with tempfile.TemporaryDirectory(prefix="evoris-ab-") as tmp:
        sys.path.insert(0, tmp)
        trees = {name: load_tree(getattr(args, name).resolve(), f"evoris_{name}", Path(tmp))
                 for name in (first, "change" if first == "base" else "base")}
        for config in configs_of(args):
            times, peaks, gaps, lga_sums = run_config(ROOT / config, trees, rounds, paths,
                                                      args.lga_stream_changed)
            print(json.dumps({"config": config, "times": times, "peaks": peaks,
                              "gaps": gaps, "lga_sums": lga_sums}), flush=True)


def report(config: str, path: str, by_order, peaks, compared: str) -> None:
    """One line: the pooled median paired ratio, the median per import order,
    each tree's traced peak, and how the outputs compared (``compared``)."""
    base_t = [t for times in by_order.values() for t in times["base"]]
    change_t = [t for times in by_order.values() for t in times["change"]]
    ratios = [c / b for b, c in zip(base_t, change_t)]
    per_order = ", ".join(
        f"{first} imported first {statistics.median(c / b for b, c in zip(t['base'], t['change'])):.3f}"
        for first, t in by_order.items())
    print(f"{Path(config).stem} {path}: median ratio change/base "
          f"{statistics.median(ratios):.3f} ({per_order}), change faster "
          f"{sum(c < b for b, c in zip(base_t, change_t))}/{len(ratios)}, median ms "
          f"base {1e3 * statistics.median(base_t):.3f} change "
          f"{1e3 * statistics.median(change_t):.3f}; traced peak kB base "
          f"{max(p['base'] for p in peaks) / 1e3:.1f} change "
          f"{max(p['change'] for p in peaks) / 1e3:.1f}; {compared}", flush=True)


def outcome(gap, lga_sums) -> str:
    """How a path's outputs compared: bit for bit, by the largest relative
    gamma difference ``gap``, or, given each tree's [sum, count] of gammas,
    each tree against ``system.snr``."""
    if lga_sums is not None:
        mean_db = {name: 10.0 * math.log10(total / count)
                   for name, (total, count) in lga_sums.items()}
        return (f"stream changed: every gamma equals system.snr of its tree's own "
                f"phases and beam; mean SNR base {mean_db['base']:.3f} dB change "
                f"{mean_db['change']:.3f} dB")
    if gap is not None:
        return (f"phases, beams and stream equal in every round, largest relative "
                f"gamma difference {gap:.3g}")
    return "bits equal in every round"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="base checkout")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="changed checkout (default: this one)")
    parser.add_argument("--rounds", type=int, default=30, help="rounds per config")
    parser.add_argument("--paper", action="store_true",
                        help=f"also run {PAPER_CONFIG} (paper scale, slow)")
    parser.add_argument("--paths", default=",".join(PATHS),
                        help=f"comma-separated subset of {','.join(PATHS)}")
    parser.add_argument("--lga-stream-changed", action="store_true",
                        help="lga draws other strings: check each tree's gammas "
                             "against system.snr instead of comparing the trees")
    parser.add_argument("--child", help=argparse.SUPPRESS)  # FIRST:START:STOP
    args = parser.parse_args()
    paths = [p for p in args.paths.split(",") if p]
    if not paths or not set(paths) <= set(PATHS) or args.rounds < 1:
        parser.error(f"--paths takes a subset of {','.join(PATHS)}; --rounds >= 1")
    if args.lga_stream_changed and "lga_eval" in paths:
        parser.error("lga_eval compares gammas bit for bit; it cannot run with "
                     "--lga-stream-changed (name the other paths with --paths)")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.child:
        first, start, stop = args.child.split(":")
        child(args, paths, first, range(int(start), int(stop)))
        return 0
    # where a tree's code and data land in memory moves its timings by a few
    # percent, so half the rounds run in a process that imports the base first
    # and half in one that imports the change first
    half = (args.rounds + 1) // 2
    pooled, peaks, gaps, lga_sums = {}, {}, {}, {}
    for first, start, stop in (("base", 0, half), ("change", half, args.rounds)):
        if start == stop:
            continue
        run = subprocess.run([sys.executable, __file__, *sys.argv[1:],
                              "--child", f"{first}:{start}:{stop}"],
                             capture_output=True, text=True)
        if run.returncode:
            sys.stderr.write(run.stderr)
            return 1
        for line in run.stdout.splitlines():
            record = json.loads(line)
            for path, times in record["times"].items():
                pooled.setdefault((record["config"], path), {})[first] = times
                peaks.setdefault((record["config"], path), []).append(
                    record["peaks"][path])
            for path, gap in record["gaps"].items():
                key = (record["config"], path)
                gaps[key] = max(gaps.get(key, 0.0), gap)
            for name, (total, count) in (record["lga_sums"] or {}).items():
                pooled_sums = lga_sums.setdefault(record["config"], {}).setdefault(
                    name, [0.0, 0])
                pooled_sums[0] += total
                pooled_sums[1] += count
    for (config, path), by_order in pooled.items():
        sums = lga_sums.get(config) if path == "lga" else None
        report(config, path, by_order, peaks[(config, path)],
               outcome(gaps.get((config, path)), sums))
    return 0


if __name__ == "__main__":
    sys.exit(main())
