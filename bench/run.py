"""evoris benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload desk_single --seed 0 --seconds 10 --trace 0

A run trains the workload's policy for a fixed number of generations
(closed loop, one caller).  Between generations, outside their timed spans,
it times per-block decisions, harness evaluation and the per-block genetic
baseline for ``--seconds`` in all, then repeats the checks with the final
genome, and finally times set-up in fresh processes.
Every output is checked; failed checks count into ``failed`` instead of
stopping the run.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs the same pipeline with every layer's public functions
wrapped from the outside (fitness on one worker, tracing on every other
generation) and reports per-layer calls, self time and computed counts.
The last stdout line is the result; the line before it holds provenance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path

from workloads import ROOT, THREAD_VARS, WORKLOADS, BenchError, bootstrap, build

MIN_DECISIONS = 1000
DECIDE_CHUNK = 100          # blocks per timing unit of decisions
SNR_CHECK_EVERY = 10
SNR_RTOL = 1e-10
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s", "gen_s_mean": "s", "decide_ms_mean": "ms",
    "eval_blocks_per_s": "1/s", "lga_blocks_per_s": "1/s", "peak_rss_mb": "MB",
}

SPAN_LABELS = (
    "channel.sample", "policy.forward", "policy.attention_tx_ris",
    "policy.attention_ris_rx", "policy.attention_direct",
    "numerics.softmax_global", "numerics.conv2d_same", "policy.merge",
    "policy.cnn", "policy.phase_head", "policy.precoder_head", "system.snr",
    "cosyne.fitness", "cosyne.genome_hash", "cosyne.crossover", "cosyne.mutate",
    "cosyne.column_shuffle", "cosyne.evolve", "multiris.agent_act",
    "multiris.aggregate", "baselines.lga", "baselines.random", "baselines.oracle",
    "harness.evaluate_policy",
)
COMPUTED_LAYERS = (
    "policy.forward", "policy.attention_tx_ris", "policy.attention_ris_rx",
    "policy.attention_direct", "policy.merge", "numerics.conv2d_same",
    "policy.phase_head", "policy.precoder_head",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for label in SPAN_LABELS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.busy_s"] = "s"
    units.update({
        "baselines.lga.evals": "count",
        "cosyne.pool.starts": "count", "cosyne.pool.map_s": "s",
        "cosyne.pool.wait_s": "s",
        "trace.gen_s_p50": "s", "trace.untraced_gen_s_p50": "s",
        "trace.overhead_s": "s",
        "cosyne.population.bytes": "B", "cosyne.pool.ctx_bytes": "B",
        "cosyne.column_shuffle.moved_frac": "1", "snr_gain_db": "dB",
    })
    for layer in COMPUTED_LAYERS:
        units[f"{layer}.flops"] = "flop"
        units[f"{layer}.bytes"] = "B"
    return units


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)


@contextmanager
def patched(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


class Bench:
    def __init__(self, evoris, workload, seed, seconds, scale):
        import numpy as np
        self.np = np
        self.ev = evoris
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.setup = build(workload, seed, scale=scale)
        self.tally = Tally()
        self.info: dict = {}
        self.learned = False
        self._first_pass: dict = {}

    # -- training -----------------------------------------------------------

    def train(self, workers, gen_start=None, between=None, generations=None):
        """cosyne.train with every row's fitness checked finite and >= 0.

        ``gen_start`` wraps the episode sampling that opens each generation,
        inside its timed span.  ``between(genome)`` runs after each
        generation with the best genome so far, outside the timed span: it
        replaces the per-generation checkpoint write, which cosyne.train
        makes only when it has an output directory."""
        cosyne, s = self.ev.cosyne, self.setup
        np, tally = self.np, self.tally
        evo = s.evo if generations is None else replace(s.evo, generations=generations)

        def checked(original):
            def evaluate_population(pop, fitness_fn, map_fn=None):
                original(pop, fitness_fn, map_fn)
                for f in pop.fitness:
                    tally.op(bool(np.isfinite(f) and f >= 0),
                             f"generation {pop.generation} fitness {f!r}")
            return evaluate_population

        def save_genome(path, values, *_cfgs):
            if Path(path).parent.name == "checkpoints":
                between(values)

        with ExitStack() as stack:
            stack.enter_context(patched(cosyne, "evaluate_population",
                                        checked(cosyne.evaluate_population)))
            if gen_start is not None:
                stack.enter_context(patched(cosyne, "sample_episodes",
                                            gen_start(cosyne.sample_episodes)))
            out_dir = None
            if between is not None:
                out_dir = stack.enter_context(tempfile.TemporaryDirectory(
                    prefix=".train-", dir=ROOT / "bench"))
                stack.enter_context(patched(cosyne, "save_genome", save_genome))
            return cosyne.train(s.train_scenario, s.policy_cfg, evo, s.train_seed,
                                agg_cfg=s.agg_cfg, out_dir=out_dir, workers=workers)

    # -- decisions ----------------------------------------------------------

    def eval_blocks(self):
        ev, cfg = self.ev, self.setup.eval_cfg
        episodes = ev.channel.sample_episodes(
            cfg.scenario, cfg.eval_episodes, cfg.scenario.horizon,
            ev.numerics.derive_rng(cfg.seed, "eval", "channels"))
        return [cs for episode in episodes for cs in episode]

    def decider(self, genome):
        """Argmax action for one block through the public policy API."""
        ev, s = self.ev, self.setup
        arch, agg = s.policy_cfg, s.agg_cfg
        if agg is None:
            def decide(cs):
                out = ev.policy.forward(genome, arch, cs.h, cs.h1_list[0],
                                        cs.h2_list[0], mode="argmax")
                return [out.phases], out.precoder_index
            return decide
        g14, g5 = ev.multiris.split_joint_genome(genome, arch, agg)

        def decide(cs):
            acts = [ev.multiris.agent_act(g14, arch, cs.h, h1, h2)
                    for h1, h2 in zip(cs.h1_list, cs.h2_list)]
            idx, _ = ev.multiris.aggregate_precoder(g5, agg, [v for _, v in acts],
                                                    None, "argmax")
            return [phases for phases, _ in acts], idx
        return decide

    def independent_snr(self, cs, phase_list, idx):
        """P/sigma^2 |(conj h + sum_k conj(H1_k) (c_k o conj h2_k)) . v|^2, with
        binary phase -1 reflecting as +1 and +1 as -1, v the idx-th DFT beam.

        Returns (snr, scale) where scale is the same expression with |.| taken
        per term before summing: a beam orthogonal to the line-of-sight array
        response sums to pure rounding noise, so agreement is judged relative
        to the size of the terms, not to their cancelled sum."""
        np, scn = self.np, self.setup.eval_cfg.scenario
        m = np.conj(cs.h).astype(np.complex128)
        for h1, h2, ph in zip(cs.h1_list, cs.h2_list, phase_list):
            m = m + np.conj(h1) @ (-np.asarray(ph, dtype=np.float64) * np.conj(h2))
        n = np.arange(scn.n_tx)
        v = np.exp(-2j * np.pi * n * idx / scn.n_tx) / math.sqrt(scn.n_tx)
        p_over_n = 10.0 ** ((scn.tx_power_dbm - scn.noise_dbm) / 10.0)
        return (p_over_n * abs(np.sum(m * v)) ** 2,
                p_over_n * float(np.sum(np.abs(m * v))) ** 2)

    def check_action(self, cs, phase_list, idx, with_snr):
        np, s = self.np, self.setup
        n_ris = s.eval_cfg.scenario.n_ris
        ok = len(phase_list) == cs.ris_count and all(
            np.shape(ph) == (n_ris,) and bool(np.all(np.isin(ph, (-1.0, 1.0))))
            for ph in phase_list)
        self.tally.op(ok, "phases outside {-1,+1} or of the wrong length")
        self.tally.op(isinstance(idx, int) and 0 <= idx < s.policy_cfg.codebook_size,
                      f"precoder index {idx!r} out of range")
        if with_snr and ok:
            ev, scn = self.ev, s.eval_cfg.scenario
            codebook = ev.system.evaluation_codebook(scn, s.policy_cfg.codebook_size)
            phases = phase_list[0] if cs.ris_count == 1 else phase_list
            got = ev.system.snr(cs, phases, codebook[:, idx],
                                ev.system.link_budget_from(scn))
            want, scale = self.independent_snr(cs, phase_list, idx)
            self.tally.op(abs(got - want) <= SNR_RTOL * scale,
                          f"snr {got!r} != independent {want!r}")

    def decision_pass(self, decide, blocks, check):
        """Time one argmax decision per block; returns the latencies."""
        clock = time.perf_counter
        latencies = []
        for i, cs in enumerate(blocks):
            t0 = clock()
            try:
                phase_list, idx = decide(cs)
            except Exception as exc:  # counted as a failed decision
                self.tally.op(False, f"decision raised {exc!r}")
                continue
            latencies.append(clock() - t0)
            if check:
                self.check_action(cs, phase_list, idx, i % SNR_CHECK_EVERY == 0)
        return latencies

    # -- harness evaluation -------------------------------------------------

    def eval_pass(self, cfg, genome=None):
        """One harness.evaluate_policy pass; returns (seconds, gammas).  Every
        pass must give finite nonnegative gammas, equal to those of the first
        pass with the same genome."""
        np, s = self.np, self.setup
        t0 = time.perf_counter()
        per_episode, _ = self.ev.harness.evaluate_policy(cfg, genome, s.policy_cfg,
                                                         s.agg_cfg)
        seconds = time.perf_counter() - t0
        gammas = np.concatenate(per_episode)
        self.tally.op(bool(np.all(np.isfinite(gammas)) and np.all(gammas >= 0)),
                      f"{cfg.policy} gammas not finite and nonnegative")
        key = (cfg.policy, cfg.eval_episodes)
        first = self._first_pass.get(key)
        if first is not None and (genome is None or np.array_equal(genome, first[0])):
            self.tally.op(bool(np.array_equal(gammas, first[1])),
                          f"{cfg.policy} evaluation not repeatable on one seed")
        else:
            self._first_pass[key] = (genome, gammas)
        return seconds, gammas

    # -- set-up -------------------------------------------------------------

    def setup_times(self):
        samples = []
        probe = str(ROOT / "bench" / "setup_probe.py")
        for _ in range(max(1, round(self.workload.setup_probes * min(1.0, 2 * self.scale)))):
            t0 = time.monotonic()
            done = subprocess.run(
                [sys.executable, probe, self.workload.name, str(self.seed),
                 repr(self.scale)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
            if done.returncode != 0:
                raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
            samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
        self.info["setup_samples_s"] = samples
        return statistics.median(samples)

    # -- the run ------------------------------------------------------------

    def run_untraced(self):
        """Timing units run between generations, ``seconds`` spread evenly
        over the gaps, so every metric samples the whole run and a slow
        spell on the host weighs on all of them alike."""
        timings = Timings(self)
        gaps = []

        def between(genome):
            gaps.append(genome)
            timings.use(genome)
            timings.run_until(self.seconds * len(gaps) / self.setup.evo.generations)

        result = self.train(self.workload.workers, between=between)
        gen_times = [h["wall_time"] for h in result.history]
        self.info["gen_s"] = gen_times
        self.info["children_peak_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
        return dict(timings.finish(result.best_genome),
                    setup_s=self.setup_times(), gen_s_mean=statistics.fmean(gen_times),
                    peak_rss_mb=_rss_mb(resource.RUSAGE_SELF))

    def gain_db(self, trained, random_gammas):
        np = self.np
        t_db = 10.0 * math.log10(float(np.mean(trained)))
        r_db = 10.0 * math.log10(float(np.mean(random_gammas)))
        gain = t_db - r_db
        floor = self.workload.gain_floor_db
        self.info.update(snr_trained_db=t_db, snr_random_db=r_db,
                         snr_gain_db=gain, snr_gain_floor_db=floor,
                         snr_gain_reference="criterion 6: >= 3 dB over random at "
                                            "the stock desk config")
        self.learned = gain >= floor

    def run_traced(self):
        from counts import forward_counts, population_bytes
        from spans import summarize

        np, ev, s, w = self.np, self.ev, self.setup, self.workload
        stats = {"lga_evals": 0, "moved": 0, "shuffled": 0, "ctx_bytes": 0}
        tracer = make_tracer(ev, np, s.policy_cfg, stats)
        originals = {(id(p.module), p.attr): getattr(p.module, p.attr)
                     for p in tracer.patches}

        gen_marks = []

        def gen_start(original):
            def sample_episodes(*args, **kwargs):
                if tracer.installed:
                    tracer.remove()
                if len(gen_marks) % 2 == 0:
                    tracer.install()
                gen_marks.append(len(tracer.spans))
                return original(*args, **kwargs)
            return sample_episodes

        try:
            result = self.train(1, gen_start)
            if tracer.installed:
                tracer.remove()
            gen_marks.append(len(tracer.spans))
            gen_times = [h["wall_time"] for h in result.history]
            n_oracle = max(1, round(w.oracle_blocks * self.scale)) \
                if w.oracle_blocks else 0
            oracle_blocks = self.eval_blocks()[:n_oracle]
            tracer.install()
            timings = Timings(self)
            timings.use(result.best_genome)
            timings.run_until(self.seconds)
            timings.finish(result.best_genome)
            codebook = ev.system.evaluation_codebook(s.eval_cfg.scenario,
                                                     s.policy_cfg.codebook_size)
            budget = ev.system.link_budget_from(s.eval_cfg.scenario)
            for cs in oracle_blocks:
                ev.baselines.exhaustive_oracle(cs, budget, codebook,
                                               cap=s.eval_cfg.oracle_cap)
        finally:
            tracer.remove()
        self.tally.op(all(getattr(p.module, p.attr) is originals[(id(p.module), p.attr)]
                          for p in tracer.patches),
                      "a traced wrapper was left installed")

        pool = {"starts": 0, "map_s": 0.0, "wait_s": 0.0}
        if w.workers > 1:
            pool = self.pool_probe(tracer.spans, gen_marks[0], gen_marks[1])

        traced = [t for i, t in enumerate(gen_times) if i % 2 == 0]
        untraced = [t for i, t in enumerate(gen_times) if i % 2 == 1]
        metrics = {}
        summary = summarize(tracer.spans)
        for label in SPAN_LABELS:
            calls, busy = summary.get(label, (0, 0.0))
            metrics[f"{label}.calls"] = calls
            metrics[f"{label}.busy_s"] = busy
        metrics.update({
            "baselines.lga.evals": stats["lga_evals"],
            "cosyne.pool.starts": pool["starts"], "cosyne.pool.map_s": pool["map_s"],
            "cosyne.pool.wait_s": pool["wait_s"],
            "trace.gen_s_p50": statistics.median(traced),
            "trace.untraced_gen_s_p50": statistics.median(untraced),
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
            "cosyne.population.bytes": population_bytes(
                s.evo.l_pop, s.policy_cfg.genome_size +
                (s.agg_cfg.genome_size if s.agg_cfg else 0)),
            "cosyne.pool.ctx_bytes": stats["ctx_bytes"],
            "cosyne.column_shuffle.moved_frac":
                stats["moved"] / stats["shuffled"] if stats["shuffled"] else 0.0,
            "snr_gain_db": self.info["snr_gain_db"],
        })
        for layer, (flops, nbytes) in forward_counts(s.policy_cfg).items():
            metrics[f"{layer}.flops"] = flops
            metrics[f"{layer}.bytes"] = nbytes
        self.info.update(gen_s=gen_times, spans=len(tracer.spans),
                         computed=[f"{layer}.{k}" for layer in COMPUTED_LAYERS
                                   for k in ("flops", "bytes")] +
                         ["cosyne.population.bytes", "cosyne.pool.ctx_bytes",
                          "cosyne.column_shuffle.moved_frac"])
        self.spans = tracer.spans
        return metrics

    def pool_probe(self, spans, gen0_start, gen0_end):
        """Re-run generation 0 through the process pool with only the pool
        instrumented.  Wait time is map wall minus the fitness work the
        traced single-worker generation 0 did, divided by the workers."""
        cosyne, workers = self.ev.cosyne, self.workload.workers
        pool = {"starts": 0, "map_s": 0.0}
        base = cosyne.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                pool["starts"] += 1
                super().__init__(*args, **kwargs)

            def map(self, *args, **kwargs):
                self._map_t0 = time.perf_counter()
                return super().map(*args, **kwargs)

            def __exit__(self, *exc):
                pool["map_s"] += time.perf_counter() - self._map_t0
                return super().__exit__(*exc)

        with patched(cosyne, "ProcessPoolExecutor", CountingPool):
            self.train(workers, generations=1)
        busy = sum(end - start for name, _, start, end in spans[gen0_start:gen0_end]
                   if name in ("cosyne.fitness", "cosyne.genome_hash"))
        pool["wait_s"] = pool["map_s"] - busy / workers
        return pool


class Timings:
    """Decision chunks, trained-policy eval passes and LGA passes, one unit
    at a time, each unit going to whichever has used the least time.  The
    evaluation units cover the first quarter of the eval block's episodes,
    so they are short enough to sample the host's speed spells finely."""

    def __init__(self, bench):
        self.bench = bench
        self.blocks = bench.eval_blocks()
        self.eval_cfg = bench.setup.eval_cfg
        self.unit_cfg = replace(self.eval_cfg,
                                eval_episodes=max(1, self.eval_cfg.eval_episodes // 4))
        self.lga_cfg = replace(self.unit_cfg, policy="lga")
        self.spent = {"decide": 0.0, "eval": 0.0, "lga": 0.0}
        self.latencies: list[float] = []
        self.evals: list = []
        self.lgas: list = []
        self.genome = self.decide = None
        self.next_block = 0

    def use(self, genome):
        self.genome = genome
        self.decide = self.bench.decider(genome)

    def run_until(self, seconds):
        while sum(self.spent.values()) < seconds:
            phase = min(self.spent, key=self.spent.get)
            t0 = time.perf_counter()
            if phase == "decide":
                i = self.next_block
                self.next_block = (i + DECIDE_CHUNK) % len(self.blocks)
                self.latencies += self.bench.decision_pass(
                    self.decide, self.blocks[i:i + DECIDE_CHUNK], check=False)
            elif phase == "eval":
                self.evals.append(self.bench.eval_pass(self.unit_cfg, self.genome))
            else:
                self.lgas.append(self.bench.eval_pass(self.lga_cfg))
            self.spent[phase] += time.perf_counter() - t0

    def finish(self, genome):
        """With the final genome: a checked decision pass over every block,
        two eval passes (repeatability, and the SNR gain over the random
        policy), decisions up to the minimum count; returns the metrics."""
        bench, np = self.bench, self.bench.np
        self.use(genome)
        self.latencies += bench.decision_pass(self.decide, self.blocks, check=True)
        self.evals += [bench.eval_pass(self.eval_cfg, genome) for _ in range(2)]
        if not self.lgas:
            self.lgas.append(bench.eval_pass(self.lga_cfg))
        min_decisions = max(10, round(MIN_DECISIONS * bench.scale))
        while len(self.latencies) < min_decisions:
            more = bench.decision_pass(self.decide, self.blocks, check=False)
            if not more:
                raise BenchError("every decision raised")
            self.latencies += more
        _, random_gammas = bench.eval_pass(replace(self.eval_cfg, policy="random"))
        bench.gain_db(self.evals[-1][1], random_gammas)

        lat_ms = np.asarray(self.latencies) * 1e3
        bench.info.update(decisions=len(lat_ms), eval_passes=len(self.evals),
                          lga_passes=len(self.lgas),
                          decide_ms=dict(zip(("p50", "p90", "p99"),
                                             np.percentile(lat_ms, [50, 90, 99]).tolist())))
        return {
            "decide_ms_mean": float(lat_ms.mean()),
            "eval_blocks_per_s": _rate(self.evals), "lga_blocks_per_s": _rate(self.lgas),
        }


def _rate(passes) -> float:
    return sum(g.size for _, g in passes) / sum(t for t, _ in passes)


def make_tracer(ev, np, arch, stats):
    """Patches at every place the library looks its layers up."""
    from counts import pickled_bytes
    from spans import Patch, Tracer

    def attention_label(tokens, *_args, **_kwargs):
        n, d = np.shape(tokens)
        if d != 2:
            return "policy.attention_tx_ris"
        return "policy.attention_ris_rx" if n == arch.n_ris else "policy.attention_direct"

    def count_lga(result, _args, _kwargs):
        stats["lga_evals"] += result.evaluations

    def count_moved(result, args, _kwargs):
        stats["moved"] += int(np.count_nonzero(result != args[0]))
        stats["shuffled"] += result.size

    def ctx_size(_result, args, _kwargs):
        stats["ctx_bytes"] = max(stats["ctx_bytes"], pickled_bytes(args[0]))

    c, p, m, h = ev.cosyne, ev.policy, ev.multiris, ev.harness
    spec = [
        (ev.channel, "sample_channel_set", "channel.sample", None),
        (p, "forward", "policy.forward", None),
        (c, "forward", "policy.forward", None),
        (m, "forward", "policy.forward", None),
        (p, "attention_branch", attention_label, None),
        (p, "softmax_global", "numerics.softmax_global", None),
        (m, "softmax_global", "numerics.softmax_global", None),
        (p, "conv2d_same", "numerics.conv2d_same", None),
        (p, "merge_branches", "policy.merge", None),
        (p, "cnn_forward", "policy.cnn", None),
        (p, "phase_head", "policy.phase_head", None),
        (p, "precoder_head", "policy.precoder_head", None),
        (c, "snr", "system.snr", None),
        (m, "snr", "system.snr", None),
        (h, "snr", "system.snr", None),
        (c, "evaluate_fitness", "cosyne.fitness", None),
        (m, "evaluate_fitness_multi", "cosyne.fitness", None),
        (c, "_genome_policy_rng", "cosyne.genome_hash", None),
        (c, "_init_worker", "cosyne.init_worker", ctx_size),
        (c, "crossover", "cosyne.crossover", None),
        (c, "mutate", "cosyne.mutate", None),
        (c, "column_shuffle", "cosyne.column_shuffle", count_moved),
        (c, "evolve_generation", "cosyne.evolve", None),
        (m, "agent_act", "multiris.agent_act", None),
        (h, "agent_act", "multiris.agent_act", None),
        (m, "aggregate_precoder", "multiris.aggregate", None),
        (h, "aggregate_precoder", "multiris.aggregate", None),
        (h, "lga_solve", "baselines.lga", count_lga),
        (h, "random_baseline", "baselines.random", None),
        (h, "exhaustive_oracle", "baselines.oracle", None),
        (ev.baselines, "exhaustive_oracle", "baselines.oracle", None),
        (h, "evaluate_policy", "harness.evaluate_policy", None),
    ]
    return Tracer(Patch(*row) for row in spec)


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _steal_s():
    """CPU time the hypervisor gave to other guests so far, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def provenance(np, seed) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10,
                             check=False).stdout.split()
        sha = top[1] if len(top) == 2 and top[0] == str(ROOT) else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "seed": seed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink populations, generations and blocks (tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("--seconds must be > 0 and --scale in (0, 1]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    steal0 = _steal_s()
    try:
        evoris = bootstrap()
        bench = Bench(evoris, WORKLOADS[args.workload], args.seed, args.seconds,
                      args.scale)
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    units = per_layer_units() if args.trace else END_TO_END
    tally = bench.tally
    steal1 = _steal_s()
    info = dict(bench.info, workload=args.workload, fail_frac=tally.failed / tally.attempted,
                failures=tally.reasons, provenance=provenance(bench.np, args.seed),
                host_steal_s=None if steal0 is None else steal1 - steal0)
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0 and bench.learned,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
