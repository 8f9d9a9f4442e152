"""Tests of the benchmark itself, at toy sizes (``--scale``).

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SCALE = "0.1"

sys.path.insert(0, str(BENCH))
from spans import Patch, Tracer, self_times, summarize  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, timeout=300):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--scale", SCALE)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    info = json.loads(done.stdout.strip().splitlines()[-2])
    assert info["provenance"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert info["provenance"]["seed"] == 3


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()))
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text(encoding="utf-8"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk_single",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path,
                          check=False)
    assert done.returncode != 0
    assert done.stdout == ""


_TRACED_RUN = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, {bench!r})
    from workloads import WORKLOADS, bootstrap
    evoris = bootstrap()
    import run, spans
    mods = [getattr(evoris, m) for m in ("channel", "numerics", "policy", "system",
            "cosyne", "multiris", "baselines", "harness")]
    before = {{(m.__name__, k): v for m in mods for k, v in vars(m).items()}}
    bench = run.Bench(evoris, WORKLOADS[{workload!r}], 5, 0.3, {scale})
    bench.run_traced()
    after = {{(m.__name__, k): v for m in mods for k, v in vars(m).items()}}
    changed = sorted(k for k in before if after.get(k) is not before[k])
    changed += sorted(k for k in after if k not in before)
    own = spans.self_times(bench.spans)
    worst = max(own[i] - (end - start)
                for i, (_, _, start, end) in enumerate(bench.spans))
    over = [i for i, (_, parent, _, _) in enumerate(bench.spans)
            if parent >= 0 and own[i] > bench.spans[parent][3] - bench.spans[parent][2]]
    outside = [i for i, (_, parent, start, end) in enumerate(bench.spans)
               if parent >= 0 and not (bench.spans[parent][2] <= start <= end
                                       <= bench.spans[parent][3])]
    print(json.dumps({{"changed": changed, "over": len(over), "worst": worst,
                      "outside": len(outside),
                      "n": len(bench.spans), "failed": bench.tally.failed}}))
""")


@pytest.mark.parametrize("workload", ["desk_single", "desk_multi"])
def test_traced_run_restores_the_library_and_nests_spans(workload):
    code = _TRACED_RUN.format(bench=str(BENCH), workload=workload, scale=SCALE)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, cwd=ROOT, check=False)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["changed"] == []
    assert out["n"] > 100 and out["failed"] == 0
    assert out["over"] == 0 and out["outside"] == 0
    assert out["worst"] <= 0.0


def test_tracer_self_time_and_restore():
    mod = types.SimpleNamespace()

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer([Patch(mod, "leaf", "leaf"),
                     Patch(mod, "outer", lambda x: f"outer{x}")])
    tracer.install()
    assert mod.leaf is not leaf
    assert mod.outer(1) == 4
    tracer.remove()
    assert mod.leaf is leaf and mod.outer is outer
    assert [s[0] for s in tracer.spans] == ["outer1", "leaf", "leaf"]
    assert [s[1] for s in tracer.spans] == [-1, 0, 0]
    own = self_times(tracer.spans)
    outer_span = tracer.spans[0]
    assert 0 <= own[0] <= outer_span[3] - outer_span[2]
    assert summarize(tracer.spans)["leaf"][0] == 2


def test_tracer_closes_spans_on_error():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer([Patch(mod, "boom", "boom")])
    tracer.install()
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    tracer.remove()
    assert tracer.spans[0][0] == "boom" and tracer.spans[0][3] >= tracer.spans[0][2]
