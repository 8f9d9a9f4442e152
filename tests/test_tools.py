"""Smoke tests: ``tools/ab.py`` times this checkout against itself in fresh
processes, and ``tools/exactness.py`` digests its runs."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIGS = ("single_ris_desk", "multi_ris_desk")


def run_ab(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--base",
                           str(ROOT), "--rounds", "2", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=False)


@pytest.mark.parametrize("path, flags", [("lga", []), ("lga", ["--lga-stream-changed"]),
                                         ("lga_eval", [])],
                         ids=["same-stream", "stream-changed", "evaluate-policy"])
def test_ab_runs_the_lga_path(path, flags):
    done = run_ab("--paths", path, *flags)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [[c, f"{path}:"] for c in DESK_CONFIGS]
    if path == "lga_eval":
        # the per-episode gammas are compared bit for bit, and each tree's
        # traced peak is reported
        assert all("bits equal in every round" in line for line in lines)
        assert all(re.search(r"traced peak kB base \d+\.\d change \d+\.\d", line)
                   for line in lines)


def test_ab_refuses_lga_eval_with_a_changed_stream():
    done = run_ab("--paths", "lga_eval", "--lga-stream-changed")
    assert done.returncode == 2
    assert "lga_eval compares gammas bit for bit" in done.stderr


def test_ab_runs_the_policy_paths():
    # ``sample`` compares every channel array and the stream's end state
    paths = ("train", "eval", "decide", "sample")
    done = run_ab("--paths", ",".join(paths))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [[c, f"{p}:"] for c in DESK_CONFIGS
                                                    for p in paths]
    assert all(line.endswith("bits equal in every round") for line in lines)


def test_exactness_prints_33_digests_and_exits_0():
    # the exit status also checks that the 2-worker run equals the one-process
    # run and that the stacked paper LGA equals one-block calls
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "exactness.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 33
    assert all(re.fullmatch(r"\S+ \S+ [0-9a-f]{64}", line) for line in lines), lines
