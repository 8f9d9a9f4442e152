"""Smoke test: ``tools/ab.py`` times this checkout against itself in fresh processes."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIGS = ("single_ris_desk", "multi_ris_desk")


@pytest.mark.parametrize("flags", [[], ["--lga-stream-changed"]],
                         ids=["same-stream", "stream-changed"])
def test_ab_runs_the_lga_path(flags):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--base",
                           str(ROOT), "--rounds", "2", "--paths", "lga", *flags],
                          cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [[c, "lga:"] for c in DESK_CONFIGS]
