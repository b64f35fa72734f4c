"""The benchmark's --smoke run: it drives the harness the way a timed run does."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
