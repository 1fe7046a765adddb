"""The benchmark's smoke run: every workload at reduced size, traced.

The traced run fails when an expected layer span records no calls, so a
change that routes a layer around the names the benchmark wraps fails
here, not only when the benchmark itself is run.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
