"""Smoke run of each benchmark workload against the package in ./src.

The benchmark under ``bench/`` is frozen, so a package change that breaks
what it calls (a name, a signature, an output its checkers read) would only
show when the benchmark runs.  One second of each workload catches that.
"""
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep", "large", "minimality"])
def test_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", "--workload", workload]
        + ["--seed", "1", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
