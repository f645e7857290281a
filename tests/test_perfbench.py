"""The benchmark harness still fits the package it measures."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # The tracer wraps lctkit functions by name, so a renamed or deleted
    # traced function fails here rather than in a traced benchmark run.
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "perfbench self-test: ok" in result.stdout
