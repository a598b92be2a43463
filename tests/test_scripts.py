"""Smoke tests of the scripts the README points to: each runs and prints its summary."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, summary",
    [
        ("run_transfer_benchmark.py", ["--seeds", "1", "--iters", "30", "--probe-t", "10"],
         "gap per seed"),
        ("run_moons_demo.py", ["--iters", "30"], "T      src_acc"),
    ],
)
def test_script_runs_and_prints_summary(script, args, summary):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert summary in result.stdout
