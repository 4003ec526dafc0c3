"""Smoke test for the scripts: each runs in a fresh interpreter against the
package source and exits 0, so a change to gdom's API cannot break one
unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("torture_soundness.py", ["--budget", "5"], "0 violations"),
        ("survey_small_pairs.py", ["--max-n", "4"], "connected graphs up to 4 vertices"),
        ("hunt_hinge_counterexample.py", ["--trials", "50"], "50/50 checked trials"),
        ("relate_digest.py", ["--seed", "1", "--pairs", "24"], "24 pairs, seed 1: sha256 "),
        ("count_digest.py", ["--seed", "1", "--pairs", "24"], "24 pairs, seed 1: "),
    ],
)
def test_script_runs(script, args, expect, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout
