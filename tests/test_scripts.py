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
        ("code_digest.py", ["--seed", "1", "--pairs", "24", "--max-n", "6"], "24 pairs, seed 1, transitive up to 6: "),
        ("hunt_digest.py", ["--seed", "2024", "--trials", "1000"], "1000 trials, seed 2024: sha256 bb7a0fee"),
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


def _relate_digest(monkeypatch, pairs):
    """The ``relate_digest.py`` module, its argv set to seed 1 and ``pairs``."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("relate_digest", ROOT / "scripts" / "relate_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["relate_digest.py", "--seed", "1", "--pairs", str(pairs)])
    return script


def test_relate_digest_pins_both_lines(monkeypatch, capsys):
    assert _relate_digest(monkeypatch, 24).main() == 0
    assert capsys.readouterr().out == (
        "24 pairs, seed 1: sha256 1f35dee80ab0b48acc61069310f6e007f6e9eca755e7a7e0f431ce6b47c9fb68\n"
        "24 pairs, seed 1: verdicts sha256 63061a30dc9b33c06b322bc22a8ae41bb0220e540a982b9cf3238f09778840dd,"
        " 82 certificates verify\n"
    )


def test_relate_digest_exits_1_on_a_certificate_that_does_not_verify(monkeypatch, capsys):
    script = _relate_digest(monkeypatch, 3)
    monkeypatch.setattr(script, "verify_certificate", lambda g, h, cert: cert.relation != "domination")
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert "3 pairs, seed 1: verdicts sha256 " in out
    assert "pair 0: relate domination certificate does not verify" in err
