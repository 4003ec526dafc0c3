"""Smoke test for the scripts: each runs in a fresh interpreter against the
package source and exits 0, so a change to gdom's API cannot break one
unnoticed.  Each ``digest.py`` subcommand prints its digest lines in full,
so a change to what gdom computes on them shows here too."""

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
        pytest.param(
            "digest.py",
            ["relate", "--seed", "1", "--pairs", "24"],
            "24 pairs, seed 1: sha256 1f35dee80ab0b48acc61069310f6e007f6e9eca755e7a7e0f431ce6b47c9fb68\n",
            id="digest.py-relate",
        ),
        pytest.param(
            "digest.py",
            ["count", "--seed", "1", "--pairs", "24"],
            "24 pairs, seed 1: 39 graphs, sha256 c09b3c32531011a841387e1c180560a8a2769c0dbdf4fea781ce317d9b24a1fa\n",
            id="digest.py-count",
        ),
        pytest.param(
            "digest.py",
            ["code", "--seed", "1", "--pairs", "24", "--max-n", "6"],
            "24 pairs, seed 1, transitive up to 6: 50 graphs,"
            " sha256 b6318bace4149bfa02376a05ca45c3b35160a0fb5c66b71b630dc4f69126f72c\n",
            id="digest.py-code",
        ),
        pytest.param(
            "digest.py",
            ["hunt", "--seed", "2024", "--trials", "1000"],
            "1000 trials, seed 2024: sha256 bb7a0fee5946242ecf814ccb6e4cd824e39c75fb4dd6be813ed11f0506c094ae,"
            " 3 violations\nverdicts: holds 991, inconclusive 6, violated 3\n",
            id="digest.py-hunt",
        ),
        pytest.param(
            "digest.py",
            ["checks", "--seed", "1", "--trials", "5"],
            "5 trials, seed 1: 270 reports,"
            " sha256 aa02634dfe8dd17d9e9c179d5af52d07961a4fe09cd5c88439aa413208f62d96\n",
            id="digest.py-checks",
        ),
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


def _digest():
    """The ``scripts/digest.py`` module, loaded without running it."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("digest", ROOT / "scripts" / "digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_relate_digest_pins_its_three_lines(capsys):
    assert _digest().main(["relate", "--seed", "1", "--pairs", "24"]) == 0
    assert capsys.readouterr().out == (
        "24 pairs, seed 1: sha256 1f35dee80ab0b48acc61069310f6e007f6e9eca755e7a7e0f431ce6b47c9fb68\n"
        "24 pairs, seed 1: verdicts sha256 63061a30dc9b33c06b322bc22a8ae41bb0220e540a982b9cf3238f09778840dd,"
        " 82 certificates verify\n"
        "24 pairs, seed 1: run log sha256 357a951a026f5285ec053294471abeabea2895d166c108605c9a19fa18b5609e,"
        " 48 records\n"
    )


def test_relate_digest_exits_1_on_a_certificate_that_does_not_verify(monkeypatch, capsys):
    script = _digest()
    monkeypatch.setattr(script, "verify_certificate", lambda g, h, cert: cert.relation != "domination")
    assert script.main(["relate", "--seed", "1", "--pairs", "3"]) == 1
    out, err = capsys.readouterr()
    assert "3 pairs, seed 1: verdicts sha256 " in out
    assert "pair 0: relate domination certificate does not verify" in err
