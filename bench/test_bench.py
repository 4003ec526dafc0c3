"""Traced runs repeat exactly: same seed, same per-layer counts and verdicts.

    python3 -m pytest bench/test_bench.py

Each run is a fresh worker process, as in the benchmark itself.  Times
(metrics ending in ``_s``) differ from run to run; every other per-layer
metric is a count or a ratio of counts and must not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import tail_latency  # noqa: E402

SIZES = {"cli_pairs": 60, "tutte_hunt": 12, "hinge_hunt": 300}


def _worker(workload: str, n_ops: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload]
    argv += ["--seed", "7", "--ops", str(n_ops), "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(report: dict) -> dict:
    return {k: v for k, v in report["layers"].items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_traced_counts_and_digest_repeat(workload):
    first, second = (_worker(workload, SIZES[workload], trace=1) for _ in range(2))
    assert first["failed"] == second["failed"] == 0, first["failures"]
    assert first["digest"] == second["digest"]
    assert _counts(first) == _counts(second)
    assert any(_counts(first).values())


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_tracing_does_not_change_verdicts(workload):
    traced, plain = (_worker(workload, SIZES[workload], trace=t) for t in (1, 0))
    assert plain["layers"] is None
    assert traced["digest"] == plain["digest"]


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = list(range(1000))
    assert tail_latency(lat) == (99, 989)  # 10 values above the p99 rank
    assert tail_latency(lat[:999]) == (95, 949)
    assert tail_latency(lat[:5]) == (50, 2)
