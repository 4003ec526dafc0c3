"""One fresh benchmark process: set up a workload, time its ops, gate, report.

Started by ``run.py``; prints one JSON object as its last stdout line.
``--mode setup`` stops after set-up and reports only the clock stamp at
which the first op would start, so the parent can time set-up from spawn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# standard percentiles for the tail; the highest with >= 10 ops beyond it is reported
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest ladder percentile with >= 10 ops beyond it;
    the median when there are too few ops for any."""
    data = sorted(latencies)
    n = len(data)
    best = (50, statistics.median(data))
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            best = (pct, data[rank - 1])
    return best


def _import_gdom():
    sys.path.insert(0, SRC)
    import gdom.cli  # noqa: F401  (loads every layer)

    here = os.path.dirname(os.path.abspath(gdom.__file__))
    if here != os.path.join(SRC, "gdom"):
        raise ImportError(f"gdom was imported from {here}, not from {SRC}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _import_gdom()
    import layers
    from speed import OpClock, kernel_time
    from workloads import UNDECIDED, WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        state = wl.setup(args.seed, args.ops, workdir)
        ready = time.perf_counter()
        kernel_s = kernel_time()
        if args.mode == "setup":
            print(json.dumps({"ready": ready, "kernel_s": kernel_s}))
            return 0
        tracer = layers.install() if args.trace else None
        clock = OpClock()
        t0 = time.perf_counter()
        ops = wl.run(state, clock)
        elapsed = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layer_metrics = tracer.metrics() if tracer else None
        wl.gate(state, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = [op.latency_s for op in ops]
    scaled = [lat * k for lat, k in zip(wall, clock.scales([op.start for op in ops]))]
    tail_pct, tail = tail_latency(scaled)
    verdicts = "\n".join(op.verdict for op in ops)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "ready": ready,
        "kernel_s": kernel_s,
        "elapsed_s": elapsed,
        "busy_s": sum(wall),
        "speed": clock.speed(),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "undecided": sum(op.verdict in UNDECIDED for op in ops),
        "ops_per_s": len(ops) / sum(scaled),
        "op_p50_ms": 1000 * statistics.median(scaled),
        "op_tail_ms": 1000 * tail,
        "tail_pct": tail_pct,
        "wall_ops_per_s": len(ops) / sum(wall),
        "wall_op_p50_ms": 1000 * statistics.median(wall),
        "wall_op_tail_ms": 1000 * tail_latency(wall)[1],
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(verdicts.encode()).hexdigest()[:16],
        "verdicts": dict(Counter(op.verdict for op in ops).most_common()),
        "failures": [f"op {i}: {op.note}" for i, op in enumerate(ops) if op.failed][:5],
        "layers": layer_metrics,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
