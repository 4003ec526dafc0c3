"""gdom benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

    python3 bench/run.py --workload cli_pairs --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload at its default seed

Every workload runs in fresh single-threaded processes with PYTHONHASHSEED
pinned, one after another.  ``--seconds`` sizes a fixed op list (the same
list for a given seed and length on every commit); the run takes about
that long on a 2-core x86 box at the commit that defined the benchmark.

``--trace 0`` times set-up in several fresh processes and then the ops in
one more; it prints all seven end-to-end metrics and, as its last line,
one JSON object with the gated metrics.  ``--trace 1`` runs the op list
untraced and then traced (see ``layers.py``) and reports the per-layer
metrics and ``trace_overhead_ratio``.  Outputs are gated for correctness
after the clock stops; a failed gate makes the exit code 1.  Run from a
checkout that holds ``src/gdom``; without it the command exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import METRICS as LAYER_METRICS, RESULT_METRICS  # noqa: E402
from speed import REFERENCE_KERNEL_S, kernel_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # set-up-only processes per run; with the measured process, 5 samples
DEADLINE_S = 170  # each workload ends within this, whatever --seconds asks
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def _git_revision() -> str:
    """HEAD of the checkout's own .git, read without running git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(workload: str, seed: int, n_ops: int, mode: str, trace: int, deadline: float) -> dict:
    """Run worker.py once and return its JSON report, with the time from spawn
    to the first op added as ``setup_wall_s`` and, scaled to reference speed by
    the kernel timed just before the spawn and just after set-up, ``setup_s``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--ops", str(n_ops), "--mode", mode, "--trace", str(trace)]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the next process")
    before = kernel_time()
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process exceeded the {DEADLINE_S}s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_wall_s"] = report["ready"] - spawned
    report["setup_s"] = report["setup_wall_s"] * 2 * REFERENCE_KERNEL_S / (before + report["kernel_s"])
    return report


def _summary(rep: dict, setups=None) -> list[str]:
    """All seven end-to-end metrics at reference speed, wall-clock figures beside them."""
    n = rep["attempted"]
    lines = [f"  machine speed    {rep['speed']:.3f} of reference (median over the run)"]
    if setups is not None:
        wall = statistics.median(r["setup_wall_s"] for r in setups)
        lines.append(
            f"  setup_s          {statistics.median(r['setup_s'] for r in setups):.4f} s"
            f"   (wall {wall:.4f} s; median of {len(setups)} fresh processes)"
        )
    lines += [
        f"  ops_per_s        {rep['ops_per_s']:.3f} 1/s   (wall {rep['wall_ops_per_s']:.3f}; {n} ops in {rep['elapsed_s']:.2f} s)",
        f"  op_p50_ms        {rep['op_p50_ms']:.4f} ms   (wall {rep['wall_op_p50_ms']:.4f})",
        f"  op_tail_ms       {rep['op_tail_ms']:.4f} ms   (wall {rep['wall_op_tail_ms']:.4f}; p{rep['tail_pct']} of {n} ops)",
        f"  peak_rss_mb      {rep['peak_rss_mb']:.2f} MB",
        f"  fail_ratio       {rep['failed'] / n:.6f}   ({rep['failed']}/{n})",
        f"  undecided_ratio  {rep['undecided'] / n:.6f}   ({rep['undecided']}/{n})",
        f"  verdict digest   {rep['digest']}",
        "  verdicts         " + ", ".join(f"{v or '-'} {c}" for v, c in list(rep["verdicts"].items())[:8]),
    ]
    lines += [f"  FAILED {note}" for note in rep["failures"]]
    return lines


def _layer_table(layers: dict, busy: float) -> list[str]:
    lines = [f"  {'layer':<11} {'self_s':>9} {'share':>7}"]
    for key, value in layers.items():
        if key.endswith(".self_s"):
            lines.append(f"  {key[:-7]:<11} {value:9.3f} {100 * value / busy:6.1f}%")
    lines += [f"  {name:<40} {layers[name]:.6g} {unit}" for name, unit in LAYER_METRICS if not name.endswith(".self_s")]
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Measure one workload; print its summary and return the result object."""
    n_ops = WORKLOADS[name].n_ops(seconds)
    stamp = {
        "workload": name,
        "seed": seed,
        "ops": n_ops,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": _git_revision(),
        "trace": trace,
    }
    print(f"# {json.dumps(stamp)}")
    if trace:
        plain = _child(name, seed, n_ops, "run", 0, deadline)
        rep = _child(name, seed, n_ops, "run", 1, deadline)
        metrics = {key: (rep["layers"][key], unit) for key, unit in RESULT_METRICS}
        metrics["trace_overhead_ratio"] = (rep["ops_per_s"] / plain["ops_per_s"], "ratio")
        print(f"{name} untraced:")
        print("\n".join(_summary(plain)))
        print(f"{name} traced (trace_overhead_ratio {metrics['trace_overhead_ratio'][0]:.4f}):")
        print("\n".join(_summary(rep)))
        print("\n".join(_layer_table(rep["layers"], rep["busy_s"])))
        failed = max(plain["failed"], rep["failed"])
        correct = not failed and plain["digest"] == rep["digest"]
    else:
        setups = [_child(name, seed, n_ops, "setup", 0, deadline) for _ in range(SETUP_PROBES)]
        rep = _child(name, seed, n_ops, "run", 0, deadline)
        setups.append(rep)
        rep["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        metrics = {key: (rep[key], unit) for key, unit in END_TO_END}
        print(f"{name}:")
        print("\n".join(_summary(rep, setups)))
        failed = rep["failed"]
        correct = not failed
    return {
        "correct": correct,
        "attempted": rep["attempted"],
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=None, help="default: the workload's reference seed")
    p.add_argument("--seconds", type=float, default=30.0, help="sizes the op list (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gdom", "__init__.py")):
        print(f"error: no gdom source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
        try:
            result = run_workload(name, seed, args.seconds, args.trace, time.perf_counter() + DEADLINE_S)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
