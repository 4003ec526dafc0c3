#!/usr/bin/env python3
"""One SHA-256 over what `gdom relate` and `gdom check` print on the benchmark's pairs.

Takes the (G, H) pairs of ``bench/workloads.make_pair_corpus(seed, pairs)``,
the corpus of the ``cli_pairs`` workload, writes each graph to a file in a
temporary directory, and runs ``gdom relate G H --certificates --json`` and
``gdom check frac_tiling_tree G H --json`` on every pair in this process.
The digest covers each call's exit code and standard output, so two
versions of gdom print the same digest exactly when they give the same
answers, certificates and reports.

Usage: PYTHONPATH=src python3 scripts/relate_digest.py --seed 1 --pairs 2880
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from workloads import make_pair_corpus  # noqa: E402

from gdom import cli  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=2880)
    args = ap.parse_args()
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = os.path.join(tmp, "gdom-logs")
        for i, pair in enumerate(make_pair_corpus(args.seed, args.pairs)):
            paths = [os.path.join(tmp, f"{i}{side}.txt") for side in "gh"]
            for path, text in zip(paths, pair):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            for argv in (
                ["relate", *paths, "--certificates", "--json"],
                ["check", "frac_tiling_tree", *paths, "--json"],
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main([*argv, "--log-dir", log_dir])
                digest.update(f"{code}\n{out.getvalue()}\n".encode())
    print(f"{args.pairs} pairs, seed {args.seed}: sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
