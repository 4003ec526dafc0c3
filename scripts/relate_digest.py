#!/usr/bin/env python3
"""Two SHA-256 digests over what `gdom relate` and `gdom check` print on the benchmark's pairs.

Takes the (G, H) pairs of ``bench/workloads.make_pair_corpus(seed, pairs)``,
the corpus of the ``cli_pairs`` workload, writes each graph to a file in a
temporary directory, and runs ``gdom relate G H --certificates --json`` and
``gdom check frac_tiling_tree G H --json`` on every pair in this process.

The first line's digest covers each call's exit code and standard output,
so it changes with any certificate.  The verdict line's digest covers only
the exit codes, the ``holds`` bit of each relation and the check verdicts:
two versions of gdom that give the same answers print the same verdict
line, whatever certificates they print.  Every printed certificate, of
``relate`` and of the check's hypothesis, is read back through
``certificate_from_json`` and re-verified; one that does not verify is
named on standard error, and the script exits 1.

Usage: PYTHONPATH=src python3 scripts/relate_digest.py --seed 1 --pairs 2880
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from workloads import make_pair_corpus  # noqa: E402

from gdom import cli  # noqa: E402
from gdom.multigraph import parse_graph  # noqa: E402
from gdom.relations import certificate_from_json, verify_certificate  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=2880)
    args = ap.parse_args()
    digest, verdicts = hashlib.sha256(), hashlib.sha256()
    verified, failed = 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = os.path.join(tmp, "gdom-logs")
        for i, pair in enumerate(make_pair_corpus(args.seed, args.pairs)):
            g, h = map(parse_graph, pair)
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
                info = json.loads(out.getvalue() or "{}")
                if argv[0] == "relate":
                    records = {name: record for name, record in sorted(info.items()) if "holds" in record}
                    answer = [[name, record["holds"]] for name, record in records.items()]
                    certs = {name: record.get("certificate") for name, record in records.items()}
                else:
                    answer, certs = info.get("verdict"), {"hypothesis": info.get("certificate")}
                verdicts.update(f"{code} {json.dumps(answer)}\n".encode())
                for name, cert in certs.items():
                    if cert is None:
                        continue
                    if verify_certificate(g, h, certificate_from_json(cert)):
                        verified += 1
                    else:
                        failed += 1
                        print(f"pair {i}: {argv[0]} {name} certificate does not verify", file=sys.stderr)
    head = f"{args.pairs} pairs, seed {args.seed}:"
    print(f"{head} sha256 {digest.hexdigest()}")
    print(f"{head} verdicts sha256 {verdicts.hexdigest()}, {verified} certificates verify")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
