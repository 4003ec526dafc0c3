#!/usr/bin/env python3
"""One SHA-256 over the canonical codes and automorphism groups of the
benchmark's graphs and of the transitive catalog.

Takes each distinct graph of ``bench/workloads.make_pair_corpus(seed, pairs)``,
the corpus of the ``cli_pairs`` workload, and of
``search.transitive_catalog(max_n)``, and hashes ``symmetry.cached_code``,
the order of ``symmetry.automorphisms`` and its orbit partition.  The
generators are left out, since another search may find another generating
set of the same group.  A group past the size bound hashes as the name of
its exception, so two versions of gdom print the same digest exactly when
they give the same codes, groups and refusals.

Usage: PYTHONPATH=src python3 scripts/code_digest.py --seed 1 --pairs 2880 --max-n 12
"""

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from workloads import make_pair_corpus  # noqa: E402

from gdom.multigraph import parse_graph, serialize_graph  # noqa: E402
from gdom.search import transitive_catalog  # noqa: E402
from gdom.symmetry import SizeBoundExceeded, automorphisms, cached_code  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=2880)
    ap.add_argument("--max-n", type=int, default=12)
    args = ap.parse_args()
    texts = [text for pair in make_pair_corpus(args.seed, args.pairs) for text in pair]
    texts += [serialize_graph(g) for g in transitive_catalog(args.max_n)]
    texts = list(dict.fromkeys(texts))
    digest = hashlib.sha256()
    for text in texts:
        g = parse_graph(text)
        try:
            info = automorphisms(g)
            group = f"{info.order} {info.orbits}"
        except SizeBoundExceeded as exc:
            group = type(exc).__name__
        digest.update(f"{text} {cached_code(g).decode()} {group}\n".encode())
    print(
        f"{args.pairs} pairs, seed {args.seed}, transitive up to {args.max_n}: "
        f"{len(texts)} graphs, sha256 {digest.hexdigest()}"
    )


if __name__ == "__main__":
    main()
