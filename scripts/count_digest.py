#!/usr/bin/env python3
"""One SHA-256 over every family count of the benchmark's graphs.

Takes each distinct graph of ``bench/workloads.make_pair_corpus(seed, pairs)``,
the corpus of the ``cli_pairs`` workload, and hashes ``checks.family_count``
for every vertex and edge family: proper colourings for q = 0..4, weighted
homomorphisms to the independent-set target with weights {0: 1, 1: 3/2}, to
K3 and to one looped 3-vertex target with rational weights, independent
sets, acyclic orientations, forests and matchings.  A count that exceeds a
resource bound hashes as the name of its exception, so two versions of gdom
print the same digest exactly when they give the same counts and refuse the
same inputs.

Usage: PYTHONPATH=src python3 scripts/count_digest.py --seed 1 --pairs 480
"""

import argparse
import hashlib
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from workloads import make_pair_corpus  # noqa: E402

from gdom.checks import EDGE_FAMILIES, family_count  # noqa: E402
from gdom.counting import CountingBoundExceeded, HomTarget  # noqa: E402
from gdom.multigraph import parse_graph  # noqa: E402

HOM_CASES = (
    (HomTarget.independent_set_target(), {0: Fraction(1), 1: Fraction(3, 2)}),
    (HomTarget.complete(3), None),
    (HomTarget(3, frozenset({(0, 0), (0, 1), (1, 2), (2, 2)})), {0: Fraction(2, 3), 1: Fraction(1), 2: Fraction(5, 4)}),
)
CASES = [
    *(("proper_colorings", {"q": q}) for q in range(5)),
    *(("weighted_homomorphisms", {"hom_target": t, "hom_weights": w}) for t, w in HOM_CASES),
    ("independent_sets", {}),
    *((family, {}) for family in EDGE_FAMILIES),
]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=480)
    args = ap.parse_args()
    texts = list(dict.fromkeys(text for pair in make_pair_corpus(args.seed, args.pairs) for text in pair))
    digest = hashlib.sha256()
    for text in texts:
        g = parse_graph(text)
        for family, params in CASES:
            try:
                value = str(family_count(g, family, params))
            except CountingBoundExceeded as exc:
                value = type(exc).__name__
            digest.update(f"{text} {family} {value}\n".encode())
    print(f"{args.pairs} pairs, seed {args.seed}: {len(texts)} graphs, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
