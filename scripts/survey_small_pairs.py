#!/usr/bin/env python3
"""Survey the comparison relations and the spanning-tree conjecture at desk scale.

Enumerates all connected simple graphs up to --max-n vertices (by brute
generation and canonical dedupe), decides the four relations on every
ordered pair, and counts outcomes of the normalized spanning-tree
comparison tau(G)^(1/|G|) >= tau(H)^(1/|H|) under each hypothesis.

Usage: python scripts/survey_small_pairs.py [--max-n 5]
"""

import argparse
import itertools
from collections import Counter

from gdom.checks import check
from gdom.multigraph import Multigraph
from gdom.relations import RELATIONS, relate
from gdom.symmetry import cached_code


def connected_graphs_up_to(max_n: int) -> list[Multigraph]:
    out: dict[bytes, Multigraph] = {}
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            try:
                g = Multigraph(n, edges)
            except ValueError:
                continue
            out.setdefault(cached_code(g), g)
    return list(out.values())


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()

    graphs = connected_graphs_up_to(args.max_n)
    print(f"{len(graphs)} connected graphs up to {args.max_n} vertices")

    relation_counts = Counter()
    verdicts = Counter()
    pairs = 0
    for g in graphs:
        for h in graphs:
            if h.n > g.n:
                continue
            pairs += 1
            held = {k for k, cert in relate(g, h).items() if cert is not None}
            relation_counts.update(held)
            if "domination" in held:
                r = check("spanning_tree", g, h, params={"hypothesis": "domination"})
                verdicts[r.verdict] += 1

    print(f"\nrelation frequencies over {pairs} ordered pairs:")
    for k in RELATIONS:
        print(f"  {k}: {relation_counts[k]}")
    print("\nnormalized spanning-tree comparison under domination:")
    for k, v in sorted(verdicts.items()):
        print(f"  {k}: {v}")


if __name__ == "__main__":
    main()
