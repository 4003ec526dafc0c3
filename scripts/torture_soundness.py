#!/usr/bin/env python3
"""Broad randomized soundness torture for the proven inequalities.

Every id checked here is a theorem under its hypothesis, so any violation
this script ever prints is a bug in the toolkit, not in the mathematics.
Larger and slower than the pytest acceptance sweep; sizes and trial counts
scale with --budget.

Usage: python scripts/torture_soundness.py [--budget 1000] [--seed 0] [--max-n 9]
"""

import argparse
import sys

from gdom.checks import PROVEN, claim_status
from gdom.rng import derive_seed
from gdom.search import STRATEGIES, PairGenerator, hunt

THEOREM_HUNTS = [
    # (inequality, relation hypothesis, params, weight)
    ("tree_product", "subgraph", {}, 2),
    ("frac_tiling_tree", "fractional_tiling", {}, 2),
    ("transitive_H", "domination", {}, 1),
    ("transitive_G", "domination", {}, 1),
    ("heat_trace_frac", "fractional_tiling", {}, 2),
    ("spectral_decreasing_convex", "fractional_tiling", {}, 1),
    ("op_monotone", "domination", {}, 1),
    ("char_poly", "domination", {}, 2),
    ("vertex_counting", "fractional_tiling", {"family": "independent_sets"}, 1),
    ("vertex_counting", "fractional_tiling", {"family": "proper_colorings"}, 1),
    ("edge_counting", "fractional_edge_tiling", {"family": "forests"}, 1),
    ("edge_counting", "fractional_edge_tiling", {"family": "acyclic_orientations"}, 1),
    ("edge_counting", "fractional_edge_tiling", {"family": "matchings"}, 1),
    ("koteljanskii_step", "domination", {}, 2),
    ("cover_product", "domination", {}, 2),
    ("weighted_cover_heat", "domination", {}, 1),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=int, default=1000, help="trials per hunt entry")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-n", type=int, default=9)
    args = ap.parse_args()

    for ineq, relation, params, _ in THEOREM_HUNTS:
        status = claim_status(ineq, relation, params.get("family"))
        if status != PROVEN:
            raise SystemExit(f"{ineq} under {relation} is {status}, not a theorem")

    failures = 0
    total = 0
    for idx, (ineq, relation, params, weight) in enumerate(THEOREM_HUNTS):
        trials = args.budget * weight
        for sidx, strategy in enumerate(STRATEGIES):
            gen = PairGenerator(
                strategy,
                seed=derive_seed(args.seed, idx, sidx),
                relation=relation,
                max_g=args.max_n,
                max_h=5,
            )
            res = hunt(ineq, gen, trials // len(STRATEGIES), dict(params))
            total += res.checked
            tag = f"{ineq}[{params.get('family', relation)}] via {strategy}"
            print(f"{tag}: {res.summary()}, {res.elapsed:.1f}s")
            if res.violations:
                failures += len(res.violations)
                for v in res.violations:
                    print(f"  BUG WITNESS trial {v.trial}: G=[{v.g}] H=[{v.h}]")
    print(f"\n{total} checks, {failures} violations (expected 0)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
