#!/usr/bin/env python3
"""Hunt for domination pairs violating the decreasing-convex trace comparison.

The hinge functional s -> max(c - s, 0) is decreasing and convex, so the
normalized trace comparison holds whenever H fractionally tiles G; under
bare domination it can fail.  This script searches overlay-built domination
pairs for violations and prints each witness with both traces.

Usage: python scripts/hunt_hinge_counterexample.py [--trials N] [--seed S]
       [--hinge C] [--max-n K]
"""

import argparse
import json

from gdom.search import PairGenerator, hunt
from gdom.spectral import hinge


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--hinge", default="4")
    ap.add_argument("--max-n", type=int, default=10)
    args = ap.parse_args()

    gen = PairGenerator(
        "overlay_copies", seed=args.seed, relation="domination", max_g=args.max_n, max_h=5
    )
    result = hunt(
        "spectral_decreasing_convex",
        gen,
        args.trials,
        params={"functional": hinge(args.hinge), "hypothesis": "domination"},
    )
    print(f"{result.summary()}, {result.elapsed:.1f}s")
    for v in result.violations:
        print(f"\ntrial {v.trial}:")
        print(f"  G = {v.g}")
        print(f"  H = {v.h}")
        print(f"  Tr f(L_G) = {v.report.lhs:.6f} > Tr f(L_H) = {v.report.rhs:.6f}")
    if result.violations:
        bundle = [v.to_json() for v in result.violations]
        with open("hinge_counterexamples.json", "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
        print(f"\nwrote {len(bundle)} witness bundle(s) to hinge_counterexamples.json")


if __name__ == "__main__":
    main()
