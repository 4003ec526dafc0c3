#!/usr/bin/env python3
"""A SHA-256 digest of a hinge hunt's record, and the verdict of each trial.

Runs ``hunt("spectral_decreasing_convex", ...)`` with ``hinge(4)`` under the
domination hypothesis on overlay-built pairs of at most 10 and 5 vertices,
the hunt of acceptance criterion 9 and of the ``hinge_hunt`` benchmark
workload.  The digest covers ``json.dumps(result.to_json(), sort_keys=True)``
without the wall time ``elapsed``, so it changes with any violation, report
field, count or failed trial.  The histogram counts each trial's outcome:
the check's verdict, ``no_pair`` when generation gave up, or ``raised``
when the check raised (a resource bound or a failed trial, both counted in
the record).  It is read by rebinding ``gdom.search.check`` for the run,
as the benchmark does.

Usage: PYTHONPATH=src python3 scripts/hunt_digest.py --seed 2024 --trials 14100
"""

import argparse
import hashlib
import json
from collections import Counter

from gdom import search
from gdom.spectral import hinge


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--trials", type=int, default=14100)
    args = ap.parse_args()
    gen = search.PairGenerator("overlay_copies", args.seed, relation="domination", max_g=10, max_h=5)
    outcomes: list[str] = []
    check = search.check

    def recorded_check(*args):
        outcomes.append("raised")
        report = check(*args)
        outcomes[-1] = report.verdict
        return report

    search.check = recorded_check
    try:
        result = search.hunt(
            "spectral_decreasing_convex", gen, args.trials, params={"functional": hinge(4), "hypothesis": "domination"}
        )
    finally:
        search.check = check
    record = {key: value for key, value in result.to_json().items() if key != "elapsed"}
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    histogram = Counter(outcomes)
    histogram["no_pair"] = result.generation_failures
    print(f"{args.trials} trials, seed {args.seed}: sha256 {digest}, {len(result.violations)} violations")
    print("verdicts: " + ", ".join(f"{verdict} {n}" for verdict, n in sorted(histogram.items()) if n))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
