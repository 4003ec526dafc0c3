#!/usr/bin/env python3
"""SHA-256 digests of gdom's outputs: equal lines from two versions' ``src`` mean equal outputs.

``relate``, ``count`` and ``code`` read ``bench/workloads.make_pair_corpus(seed,
pairs)``, the ``cli_pairs`` corpus.  A computation that a resource bound refuses
hashes as its exception's name, so equal digests also mean equal refusals.

relate  ``gdom relate G H --certificates --json`` and ``gdom check
        frac_tiling_tree G H --json`` on every pair, in this process.  The
        first line covers exit codes and outputs, certificates included; the
        verdict line only exit codes, ``holds`` bits and check verdicts; the
        run-log line every record the runs logged, without its ``timestamp``
        and with the temporary directory as ``$TMP``.
        Each printed certificate is re-verified from its JSON; one that
        fails is named on standard error, and the exit code is 1.
count   ``checks.family_count`` of every distinct graph for every family,
        with q = 0..4 colours and weighted homomorphisms to three targets.
code    ``symmetry.cached_code`` and the order and orbits (not the
        generators, which another search may choose otherwise) of
        ``symmetry.automorphisms``, over the corpus and
        ``search.transitive_catalog(max_n)``.
hunt    the ``hinge(4)`` domination hunt of acceptance criterion 9 and of
        ``hinge_hunt``: its sorted ``HuntResult.to_json()`` without
        ``elapsed``, and a histogram of trial outcomes (the verdict,
        ``no_pair`` or ``raised``), read by rebinding ``gdom.search.check``.
checks  a hunt of every inequality id under each generator strategy, at
        ``max_g=8, max_h=4``, with the id's default hypothesis as the
        relation (``domination`` for an id without H): the full
        ``CheckReport.to_json()`` of every trial, read by rebinding
        ``gdom.search.check``.

Usage: PYTHONPATH=src python3 scripts/digest.py {relate,count,code,hunt,checks} [flags],
with each subcommand's flags and defaults as :data:`COMMANDS` lists them.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from workloads import make_pair_corpus  # noqa: E402

from gdom import cli, search  # noqa: E402
from gdom.checks import EDGE_FAMILIES, INEQUALITIES, family_count  # noqa: E402
from gdom.counting import CountingBoundExceeded, HomTarget  # noqa: E402
from gdom.multigraph import parse_graph, serialize_graph  # noqa: E402
from gdom.relations import certificate_from_json, verify_certificate  # noqa: E402
from gdom.spectral import hinge  # noqa: E402
from gdom.symmetry import SizeBoundExceeded, automorphisms, cached_code  # noqa: E402

HOM_CASES = (
    (HomTarget.independent_set_target(), {0: Fraction(1), 1: Fraction(3, 2)}),
    (HomTarget.complete(3), None),
    (HomTarget(3, frozenset({(0, 0), (0, 1), (1, 2), (2, 2)})), {0: Fraction(2, 3), 1: Fraction(1), 2: Fraction(5, 4)}),
)
COUNT_CASES = [
    *(("proper_colorings", {"q": q}) for q in range(5)),
    *(("weighted_homomorphisms", {"hom_target": t, "hom_weights": w}) for t, w in HOM_CASES),
    ("independent_sets", {}),
    *((family, {}) for family in EDGE_FAMILIES),
]


def graph_texts(args, extra=()) -> list[str]:
    """The distinct graph texts of the first ``args.pairs`` corpus pairs, then of ``extra``."""
    return list(dict.fromkeys([*(text for pair in make_pair_corpus(args.seed, args.pairs) for text in pair), *extra]))


def or_refusal(compute, refusal: type) -> str:
    """``compute()``, or the name of the ``refusal`` exception it raised."""
    try:
        return compute()
    except refusal as exc:
        return type(exc).__name__


def relate(args) -> int:
    digest, verdicts, verified, failed = hashlib.sha256(), hashlib.sha256(), 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = os.path.join(tmp, "gdom-logs")
        for i, pair in enumerate(make_pair_corpus(args.seed, args.pairs)):
            g, h = map(parse_graph, pair)
            paths = [os.path.join(tmp, f"{i}{side}.txt") for side in "gh"]
            for path, text in zip(paths, pair):
                Path(path).write_text(text, encoding="utf-8")
            for argv in (["relate", *paths, "--certificates"], ["check", "frac_tiling_tree", *paths]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main([*argv, "--json", "--log-dir", log_dir])
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
                    if cert is not None and verify_certificate(g, h, certificate_from_json(cert)):
                        verified += 1
                    elif cert is not None:
                        failed += 1
                        print(f"pair {i}: {argv[0]} {name} certificate does not verify", file=sys.stderr)
        log, records = hashlib.sha256(), 0
        with open(os.path.join(log_dir, "runs.jsonl"), encoding="utf-8") as fh:
            for records, line in enumerate(fh, 1):
                record = json.loads(line)
                del record["timestamp"]
                log.update((json.dumps(record, sort_keys=True).replace(tmp, "$TMP") + "\n").encode())
    head = f"{args.pairs} pairs, seed {args.seed}:"
    print(f"{head} sha256 {digest.hexdigest()}")
    print(f"{head} verdicts sha256 {verdicts.hexdigest()}, {verified} certificates verify")
    print(f"{head} run log sha256 {log.hexdigest()}, {records} records")
    return 1 if failed else 0


def count(args) -> int:
    texts, digest = graph_texts(args), hashlib.sha256()
    for text in texts:
        g = parse_graph(text)
        for family, params in COUNT_CASES:
            value = or_refusal(lambda: str(family_count(g, family, params)), CountingBoundExceeded)
            digest.update(f"{text} {family} {value}\n".encode())
    print(f"{args.pairs} pairs, seed {args.seed}: {len(texts)} graphs, sha256 {digest.hexdigest()}")
    return 0


def code(args) -> int:
    texts, digest = graph_texts(args, map(serialize_graph, search.transitive_catalog(args.max_n))), hashlib.sha256()
    for text in texts:
        g = parse_graph(text)
        group = or_refusal(lambda: "{0.order} {0.orbits}".format(automorphisms(g)), SizeBoundExceeded)
        digest.update(f"{text} {cached_code(g).decode()} {group}\n".encode())
    head = f"{args.pairs} pairs, seed {args.seed}, transitive up to {args.max_n}:"
    print(f"{head} {len(texts)} graphs, sha256 {digest.hexdigest()}")
    return 0


def hunt(args) -> int:
    gen = search.PairGenerator("overlay_copies", args.seed, relation="domination", max_g=10, max_h=5)
    outcomes, check = [], search.check

    def recorded_check(*check_args):
        outcomes.append("raised")
        report = check(*check_args)
        outcomes[-1] = report.verdict
        return report

    search.check = recorded_check
    try:
        params = {"functional": hinge(4), "hypothesis": "domination"}
        result = search.hunt("spectral_decreasing_convex", gen, args.trials, params=params)
    finally:
        search.check = check
    record = {key: value for key, value in result.to_json().items() if key != "elapsed"}
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    histogram = Counter(outcomes, no_pair=result.generation_failures)
    print(f"{args.trials} trials, seed {args.seed}: sha256 {digest}, {len(result.violations)} violations")
    print("verdicts: " + ", ".join(f"{verdict} {n}" for verdict, n in sorted(histogram.items()) if n))
    return 0


def checks(args) -> int:
    digest, reports, check = hashlib.sha256(), 0, search.check

    def hashed_check(*check_args):
        nonlocal reports
        report = check(*check_args)
        digest.update((json.dumps(report.to_json(), sort_keys=True) + "\n").encode())
        reports += 1
        return report

    search.check = hashed_check
    try:
        for ineq, spec in INEQUALITIES.items():
            relation = "domination" if spec.hypothesis == "params" else spec.hypothesis
            for strategy in search.STRATEGIES:
                gen = search.PairGenerator(strategy, args.seed, relation=relation, max_g=8, max_h=4)
                search.hunt(ineq, gen, args.trials)
    finally:
        search.check = check
    print(f"{args.trials} trials, seed {args.seed}: {reports} reports, sha256 {digest.hexdigest()}")
    return 0


COMMANDS = {
    relate: {"--seed": 1, "--pairs": 2880},
    count: {"--seed": 1, "--pairs": 480},
    code: {"--seed": 1, "--pairs": 2880, "--max-n": 12},
    hunt: {"--seed": 2024, "--trials": 14100},
    checks: {"--seed": 1, "--trials": 200},
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for run, flags in COMMANDS.items():
        command = sub.add_parser(run.__name__)
        for flag, default in flags.items():
            command.add_argument(flag, type=int, default=default)
        command.set_defaults(run=run)
    args = ap.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
