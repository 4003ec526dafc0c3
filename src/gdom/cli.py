"""The ``gdom`` command line: analyze, relate, check, hunt, report.

Exit codes for ``check``: 0 holds / holds-with-equality, 1 violated,
2 hypothesis failed, 3 inconclusive or error.  Any command exits 3 with
``error: ...`` on bad input (a usage error or a parameter that the id does
not read included), an exceeded resource bound, a recursion limit or an
eigensolver failure.  ``hunt`` exits 3 when a trial failed on a recursion
limit or an eigensolver failure, which its summary lists, and 0 otherwise:
violations alone leave it at 0.  Every run of ``analyze``, ``relate``,
``check`` and ``hunt``, failed runs included, appends one self-contained
JSONL record (schema 1) to ``--log-dir`` so hunts and checks can be
replayed: same command + seed reproduces the same payload, timestamps and
elapsed times aside.  ``report`` only reads the log and writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from typing import Optional

from . import __version__
from .checks import (
    HOLDS,
    HOLDS_WITH_EQUALITY,
    HYPOTHESIS_FAILED,
    PARAMS,
    VIOLATED,
    InequalityId,
    check,
)
from .counting import (
    CountingBoundExceeded,
    count_independent_sets,
    count_matchings,
    count_spanning_trees,
    tutte_polynomial,
)
from .multigraph import Multigraph, has_cut_edge, parse_graph
from .relations import certificate_to_json, relate
from .search import PairGenerator, hunt
from .spectral import EigensolverError, eigenvalues, heat_trace
from .symmetry import is_transitive

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_HYPOTHESIS = 2
EXIT_ERROR = 3

DEFAULT_LOG_DIR = "gdom-logs"

# ``json.dumps(obj, sort_keys=True)`` without building an encoder per call
_encode = json.JSONEncoder(sort_keys=True).encode


def _detect_format(path: str, override: Optional[str]) -> str:
    if override:
        return override
    if path.endswith(".g6") or path.endswith(".graph6"):
        return "graph6"
    if path.endswith(".json"):
        return "json"
    return "edge_list"


def _read_inputs(args) -> dict:
    """The bytes of each graph file the command names, which are parsed and
    digested, or the ``OSError`` that reading it raised; one read per file."""
    inputs: dict = {}
    for name in ("graph", "g", "h"):
        if getattr(args, name, None):
            try:
                with open(getattr(args, name), "rb") as fh:
                    inputs[name] = fh.read()
            except OSError as exc:
                inputs[name] = exc
    return inputs


def _load_graph(args, name: str) -> Multigraph:
    """The graph in the file ``args.<name>``, decoded as ``open`` would decode
    it: strict UTF-8, with universal newlines."""
    if isinstance(args._inputs[name], OSError):
        raise args._inputs[name]
    text = args._inputs[name].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return parse_graph(text.strip(), _detect_format(getattr(args, name), args.format))


def _check_request(args) -> tuple[InequalityId, dict]:
    """The id of ``check`` or ``hunt`` and its params, as text for
    :data:`checks.PARAMS` to read: the family from 'id:family', the rest from flags."""
    head, _, family = args.id.partition(":")
    params = {key: getattr(args, key) for key in PARAMS if getattr(args, key, None) is not None}
    return InequalityId(head), {**params, "family": family} if family else params


class RunLog:
    """Append-only JSONL run records, one per command invocation.  The first
    record creates the directory; reading creates nothing."""

    def __init__(self, log_dir: str):
        self.log_dir = log_dir
        self.path = os.path.join(log_dir, "runs.jsonl")

    def append(self, line: str) -> None:
        """Append one encoded record, ``line`` with its newline."""
        if not os.path.isdir(self.log_dir):
            os.makedirs(self.log_dir, exist_ok=True)
        with open(self.path, "ab") as fh:
            fh.write(line.encode())

    def records(self) -> list[dict]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]


def _log_run(args, summary: str, report: str = "") -> None:
    """Append the run's record, with ``report``, its one report as :func:`_encode`
    gave it, or with none.  The line is ``_encode(record)``, built around the
    report's text: sorted, ``reports`` follows ``command`` and ``input_digests``."""
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in args._inputs.items() if isinstance(v, bytes)}
    head = _encode({"command": args._argv, "input_digests": digests})
    tail = _encode(
        {"schema": 1, "seed": getattr(args, "seed", None), "summary": summary, "timestamp": time.time(), "version": __version__}
    )
    RunLog(args.log_dir).append(f'{head[:-1]}, "reports": [{report}], {tail[1:]}\n')


# -- analyze ------------------------------------------------------------------


def _analyze_fields(g: Multigraph, t_grid: list) -> dict:
    fields: dict = {
        "vertices": g.n,
        "edge_units": g.edge_unit_count(),
        "edge_records": len(g.edges),
        "simple": g.is_simple(),
        "cut_edge": has_cut_edge(g),
        "spanning_trees": str(count_spanning_trees(g)),
    }

    def field(name, compute):
        try:
            fields[name] = compute()
        except (CountingBoundExceeded, ValueError) as exc:
            fields[name] = f"error: {exc}"

    field("transitive", lambda: is_transitive(g))
    field("tutte", lambda: tutte_polynomial(g).to_json_triples())
    field("independent_sets", lambda: str(count_independent_sets(g)))
    field("matchings", lambda: str(count_matchings(g)))
    field("spectrum", lambda: eigenvalues(g).values)
    # heat traces sum over the spectrum and share its error; a bad time is
    # the command's error, not the graph's, so it is not caught here
    spectrum = fields["spectrum"]
    fields["heat_trace"] = [[str(t), heat_trace(g, t)] for t in t_grid] if isinstance(spectrum, list) else spectrum
    return fields


def cmd_analyze(args) -> int:
    g = _load_graph(args, "graph")
    fields = _analyze_fields(g, PARAMS["t_grid"].read(args.t_grid))
    text = _encode(fields)
    if args.json:
        print(text)
    else:
        for k, v in fields.items():
            print(f"{k}: {v}")
    _log_run(args, "analyze", text)
    return EXIT_OK


# -- relate -------------------------------------------------------------------


def cmd_relate(args) -> int:
    g = _load_graph(args, "g")
    h = _load_graph(args, "h")
    out: dict = {}
    verdicts = {}
    for name, cert in relate(g, h).items():
        verdicts[name] = cert is not None
        out[name] = {"holds": cert is not None}
        if cert is not None and args.certificates:
            out[name]["certificate"] = certificate_to_json(cert)
    if args.local_stats is not None:
        from .symmetry import local_statistics, tv_distance

        tv = {}
        for r in range(args.local_stats + 1):
            d = tv_distance(local_statistics(g, r), local_statistics(h, r))
            tv[str(r)] = f"{d.numerator}/{d.denominator}"
        out["local_statistics_tv"] = {
            "convention": "half-L1 total variation of rooted-ball distributions, in [0,1]",
            "by_radius": tv,
        }
    text = _encode(out)
    if args.json:
        print(text)
    else:
        for name, info in out.items():
            if name == "local_statistics_tv":
                print(f"ball-distribution distance ({info['convention']}):")
                for r, d in info["by_radius"].items():
                    print(f"  radius {r}: {d}")
                continue
            print(f"{name}: {'yes' if info['holds'] else 'no'}")
            if "certificate" in info:
                print(f"  certificate: {_encode(info['certificate'])}")
    _log_run(args, "relate " + " ".join(f"{k}={v}" for k, v in verdicts.items()), text)
    return EXIT_OK


# -- check --------------------------------------------------------------------


_EXIT_BY_VERDICT = {
    HOLDS: EXIT_OK,
    HOLDS_WITH_EQUALITY: EXIT_OK,
    VIOLATED: EXIT_VIOLATED,
    HYPOTHESIS_FAILED: EXIT_HYPOTHESIS,
}


def cmd_check(args) -> int:
    ineq, params = _check_request(args)
    g = _load_graph(args, "g")
    h = _load_graph(args, "h") if args.h else None
    report = check(ineq, g, h, params)
    text = _encode(report.to_json())
    if args.json:
        print(text)
    else:
        print(f"{report.inequality}: {report.verdict} [{report.status}]")
        if report.lhs is not None:
            print(f"  lhs = {report.lhs}")
            print(f"  rhs = {report.rhs}")
        for note in report.notes:
            print(f"  note: {note}")
    _log_run(args, f"check {args.id} -> {report.verdict}", text)
    return _EXIT_BY_VERDICT.get(report.verdict, EXIT_ERROR)


# -- hunt ---------------------------------------------------------------------


def cmd_hunt(args) -> int:
    ineq, params = _check_request(args)
    gen = PairGenerator(
        strategy=args.strategy,
        seed=args.seed,
        relation=args.relation,
        max_g=args.max_n,
        max_h=args.max_h,
    )
    result = hunt(ineq, gen, args.trials, params)
    os.makedirs(args.log_dir, exist_ok=True)
    for v in result.violations:
        name = f"counterexample-{result.inequality}-seed{args.seed}-trial{v.trial}.json"
        with open(os.path.join(args.log_dir, name), "w", encoding="utf-8") as fh:
            json.dump(v.to_json(), fh, sort_keys=True, indent=2)
    print(f"{result.summary()}, {result.elapsed:.1f}s")
    text = _encode(result.to_json())
    if args.json:
        print(text)
    _log_run(args, result.summary(), text)
    return EXIT_ERROR if result.failed_trials else EXIT_OK


# -- report -------------------------------------------------------------------


def cmd_report(args) -> int:
    """One line per logged run.  A record that is no run record (not an
    object, a field missing, a timestamp that is no time) raises
    ``ValueError`` naming its line, blank lines uncounted; nothing prints."""
    records = RunLog(args.log_dir).records()
    if not records:
        print("no runs logged")
        return EXIT_OK
    lines = []
    for n, rec in enumerate(records, 1):
        try:
            stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(rec["timestamp"]))
            lines.append(f"[{stamp}] schema={rec['schema']} v{rec['version']}: {rec['summary']}")
        except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
            raise ValueError(f"run log line {n}: malformed record: {exc!r}") from None
    print("\n".join(lines))
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error exits 3, an error, not argparse's 2, which ``check``
    uses for "hypothesis failed"; the subcommand parsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _radius(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"radius must be a nonnegative integer, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gdom", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    p.commands = sub.choices  # name -> subcommand parser, for _parse_args

    def common(sp):
        sp.add_argument("--format", choices=("edge_list", "graph6", "json"), default=None)
        sp.add_argument("--json", action="store_true", help="JSON output")
        sp.add_argument("--log-dir", default=DEFAULT_LOG_DIR)

    def check_params(sp):
        """The inequality parameters that ``check`` and ``hunt`` both take."""
        for param in PARAMS.values():
            if param.flag:
                sp.add_argument(param.flag, dest=param.key, default=None, help=param.help)

    a = sub.add_parser("analyze", help="graph invariants and spectra")
    a.add_argument("graph")
    a.add_argument("--t-grid", default="1/4,1,4")
    common(a)
    a.set_defaults(func=cmd_analyze)

    r = sub.add_parser("relate", help="decide the four comparison relations")
    r.add_argument("g")
    r.add_argument("h")
    r.add_argument("--certificates", action="store_true")
    r.add_argument(
        "--local-stats",
        type=_radius,
        default=None,
        metavar="R",
        help="also report rooted-ball distribution distances up to radius R",
    )
    common(r)
    r.set_defaults(func=cmd_relate)

    c = sub.add_parser("check", help="check one inequality on a pair")
    c.add_argument("id", help="inequality id, optionally id:family")
    c.add_argument("g")
    c.add_argument("h", nargs="?", default=None)
    check_params(c)
    common(c)
    c.set_defaults(func=cmd_check)

    u = sub.add_parser("hunt", help="random counterexample search")
    u.add_argument("id")
    u.add_argument("--strategy", default="overlay_copies")
    u.add_argument("--relation", default="domination")
    u.add_argument("--trials", type=int, default=1000)
    u.add_argument("--seed", type=int, default=0)
    u.add_argument("--max-n", type=int, default=10)
    u.add_argument("--max-h", type=int, default=5)
    check_params(u)
    common(u)
    u.set_defaults(func=cmd_hunt)

    e = sub.add_parser("report", help="summarize the run log")
    e.add_argument("--log-dir", default=DEFAULT_LOG_DIR)
    e.set_defaults(func=cmd_report)
    return p


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main() call


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, parsed by the named subcommand's parser
    alone when it takes every argument.  No subcommand, an unknown one,
    ``-h`` and a leftover argument go through ``parser`` itself, so every
    message and usage text is the one ``parse_args`` gives."""
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.cmd = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    argv = list(sys.argv[1:] if argv is None else argv)
    if _parser is None:
        _parser = build_parser()
    args = _parse_args(_parser, argv)
    args._argv = ["gdom"] + argv
    args._inputs = _read_inputs(args)
    try:
        return args.func(args)
    except (OSError, ValueError, CountingBoundExceeded, RecursionError, EigensolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.cmd != "report":
            with contextlib.suppress(OSError):  # an unwritable log dir still ends in exit 3
                _log_run(args, f"{args.cmd} error: {exc}")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
