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
        """The decoded lines, blank ones skipped; a line that is not UTF-8
        JSON raises :func:`_malformed`."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        records = []
        for n, line in enumerate(lines, 1):
            try:
                records.append(json.loads(line.decode("utf-8")))
            except ValueError as exc:
                raise _malformed(n, exc) from None
        return records


def _malformed(n: int, exc: Exception) -> ValueError:
    """The error of the run log's ``n``-th nonblank line, which is no run record."""
    return ValueError(f"run log line {n}: malformed record: {exc!r}")


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
    """One line per logged run.  A line that is no run record (not JSON,
    not an object, a field missing, a timestamp that is no time) raises
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
            raise _malformed(n, exc) from None
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
    p.commands = sub.choices  # name -> subcommand parser

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
    p.plain = {name: form for name, sp in sub.choices.items() if (form := _PlainForm.of(sub.dest, name, sp))}
    return p


def _typed(action: argparse.Action, text: str):
    """``text`` as argparse stores it for ``action``: through its ``type``,
    then checked against its ``choices``; ``ValueError`` where argparse
    would refuse it."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not a choice")
    return value


class _PlainForm:
    """The plain argv of one subcommand, read off its parser's own actions:
    their option strings, dest, nargs, const, default, type and choices,
    and the parser's ``set_defaults``.  It keeps no state between reads."""

    def __init__(self, start: dict, positionals: list, flags: dict):
        self.start = start  # the namespace before any argument is read
        self.positionals = positionals
        self.required = sum(action.nargs is None for action in positionals)
        self.flags = flags  # option string -> action

    @classmethod
    def of(cls, dest: str, name: str, sp: argparse.ArgumentParser) -> Optional["_PlainForm"]:
        """The form of subcommand ``name``, or ``None`` when one of its
        actions is of a kind that the form does not read as argparse does."""
        start, positionals, flags = {}, [], {}
        for action in sp._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            store = type(action) is argparse._StoreAction
            if action.option_strings:  # one value, or a constant (store_true)
                const = isinstance(action, argparse._StoreConstAction)
                takes = (store and action.nargs is None or const) and not action.required
                flags.update(dict.fromkeys(action.option_strings, action))
            else:
                takes = store and (action.nargs is None or action.nargs == "?" and action.choices is None)
                positionals.append(action)
            # argparse types a str default only when its flag is absent
            if not takes or isinstance(action.default, str) and action.type is not None:
                return None
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                start.setdefault(action.dest, action.default)
        form = cls({dest: name, **sp._defaults, **start}, positionals, flags)
        # argparse matches a required positional after an optional one by backtracking
        return form if all(action.nargs == "?" for action in positionals[form.required :]) else None

    def read(self, argv: list[str]) -> Optional[argparse.Namespace]:
        """The namespace of ``argv``, the subcommand first, or ``None`` when
        ``argv`` is not plain or argparse would refuse a value."""
        values = dict(self.start)
        end = 1  # argv[1:end] are the positionals
        while end < len(argv) and not argv[end].startswith("-"):
            end += 1
        if not self.required < end <= len(self.positionals) + 1:
            return None
        try:
            for action, text in zip(self.positionals, argv[1:end]):
                values[action.dest] = _typed(action, text)
            while end < len(argv):
                action = self.flags.get(argv[end])
                if action is None:
                    return None
                if action.nargs == 0:
                    values[action.dest] = action.const
                    end += 1
                elif end + 1 < len(argv) and not argv[end + 1].startswith("-"):
                    values[action.dest] = _typed(action, argv[end + 1])
                    end += 2
                else:
                    return None
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        return argparse.Namespace(**values)


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main() call


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``.  A plain argv skips argparse: a known
    subcommand, then its positionals, then exact flags, each followed by one
    value that does not start with ``-``, or by none for a flag that stores a
    constant; :class:`_PlainForm` reads it.  Every other argv (``-h``, ``--``,
    ``--flag=value``, an abbreviation, a positional after a flag, a value
    that fails its type or choices) goes to ``parser.parse_args``, which
    writes every usage, help and error text."""
    form = parser.plain.get(argv[0]) if argv else None
    args = form.read(argv) if form is not None else None
    return parser.parse_args(argv) if args is None else args


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
