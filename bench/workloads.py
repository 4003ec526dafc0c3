"""The three benchmark workloads: inputs from a seed, timed ops, correctness gates.

Each workload is three steps run in one fresh process:

* ``setup(seed, n_ops, workdir)`` builds the inputs; it is part of ``setup_s``.
* ``run(state, clock)`` performs the fixed list of ``n_ops`` ops and returns
  one :class:`Op` per op, stamping op boundaries on the
  :class:`speed.OpClock`; only this step is timed.
* ``gate(state, ops)`` re-checks every output after the clock has stopped
  and marks the ops whose output fails a check.

The inputs depend only on the seed and the op count, never on gdom's own
generators, so a change to the program cannot change what is measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass
from itertools import product

HOLDS, HOLDS_WITH_EQUALITY, VIOLATED = "holds", "holds_with_equality", "violated"
HYPOTHESIS_FAILED, INCONCLUSIVE = "hypothesis_failed", "inconclusive"
# hunt trial outcomes that are not check verdicts
NO_PAIR, SKIPPED, UNCHECKED = "no_pair", "resource_skip", "unchecked"

UNDECIDED = (INCONCLUSIVE, SKIPPED)
CHECK_EXIT = {HOLDS: 0, HOLDS_WITH_EQUALITY: 0, VIOLATED: 1, HYPOTHESIS_FAILED: 2}


@dataclass
class Op:
    start: float  # clock stamp
    latency_s: float  # wall clock
    verdict: str  # what the op decided; feeds the verdict digest
    failed: bool = False  # raised, failed a gate, or got no generated pair
    note: str = ""


# -- cli_pairs ------------------------------------------------------------------

# Every pair comes from one cell of this grid, and each block of len(CELLS)
# pairs visits every cell once, so two seeds give the same mix of sizes and
# densities and differ only in the random graphs inside each cell.
G_SIZES = (5, 6, 7, 8, 9)
DENSITIES = (0.1, 0.25, 0.4)  # share of the non-tree vertex pairs that are edges
H_SIZES = (2, 3, 4, 5)
# H: a connected subgraph of G (twice), one with parallel edges in G, or drawn independently
VARIANTS = ("subgraph", "subgraph", "subgraph_multi", "independent")
CELLS = tuple(product(G_SIZES, DENSITIES, H_SIZES, VARIANTS))


def _random_connected(rng: random.Random, n: int, density: float) -> dict:
    """Random spanning tree plus ``density`` of the other vertex pairs, chosen at random."""
    edges = {(rng.randrange(v), v): 1 for v in range(1, n)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    for pair in rng.sample(rest, round(density * len(rest))):
        edges[pair] = 1
    return edges


def _connected_subgraph(rng: random.Random, n: int, edges: dict, k: int) -> dict:
    """A connected k-vertex subgraph of (n, edges), relabelled 0..k-1: a random
    spanning tree of the induced graph plus half of its other edges, with
    multiplicities at most those in G."""
    nbrs: dict[int, set] = {v: set() for v in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    chosen = [rng.randrange(n)]
    while len(chosen) < k:
        frontier = sorted({u for v in chosen for u in nbrs[v]} - set(chosen))
        chosen.append(rng.choice(frontier))
    label = {v: i for i, v in enumerate(sorted(chosen))}
    induced = [(label[u], label[v], m) for (u, v), m in sorted(edges.items()) if u in label and v in label]
    rng.shuffle(induced)
    root = list(range(k))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    tree, rest = [], []
    for u, v, m in induced:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
        (tree if ru != rv else rest).append((u, v, m))
    return {(min(u, v), max(u, v)): rng.randint(1, m) for u, v, m in tree + rest[: len(rest) // 2]}


def _edge_list(n: int, edges: dict) -> str:
    clauses = [str(n)] + [f"{u} {v}" if m == 1 else f"{u} {v} {m}" for (u, v), m in sorted(edges.items())]
    return "; ".join(clauses)


def make_pair_corpus(seed: int, n_pairs: int) -> list[tuple[str, str]]:
    """``n_pairs`` (G, H) edge-list texts from ``random.Random(seed)``."""
    rng = random.Random(seed)
    cells: list[tuple] = []
    while len(cells) < n_pairs:
        block = list(CELLS)
        rng.shuffle(block)
        cells.extend(block)
    corpus = []
    for n, density, k, variant in cells[:n_pairs]:
        g = _random_connected(rng, n, density)
        if variant == "subgraph_multi":
            for pair in rng.sample(sorted(g), min(len(g), rng.randint(1, 2))):
                g[pair] = rng.randint(2, 3)
        if variant == "independent":
            h_n, h = k, _random_connected(rng, k, density)
        else:
            h_n, h = k, _connected_subgraph(rng, n, g, k)
        corpus.append((_edge_list(n, g), _edge_list(h_n, h)))
    return corpus


def _cli_call(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects
            code = exc.code if isinstance(exc.code, int) else 3
        except Exception as exc:  # the op failed; the run goes on
            code = -1
            err.write(repr(exc))
    return code, out.getvalue(), err.getvalue()


def setup_cli_pairs(seed: int, n_ops: int, workdir: str) -> dict:
    paths: dict[str, str] = {}  # one file per distinct graph text

    def path_of(text: str) -> str:
        if text not in paths:
            paths[text] = os.path.join(workdir, f"{len(paths)}.txt")
            with open(paths[text], "w", encoding="utf-8") as fh:
                fh.write(text)
        return paths[text]

    files = [(path_of(g), path_of(h)) for g, h in make_pair_corpus(seed, (n_ops + 1) // 2)]
    log_dir = os.path.join(workdir, "gdom-logs")
    argvs = []
    for g_path, h_path in files:
        argvs.append(["relate", g_path, h_path, "--certificates", "--json", "--log-dir", log_dir])
        argvs.append(["check", "frac_tiling_tree", g_path, h_path, "--json", "--log-dir", log_dir])
    return {"argvs": argvs[:n_ops], "files": files, "outputs": os.path.join(workdir, "outputs.jsonl")}


def run_cli_pairs(state: dict, clock) -> list[Op]:
    """Each op's exit code and output go to a file, so that keeping them for
    the gates does not add to the process's peak memory."""
    from gdom import cli

    perf = time.perf_counter
    ops = []
    with open(state["outputs"], "w", encoding="utf-8") as outputs:
        for argv in state["argvs"]:
            t0 = clock.boundary()[1]
            result = _cli_call(cli.main, argv)
            ops.append(Op(t0, perf() - t0, ""))
            outputs.write(json.dumps(result) + "\n")
    clock.finish()
    return ops


def _gate_relate(g, h, code: int, out: str) -> tuple[str, str]:
    """(verdict, failure note or '') for one ``relate --certificates --json``."""
    from gdom.relations import certificate_from_json, domination_hall_condition, verify_certificate

    if code != 0:
        return "error", f"relate exited {code}"
    info = json.loads(out)
    names = ("tiling", "fractional_tiling", "fractional_edge_tiling", "domination")
    holds = {name: info[name]["holds"] for name in names}
    verdict = "relate:" + "".join(name[0] if holds[name] else "-" for name in names)
    for name in names:
        if holds[name]:
            cert = info[name].get("certificate")
            if cert is None or not verify_certificate(g, h, certificate_from_json(cert)):
                return verdict, f"{name} certificate does not verify"
    if holds["domination"] != domination_hall_condition(g, h)[0]:
        return verdict, "domination verdict disagrees with the Hall condition"
    if (holds["tiling"] and not holds["fractional_tiling"]) or (holds["fractional_tiling"] and not holds["domination"]):
        return verdict, "relation verdicts break tiling => fractional tiling => domination"
    return verdict, ""


def _gate_check(code: int, out: str, frac_tiling: bool) -> tuple[str, str]:
    """(verdict, failure note or '') for one ``check frac_tiling_tree --json``."""
    if code == -1 or not out:
        return "error", f"check exited {code} with no report"
    verdict = json.loads(out)["verdict"]
    if code != CHECK_EXIT.get(verdict, 3):
        return verdict, f"exit code {code} does not match verdict {verdict}"
    if verdict == VIOLATED:
        return verdict, "frac_tiling_tree is proven under fractional tiling, yet violated"
    if (verdict == HYPOTHESIS_FAILED) == frac_tiling:
        return verdict, "hypothesis verdict disagrees with relate's fractional_tiling"
    return verdict, ""


def gate_cli_pairs(state: dict, ops: list[Op]) -> None:
    from gdom.multigraph import parse_graph

    with open(state["outputs"], encoding="utf-8") as fh:
        lines = fh.readlines()
    frac_tiling = False
    for i, (op, line) in enumerate(zip(ops, lines)):
        g_path, h_path = state["files"][i // 2]
        code, out, err = json.loads(line)
        try:
            if i % 2 == 0:
                with open(g_path, encoding="utf-8") as fg, open(h_path, encoding="utf-8") as fh:
                    g, h = parse_graph(fg.read()), parse_graph(fh.read())
                op.verdict, op.note = _gate_relate(g, h, code, out)
                frac_tiling = op.verdict.partition(":")[2][1:2] == "f"
            else:
                op.verdict, op.note = _gate_check(code, out, frac_tiling)
        except (ValueError, KeyError, TypeError) as exc:
            op.verdict, op.note = "error", f"unreadable output: {exc!r}"
        if op.note and err:
            op.note += f" ({err.strip()[:200]})"
        op.failed = bool(op.note)


# -- hunts ------------------------------------------------------------------------


def _hunt_trials(state: dict, clock, call) -> list[Op]:
    """Run one hunt with a clock stamp at each trial boundary.

    ``search.generate_pair`` starts every trial and ``search.check`` decides
    it; both are rebound in ``gdom.search`` for the run so each trial's
    outcome is recorded where the hunt would otherwise drop it.
    """
    from gdom import search

    trials: list[list] = []  # [start stamp, end stamp, outcome]
    generate_pair, check = search.generate_pair, search.check

    def stamped_generate_pair(gen, trial=0):
        end, start = clock.boundary()
        if trials:
            trials[-1][1] = end
        trials.append([start, None, NO_PAIR])
        pair = generate_pair(gen, trial)
        trials[-1][2] = UNCHECKED
        return pair

    def recorded_check(*args, **kwargs):
        trials[-1][2] = SKIPPED  # stays if a resource bound ends the check
        report = check(*args, **kwargs)
        trials[-1][2] = report.verdict
        return report

    search.generate_pair, search.check = stamped_generate_pair, recorded_check
    error = ""
    try:
        state["result"] = call()
    except Exception as exc:  # a trial killed the hunt; the remaining trials count as failed
        error = repr(exc)
    finally:
        search.generate_pair, search.check = generate_pair, check
        if trials:
            trials[-1][1] = clock.boundary()[0]
        clock.finish()
    ops = [Op(start, end - start, outcome, outcome in (NO_PAIR, UNCHECKED, HYPOTHESIS_FAILED)) for start, end, outcome in trials]
    if error:
        if ops:
            ops[-1].failed, ops[-1].note = True, error
        ops += [Op(clock.points[-1][0], 0.0, "not_run", True, error) for _ in range(state["n_ops"] - len(ops))]
    return ops


def setup_tutte_hunt(seed: int, n_ops: int, workdir: str) -> dict:
    from gdom.search import PairGenerator

    gen = PairGenerator("overlay_copies", seed, relation="domination", max_g=8, max_h=5)
    return {"gen": gen, "n_ops": n_ops}


def run_tutte_hunt(state: dict, clock) -> list[Op]:
    from gdom.search import hunt

    return _hunt_trials(state, clock, lambda: hunt("tutte_coefficients", state["gen"], state["n_ops"]))


def setup_hinge_hunt(seed: int, n_ops: int, workdir: str) -> dict:
    from gdom.search import PairGenerator
    from gdom.spectral import hinge

    gen = PairGenerator("overlay_copies", seed, relation="domination", max_g=10, max_h=5)
    return {"gen": gen, "n_ops": n_ops, "params": {"functional": hinge(4), "hypothesis": "domination"}}


def run_hinge_hunt(state: dict, clock) -> list[Op]:
    from gdom.search import hunt

    return _hunt_trials(
        state, clock, lambda: hunt("spectral_decreasing_convex", state["gen"], state["n_ops"], params=state["params"])
    )


def _recheck_tutte(g, h) -> bool:
    from gdom.checks import check

    return check("tutte_coefficients", g, h, {"hypothesis": "domination"}).verdict == VIOLATED


def _recheck_hinge(g, h) -> bool:
    """Criterion 9's spectral re-check (the gate applies the Hall oracle first)."""
    from gdom.spectral import hinge, spectral_functional

    return spectral_functional(g, hinge(4)) > spectral_functional(h, hinge(4)) + 1e-9


def _gate_hunt(recheck):
    def gate(state: dict, ops: list[Op]) -> None:
        from gdom.multigraph import parse_graph
        from gdom.relations import domination_hall_condition

        result = state.get("result")
        if result is None:
            return  # the hunt raised; its ops are already failed
        violated = [op for op in ops if op.verdict == VIOLATED]
        if len(violated) != len(result.violations):
            for op in violated:
                op.failed, op.note = True, "hunt reported a different number of violations"
        by_trial = {v.trial: v for v in result.violations}
        for i, op in enumerate(ops):
            v = by_trial.get(i)
            if op.verdict != VIOLATED or v is None:
                continue
            g, h = parse_graph(v.g), parse_graph(v.h)
            if not domination_hall_condition(g, h)[0]:
                op.failed, op.note = True, "violation pair fails the Hall condition"
            elif not recheck(g, h):
                op.failed, op.note = True, "violation does not re-check from its serialized graphs"

    return gate


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    ops_per_s: float  # nominal rate on a 2-core x86 box; sizes the op list for --seconds
    unit: int  # the op count is a whole number of these (a full pass over the cli grid)
    setup: object
    run: object
    gate: object

    def n_ops(self, seconds: float) -> int:
        return self.unit * max(1, round(self.ops_per_s * seconds / self.unit))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_pairs", 1, 200.0, 2 * len(CELLS), setup_cli_pairs, run_cli_pairs, gate_cli_pairs),
        Workload("tutte_hunt", 10, 15.0, 1, setup_tutte_hunt, run_tutte_hunt, _gate_hunt(_recheck_tutte)),
        Workload("hinge_hunt", 2024, 470.0, 1, setup_hinge_hunt, run_hinge_hunt, _gate_hunt(_recheck_hinge)),
    )
}
