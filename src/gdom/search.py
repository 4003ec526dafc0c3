"""Pair generators with verified relation certificates, and the hunt engine.

Three strategies: ``overlay_copies`` builds G as a union of copies of H
glued at random overlaps (every vertex covered), ``transitive_catalog``
pairs a vertex-transitive graph with a random connected subgraph, and
``random_connected_pair`` draws both sides independently.  Each emitted
pair's claimed relation is re-proved by the relation deciders before use;
rejection continues until a valid pair appears or the attempt cap trips.
The first two build the pair from embeddings of H in G and hand them to
the domination decider, which checks them and walks them before its own
search: the same yes or no, usually found sooner.

All randomness flows from the generator's 64-bit seed through the
SplitMix64 streams in :mod:`gdom.rng`, so a (strategy, seed, bounds)
triple is reproducible bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import checks
# a hunt reads its params once, so each trial's check runs on read params
from .checks import INEQUALITIES, CheckReport, InequalityId, verify_relation_hypothesis
from .checks import run_check as check
from .counting import CountingBoundExceeded
from .multigraph import Memo, Multigraph, complete_graph, cycle_graph, find
from .relations import Certificate
from .rng import Stream, derive_seed
from .spectral import EigensolverError
from .symmetry import SizeBoundExceeded

STRATEGIES = ("overlay_copies", "transitive_catalog", "random_connected_pair")


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class PairGenerator:
    strategy: str
    seed: int
    relation: str = "domination"
    max_g: int = 10
    max_h: int = 5
    max_attempts: int = 200

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected {STRATEGIES}")
        if self.max_g < 1 or self.max_h < 1:
            raise ValueError("size bounds must be positive")
        if self.strategy == "overlay_copies" and self.max_h < 2:
            raise ValueError("overlay_copies needs max_h >= 2")


@dataclass
class GeneratedPair:
    g: Multigraph
    h: Multigraph
    relation: str
    certificate: Optional[Certificate]
    trial: int
    attempts: int


# -- random building blocks ---------------------------------------------------


def random_connected_graph(rng: Stream, n: int, extra_hi: Optional[int] = None) -> Multigraph:
    """Random spanning tree plus a random number of extra edges; connected by
    construction, so the graph is built without the connectivity walk."""
    if n == 1:
        return Multigraph(1, [])
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(0, n if extra_hi is None else extra_hi)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return Multigraph(n, [(u, v, 1, 1) for u, v in pairs], _validated=True)


def random_connected_subgraph(
    rng: Stream, g: Multigraph, k: int
) -> tuple[Multigraph, tuple[int, ...]]:
    """A connected k-vertex subgraph of g, relabeled to 0..k-1, with the
    embedding that undoes the relabeling: H-vertex i goes to ``chosen[i]``.
    It grows from a frontier and keeps a spanning tree, so it is connected
    by construction and built without the connectivity walk."""
    start = rng.randrange(g.n)
    chosen = [start]
    in_set = {start}
    while len(chosen) < k:
        frontier = sorted(
            {u for v in chosen for u in g.neighbors[v] if u not in in_set}
        )
        if not frontier:
            break
        v = rng.choice(frontier)
        chosen.append(v)
        in_set.add(v)
    chosen.sort()
    lbl = {v: i for i, v in enumerate(chosen)}
    induced = [
        (lbl[u], lbl[v], m)
        for (u, v), m in g.adjacency.items()
        if u in in_set and v in in_set
    ]
    # keep a random spanning tree of the induced graph, then a random edge subset
    n = len(chosen)
    parent = list(range(n))
    order = list(range(len(induced)))
    rng.shuffle(order)
    keep = []
    for i in order:
        u, v, m = induced[i]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
            keep.append((u, v, 1))
        elif rng.chance(1, 2):
            mult = rng.randint(1, m)
            keep.append((u, v, mult))
    return Multigraph(n, [(u, v, m, 1) for u, v, m in keep], _validated=True), tuple(chosen)


_catalogs = Memo()


def transitive_catalog(max_n: int) -> tuple[Multigraph, ...]:
    """Vertex-transitive graphs at desk scale: cycles, completes, hypercubes,
    balanced complete bipartite, circulants.  Built once per ``max_n``."""
    hit = _catalogs.get(max_n)
    if hit is not None:
        return hit
    out: list[Multigraph] = [complete_graph(n) for n in range(2, max_n + 1)]
    out += [cycle_graph(n) for n in range(3, max_n + 1)]
    d = 2
    while 2**d <= max_n:
        n = 2**d
        edges = [
            (x, x ^ (1 << b)) for x in range(n) for b in range(d) if x < x ^ (1 << b)
        ]
        out.append(Multigraph(n, edges))
        d += 1
    for k in range(2, max_n // 2 + 1):
        out.append(Multigraph(2 * k, [(i, k + j) for i in range(k) for j in range(k)]))
    for n in range(5, max_n + 1):
        for s in range(2, n // 2 + (n % 2)):
            pairs = set()
            for i in range(n):
                for step in (1, s):
                    j = (i + step) % n
                    pairs.add((min(i, j), max(i, j)))
            out.append(Multigraph(n, sorted((u, v, 1, 1) for u, v in pairs)))
    return _catalogs.put(max_n, tuple(out))


def overlay_copies(
    rng: Stream, h: Multigraph, k: int, max_g: int
) -> tuple[Multigraph, list[tuple[int, ...]]]:
    """Union of at most k copies of h, each glued to the existing graph at a
    random nonempty vertex overlap; every vertex ends up inside a copy.
    Returns the graph and the embedding of h that placed each copy.  Each
    copy of the connected h shares a vertex with the graph so far, so the
    union is connected and built without the connectivity walk."""
    n = h.n
    pair_mult: dict[tuple[int, int], int] = {}
    placed: list[tuple[int, ...]] = []

    def add_copy(mapping: list[int]) -> None:
        placed.append(tuple(mapping))
        for (a, b), m in h.adjacency.items():
            u, v = mapping[a], mapping[b]
            if u > v:
                u, v = v, u
            pair_mult[(u, v)] = max(pair_mult.get((u, v), 0), m)

    add_copy(list(range(n)))
    g_n = n
    for _ in range(k - 1):
        overlap = rng.randint(1, max(1, n - 1))
        overlap = max(overlap, g_n + n - max_g)  # respect the size budget
        if overlap > min(n, g_n):
            break
        targets = rng.sample(range(g_n), overlap)
        sources = rng.sample(range(n), overlap)
        mapping = [-1] * n
        for s, t in zip(sources, targets):
            mapping[s] = t
        nxt = g_n
        for v in range(n):
            if mapping[v] == -1:
                mapping[v] = nxt
                nxt += 1
        g_n = nxt
        add_copy(mapping)
    return Multigraph(g_n, [(u, v, m, 1) for (u, v), m in pair_mult.items()], _validated=True), placed


# -- pair generation -----------------------------------------------------------


def _propose(rng: Stream, gen: PairGenerator) -> tuple[Multigraph, Multigraph, list[tuple[int, ...]]]:
    """(G, H, the embeddings of H in G that built the pair)."""
    if gen.strategy == "overlay_copies":
        hn = rng.randint(2, gen.max_h)
        h = random_connected_graph(rng, hn, extra_hi=hn + 2)
        g, known = overlay_copies(rng, h, rng.randint(2, 4), gen.max_g)
        return g, h, known
    if gen.strategy == "transitive_catalog":
        catalog = transitive_catalog(gen.max_g)
        g = rng.choice(catalog)
        k = rng.randint(1, min(gen.max_h, g.n))
        h, emb = random_connected_subgraph(rng, g, k)
        return g, h, [emb]
    gn = rng.randint(2, gen.max_g)
    g = random_connected_graph(rng, gn)
    h = random_connected_graph(rng, rng.randint(1, min(gen.max_h, gn)))
    return g, h, []


def generate_pair(gen: PairGenerator, trial: int = 0) -> GeneratedPair:
    """Deterministic (strategy, seed, trial) -> verified pair; rejection-samples.

    Only the domination decider reads a proposal's embeddings.  They change
    no answer; its witnesses are the first embedding of each positive-mass
    pair in walk order, the proposal's own first.  Subgraph pairs carry no
    certificate: the checker re-proves the embedding.
    """
    for attempt in range(gen.max_attempts):
        rng = Stream(derive_seed(gen.seed, trial, attempt))
        g, h, known = _propose(rng, gen)
        ok, cert = verify_relation_hypothesis(gen.relation, g, h, known=known)
        if ok:
            return GeneratedPair(
                g=g, h=h, relation=gen.relation, certificate=cert, trial=trial, attempts=attempt + 1
            )
    raise GenerationError(
        f"no {gen.relation} pair found in {gen.max_attempts} attempts (trial {trial})"
    )


# -- parameter synthesis for single-graph inequalities ---------------------------


def random_regular_cover(rng: Stream, n: int, rounds: int) -> list[list[int]]:
    """Union of ``rounds`` random partitions of the vertex set: every vertex
    appears in exactly ``rounds`` of the returned sets."""
    cover: list[list[int]] = []
    for _ in range(rounds):
        verts = list(range(n))
        rng.shuffle(verts)
        i = 0
        while i < n:
            size = min(rng.randint(1, max(1, n // 2)), n - i)
            cover.append(sorted(verts[i : i + size]))
            i += size
    return cover


def random_vertex_subset(rng: Stream, n: int) -> list[int]:
    size = rng.randint(1, n)
    return sorted(rng.sample(range(n), size))


# -- the hunt -------------------------------------------------------------------


@dataclass
class Violation:
    trial: int
    report: CheckReport
    g: str
    h: Optional[str]

    def to_json(self) -> dict:
        return {"trial": self.trial, "g": self.g, "h": self.h, "report": self.report.to_json()}


@dataclass
class HuntResult:
    inequality: str
    # the generator's fields, so that the record alone replays the hunt
    strategy: str
    seed: int
    relation: str
    max_g: int
    max_h: int
    max_attempts: int
    trials: int
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)
    elapsed: float = 0.0
    generation_failures: int = 0
    resource_skips: int = 0
    params: dict = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)  # exception type -> failed trials
    failed_trials: list[int] = field(default_factory=list)  # each replays from the seed

    def summary(self) -> str:
        """One line that a replay reproduces: wall time is left to ``elapsed``."""
        errors = "".join(f", {n} {kind}" for kind, n in sorted(self.errors.items()))
        return (
            f"hunt {self.inequality}: {len(self.violations)} violation(s) in "
            f"{self.checked}/{self.trials} checked trials "
            f"({self.generation_failures} generation failures, "
            f"{self.resource_skips} resource skips, "
            f"failed trials {self.failed_trials}{errors})"
        )

    def to_json(self) -> dict:
        return {**vars(self), "violations": [v.to_json() for v in self.violations]}


def _self_cover(rng: Stream, g: Multigraph) -> list[dict]:
    """g covering itself once with randomly reduced weights: hypothesis (ii) holds."""
    scale = Fraction(rng.randint(1, 4), 4)
    return [{"vertices": list(range(g.n)), "edges": [[u, v, m, str(w * scale)] for u, v, m, w in g.edges]}]


# required param -> its draw for a hunt's random graph, in the JSON form that it reads
_DRAWS = {
    "a": lambda rng, g: random_vertex_subset(rng, g.n),
    "b": lambda rng, g: random_vertex_subset(rng, g.n),
    "cover": lambda rng, g: random_regular_cover(rng, g.n, rng.randint(1, 3)),
    "weighted_cover": _self_cover,
}


def _hunt_params_trial(drawn: tuple[str, ...], gen: PairGenerator, trial: int, params: dict) -> tuple[Multigraph, dict]:
    """One random graph, and ``params`` with the ``drawn`` keys drawn for it in order."""
    rng = Stream(derive_seed(gen.seed, trial, 10_000))
    g = random_connected_graph(rng, rng.randint(2, gen.max_g))
    return g, {**params, **{key: checks.PARAMS[key].read(_DRAWS[key](rng, g)) for key in drawn}}


def hunt(
    ineq: InequalityId | str,
    gen: PairGenerator,
    trials: int,
    params: Optional[dict] = None,
) -> HuntResult:
    """Run ``check`` over generated inputs; collect violated reports only.

    ``params`` are read once, before the first trial, and kept as JSON;
    each trial runs the check on them, with what it draws added.
    Ids that take no H check one random graph with synthesized parameters
    per trial.  Hypothesis-failed trials are never reported as violations;
    generation failures (attempt cap) and resource-bound trials are counted
    and skipped, and a trial whose check raises ``RecursionError`` or
    ``EigensolverError`` is counted by type and listed, and the hunt goes on.
    A negative ``trials`` raises ``ValueError``.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, not {trials}")
    ineq = InequalityId(ineq)
    entry = INEQUALITIES[ineq]
    given = params or {}
    # none of what a trial draws can be given: its certificate, or each required key of an id without H
    drawn = ("certificate",) if entry.takes_h else tuple(key for key in entry.reads if checks.PARAMS[key].required)
    params = checks.parse_params(ineq, given, drawn)
    t0 = time.perf_counter()
    result = HuntResult(
        inequality=ineq.value,
        **vars(gen),
        trials=trials,
        params=checks.params_to_json({key: params[key] for key in given}),
    )
    for trial in range(trials):
        if entry.takes_h:
            try:
                pair = generate_pair(gen, trial)
            except GenerationError:
                result.generation_failures += 1
                continue
            g, h = pair.g, pair.h
            trial_params = dict(params)
            trial_params.setdefault("hypothesis", gen.relation)
            if pair.certificate is not None:
                trial_params["certificate"] = pair.certificate
        else:
            g, trial_params = _hunt_params_trial(drawn, gen, trial, params)
            h = None
        try:
            report = check(ineq, g, h, trial_params)
        except (CountingBoundExceeded, SizeBoundExceeded):
            result.resource_skips += 1
            continue
        except (RecursionError, EigensolverError) as exc:
            kind = type(exc).__name__
            result.errors[kind] = result.errors.get(kind, 0) + 1
            result.failed_trials.append(trial)
            continue
        result.checked += 1
        if report.verdict == checks.VIOLATED:
            result.violations.append(Violation(trial, report, report.g, report.h))
    result.elapsed = time.perf_counter() - t0
    return result
