"""Shared fixtures: reference graph sources and brute-force oracles.

networkx serves as the independent reference implementation (graph atlas,
graph6 codec, isomorphism) so every oracle here is a separate code path
from the package under test.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from gdom import multigraph
from gdom.counting import HomTarget
from gdom.embeddings import embeddings_iter
from gdom.multigraph import Memo, Multigraph

# -- reference graph corpus ---------------------------------------------------


def nx_to_multigraph(nxg) -> Multigraph:
    mapping = {v: i for i, v in enumerate(sorted(nxg.nodes()))}
    return Multigraph(
        nxg.number_of_nodes(), [(mapping[u], mapping[v]) for u, v in nxg.edges()]
    )


@lru_cache(maxsize=None)
def connected_atlas() -> tuple[Multigraph, ...]:
    """All connected simple graphs with 1..7 vertices, one per isomorphism class."""
    out = []
    for nxg in graph_atlas_g():
        if nxg.number_of_nodes() > 0 and nx.is_connected(nxg):
            out.append(nx_to_multigraph(nxg))
    return tuple(out)


def atlas_up_to(n: int) -> list[Multigraph]:
    return [g for g in connected_atlas() if g.n <= n]


def cubic_graph(n: int) -> Multigraph:
    """The random 3-regular graph on n vertices that networkx draws with seed 1."""
    return nx_to_multigraph(nx.random_regular_graph(3, n, seed=1))


def relabelled_petersen() -> tuple[Multigraph, Multigraph]:
    """The Petersen graph and a relabelling of it by a fixed permutation."""
    petersen = nx_to_multigraph(nx.petersen_graph())
    perm = [3, 7, 0, 9, 5, 1, 8, 2, 6, 4]
    return petersen, Multigraph(10, [(perm[u], perm[v]) for u, v, _, _ in petersen.edges])


@pytest.fixture(scope="session")
def atlas6():
    return atlas_up_to(6)


@pytest.fixture(scope="session")
def atlas5():
    return atlas_up_to(5)


@pytest.fixture(scope="session")
def atlas7():
    return atlas_up_to(7)


# -- brute-force oracles -------------------------------------------------------


def edge_units(g: Multigraph) -> list[tuple[int, int]]:
    units = []
    for u, v, m, _ in g.edges:
        units.extend([(u, v)] * m)
    return units


def brute_spanning_tree_count(g: Multigraph) -> int:
    """Enumerate all (n-1)-subsets of edge units and test acyclic spanning."""
    if g.n == 1:
        return 1
    units = edge_units(g)
    count = 0
    for subset in itertools.combinations(range(len(units)), g.n - 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i in subset:
            u, v = units[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def brute_weighted_tree_sum(g: Multigraph) -> Fraction:
    units = []
    for u, v, m, w in g.edges:
        units.extend([(u, v, w)] * m)
    if g.n == 1:
        return Fraction(1)
    total = Fraction(0)
    for subset in itertools.combinations(range(len(units)), g.n - 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        prod = Fraction(1)
        for i in subset:
            u, v, w = units[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
            prod *= w
        if ok:
            total += prod
    return total


def contract(g: Multigraph, s) -> Multigraph:
    """G/S: the vertices of ``s`` merged into the least of them, the loops
    this makes dropped, and the vertices renumbered in their old order.
    Merging the empty set or one vertex leaves G."""
    s = set(s)
    keep = [v for v in range(g.n) if v not in s or v == min(s)]
    pos = {v: i for i, v in enumerate(keep)}
    new = [pos[min(s)] if v in s else pos[v] for v in range(g.n)]
    return Multigraph(len(keep), [(new[u], new[v], m, w) for u, v, m, w in g.edges if new[u] != new[v]])


def brute_forest_count(g: Multigraph) -> int:
    units = edge_units(g)
    count = 0
    for r in range(len(units) + 1):
        for subset in itertools.combinations(range(len(units)), r):
            parent = list(range(g.n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for i in subset:
                u, v = units[i]
                ru, rv = find(u), find(v)
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
            if ok:
                count += 1
    return count


def brute_acyclic_orientation_count(g: Multigraph) -> int:
    """Orient each edge unit; parallel orientations are distinct; count DAGs."""
    units = edge_units(g)
    count = 0
    for bits in range(1 << len(units)):
        arcs = [
            (u, v) if bits >> i & 1 else (v, u) for i, (u, v) in enumerate(units)
        ]
        # cycle detection over the arc multiset
        adj = {v: [] for v in range(g.n)}
        for u, v in arcs:
            adj[u].append(v)
        state = [0] * g.n
        acyclic = True

        def dfs(x):
            nonlocal acyclic
            state[x] = 1
            for y in adj[x]:
                if state[y] == 1:
                    acyclic = False
                    return
                if state[y] == 0:
                    dfs(y)
                    if not acyclic:
                        return
            state[x] = 2

        for v in range(g.n):
            if state[v] == 0 and acyclic:
                dfs(v)
        if acyclic:
            count += 1
    return count


def brute_independent_set_count(g: Multigraph) -> int:
    count = 0
    for mask in range(1 << g.n):
        ok = all(
            not (mask >> u & 1 and mask >> v & 1) for (u, v) in g.adjacency
        )
        if ok:
            count += 1
    return count


def brute_coloring_count(g: Multigraph, q: int) -> int:
    count = 0
    for colors in itertools.product(range(q), repeat=g.n):
        if all(colors[u] != colors[v] for (u, v) in g.adjacency):
            count += 1
    return count


def brute_hom_count(g: Multigraph, target: HomTarget, weights: Optional[dict] = None) -> Union[int, Fraction]:
    """Total weight of the homomorphisms G -> target, one map at a time along
    a connected order of G, with a ``Fraction`` accumulator."""
    if weights is not None and weights.keys() != set(range(target.n)):
        raise ValueError(f"hom_weights name vertices {list(weights)}; the target's are 0..{target.n - 1}")
    w = {v: Fraction(1 if weights is None else weights[v]) for v in range(target.n)}
    if any(x <= 0 for x in w.values()):
        raise ValueError("homomorphism weights must be positive")
    # connected DFS order over G
    order = [0]
    placed = {0}
    while len(order) < g.n:
        nxt = min(
            v
            for v in range(g.n)
            if v not in placed and any(u in placed for u in g.neighbors[v])
        )
        order.append(nxt)
        placed.add(nxt)
    image = [-1] * g.n
    total = Fraction(0)

    def rec(k: int, acc: Fraction) -> None:
        nonlocal total
        if k == g.n:
            total += acc
            return
        v = order[k]
        anchored = [u for u in g.neighbors[v] if image[u] != -1]
        for t in range(target.n):
            if all(target.adjacent(t, image[u]) for u in anchored):
                image[v] = t
                rec(k + 1, acc * w[t])
                image[v] = -1

    rec(0, Fraction(1))
    return int(total) if total.denominator == 1 else total


def brute_matching_count(g: Multigraph) -> int:
    units = edge_units(g)
    count = 0
    for r in range(len(units) + 1):
        for subset in itertools.combinations(range(len(units)), r):
            touched = set()
            ok = True
            for i in subset:
                u, v = units[i]
                if u in touched or v in touched:
                    ok = False
                    break
                touched.update((u, v))
            if ok:
                count += 1
    return count


def covers_every_vertex(g: Multigraph, h: Multigraph) -> bool:
    """True iff each vertex of g lies in some copy of h."""
    if h.n > g.n:
        return False
    covered: set[int] = set()
    for emb in embeddings_iter(g, h):
        covered.update(emb)
        if len(covered) == g.n:
            return True
    return False


def heat_trace_derivative_at_zero(g: Multigraph) -> Fraction:
    """d/dt of the mean return probability at t = 0: -(2/|G|) sum of edge weights."""
    return Fraction(-2, g.n) * sum((m * w for _, _, m, w in g.edges), Fraction(0))


def brute_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    if g.n != h.n or sorted(g.adjacency.values()) != sorted(h.adjacency.values()):
        return False
    ga, ha = g.adjacency, h.adjacency
    for perm in itertools.permutations(range(g.n)):
        if all(
            ga.get((min(u, v), max(u, v)), 0)
            == ha.get((min(perm[u], perm[v]), max(perm[u], perm[v])), 0)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def brute_automorphism_count(g: Multigraph) -> int:
    adj = g.adjacency
    count = 0
    for perm in itertools.permutations(range(g.n)):
        if all(
            adj.get((u, v), 0)
            == adj.get((min(perm[u], perm[v]), max(perm[u], perm[v])), 0)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            count += 1
    return count


def brute_embeddings(g: Multigraph, h: Multigraph) -> list[tuple[int, ...]]:
    """All injections V(H) -> V(G) respecting edge multiplicity dominance."""
    out = []
    for images in itertools.permutations(range(g.n), h.n):
        if all(
            g.multiplicity(images[a], images[b]) >= m
            for (a, b), m in h.adjacency.items()
        ):
            out.append(tuple(images))
    return out


# -- random graphs for property tests -----------------------------------------


def random_connected(rng, n: int, extra: int = 0, weighted: bool = False) -> Multigraph:
    """rng is a random.Random; tree plus `extra` random edges."""
    edges = []
    for i in range(1, n):
        w = Fraction(rng.randint(1, 8), rng.randint(1, 8)) if weighted else Fraction(1)
        edges.append((rng.randrange(i), i, 1, w))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            w = Fraction(rng.randint(1, 8), rng.randint(1, 8)) if weighted else Fraction(1)
            edges.append((u, v, 1, w))
    return Multigraph(n, edges)


# -- memos ----------------------------------------------------------------------


def gdom_memos() -> dict[tuple[str, str], Memo]:
    """Every ``Memo`` that a module of gdom holds, by (module name, attribute)."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "gdom" or name.startswith("gdom.")
        for attr, value in vars(module).items()
        if isinstance(value, Memo)
    }


def bound_memos(monkeypatch, bound: int) -> None:
    """Bound every memo of gdom at ``bound`` entries, on fresh tables; the
    process's own tables and bound come back when the test ends."""
    monkeypatch.setattr(multigraph, "MEMO_BOUND", bound)
    for name, attr in gdom_memos():
        monkeypatch.setattr(sys.modules[name], attr, Memo())
