"""Isomorphism machinery: canonical codes, automorphisms, local statistics.

Isomorphism here means a bijection preserving adjacency with multiplicity;
edge weights are carried data, not structure, and are ignored throughout
this module.  Canonical codes and automorphism groups come from one
individualization-refinement search (McKay and Piperno, "Practical graph
isomorphism, II", 2014): colour refinement, branching on one cell, and
pruning by the automorphisms that equal leaves reveal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass
from typing import Optional, Sequence

from .multigraph import Memo, Multigraph

DEFAULT_SIZE_BOUND = 64


class SizeBoundExceeded(ValueError):
    pass


# -- color refinement ------------------------------------------------------


def _pair_adjacency(g: Multigraph) -> list[dict[int, int]]:
    adj: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for (u, v), m in g.adjacency.items():
        adj[u][v] = m
        adj[v][u] = m
    return adj


def _refine(adj: list[dict[int, int]], colors: list[int]) -> list[int]:
    """Iterate neighborhood color/multiplicity signatures to a stable partition."""
    n = len(colors)
    while True:
        sigs = []
        for v in range(n):
            nbr_sig = sorted((colors[u], m) for u, m in adj[v].items())
            sigs.append((colors[v], tuple(nbr_sig)))
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _leaf_code(adj, colors, root) -> tuple:
    """The graph relabelled by a discrete colouring: each vertex by its colour."""
    edges = sorted(
        (min(colors[u], colors[v]), max(colors[u], colors[v]), m)
        for u, nbrs in enumerate(adj)
        for v, m in nbrs.items()
        if u < v
    )
    return (len(colors), -1 if root is None else colors[root], tuple(edges))


# -- the search tree -------------------------------------------------------


def _twin_swaps(adj, colors) -> list[tuple[int, ...]]:
    """Swaps of same-coloured twins, vertices whose neighbourhoods agree apart
    from each other: automorphisms the tree finds only one descent at a time."""
    classes: dict[tuple, list[int]] = {}
    for v, nbrs in enumerate(adj):
        items = frozenset(nbrs.items())
        for key in [items] + [items | {(v, m)} for m in set(nbrs.values())]:  # apart, or joined m times
            classes.setdefault((colors[v], key), []).append(v)
    swaps = []
    for twins in classes.values():
        for u, v in zip(twins, twins[1:]):
            perm = list(range(len(adj)))
            perm[u], perm[v] = v, u
            swaps.append(tuple(perm))
    return swaps


def _orbit(seeds, gens) -> set[int]:
    orbit = set(seeds)
    frontier = list(seeds)
    while frontier:
        v = frontier.pop()
        for p in gens:
            if p[v] not in orbit:
                orbit.add(p[v])
                frontier.append(p[v])
    return orbit


def _search_tree(adj, colors: list[int], root: Optional[int] = None, base: Optional[Sequence[int]] = None):
    """The individualization-refinement tree of a coloured graph.

    A node refines its colouring, then branches on the vertices of one cell,
    individualizing each in turn; a discrete colouring is a leaf.  Leaves
    with equal codes differ by an automorphism, which is kept, and a node
    branches on one vertex per orbit of the kept automorphisms fixing its
    path.  On the first path those orbits end up exact, so the generators
    fixing each prefix generate its stabilizer.

    Without ``base`` each node branches on its first non-singleton cell, and
    the least leaf code is the canonical code.  With ``base`` the first
    path individualizes the first vertex of ``base`` not yet alone in its
    cell; that choice depends on labels, so every other node branches on
    the first path's cell of the same depth, and is cut where its cell sizes
    differ from the first path's.

    Returns the code (None with ``base``), the generators, and per depth of
    the first path its vertex with that vertex's orbit under the stabilizer
    of the path before it.
    """
    n = len(colors)
    gens = _twin_swaps(adj, colors)
    first: list[tuple[list[int], Optional[int]]] = []  # per depth: cell sizes, branching cell
    levels: list[tuple[int, set[int]]] = []
    leaves: list[tuple] = []  # (code, colours, path): the first leaf, then the least

    def leaf(colors, path) -> Optional[int]:
        code = _leaf_code(adj, colors, root)
        for ref_code, ref, ref_path in leaves:
            if code == ref_code:
                at = sorted(range(n), key=colors.__getitem__)
                gens.append(tuple(at[c] for c in ref))
                return next(k for k, (a, b) in enumerate(zip(path, ref_path)) if a != b)
        if not leaves:
            leaves.append((code, colors, path))
        elif base is None and code < leaves[-1][0]:
            leaves[1:] = [(code, colors, path)]
        return None

    def visit(colors, path, on_first) -> Optional[int]:
        """Explore below one node; returns the depth to unwind to, if any."""
        colors = _refine(adj, colors)
        k = len(path)
        sizes = [0] * n
        for c in colors:
            sizes[c] += 1
        if base is None:
            cell_color = next((c for c, s in enumerate(sizes) if s > 1), None)
        elif on_first:
            lead = next((v for v in base if sizes[colors[v]] > 1), None)
            cell_color = None if lead is None else colors[lead]
            first.append((sizes, cell_color))
        elif sizes != first[k][0]:
            return None
        else:
            cell_color = first[k][1]
        if cell_color is None:
            return leaf(colors, path)
        cell = [v for v, c in enumerate(colors) if c == cell_color]
        if on_first and base is not None:
            cell.remove(lead)
            cell.insert(0, lead)
        done: list[int] = []
        known = -1
        for v in cell:
            if known != len(gens):
                known = len(gens)
                fixing = [p for p in gens if all(p[u] == u for u in path)]
                covered = _orbit(done, fixing)
            if v in covered:
                continue
            done.append(v)
            covered |= _orbit([v], fixing)
            c = colors[v]
            child = [x + (x > c or (x == c and u != v)) for u, x in enumerate(colors)]
            back = visit(child, path + [v], on_first and len(done) == 1)
            if back is not None and back < k:
                return back
        if on_first:  # these nodes finish deepest first
            levels.insert(0, (done[0], _orbit(done[:1], [p for p in gens if all(p[u] == u for u in path)])))
        return None

    visit(colors, [], True)
    return leaves[-1][0] if base is None else None, gens, levels


def canonical_code(g: Multigraph, root: Optional[int] = None) -> bytes:
    """Complete isomorphism invariant; equal codes iff (rooted-)isomorphic."""
    if root is not None and not (0 <= root < g.n):
        raise ValueError(f"root {root} out of range")
    colors = [0] * g.n if root is None else [1 if v == root else 0 for v in range(g.n)]
    code, _, _ = _search_tree(_pair_adjacency(g), colors, root)
    return repr(code).encode("ascii")


_codes = Memo()


def cached_code(g: Multigraph) -> bytes:
    """Canonical code memoized on the graph value (shared, thread-safe)."""
    key = (g.n, g.edges)
    hit = _codes.get(key)
    if hit is not None:
        return hit
    return _codes.put(key, canonical_code(g))


# -- automorphism group ----------------------------------------------------


@dataclass
class AutomorphismInfo:
    generators: list[tuple[int, ...]]
    orbits: list[list[int]]
    order: int


def automorphisms(g: Multigraph) -> AutomorphismInfo:
    """Generators, orbit partition, and exact group order (from the search tree)."""
    if g.n > DEFAULT_SIZE_BOUND:
        raise SizeBoundExceeded(f"|G| = {g.n} exceeds bound {DEFAULT_SIZE_BOUND}")
    n = g.n
    _, gens, levels = _search_tree(_pair_adjacency(g), [0] * n, base=range(n))
    orbits: list[list[int]] = []
    for v in range(n):
        if all(v not in orbit for orbit in orbits):
            orbits.append(sorted(_orbit([v], gens)))
    order = math.prod(len(orbit) for _, orbit in levels)
    return AutomorphismInfo(generators=gens or [tuple(range(n))], orbits=orbits, order=order)


_transitive = Memo()


def is_transitive(g: Multigraph) -> bool:
    """True iff the automorphism group has a single vertex orbit; memoized on
    the graph value, as :func:`cached_code` is."""
    key = (g.n, g.edges)
    hit = _transitive.get(key)
    if hit is not None:
        return hit
    one_cell = not any(_refine(_pair_adjacency(g), [0] * g.n))
    return _transitive.put(key, g.n == 1 or (one_cell and len(automorphisms(g).orbits) == 1))


# -- local statistics (rooted balls) ----------------------------------------


@dataclass
class LocalStatistics:
    """Distribution of rooted ball classes at a uniform random root."""

    radius: int
    dist: dict[bytes, Fraction]


def rooted_ball(g: Multigraph, root: int, r: int) -> tuple[Multigraph, int]:
    """Induced subgraph on vertices within distance r of root, relabeled."""
    dist = {root: 0}
    frontier = [root]
    d = 0
    while frontier and d < r:
        d += 1
        nxt = []
        for v in frontier:
            for u in g.neighbors[v]:
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    keep = sorted(dist)
    lbl = {v: i for i, v in enumerate(keep)}
    edges = [
        (lbl[u], lbl[v], m, w)
        for u, v, m, w in g.edges
        if u in dist and v in dist
    ]
    return Multigraph(len(keep), edges, _validated=True), lbl[root]


def local_statistics(g: Multigraph, r: int) -> LocalStatistics:
    if r < 0:
        raise ValueError("radius must be nonnegative")
    counts: dict[bytes, int] = {}
    for v in range(g.n):
        ball, root = rooted_ball(g, v, r)
        code = canonical_code(ball, root=root)
        counts[code] = counts.get(code, 0) + 1
    dist = {code: Fraction(c, g.n) for code, c in counts.items()}
    return LocalStatistics(radius=r, dist=dist)


def tv_distance(a: LocalStatistics, b: LocalStatistics) -> Fraction:
    """Half the L1 distance between two ball distributions; lies in [0, 1]."""
    keys = set(a.dist) | set(b.dist)
    total = sum(
        (abs(a.dist.get(k, Fraction(0)) - b.dist.get(k, Fraction(0))) for k in keys),
        Fraction(0),
    )
    return total / 2
