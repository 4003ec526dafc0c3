"""Isomorphism machinery: canonical codes, automorphisms, local statistics.

Isomorphism here means a bijection preserving adjacency with multiplicity;
edge weights are carried data, not structure, and are ignored throughout
this module.  Canonical codes are complete invariants computed by iterated
color refinement with backtracking over the first non-singleton cell,
adequate at desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass
from typing import Optional

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


def _first_nonsingleton_cell(colors: list[int]) -> Optional[list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    for c in sorted(cells):
        if len(cells[c]) > 1:
            return cells[c]
    return None


def _leaf_code(adj, colors, n, root) -> tuple:
    order = sorted(range(n), key=lambda v: colors[v])
    lbl = {v: i for i, v in enumerate(order)}
    edges = sorted(
        (min(lbl[u], lbl[v]), max(lbl[u], lbl[v]), m)
        for u in range(n)
        for v, m in adj[u].items()
        if u < v
    )
    return (n, -1 if root is None else lbl[root], tuple(edges))


_ORBIT_PRUNE_CELL = 5  # below this, plain branching is cheaper than an orbit pass


def _canon_tuple(adj, colors, n, root) -> tuple:
    colors = _refine(adj, colors)
    cell = _first_nonsingleton_cell(colors)
    if cell is None:
        return _leaf_code(adj, colors, n, root)
    branch = cell
    if len(cell) >= _ORBIT_PRUNE_CELL:
        # vertices in one orbit of the color-preserving automorphism group
        # lead to equal subtree minima; branch on representatives only, each
        # found with its orbit, the level-0 orbit of a chain based at it
        inv = [
            (colors[v], tuple(sorted((colors[u], m) for u, m in adj[v].items())))
            for v in range(n)
        ]
        covered: set[int] = set()
        branch = []
        for v in cell:
            if v not in covered:
                covered |= _stabilizer_chain(adj, inv, n, [v])[1][0]
                branch.append(v)
    best = None
    for v in branch:
        branched = [(c, 0 if u == v else 1) for u, c in enumerate(colors)]
        palette = {s: i for i, s in enumerate(sorted(set(branched)))}
        sub = _canon_tuple(adj, [palette[s] for s in branched], n, root)
        if best is None or sub < best:
            best = sub
    return best


def canonical_code(g: Multigraph, root: Optional[int] = None) -> bytes:
    """Complete isomorphism invariant; equal codes iff (rooted-)isomorphic."""
    if root is not None and not (0 <= root < g.n):
        raise ValueError(f"root {root} out of range")
    adj = _pair_adjacency(g)
    colors = [0] * g.n if root is None else [1 if v == root else 0 for v in range(g.n)]
    t = _canon_tuple(adj, colors, g.n, root)
    return repr(t).encode("ascii")


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


def _vertex_invariants(adj: list[dict[int, int]]) -> list[tuple]:
    return [tuple(sorted(ns.values())) for ns in adj]


def _extend_automorphism(
    adj, inv, mapping: dict[int, int], used: set[int], n: int
) -> Optional[dict[int, int]]:
    """Backtracking completion of a partial automorphism; None if impossible."""
    if len(mapping) == n:
        return dict(mapping)
    v = min(u for u in range(n) if u not in mapping)
    for x in range(n):
        if x in used or inv[x] != inv[v]:
            continue
        ok = True
        for u, img in mapping.items():
            if adj[v].get(u, 0) != adj[x].get(img, 0):
                ok = False
                break
        if not ok:
            continue
        mapping[v] = x
        used.add(x)
        res = _extend_automorphism(adj, inv, mapping, used, n)
        if res is not None:
            return res
        del mapping[v]
        used.discard(x)
    return None


def _orbit_closure(n: int, seeds: list[int], gens: list[tuple[int, ...]]) -> set[int]:
    orbit = set(seeds)
    frontier = list(seeds)
    while frontier:
        v = frontier.pop()
        for p in gens:
            w = p[v]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def _stabilizer_chain(
    adj, inv, n: int, base: Optional[list[int]] = None
) -> tuple[list[tuple[int, ...]], list[set[int]]]:
    """Generators of the automorphisms that preserve ``inv``, and the basic orbits.

    Fixes the points of ``base`` (default 0, 1, ...) in turn and, per level,
    finds automorphisms that move the base point while fixing the earlier
    ones.  Level i's orbit is the orbit of ``base[i]`` under the automorphisms
    that fix ``base[:i]``; the group order is the product of the orbit sizes.
    """
    gens: list[tuple[int, ...]] = []
    orbits: list[set[int]] = []
    prefix: dict[int, int] = {}
    for b in range(n) if base is None else base:
        level_gens: list[tuple[int, ...]] = []
        orbit = {b}
        for x in range(n):
            if x == b or x in prefix or x in orbit or inv[x] != inv[b]:
                continue
            mapping = dict(prefix)
            mapping[b] = x
            found = _extend_automorphism(adj, inv, mapping, set(mapping.values()), n)
            if found is not None:
                perm = tuple(found[v] for v in range(n))
                level_gens.append(perm)
                gens.append(perm)
                orbit = _orbit_closure(n, list(orbit), level_gens)
        orbits.append(orbit)
        prefix[b] = b
    return gens, orbits


def automorphisms(g: Multigraph) -> AutomorphismInfo:
    """Generators, orbit partition, and exact group order (stabilizer chain)."""
    if g.n > DEFAULT_SIZE_BOUND:
        raise SizeBoundExceeded(f"|G| = {g.n} exceeds bound {DEFAULT_SIZE_BOUND}")
    n = g.n
    adj = _pair_adjacency(g)
    gens, level_orbits = _stabilizer_chain(adj, _vertex_invariants(adj), n)
    seen: set[int] = set()
    orbits: list[list[int]] = []
    for v in range(n):
        if v not in seen:
            orb = sorted(_orbit_closure(n, [v], gens))
            orbits.append(orb)
            seen.update(orb)
    if not gens:
        gens = [tuple(range(n))]
    order = math.prod(len(orbit) for orbit in level_orbits)
    return AutomorphismInfo(generators=gens, orbits=orbits, order=order)


_transitive = Memo()


def is_transitive(g: Multigraph) -> bool:
    """True iff the automorphism group has a single vertex orbit; memoized on
    the graph value, as :func:`cached_code` is."""
    key = (g.n, g.edges)
    hit = _transitive.get(key)
    if hit is not None:
        return hit
    inv = _vertex_invariants(_pair_adjacency(g))
    return _transitive.put(key, g.n == 1 or (len(set(inv)) == 1 and len(automorphisms(g).orbits) == 1))


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
