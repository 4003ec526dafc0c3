"""Copy enumeration: subgraphs of G isomorphic to H, and rooted embeddings.

An embedding is an injective vertex map under which every H-edge lands on
a G-pair of at least its multiplicity (subgraph semantics).  Copies are
embeddings deduplicated as subgraphs (vertex set plus edge multiset);
rooted questions keep the raw embeddings, because root identity matters
for domination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .multigraph import Multigraph


class CopyLimitExceeded(RuntimeError):
    """Raised by deciders that need a complete copy list but got a truncated one."""


# a copy as a subgraph of G: vertex set + edge multiset keyed by pair
CopyKey = tuple[frozenset[int], tuple[tuple[int, int, int], ...]]


@dataclass(frozen=True)
class Copy:
    """A subgraph of G isomorphic to H."""

    vertices: tuple[int, ...]  # sorted
    edges: tuple[tuple[int, int, int], ...]  # sorted (u, v, mult), u < v

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


@dataclass
class CopyList:
    copies: list[Copy]
    complete: bool = True


def _search_order(h: Multigraph) -> list[int]:
    """Smallest-degree-first order that keeps each new vertex adjacent to a placed one."""
    degs = [h.degree(v) for v in range(h.n)]
    order = [min(range(h.n), key=lambda v: (degs[v], v))]
    placed = set(order)
    while len(order) < h.n:
        frontier = [
            v
            for v in range(h.n)
            if v not in placed and any(u in placed for u in h.neighbors[v])
        ]
        if not frontier:  # h disconnected; cannot happen for Multigraph
            frontier = [v for v in range(h.n) if v not in placed]
        nxt = min(frontier, key=lambda v: (degs[v], v))
        order.append(nxt)
        placed.add(nxt)
    return order


def embeddings_iter(g: Multigraph, h: Multigraph) -> Iterator[tuple[int, ...]]:
    """All embeddings of h into g in deterministic DFS order."""
    if h.n > g.n:
        return
    order = _search_order(h)
    g_deg = [g.degree(v) for v in range(g.n)]
    h_deg = [h.degree(v) for v in range(h.n)]
    h_adj = [dict() for _ in range(h.n)]
    for (u, v), m in h.adjacency.items():
        h_adj[u][v] = m
        h_adj[v][u] = m
    g_adj = g.adjacency

    image = [-1] * h.n
    used = [False] * g.n

    def place(k: int) -> Iterator[tuple[int, ...]]:
        if k == h.n:
            yield tuple(image)
            return
        y = order[k]
        placed_nbrs = [(u, h_adj[y][u]) for u in h_adj[y] if image[u] != -1]
        for x in range(g.n):
            if used[x] or g_deg[x] < h_deg[y]:
                continue
            ok = True
            for u, need in placed_nbrs:
                xu = image[u]
                pair = (x, xu) if x < xu else (xu, x)
                if g_adj.get(pair, 0) < need:
                    ok = False
                    break
            if not ok:
                continue
            image[y] = x
            used[x] = True
            yield from place(k + 1)
            image[y] = -1
            used[x] = False

    yield from place(0)


def _copy_of(embedding: tuple[int, ...], h: Multigraph) -> Copy:
    pair_mult: dict[tuple[int, int], int] = {}
    for (a, b), m in h.adjacency.items():
        u, v = embedding[a], embedding[b]
        if u > v:
            u, v = v, u
        pair_mult[(u, v)] = pair_mult.get((u, v), 0) + m
    return Copy(
        vertices=tuple(sorted(embedding)),
        edges=tuple(sorted((u, v, m) for (u, v), m in pair_mult.items())),
    )


def enumerate_copies(
    g: Multigraph, h: Multigraph, limit: Optional[int] = None
) -> CopyList:
    """Distinct copy-subgraphs of h in g; complete unless ``limit`` cuts it off.

    ``limit`` caps the number of distinct copies; when hit, the returned
    list is flagged incomplete and downstream deciders must treat absence
    of a certificate as inconclusive.
    """
    if h.n > g.n:
        raise ValueError(f"|H| = {h.n} exceeds |G| = {g.n}")
    seen: set[CopyKey] = set()
    copies: list[Copy] = []
    complete = True
    for emb in embeddings_iter(g, h):
        c = _copy_of(emb, h)
        key = (c.vertex_set, c.edges)
        if key in seen:
            continue
        if limit is not None and len(copies) >= limit:
            complete = False
            break
        seen.add(key)
        copies.append(c)
    return CopyList(copies=copies, complete=complete)


def rooted_copy_relation(g: Multigraph, h: Multigraph) -> set[tuple[int, int]]:
    """Pairs (x, y) with some embedding sending H-vertex y to G-vertex x."""
    rel: set[tuple[int, int]] = set()
    if h.n > g.n:
        return rel
    full = g.n * h.n
    for emb in embeddings_iter(g, h):
        for y, x in enumerate(emb):
            rel.add((x, y))
        if len(rel) == full:
            break
    return rel


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
