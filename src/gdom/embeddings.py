"""Copy enumeration: subgraphs of G isomorphic to H, and rooted embeddings.

An embedding is an injective vertex map under which every H-edge lands on
a G-pair of at least its multiplicity (subgraph semantics).  Embeddings
that differ by an automorphism of H give the same copy (vertex set plus
edge multiset), so each copy is produced from exactly one embedding: the
search adds the constraints of a stabilizer chain of Aut(H), which keep
the first embedding of each class in DFS order.  Rooted questions keep the
raw embeddings, because root identity matters for domination.  What the
search derives from H alone (order, anchors, adjacency checks and the
floors from the stabilizer chain) is planned once per H value and shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .multigraph import Memo, Multigraph
from .symmetry import _pair_adjacency, _search_tree


@dataclass(frozen=True)
class Copy:
    """A subgraph of G isomorphic to H, with the embedding that made it:
    ``image`` lists the G-vertex of each H-vertex, in H's order.  Embeddings
    that differ by an automorphism of H make the same copy, so ``image``
    takes no part in ``==`` or hashing, and dedup and order are unchanged."""

    vertices: tuple[int, ...]  # sorted
    edges: tuple[tuple[int, int, int], ...]  # sorted (u, v, mult), u < v
    image: tuple[int, ...] = field(compare=False)


@dataclass
class CopyList:
    copies: list[Copy]


def _search_order(h: Multigraph, h_deg: list[int]) -> list[int]:
    """Smallest-degree-first order that keeps each new vertex adjacent to a placed one."""
    order = [min(range(h.n), key=lambda v: (h_deg[v], v))]
    placed = set(order)
    while len(order) < h.n:
        nxt = min(
            (v for v in range(h.n) if v not in placed and any(u in placed for u in h.neighbors[v])),
            key=lambda v: (h_deg[v], v),
        )
        order.append(nxt)
        placed.add(nxt)
    return order


def _degrees(g: Multigraph) -> list[int]:
    """Degrees counting multiplicities, in one pass over the pairs."""
    deg = [0] * g.n
    for (u, v), m in g.adjacency.items():
        deg[u] += m
        deg[v] += m
    return deg


_plans = Memo()


def _plan(h: Multigraph) -> tuple:
    """What the search derives from H alone, memoized on the graph value.

    Per level of the search order: the H-vertex placed, its degree, its
    anchor (None at level 0), its adjacency checks and its floors (the
    H-vertices whose images must lie below the new one when each copy is
    produced once).  The floors come from the basic orbits of Aut(H) along
    the search order, which ``symmetry._search_tree`` finds.
    """
    key = h.key
    plan = _plans.get(key)
    if plan is not None:
        return plan
    h_deg = _degrees(h)
    order = _search_order(h, h_deg)
    h_adj = _pair_adjacency(h)
    # per level: the earlier-placed H-neighbours with their multiplicities,
    # the anchor first
    placed_nbrs = [[(u, h_adj[y][u]) for u in order[:k] if u in h_adj[y]] for k, y in enumerate(order)]
    anchors = tuple(nbrs[0][0] if nbrs else None for nbrs in placed_nbrs)
    # the anchor's adjacency is implied by the candidate list unless it is a
    # multiple edge
    checks = tuple(tuple(nbrs[1:] if nbrs and nbrs[0][1] == 1 else nbrs) for nbrs in placed_nbrs)
    below: list[list[int]] = [[] for _ in order]
    pos = {y: k for k, y in enumerate(order)}
    _, _, levels = _search_tree(h_adj, [0] * h.n, base=order)
    for b, orbit in levels:
        for o in orbit - {b}:
            below[pos[o]].append(b)
    return _plans.put(key, (tuple(order), tuple(h_deg[y] for y in order), anchors, checks, tuple(map(tuple, below))))


def _search(g: Multigraph, h: Multigraph, each_copy_once: bool) -> Iterator[tuple[int, ...]]:
    """Embeddings of h into g, placing H-vertices in search order.

    Candidates come in ascending order: every G-vertex for the first
    H-vertex, then the G-neighbours of the image of the first earlier-placed
    H-neighbour (the anchor), so the DFS visits embeddings in lexicographic
    order of their images along the search order.  With ``each_copy_once``,
    the image of order[k] must exceed the image of every order[i] whose
    level-i stabilizer orbit holds order[k]; exactly the first embedding of
    each Aut(H) class in DFS order satisfies these constraints.
    """
    if h.n > g.n:
        return
    order, need, anchors, checks, below = _plan(h)
    if not each_copy_once:
        below = ((),) * h.n
    g_deg = _degrees(g)
    g_adj = g.adjacency
    g_nbrs = g.neighbors
    last = h.n - 1

    image = [-1] * h.n
    used = [False] * g.n
    candidates: list[Iterator[int]] = [iter(range(g.n))] + [iter(())] * last
    floors = [-1] * h.n
    k = 0
    while k >= 0:
        need_deg, floor, level_checks = need[k], floors[k], checks[k]
        for x in candidates[k]:
            if x <= floor or used[x] or g_deg[x] < need_deg:
                continue
            for u, need_mult in level_checks:
                xu = image[u]
                if g_adj.get((x, xu) if x < xu else (xu, x), 0) < need_mult:
                    break
            else:
                break
        else:  # level exhausted: backtrack
            k -= 1
            if k >= 0:
                used[image[order[k]]] = False
            continue
        image[order[k]] = x
        if k == last:
            yield tuple(image)
            continue
        used[x] = True
        k += 1
        candidates[k] = iter(g_nbrs[image[anchors[k]]])
        if below[k]:
            floors[k] = max(image[u] for u in below[k])


def embeddings_iter(g: Multigraph, h: Multigraph) -> Iterator[tuple[int, ...]]:
    """All embeddings of h into g in deterministic DFS order."""
    yield from _search(g, h, each_copy_once=False)


def _copy_of(embedding: tuple[int, ...], h: Multigraph) -> Copy:
    """The copy an embedding makes of H."""
    # injective, so distinct H-pairs land on distinct G-pairs
    edges = []
    for (a, b), m in h.adjacency.items():
        u, v = embedding[a], embedding[b]
        edges.append((u, v, m) if u < v else (v, u, m))
    edges.sort()
    return Copy(vertices=tuple(sorted(embedding)), edges=tuple(edges), image=embedding)


def enumerate_copies(g: Multigraph, h: Multigraph) -> CopyList:
    """Every distinct copy-subgraph of h in g.

    Copies come in the order of their first embedding in ``embeddings_iter``,
    and each carries that embedding as its ``image``.
    """
    if h.n > g.n:
        raise ValueError(f"|H| = {h.n} exceeds |G| = {g.n}")
    return CopyList(copies=[_copy_of(emb, h) for emb in _search(g, h, each_copy_once=True)])


def rooted_copy_relation(g: Multigraph, h: Multigraph) -> set[tuple[int, int]]:
    """Pairs (x, y) with some embedding sending H-vertex y to G-vertex x."""
    rel: set[tuple[int, int]] = set()
    full = g.n * h.n
    roots = range(h.n)
    for emb in embeddings_iter(g, h):
        rel.update(zip(emb, roots))
        if len(rel) == full:
            break
    return rel
