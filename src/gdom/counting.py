"""Exact combinatorial counting: spanning trees, Tutte polynomial, and friends.

Everything here is exact big-integer or big-rational arithmetic; no floats.
Determinants use fraction-free Bareiss elimination on integer matrices
(rational inputs are cleared to a common denominator first).

Every homomorphism count, proper colourings included (maps to K_q), is one
bucket-elimination engine over a min-degree order of G, in int tables whose
size is checked against one bound before any is built.  Only the Tutte
polynomial recurses: split the graph into its blocks
(``multigraph.blocks``) and multiply, T(G) = Π T(B) (Haggard, Pearce and
Royle, ACM TOMS 2010); inside a block, delete and contract its first unit,
memoized on the block's canonical code.  A tree costs no recursion depth; a
long cycle is one block and still recurses once per edge.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .multigraph import Memo, Multigraph, blocks
from .symmetry import cached_code

Count = Union[int, Fraction]

DEFAULT_TUTTE_EDGE_BOUND = 24
DEFAULT_SUBSET_BOUND = 40
DEFAULT_HOM_TABLE_BOUND = 2**20  # entries of one elimination table


class CountingBoundExceeded(RuntimeError):
    pass


# -- exact determinants ----------------------------------------------------


def bareiss_determinant(mat: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def clear_denominators(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers d*x for x in xs, and d, the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def rational_determinant(mat: list[list[Fraction]]) -> Fraction:
    n = len(mat)
    if n == 0:
        return Fraction(1)
    flat, den = clear_denominators([x for row in mat for x in row])
    return Fraction(bareiss_determinant([flat[i : i + n] for i in range(0, n * n, n)]), den**n)


def _as_count(x: Fraction) -> Count:
    return int(x) if x.denominator == 1 else x


def laplacian_minor(g: Multigraph, a: Iterable[int]) -> Count:
    """det of the principal Laplacian submatrix on rows/columns ``a``; M({}) = 1."""
    idx = sorted(set(a))
    if not all(0 <= v < g.n for v in idx):
        raise ValueError("vertex set out of range")
    L = g.laplacian()
    sub = [[L[u][v] for v in idx] for u in idx]
    return _as_count(rational_determinant(sub))


def count_spanning_trees(g: Multigraph) -> Count:
    """Spanning-tree count by Matrix-Tree; weighted graphs give the tree weight sum."""
    return laplacian_minor(g, range(g.n - 1))


# -- Tutte polynomial --------------------------------------------------------


@dataclass(frozen=True)
class BivariatePoly:
    """Bivariate polynomial with exact integer coefficients, indexed (x-deg, y-deg)."""

    coeffs: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int], int]) -> "BivariatePoly":
        return BivariatePoly(tuple(sorted((k, v) for k, v in d.items() if v)))

    @staticmethod
    def constant(c: int) -> "BivariatePoly":
        return BivariatePoly.from_dict({(0, 0): c})

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.coeffs)

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        d = self.as_dict()
        for k, v in other.coeffs:
            d[k] = d.get(k, 0) + v
        return BivariatePoly.from_dict(d)

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        d = self.as_dict()
        for k, v in other.coeffs:
            d[k] = d.get(k, 0) - v
        return BivariatePoly.from_dict(d)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        d: dict[tuple[int, int], int] = {}
        for (i, j), a in self.coeffs:
            for (k, l), b in other.coeffs:
                key = (i + k, j + l)
                d[key] = d.get(key, 0) + a * b
        return BivariatePoly.from_dict(d)

    def shift_y(self, k: int) -> "BivariatePoly":
        """Multiply by y^k."""
        return BivariatePoly(tuple(((i, j + k), v) for (i, j), v in self.coeffs))

    def power(self, e: int) -> "BivariatePoly":
        result = BivariatePoly.constant(1)
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, x: Count, y: Count) -> Count:
        """The value at (x, y), in the arguments' own types: int points give an int."""
        return sum(c * x**i * y**j for (i, j), c in self.coeffs)

    def substitute_plus_one(self) -> "BivariatePoly":
        """The polynomial p(x+1, y+1), by binomial expansion."""
        d: dict[tuple[int, int], int] = {}
        for (i, j), c in self.coeffs:
            for a in range(i + 1):
                ca = math.comb(i, a)
                for b in range(j + 1):
                    key = (a, b)
                    d[key] = d.get(key, 0) + c * ca * math.comb(j, b)
        return BivariatePoly.from_dict(d)

    def to_json_triples(self) -> list[list]:
        return [[i, j, str(v)] for (i, j), v in self.coeffs]


_X = BivariatePoly.from_dict({(1, 0): 1})
_ONE = BivariatePoly.constant(1)

_tutte_memo = Memo()


Pairs = tuple[tuple[int, int, int], ...]  # sorted (u, v, mult), u < v


def _blocks_of(g: Multigraph) -> list[tuple[int, Pairs]]:
    """Each block of g as (k, its pairs relabelled onto 0..k-1, sorted)."""
    adj = g.adjacency
    out = []
    for block in blocks(g):
        lbl = {v: i for i, v in enumerate(sorted({w for pair in block for w in pair}))}
        out.append((len(lbl), tuple(sorted((lbl[u], lbl[v], adj[(u, v)]) for u, v in block))))
    return out


def _contract(n: int, rest: Pairs, u: int, v: int) -> Pairs:
    """The pairs of G/uv on n-1 vertices, parallel pairs merged; ``rest`` omits (u, v)."""
    remap = [w if w < v else (u if w == v else w - 1) for w in range(n)]
    merged: dict[tuple[int, int], int] = {}
    for a, b, m in rest:
        key = (remap[a], remap[b]) if remap[a] < remap[b] else (remap[b], remap[a])
        merged[key] = merged.get(key, 0) + m
    return tuple(sorted((a, b, m) for (a, b), m in merged.items()))


def _tutte_rec(n: int, pairs: Pairs) -> BivariatePoly:
    """Tutte polynomial of a connected loopless multigraph: T(G) = Π T(B) over
    its blocks B, and deletion–contraction of the first unit within a block."""
    if not pairs:
        return _ONE
    if pairs == ((0, 1, 1),):
        return _X
    g = Multigraph(n, pairs, _validated=True)
    parts = _blocks_of(g)
    if len(parts) > 1:
        result = _ONE
        for k, block in parts:
            result = result * _tutte_rec(k, block)
        return result
    key = cached_code(g)
    hit = _tutte_memo.get(key)
    if hit is not None:
        return hit
    # deleting a unit of a 2-connected block, or of a multiple pair, keeps it
    # connected; contracting it turns its m-1 mates into loops, y factors
    (u, v, m), rest = pairs[0], pairs[1:]
    deleted = ((u, v, m - 1),) + rest if m > 1 else rest
    contracted = _tutte_rec(n - 1, _contract(n, rest, u, v)).shift_y(m - 1)
    return _tutte_memo.put(key, _tutte_rec(n, deleted) + contracted)


def tutte_polynomial(g: Multigraph) -> BivariatePoly:
    """Tutte polynomial by deletion-contraction, memoized on canonical codes."""
    units = g.edge_unit_count()
    if units > DEFAULT_TUTTE_EDGE_BOUND:
        raise CountingBoundExceeded(
            f"{units} edge units exceed the Tutte bound {DEFAULT_TUTTE_EDGE_BOUND}"
        )
    pairs = tuple(sorted((u, v, m) for (u, v), m in g.adjacency.items()))
    return _tutte_rec(g.n, pairs)


def count_forests(g: Multigraph) -> int:
    return tutte_polynomial(g).evaluate(2, 1)


def count_acyclic_orientations(g: Multigraph) -> int:
    return tutte_polynomial(g).evaluate(2, 0)


# -- independent sets --------------------------------------------------------


def count_independent_sets(g: Multigraph) -> int:
    """Number of independent vertex sets, the empty set included."""
    if g.n > DEFAULT_SUBSET_BOUND:
        raise CountingBoundExceeded(f"{g.n} vertices exceed the independent-set bound {DEFAULT_SUBSET_BOUND}")
    closed = [1 << v for v in range(g.n)]
    for u, v, _, _ in g.edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    memo: dict[int, int] = {0: 1}

    def rec(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        v = (mask & -mask).bit_length() - 1
        res = rec(mask & ~(1 << v)) + rec(mask & ~closed[v])
        memo[mask] = res
        return res

    return rec((1 << g.n) - 1)


# -- homomorphisms by variable elimination ----------------------------------


@dataclass(frozen=True)
class HomTarget:
    """Target graph for homomorphism counting; loops allowed."""

    n: int
    edges: frozenset[tuple[int, int]]  # (u, v) with u <= v; (v, v) is a loop

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    @staticmethod
    def independent_set_target() -> "HomTarget":
        """Edge in/out with a loop at 'out'; maps are exactly independent-set indicators."""
        return HomTarget(2, frozenset({(0, 0), (0, 1)}))

    @staticmethod
    def complete(q: int) -> "HomTarget":
        return HomTarget(q, frozenset((i, j) for i in range(q) for j in range(i + 1, q)))


_hom_memo = Memo()
_orders = Memo()  # g.key -> (elimination order, width)


def _bounded_order(g: Multigraph, k: int) -> list[int]:
    """An elimination order of V(G), found once per graph, that takes a vertex
    of least degree in G plus the fill edges so far.  Its width is the most
    neighbours a vertex has when it goes.  A map into range(k) needs tables
    of up to k^(width + 1) entries and an adjacency table of k^2; if either
    passes ``DEFAULT_HOM_TABLE_BOUND``, ``CountingBoundExceeded``."""
    key = g.key
    if (hit := _orders.get(key)) is None:
        nbrs = {v: set(ns) for v, ns in enumerate(g.neighbors)}
        order, width = [], 0
        while nbrs:
            v = min(nbrs, key=lambda x: (len(nbrs[x]), x))
            order.append(v)
            width = max(width, len(nbrs[v]))
            for u in nbrs[v]:
                nbrs[u] = (nbrs[u] | nbrs[v]) - {u, v}
            del nbrs[v]
        hit = _orders.put(key, (order, width))
    order, width = hit
    power = max(width + 1, 2)
    if k**power > DEFAULT_HOM_TABLE_BOUND:
        raise CountingBoundExceeded(f"{k}^{power} entries exceed the table bound {DEFAULT_HOM_TABLE_BOUND}")
    return order


def _expand(table: list[int], scope: tuple[int, ...], full: list[int], k: int) -> list[int]:
    """``table`` over ``scope`` as a table over ``full`` ⊇ scope, constant
    along the vertices scope lacks; both list their vertices descending."""
    for x in full:
        if x not in scope:
            inner = k ** sum(y < x for y in scope)
            table = [e for o in range(0, len(table), inner) for e in table[o : o + inner] * k]
    return table


def _eliminate(g: Multigraph, order: list[int], k: int, adj: list[int], w: list[int]) -> int:
    """Σ over maps f: V(G) -> range(k) of Π w[f(v)] · Π adj[f(u)·k + f(v)] over
    the adjacent pairs uv, by bucket elimination along ``order``.  Vertices
    are renamed by their place in the order, and each table lists its
    vertices descending, so the vertex that goes is the last index."""
    rank = {v: r for r, v in enumerate(order)}
    buckets: list[list[tuple[tuple[int, ...], list[int]]]] = [[] for _ in order]
    for u, v in g.adjacency:
        a, b = sorted((rank[u], rank[v]))
        buckets[a].append(((b, a), adj))
    total = 1
    for r, bucket in enumerate(buckets):
        full = sorted({r}.union(*(scope for scope, _ in bucket)), reverse=True)
        table = [1] * k ** len(full)
        for scope, factor in bucket:
            table = list(map(operator.mul, table, _expand(factor, scope, full, k)))
        message = [sum(map(operator.mul, table[i : i + k], w)) for i in range(0, len(table), k)]
        if len(full) > 1:
            buckets[full[-2]].append((tuple(full[:-1]), message))
        else:
            total *= message[0]
    return total


def count_weighted_homomorphisms(
    g: Multigraph,
    target: HomTarget,
    weights: Optional[dict[int, Fraction]] = None,
) -> Count:
    """Total weight of adjacency-preserving maps V(G) -> V(target); ``weights`` covers V(target).

    Bucket elimination (Dechter 1999; Díaz, Serna and Thilikos 2002) in ints,
    the weights cleared to a common denominator d and the total divided by
    d^|G|.  A table past ``DEFAULT_HOM_TABLE_BOUND`` raises
    ``CountingBoundExceeded`` before any is built (``_bounded_order``)."""
    if weights is not None and weights.keys() != set(range(target.n)):
        raise ValueError(f"hom_weights name vertices {list(weights)}; the target's are 0..{target.n - 1}")
    ws = tuple(Fraction(1 if weights is None else weights[v]) for v in range(target.n))
    if any(x <= 0 for x in ws):
        raise ValueError("homomorphism weights must be positive")
    key = (g.key, target, ws)
    hit = _hom_memo.get(key)
    if hit is not None:
        return hit
    k = target.n
    order = _bounded_order(g, k)
    if k == 0:
        return _hom_memo.put(key, 0)  # V(G) is never empty
    w, den = clear_denominators(ws)
    adj = [int(target.adjacent(a, b)) for a in range(k) for b in range(k)]
    return _hom_memo.put(key, _as_count(Fraction(_eliminate(g, order, k, adj, w), den**g.n)))


def count_proper_colorings(g: Multigraph, q: int) -> int:
    """Proper colourings with q colours: the homomorphisms to K_q, memoized
    on (G, q) and counted on K_q's adjacency table without building K_q."""
    if q < 0:
        raise ValueError("number of colors must be nonnegative")
    key = (g.key, q)
    hit = _hom_memo.get(key)
    if hit is None:
        order = _bounded_order(g, q)
        adj = [int(a != b) for a in range(q) for b in range(q)]
        hit = _hom_memo.put(key, _eliminate(g, order, q, adj, [1] * q) if q else 0)  # V(G) is never empty
    return hit


# -- matchings and packings --------------------------------------------------


DEFAULT_MATCHING_UNIT_BOUND = 64


def count_matchings(g: Multigraph) -> int:
    """Matchings over edge units (parallel units are distinct); empty included."""
    if g.edge_unit_count() > DEFAULT_MATCHING_UNIT_BOUND:
        raise CountingBoundExceeded(
            f"{g.edge_unit_count()} edge units exceed the matching bound"
            f" {DEFAULT_MATCHING_UNIT_BOUND}"
        )
    records = sorted((u, v, m) for (u, v), m in g.adjacency.items())
    memo: dict[tuple, int] = {}

    def rec(recs: tuple) -> int:
        if not recs:
            return 1
        hit = memo.get(recs)
        if hit is not None:
            return hit
        (u, v, m), rest = recs[0], recs[1:]
        total = rec(rest)
        rest_uv = tuple(r for r in rest if u not in r[:2] and v not in r[:2])
        total += m * rec(rest_uv)
        memo[recs] = total
        return total

    return rec(tuple(records))


def count_packings(g: Multigraph, k: Multigraph) -> int:
    """Sets of pairwise vertex-disjoint copies of k in g; the empty packing counts."""
    from .embeddings import enumerate_copies

    if k.n > g.n:
        return 1
    # ways[used] = packings among the copies seen so far that cover exactly ``used``
    ways = {0: 1}
    for c in enumerate_copies(g, k).copies:
        mask = sum(1 << v for v in c.vertices)
        for used, count in list(ways.items()):
            if not mask & used:
                ways[used | mask] = ways.get(used | mask, 0) + count
    return sum(ways.values())
