"""Exact combinatorial counting: spanning trees, Tutte polynomial, and friends.

Everything here is exact big-integer or big-rational arithmetic; no floats.
Determinants use fraction-free Bareiss elimination on integer matrices
(rational inputs are cleared to a common denominator first).

The Tutte and chromatic polynomials share one recursion: split the graph
into its blocks (``multigraph.blocks``) and multiply, T(G) = Π T(B) and
P(G) = q·Π P(B)/q (Haggard, Pearce and Royle, ACM TOMS 2010); inside a
block, delete and contract its first unit, memoized on the block's
canonical code.  One computation keeps every code and block value it
meets until it returns, on top of the bounded shared memos.  A tree costs
no recursion depth; a long cycle is one block and still recurses once per
edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .multigraph import Memo, Multigraph, blocks
from .symmetry import cached_code

Count = Union[int, Fraction]

DEFAULT_TUTTE_EDGE_BOUND = 24
DEFAULT_SUBSET_BOUND = 40
DEFAULT_HOM_BOUND = 16


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
    if g.n == 1:
        return 1
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
_Y = BivariatePoly.from_dict({(0, 1): 1})
_ONE = BivariatePoly.constant(1)

_tutte_memo = Memo()


class _OneCall:
    """A shared block memo as one deletion–contraction computation sees it:
    every canonical code and value the computation meets stays in its own
    table until it returns, so ``MEMO_BOUND`` never makes the recursion
    recompute one of its own blocks, however many blocks it meets."""

    def __init__(self, memo: Memo):
        self._memo = memo
        self._seen: dict = {}  # (n, edges) -> code, and code -> value

    def code(self, g: Multigraph) -> bytes:
        key = (g.n, g.edges)
        code = self._seen.get(key)
        if code is None:
            code = self._seen[key] = cached_code(g)
        return code

    def get(self, key):
        value = self._seen.get(key)
        if value is None:
            value = self._memo.get(key)
            if value is not None:
                self._seen[key] = value
        return value

    def put(self, key, value):
        self._seen[key] = value
        return self._memo.put(key, value)


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


def _tutte_rec(n: int, pairs: Pairs, memo: _OneCall) -> BivariatePoly:
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
            result = result * _tutte_rec(k, block, memo)
        return result
    key = memo.code(g)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # deleting a unit of a 2-connected block, or of a multiple pair, keeps it
    # connected; contracting it turns its m-1 mates into loops, y factors
    (u, v, m), rest = pairs[0], pairs[1:]
    deleted = ((u, v, m - 1),) + rest if m > 1 else rest
    contracted = _tutte_rec(n - 1, _contract(n, rest, u, v), memo).shift_y(m - 1)
    return memo.put(key, _tutte_rec(n, deleted, memo) + contracted)


def tutte_polynomial(g: Multigraph) -> BivariatePoly:
    """Tutte polynomial by deletion-contraction, memoized on canonical codes."""
    units = g.edge_unit_count()
    if units > DEFAULT_TUTTE_EDGE_BOUND:
        raise CountingBoundExceeded(
            f"{units} edge units exceed the Tutte bound {DEFAULT_TUTTE_EDGE_BOUND}"
        )
    pairs = tuple(sorted((u, v, m) for (u, v), m in g.adjacency.items()))
    return _tutte_rec(g.n, pairs, _OneCall(_tutte_memo))


def count_forests(g: Multigraph) -> int:
    return tutte_polynomial(g).evaluate(2, 1)


def count_acyclic_orientations(g: Multigraph) -> int:
    return tutte_polynomial(g).evaluate(2, 0)


# -- independent sets --------------------------------------------------------


def count_independent_sets(g: Multigraph) -> int:
    """Number of independent vertex sets, the empty set included."""
    if g.n > DEFAULT_SUBSET_BOUND:
        raise CountingBoundExceeded(f"|G| = {g.n} exceeds bound {DEFAULT_SUBSET_BOUND}")
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


# -- chromatic counting ------------------------------------------------------

_chromatic_memo = Memo()


def _poly_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    size = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(size)
    )


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _chromatic_connected(n: int, pairs: Pairs, memo: _OneCall) -> tuple[int, ...]:
    """Chromatic polynomial of a connected simple graph (every mult 1), ascending
    powers of q: P(G) = q·Π P(B)/q over its blocks B, and deletion–contraction
    of the first pair within a block."""
    if not pairs:
        return (0, 1)
    if pairs == ((0, 1, 1),):
        return (0, -1, 1)
    g = Multigraph(n, pairs, _validated=True)
    parts = _blocks_of(g)
    if len(parts) > 1:
        quotient: tuple[int, ...] = (1,)
        for k, block in parts:
            quotient = _poly_mul(quotient, _chromatic_connected(k, block, memo)[1:])
        return (0,) + quotient
    key = memo.code(g)
    hit = memo.get(key)
    if hit is not None:
        return hit
    (u, v, _), rest = pairs[0], pairs[1:]
    contracted = tuple((a, b, 1) for a, b, _ in _contract(n, rest, u, v))
    deleted = _chromatic_connected(n, rest, memo)
    return memo.put(key, _poly_sub(deleted, _chromatic_connected(n - 1, contracted, memo)))


def chromatic_polynomial(g: Multigraph) -> tuple[int, ...]:
    """Coefficients of the chromatic polynomial, ascending powers of q."""
    pairs = tuple((u, v, 1) for u, v in sorted(g.adjacency))
    return _chromatic_connected(g.n, pairs, _OneCall(_chromatic_memo))


def count_proper_colorings(g: Multigraph, q: int) -> int:
    if q < 0:
        raise ValueError("number of colors must be nonnegative")
    coeffs = chromatic_polynomial(g)
    return sum(c * q**i for i, c in enumerate(coeffs))


# -- weighted homomorphisms --------------------------------------------------


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


def count_weighted_homomorphisms(
    g: Multigraph,
    target: HomTarget,
    weights: Optional[dict[int, Fraction]] = None,
) -> Count:
    """Total weight of adjacency-preserving maps V(G) -> V(target); ``weights`` covers V(target)."""
    if g.n > DEFAULT_HOM_BOUND:
        raise CountingBoundExceeded(f"|G| = {g.n} exceeds bound {DEFAULT_HOM_BOUND}")
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
    return _as_count(total)


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
