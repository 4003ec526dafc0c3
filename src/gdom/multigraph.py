"""Exact multigraph data model.

Graphs here are finite, connected, loopless multigraphs: parallel edges
are first class (a ``mult`` field) and weights are exact rationals.

``blocks`` is the one cut-vertex and bridge finder: it splits a graph into
its blocks, where a bridge is a block of one pair.  It serves two callers:
the Tutte recursion in ``counting`` splits there, and ``has_cut_edge``
reads the single-unit bridges off it.

A weight whose value is an integer is stored as that ``int`` (a unit
weight as ``1``), any other as a normalized ``Fraction``.  Since
``Fraction(k) == k`` and ``hash(Fraction(k)) == hash(k)``, both spellings
of a graph give the same value, and unweighted graphs are built, compared
and hashed without a ``Fraction``.

Values are immutable once constructed and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import threading
from collections import OrderedDict
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence

# (u, v, mult, weight) with u < v; an integral weight is an int
Edge = tuple[int, int, int, int | Fraction]

GRAPH6_MAX = 62  # single-byte size encoding only; desk scale


class GraphError(ValueError):
    """Malformed graph input or unsupported operation."""


class DisconnectedError(GraphError):
    """Input graph is not connected."""


class FormatError(GraphError):
    """Syntax error in a serialized graph; carries the offending position."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message if position is None else f"{message} (at {position})")
        self.position = position


def find(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest ``parent``, halving the path it walks."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class Multigraph:
    """Connected weighted multigraph on vertices 0..n-1.

    Edge records with equal endpoints and equal weight are merged, so the
    edge list is a canonical sorted tuple; equality, hashing and ``key``
    follow it.
    """

    __slots__ = ("n", "edges", "labels", "_adj", "_nbrs", "_hash", "_key")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple],
        labels: Optional[Sequence[str]] = None,
        _validated: bool = False,
    ):
        if n < 1:
            raise GraphError("vertex count must be positive")
        merged: dict[tuple[int, int, int | Fraction], int] = {}
        for rec in edges:
            if len(rec) == 2:
                u, v, mult, weight = rec[0], rec[1], 1, 1
            elif len(rec) == 3:
                u, v, mult, weight = rec[0], rec[1], rec[2], 1
            else:
                u, v, mult, weight = rec
                if type(weight) is not int:
                    weight = Fraction(weight)
                    if weight.denominator == 1:
                        weight = weight.numerator
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge endpoint out of range: {(u, v)}")
            if mult < 1:
                raise GraphError("edge multiplicity must be >= 1")
            if weight <= 0:
                raise GraphError("edge weight must be positive")
            if u > v:
                u, v = v, u
            key = (u, v, weight)
            merged[key] = merged.get(key, 0) + mult
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(
            sorted((u, v, m, w) for (u, v, w), m in merged.items())
        )
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise GraphError("labels length must equal vertex count")
        self._adj = None
        self._nbrs = None
        self._hash = None
        self._key = None
        if not _validated and not self.is_connected():
            raise DisconnectedError("graph is not connected")

    # -- basic structure ------------------------------------------------

    @property
    def adjacency(self) -> dict[tuple[int, int], int]:
        """Total multiplicity per unordered pair (u < v)."""
        if self._adj is None:
            adj: dict[tuple[int, int], int] = {}
            for u, v, m, _ in self.edges:
                adj[(u, v)] = adj.get((u, v), 0) + m
            self._adj = adj
        return self._adj

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        if self._nbrs is None:
            nbrs: list[set[int]] = [set() for _ in range(self.n)]
            for u, v, _, _ in self.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            self._nbrs = tuple(tuple(sorted(s)) for s in nbrs)
        return self._nbrs

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.adjacency.get((u, v), 0)

    def edge_unit_count(self) -> int:
        return sum(m for _, _, m, _ in self.edges)

    def is_simple(self) -> bool:
        return all(m == 1 for m in self.adjacency.values())

    def is_unweighted(self) -> bool:
        return all(w == 1 for _, _, _, w in self.edges)

    def component_count(self) -> int:
        """The number of connected components, by union-find over the edge
        records, which unlike ``neighbors`` are already built for a fresh graph."""
        parent = list(range(self.n))
        count = self.n
        for u, v, _, _ in self.edges:
            ru, rv = find(parent, u), find(parent, v)
            if ru != rv:
                parent[ru] = rv
                count -= 1
        return count

    def is_connected(self) -> bool:
        # n vertices need n - 1 edge records to connect; fewer is refused before the walk
        return len(self.edges) >= self.n - 1 and self.component_count() == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.edges))
        return self._hash

    @property
    def key(self) -> bytes | tuple:
        """The graph's value written flat, ``(n, u0, v0, m0, w0, u1, ...)``: the
        one memo key of a graph, which holds neither the graph nor its edge
        records, so a memo entry keeps no graph alive.

        It is ``bytes`` when every entry is an int in 0..255, else that flat
        tuple.  Each record has four entries, so equal keys mean equal
        graphs, and a ``bytes`` key never equals a tuple one."""
        if self._key is None:
            try:
                self._key = bytes(chain((self.n,), *self.edges))
            except (TypeError, ValueError):  # a Fraction weight, or an entry past 255
                self._key = (self.n, *chain.from_iterable(self.edges))
        return self._key

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, edges={len(self.edges)} records, units={self.edge_unit_count()})"

    # -- Laplacian -------------------------------------------------------

    def laplacian(self) -> list[list[int | Fraction]]:
        """Weighted Laplacian: off-diagonal -(mult * weight), zero row sums.

        Integral weights are ints, so a graph without fractional weights gives
        an int matrix; entries touched by other weights are Fractions.
        """
        L: list[list[int | Fraction]] = [[0] * self.n for _ in range(self.n)]
        for u, v, m, w in self.edges:
            x = m * w
            L[u][v] -= x
            L[v][u] -= x
            L[u][u] += x
            L[v][v] += x
        return L


# -- shared memo -----------------------------------------------------------


# entries one memo keeps; ``put`` beyond it drops the least recently used
MEMO_BOUND = 4096


class Memo:
    """Memo table shared by every thread of the process; it keeps the
    ``MEMO_BOUND`` most recently used entries.

    A hit moves its key to the recent end, and a ``put`` that takes the
    table past the bound drops the oldest entry.  Every stored value is a
    pure function of its key, so an eviction costs only a recomputation and
    never changes an answer.  The lock guards only the table, never the
    computation between a missed ``get`` and its ``put``: a computation may
    recurse into the same memo, and two threads that miss on one key both
    compute it and store equal values.
    """

    def __init__(self):
        self._values: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """The stored value, or None."""
        with self._lock:
            value = self._values.get(key)
            if value is not None:
                self._values.move_to_end(key)
            return value

    def put(self, key, value):
        """Store and return ``value``."""
        with self._lock:
            self._values[key] = value
            self._values.move_to_end(key)
            if len(self._values) > MEMO_BOUND:
                self._values.popitem(last=False)
        return value


def blocks(g: Multigraph) -> list[list[tuple[int, int]]]:
    """The blocks (biconnected components) of g, each as its pairs (u < v).

    A bridge is a block of one pair, whatever its multiplicity.  Iterative
    Hopcroft–Tarjan: one DFS from vertex 0 (the graph is connected) stacks
    tree and back pairs, and a child whose low point does not reach above
    its parent pops the pairs stacked since its tree pair as one block.
    """
    nbrs = g.neighbors
    disc = [0] + [-1] * (g.n - 1)
    low = [0] * g.n
    timer = 1
    found: list[list[tuple[int, int]]] = []
    pairs: list[tuple[int, int]] = []
    stack = [(0, -1, iter(nbrs[0]), 0)]  # vertex, DFS parent, neighbours left, its tree pair's index
    while stack:
        x, parent, it, start = stack[-1]
        for y in it:
            if disc[y] == -1:
                disc[y] = low[y] = timer
                timer += 1
                stack.append((y, x, iter(nbrs[y]), len(pairs)))
                pairs.append((min(x, y), max(x, y)))
                break
            if y != parent and disc[y] < disc[x]:
                low[x] = min(low[x], disc[y])
                pairs.append((min(x, y), max(x, y)))
        else:
            stack.pop()
            if parent != -1:
                low[parent] = min(low[parent], low[x])
                if low[x] >= disc[parent]:
                    found.append(pairs[start:])
                    del pairs[start:]
    return found


def has_cut_edge(g: Multigraph) -> bool:
    """True iff deleting some single edge unit disconnects the graph."""
    adj = g.adjacency
    return any(len(b) == 1 and adj[b[0]] == 1 for b in blocks(g))


# -- serialization --------------------------------------------------------

_FORMATS = ("edge_list", "graph6", "json")


def _parse_fraction(tok: str, pos: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad weight {tok!r}: {exc}", pos) from None


def _parse_edge_list(text: str) -> Multigraph:
    parts = text.split(";")
    head = parts[0].strip()
    if not head:
        raise FormatError("missing vertex count", 0)
    try:
        n = int(head)
    except ValueError:
        raise FormatError(f"bad vertex count {head!r}", 0) from None
    edges = []
    pos = len(parts[0])
    for clause in parts[1:]:
        pos += 1 + len(clause)
        toks = clause.split()
        if not toks:
            continue
        if len(toks) < 2 or len(toks) > 4:
            raise FormatError(f"bad edge clause {clause.strip()!r}", pos)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise FormatError(f"bad endpoints in {clause.strip()!r}", pos) from None
        mult = 1
        weight = 1
        if len(toks) >= 3:
            try:
                mult = int(toks[2])
            except ValueError:
                raise FormatError(f"bad multiplicity in {clause.strip()!r}", pos) from None
        if len(toks) == 4:
            weight = _parse_fraction(toks[3], pos)
        if u == v:
            raise FormatError(f"loop at vertex {u} not allowed", pos)
        edges.append((u, v, mult, weight))
    try:
        return Multigraph(n, edges)
    except DisconnectedError:
        raise
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def _serialize_edge_list(g: Multigraph) -> str:
    clauses = [str(g.n)]
    for u, v, m, w in g.edges:
        if m == 1 and w == 1:
            clauses.append(f"{u} {v}")
        elif w == 1:
            clauses.append(f"{u} {v} {m}")
        else:
            clauses.append(f"{u} {v} {m} {w}")
    return "; ".join(clauses)


def _parse_graph6(text: str) -> Multigraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 string", 0)
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        bad = next(i for i, b in enumerate(data) if b < 0 or b > 63)
        raise FormatError(f"invalid graph6 byte {s[bad]!r}", bad)
    if data[0] <= GRAPH6_MAX:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[0] == 63 and data[1] != 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise FormatError("unsupported graph6 size header", 0)
    if n == 0:
        raise FormatError("graph6 encodes the empty graph", 0)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body has {len(body)} bytes, expected {need}", 1)
    bits = []
    for b in body:
        bits.extend((b >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Multigraph(n, edges)


def _serialize_graph6(g: Multigraph) -> str:
    if not g.is_simple():
        raise GraphError("graph6 encodes simple graphs only (parallel edges present)")
    if g.n > GRAPH6_MAX:
        raise GraphError(f"graph6 support is limited to {GRAPH6_MAX} vertices here")
    adj = g.adjacency
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if (u, v) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        byte = 0
        for b in bits[i : i + 6]:
            byte = (byte << 1) | b
        chars.append(chr(byte + 63))
    return "".join(chars)


def _parse_json(text: str) -> Multigraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc.msg}", exc.pos) from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise FormatError("JSON graph needs keys 'n' and 'edges'")
    # a bool is an int subclass, so the integer checks compare exact types
    if type(obj["n"]) is not int:
        raise FormatError(f"vertex count {obj['n']!r} is not an integer")
    if not isinstance(obj["edges"], list) or not isinstance(obj.get("labels", []), list):
        raise FormatError("JSON 'edges' and 'labels' must be lists")
    for rec in obj["edges"]:
        if not isinstance(rec, list) or not 2 <= len(rec) <= 4:
            raise FormatError(f"bad edge record {rec!r}")
        if any(type(x) is not int for x in rec[:3]):
            raise FormatError(f"edge record {rec!r}: endpoints and multiplicity must be integers")
        if len(rec) == 4:
            w = rec[3]
            if type(w) is str:
                rec[3] = _parse_fraction(w, None)
            elif not (type(w) is int or type(w) is float and math.isfinite(w)):
                raise FormatError(f"edge record {rec!r}: bad weight")
    try:
        return Multigraph(obj["n"], obj["edges"], labels=obj.get("labels"))
    except DisconnectedError:
        raise
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def _serialize_json(g: Multigraph) -> str:
    recs = []
    for u, v, m, w in g.edges:
        recs.append([u, v, m, w if type(w) is int else str(w)])
    obj: dict = {"n": g.n, "edges": recs}
    if g.labels is not None:
        obj["labels"] = list(g.labels)
    return json.dumps(obj)


def parse_graph(text: str, format: str = "edge_list") -> Multigraph:
    """Parse a graph in one of the supported formats; rejects disconnected input."""
    if format == "edge_list":
        return _parse_edge_list(text)
    if format == "graph6":
        return _parse_graph6(text)
    if format == "json":
        return _parse_json(text)
    raise GraphError(f"unknown format {format!r}; expected one of {_FORMATS}")


def serialize_graph(g: Multigraph, format: str = "edge_list") -> str:
    if format == "edge_list":
        return _serialize_edge_list(g)
    if format == "graph6":
        return _serialize_graph6(g)
    if format == "json":
        return _serialize_json(g)
    raise GraphError(f"unknown format {format!r}; expected one of {_FORMATS}")


# -- small builders used throughout ---------------------------------------


def path_graph(n: int) -> Multigraph:
    return Multigraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Multigraph:
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Multigraph:
    return Multigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Multigraph:
    return Multigraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def single_edge() -> Multigraph:
    return Multigraph(2, [(0, 1)])


def single_vertex() -> Multigraph:
    return Multigraph(1, [])
