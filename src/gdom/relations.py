"""Deciders for the four graph-comparison relations, with certificates.

Tiling is exact cover by copies; fractional (edge-)tiling is exact rational
LP feasibility over the copy incidence matrix; domination is an integral
transport of the uniform marginals scaled by |G|*|H|, fed by the rooted
embedding search.  Every positive answer returns a certificate that
``verify_certificate`` re-checks from scratch, and no check searches or
needs a canonical labelling: each copy carries the embedding that makes it,
fractional certificates list only the copies of positive multiplicity, and
a coupling carries one embedding of H per positive-mass pair (x, y) that
sends y to x.  One embedding check, O(|E(H)|), serves copies and witnesses
alike.  A coupling's witnesses are the first embedding of each positive-mass
pair in walk order, and the walk takes any embeddings the caller already
holds (a generator builds its pairs from some) before the full search.
Before that search, degree classes may refute domination at once: an
embedding maps no vertex to one of smaller degree, so a class of high-degree
H-vertices with too few high-degree G-vertices breaks Hall's condition.

``relate`` decides all four on one pair with one search; a copy is built
only when a certificate lists it.  The search gives one embedding per copy
of H, the images of ``enumerate_copies``, and the three copy deciders read
the tiling masks and both LPs' columns off those images.  ``relate`` also
follows the paper's implications: a tiling's fractional tiling certificate
is ``fractional_from_tiling`` of it, and a fractional tiling's coupling is
``coupling_from_fractional_tiling`` of it, so the vertex LP runs only
without a tiling and the domination walk only without a fractional tiling.
Derived certificates are checked like any other.  Each public decider
searches for itself, so ``check_domination`` always returns the walk's
coupling.  A copy column with every coefficient 1 is the list of its rows:
a vertex column is the copy's vertex set, and a simple H's edge column the
rows of its copy's pairs; a multigraph H's edge columns map rows to units.
The rows settle many copy LPs alone (``_forced``): a row that no copy
meets refutes the LP, and a row down to one live column, or with its rhs
used up, fixes columns until every column is fixed or no row forces more.
Only the LPs left undecided reach the simplex, a revised fraction-free one
that keeps only the basis inverse, rescales a row only when a pivot
touches it, and prices the columns in blocks.  It takes the copy LPs' form
alone, columns of one form and one width over a nonnegative int rhs, and
pivots over the caller's rows as given: nothing is padded, scaled or negated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Collection, Iterable, Optional, Union

from .counting import clear_denominators
from .embeddings import Copy, _copy_of, _degrees, _search, embeddings_iter, rooted_copy_relation
from .multigraph import Multigraph

HALL_SIZE_BOUND = 20


# -- certificates ------------------------------------------------------------
# each names the relation of ``RELATIONS`` it proves; a class attribute, no field


@dataclass
class TilingCertificate:
    relation = "tiling"
    copies: list[Copy]  # vertex-disjoint, covering V(G) exactly once


@dataclass
class FractionalTilingCertificate:
    copies: list[Copy]  # the deciders list only copies of positive multiplicity
    multiplicities: list[int]  # aligned with copies, >= 0, not all zero
    coverage: int  # the common cover count m
    mode: str  # "vertex" or "edge"

    @property
    def relation(self) -> str:
        return "fractional_tiling" if self.mode == "vertex" else "fractional_edge_tiling"


@dataclass
class CouplingCertificate:
    relation = "domination"
    masses: dict[tuple[int, int], Fraction]  # (x in V(G), y in V(H)) -> mass
    # embeddings of H as image tuples in H's vertex order; each positive-mass
    # pair (x, y) needs one with emb[y] == x
    witnesses: list[tuple[int, ...]]


Certificate = Union[TilingCertificate, FractionalTilingCertificate, CouplingCertificate]


# -- exact rational phase-1 simplex ------------------------------------------


_BLAND_SWITCH = 200  # Dantzig pivoting until then, Bland afterwards (termination)
_PRICING_BLOCK = 32  # columns per pricing block of Dantzig's rule; 16 to 64 time alike


def feasible_nonnegative(
    columns: list[Union[dict[int, int], Collection[int]]], rhs: list[int]
) -> Optional[list[Fraction]]:
    """Some x >= 0 with sum_j x[j] * columns[j] = rhs, or None.

    The input is the copy LPs' form, and only it: at least one column,
    each a collection of distinct rows, each with coefficient 1, or a dict
    from rows to int coefficients; the columns of one call all of one form
    and one width; the rhs nonnegative ints.  The copy LPs call this only
    when their rows do not settle them (``_forced``).

    Revised phase-1 simplex with integer (fraction-free) pivoting.  Of the
    tableau [A | I | b] it keeps R, the artificial block and the rhs; the
    rest is R*A, and a pivot computes what it reads: the entering column
    from its nonzeros, and the reduced costs y*A, y the objective's
    artificial entries less the last pivot.  Signs and ratio tests are
    decided by cross-multiplication; Dantzig's rule with a Bland fallback
    guarantees termination without rational arithmetic.  Rows are rescaled
    lazily.  ``row_den[i]`` is the last pivot that touched
    row i, and the row's true values are its entries over ``row_den[i]``.
    A pivot rewrites only the rows with a nonzero entry in its column, as
    ``(piv*a - f*b) // row_den[i]``: over the skipped pivots the factors
    piv/den telescope, so this is the eager fraction-free update, exactly.
    The pivot row is first brought to the last pivot, and the objective row
    is always touched (its entering entry is negative).  Sign and ratio
    tests read each row at its own positive scale, so the pivots are those
    of the eager dense tableau.

    Dantzig's rule prices partially (Bixby 2002): the columns in fixed
    blocks of ``_PRICING_BLOCK``, each priced with the artificial columns,
    starting at the block after the last pivot's.  The first block with a
    negative reduced cost gives the most negative one, so an LP of one
    block pivots by the full rule.
    """
    m, n, w = len(rhs), len(columns), len(columns[0])
    # the columns flat, w entries each: rows in K, coefficients in V
    unit = not isinstance(columns[0], dict)
    K = [k for col in columns for k in col]
    V = [1] * len(K) if unit else [a for col in columns for a in col.values()]
    R = [[0] * m + [b] for b in rhs]
    for i in range(m):
        R[i][i] = 1
    basis = [n + i for i in range(m)]
    # phase-1 objective, minimize the sum of artificials, priced out: each
    # artificial column sums to 1, so its reduced cost starts at 0
    obj = [0] * m + [-sum(r[m] for r in R)]
    row_den = [1] * m
    den_piv = 1  # last pivot: the scale of the objective row

    def price(ks: list, vs: list) -> list:
        """y*A over the flat columns ks, vs, one sum per column: zip over w
        copies of one iterator groups the products by w."""
        terms = map(y.__getitem__, ks) if unit else map(mul, map(y.__getitem__, ks), vs)
        return list(map(sum, zip(*[terms] * w)))

    B = _PRICING_BLOCK
    blocks = [(lo, K[lo * w : (lo + B) * w], V[lo * w : (lo + B) * w]) for lo in range(0, n, B)]
    start = 0  # the block that pricing starts at: the one after the last pivot's

    pivots = 0
    while obj[-1]:  # the scaled phase-1 objective; once 0, no pivot moves x
        y = [a - den_piv for a in obj]
        enter = None
        if pivots < _BLAND_SWITCH:
            for k in range(len(blocks)):
                lo, ks, vs = blocks[(start + k) % len(blocks)]
                costs = price(ks, vs)
                width = len(costs)
                costs += obj[:m]
                cost = min(costs)
                if cost < 0:
                    j = costs.index(cost)
                    enter = lo + j if j < width else n + j - width
                    start = (start + k + 1) % len(blocks)
                    break
        else:
            costs = price(K, V) + obj[:m]
            enter, cost = next(((j, c) for j, c in enumerate(costs) if c < 0), (None, 0))
        if enter is None:
            break
        if enter < n:
            ks, vs = K[enter * w : enter * w + w], V[enter * w : enter * w + w]
            terms = [r[k] for r in R for k in ks]  # R*a, grouped by row as above
            entering = list(map(sum, zip(*[iter(terms) if unit else map(mul, terms, vs * m)] * w)))
        else:
            entering = [r[enter - n] for r in R]
        leave = None
        for i, tie in enumerate(entering):
            if tie > 0:
                if leave is None:
                    leave = i
                else:
                    # compare rhs_i/tie with rhs_leave/entering[leave]
                    lhs, rhs_ = R[i][m] * entering[leave], R[leave][m] * tie
                    if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                        leave = i
        if leave is None:
            return None  # cannot happen in phase 1 (objective bounded below)
        prow, piv = R[leave], entering[leave]
        if row_den[leave] != den_piv:
            d = row_den[leave]
            prow = R[leave] = [a * den_piv // d for a in prow]
            piv = piv * den_piv // d
        for i, f in enumerate(entering):
            if f and i != leave:
                d = row_den[i]
                R[i] = [(piv * a - f * b) // d for a, b in zip(R[i], prow)]
                row_den[i] = piv
        obj = [(piv * a - cost * b) // den_piv for a, b in zip(obj, prow)]
        den_piv = row_den[leave] = piv
        basis[leave] = enter
        pivots += 1

    if obj[-1] != 0:  # scaled optimum; zero iff all artificials vanish
        return None
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(R[i][m], row_den[i])
    return x


# -- deciders ------------------------------------------------------------------


def check_tiling(g: Multigraph, h: Multigraph) -> Optional[TilingCertificate]:
    """Exact cover of V(G) by vertex-disjoint copies of H."""
    return _tiling(g, h, list(_search(g, h, each_copy_once=True)))


def _tiling(g: Multigraph, h: Multigraph, images: list) -> Optional[TilingCertificate]:
    """The exact cover search of ``check_tiling`` over one image per copy of H:
    depth first on the least uncovered vertex, |G|/|H| copies deep on a stack."""
    if g.n % h.n:
        return None
    masks = [sum(1 << v for v in img) for img in images]
    by_vertex: list[list[int]] = [[] for _ in range(g.n)]
    for i, img in enumerate(images):
        for v in img:
            by_vertex[v].append(i)
    full = (1 << g.n) - 1
    chosen: list[int] = []
    used = 0
    stack = [iter(by_vertex[0])]
    while stack:
        for i in stack[-1]:
            if not masks[i] & used:
                break
        else:  # no copy covers the least uncovered vertex here: backtrack
            stack.pop()
            if chosen:
                used ^= masks[chosen.pop()]
            continue
        chosen.append(i)
        used |= masks[i]
        if used == full:
            return TilingCertificate(copies=[_copy_of(images[i], h) for i in chosen])
        free = ~used & full
        stack.append(iter(by_vertex[(free & -free).bit_length() - 1]))
    return None


def _forced(columns: list, rhs: list[int]) -> tuple[bool, Optional[list]]:
    """(True, x or None) when the rows alone settle a copy LP, else (False, None).

    Every coefficient and rhs of a copy LP is positive.  So a row that no
    column meets has no x, a row with one live column fixes that column at
    the row's remaining rhs over its coefficient, and a row whose remaining
    rhs is 0 fixes its live columns at 0: the singleton and forcing rows of
    presolve (Andersen and Andersen 1995).  A negative remainder, or a row
    left short with no live column, has no x.  Each fixed value holds in
    every solution, so once every column is fixed, x is the LP's only
    solution and the simplex's answer too."""
    meets: list[list[int]] = [[] for _ in rhs]  # row -> the columns that meet it
    for j, col in enumerate(columns):
        for i in col:
            meets[i].append(j)
    if not all(meets):
        return True, None
    queue = [i for i, js in enumerate(meets) if len(js) == 1]  # rows that may fix a column
    if not queue:
        return False, None
    left, live = list(rhs), [len(js) for js in meets]
    x: list = [None] * len(columns)
    for i in queue:  # grows as rows fall to one live column or to rhs 0
        free = [j for j in meets[i] if x[j] is None]
        if not free:
            continue
        if left[i]:  # one live column
            j = free[0]
            col = columns[j]
            a = col[i] if isinstance(col, dict) else 1
            fixed = [(j, left[i] if a == 1 else Fraction(left[i], a))]
        else:
            fixed = [(j, 0) for j in free]
        for j, v in fixed:
            x[j] = v
            col = columns[j]
            for k in col:
                live[k] -= 1
                if v:
                    left[k] -= v * col[k] if isinstance(col, dict) else v
                    if left[k] < 0:
                        return True, None
                    if not left[k] and live[k]:
                        queue.append(k)
                if left[k] and live[k] < 2:
                    if not live[k]:
                        return True, None
                    queue.append(k)
    return (True, x) if None not in x else (False, None)


def _fractional_lp(
    h: Multigraph, images: Collection[tuple[int, ...]], columns: list, rhs: list[int], mode: str
) -> Optional[FractionalTilingCertificate]:
    """Copies weighted so that every LP row meets its rhs, scaled to integers.

    ``images`` holds the first image of each column's copies, in column
    order.  No rows (the edge mode on K_1) is vacuous coverage.  The rows
    settle many LPs alone (``_forced``); the rest go to the simplex.  The
    certificate keeps the copies of positive value, in copy order."""
    if not images:
        return None
    if not rhs:
        x = [Fraction(1)] + [Fraction(0)] * (len(images) - 1)
    else:
        decided, x = _forced(columns, rhs)
        if not decided:
            x = feasible_nonnegative(columns, rhs)
    if x is None:
        return None
    support = [(img, xi) for img, xi in zip(images, x) if xi]
    mults, m = clear_denominators([xi for _, xi in support])
    copies = [_copy_of(img, h) for img, _ in support]
    return FractionalTilingCertificate(copies=copies, multiplicities=mults, coverage=m, mode=mode)


def check_fractional_tiling(g: Multigraph, h: Multigraph) -> Optional[FractionalTilingCertificate]:
    """An integer combination of copies covering every vertex equally often."""
    return _fractional_tiling(g, h, list(_search(g, h, each_copy_once=True)))


def _fractional_tiling(g: Multigraph, h: Multigraph, images: list) -> Optional[FractionalTilingCertificate]:
    """Copies on the same vertices are interchangeable for coverage, so the
    LP runs over one column per vertex set, the set itself: a 1 in the row
    of each of its vertices, against rhs 1."""
    reps: dict = {}
    for img in images:
        reps.setdefault(frozenset(img), img)
    return _fractional_lp(h, reps.values(), list(reps), [1] * g.n, "vertex")


def check_fractional_edge_tiling(g: Multigraph, h: Multigraph) -> Optional[FractionalTilingCertificate]:
    """An integer combination of copies covering every edge unit equally often."""
    return _fractional_edge_tiling(g, h, list(_search(g, h, each_copy_once=True)))


def _fractional_edge_tiling(g: Multigraph, h: Multigraph, images: list) -> Optional[FractionalTilingCertificate]:
    """Parallel units of one pair are interchangeable, so coverage is
    accounted per pair, one row per pair of G in sorted order: a copy's
    units on the pair against the pair multiplicity, over the row's gcd (as
    ``clear_denominators`` scales the normalized row, so the simplex pivots
    alike).  Each copy has a column of its own: H is connected, so two
    copies on the same pairs are one copy (on K_1 every column is empty,
    and the rows alone decide).  For a simple H every unit is 1 and a row
    that a copy meets has gcd 1, so a column is the list of its pairs' rows
    and the rhs the pair multiplicities."""
    pairs = sorted(g.adjacency)
    row = [[0] * g.n for _ in range(g.n)]  # a pair of G, either way round -> its row
    for i, (u, v) in enumerate(pairs):
        row[u][v] = row[v][u] = i
    rhs = [g.adjacency[pair] for pair in pairs]
    if h.is_simple():
        columns = [[row[img[a]][img[b]] for a, b in h.adjacency] for img in images]
        return _fractional_lp(h, images, columns, rhs, "edge")
    h_pairs = h.adjacency.items()
    columns = [{row[img[a]][img[b]]: m for (a, b), m in h_pairs} for img in images]
    gcd = rhs[:]  # each row's gcd, rhs included
    for i, units in set().union(*(col.items() for col in columns)):
        gcd[i] = math.gcd(gcd[i], units)
    columns = [{i: units // gcd[i] for i, units in col.items()} for col in columns]
    return _fractional_lp(h, images, columns, [b // d for b, d in zip(rhs, gcd)], "edge")


def check_domination(
    g: Multigraph, h: Multigraph, known: Iterable[tuple[int, ...]] = ()
) -> Optional[CouplingCertificate]:
    """A coupling of uniform roots supported on rooted embeddings of H in G.

    ``known`` lists embeddings of H in G that the caller already holds, as
    image tuples in H's vertex order; one that is not an embedding raises
    ``ValueError``.  The walk takes them first and then every embedding of
    ``embeddings_iter``, unless a degree class already breaks Hall's
    condition (``_degree_classes_refute``): then the answer is no, reached
    without a search.  An embedding that adds no rooted pair is skipped, so
    ``known`` changes how soon the walk stops, never the answer.

    The walk feeds an integral transport whose marginals are scaled by
    |G|*|H|: each G-vertex supplies |H| units and each H-vertex demands
    |G|.  An embedding that adds rooted pairs (x, y) is kept, and each new
    pair at once carries the smaller of the supply left at x and the demand
    left at y.  Once every vertex lies in a found pair, augmenting paths
    push the rest.  The walk stops at the first embedding after which every
    unit flows; one that ends short has no augmenting path left, so Hall's
    condition fails on the whole relation.  The witnesses are the first
    embedding of each positive-mass pair in walk order, known ones first.
    """
    known = [tuple(emb) for emb in known]
    for emb in known:
        if not _is_embedding(g, h, emb):
            raise ValueError(f"{list(emb)} is not an embedding of H in G")
    supply, demand = [h.n] * g.n, [g.n] * h.n
    rel: set[tuple[int, int]] = set()  # the pairs found so far
    flow: dict[tuple[int, int], int] = {}  # found pair -> its units, if it carries any
    succ: list[list[int]] = [[] for _ in supply]  # x -> the y found with it
    pred: list[list[int]] = [[] for _ in demand]  # y -> the x found with it
    found = []  # in walk order, each embedding that added pairs, with those pairs
    roots = range(h.n)

    def augment() -> None:
        """Push units along shortest augmenting paths until none is left.

        A path starts at a G-vertex with supply left, steps from x to y over
        any found pair and back from y to x' over a pair that carries units,
        and ends at an H-vertex with demand left.  When none is left, the
        H-vertices the last search did not reach form a set T that breaks
        Hall's condition.
        """
        while True:
            back = {x: None for x, left in enumerate(supply) if left}  # x -> the y it came back from
            came: dict[int, int] = {}  # y -> the x it came from
            queue = list(back)
            for x in queue:
                for y in succ[x]:
                    if y not in came:
                        came[y] = x
                        if demand[y]:
                            break
                        for x2 in pred[y]:
                            if x2 not in back and (x2, y) in flow:
                                back[x2] = y
                                queue.append(x2)
                else:
                    continue
                break
            else:
                return
            # back along the path: each step from x to y gains, each step back loses
            end, gain, lose = y, [], []
            while True:
                x = came[y]
                gain.append((x, y))
                y = back[x]
                if y is None:
                    break
                lose.append((x, y))
            units = min(supply[x], demand[end], *(flow[pair] for pair in lose))
            supply[x] -= units
            demand[end] -= units
            for pair in gain:
                flow[pair] = flow.get(pair, 0) + units
            for pair in lose:
                flow[pair] -= units
                if not flow[pair]:
                    del flow[pair]

    def walk():
        yield from known
        if not _degree_classes_refute(g, h):
            yield from embeddings_iter(g, h)

    for emb in walk():
        if rel.issuperset(zip(emb, roots)):
            continue
        added = [(x, y) for y, x in enumerate(emb) if (x, y) not in rel]
        found.append((emb, added))
        rel.update(added)
        for x, y in added:
            succ[x].append(y)
            pred[y].append(x)
            units = min(supply[x], demand[y])
            if units:
                flow[(x, y)] = units
                supply[x] -= units
                demand[y] -= units
        if any(demand) and all(succ) and all(pred):
            augment()
        if not any(demand):
            break
    else:
        return None
    masses = {pair: Fraction(units, g.n * h.n) for pair, units in sorted(flow.items())}
    # the first embedding of each positive-mass pair, in walk order
    witnesses = [emb for emb, added in found if not flow.keys().isdisjoint(added)]
    return CouplingCertificate(masses=masses, witnesses=witnesses)


def _degree_classes_refute(g: Multigraph, h: Multigraph) -> bool:
    """True if a degree class breaks Hall's condition on the rooted relation.

    An embedding sends each H-vertex to a G-vertex of at least its degree
    (multiplicities counted), so for each H-degree d the H-vertices of
    degree >= d, T, reach only the G-vertices of degree >= d, N.  Then
    |N|*|H| < |T|*|G| means no coupling exists."""
    g_deg, h_deg = _degrees(g), _degrees(h)
    return any(
        sum(x >= d for x in g_deg) * h.n < sum(y >= d for y in h_deg) * g.n for d in set(h_deg)
    )


def domination_hall_condition(
    g: Multigraph, h: Multigraph
) -> tuple[bool, Optional[frozenset[int]]]:
    """Brute-force transportation feasibility: for every T subset of V(H),
    |N(T)| * |H| >= |T| * |G| over the rooted-copy relation."""
    if h.n > HALL_SIZE_BOUND:
        raise ValueError(f"|H| = {h.n} exceeds Hall enumeration bound {HALL_SIZE_BOUND}")
    rel = rooted_copy_relation(g, h)
    nbr_mask = [0] * h.n
    for x, y in rel:
        nbr_mask[y] |= 1 << x
    for t in range(1, 1 << h.n):
        reach = 0
        size = 0
        for y in range(h.n):
            if t >> y & 1:
                reach |= nbr_mask[y]
                size += 1
        if reach.bit_count() * h.n < size * g.n:
            return False, frozenset(y for y in range(h.n) if t >> y & 1)
    return True, None


# relation name -> decider(g, h), in the order ``gdom relate`` reports them;
# each decider returns a certificate or None, and None when |H| > |G|
RELATIONS = {
    "tiling": check_tiling,
    "fractional_tiling": check_fractional_tiling,
    "fractional_edge_tiling": check_fractional_edge_tiling,
    "domination": check_domination,
}


def relate(g: Multigraph, h: Multigraph) -> dict[str, Optional[Certificate]]:
    """Every relation of ``RELATIONS``, in its order: name -> certificate or None.

    The same verdicts as calling each decider.  The copies of H are searched
    once and their images handed to the three copy deciders, and a stronger
    relation that holds gives the weaker one's certificate by its map: a
    tiling the fractional tiling, a fractional tiling the coupling.  Only
    where no fractional tiling holds does the domination walk run.
    """
    images = list(_search(g, h, each_copy_once=True))
    tiling = _tiling(g, h, images)
    fractional = fractional_from_tiling(tiling) if tiling else _fractional_tiling(g, h, images)
    return {
        "tiling": tiling,
        "fractional_tiling": fractional,
        "fractional_edge_tiling": _fractional_edge_tiling(g, h, images),
        "domination": coupling_from_fractional_tiling(fractional) if fractional else check_domination(g, h),
    }


# -- certificate maps: the paper's implications ------------------------------------


def fractional_from_tiling(cert: TilingCertificate) -> FractionalTilingCertificate:
    """A tiling as a fractional tiling: each copy once, every vertex covered once."""
    return FractionalTilingCertificate(
        copies=list(cert.copies), multiplicities=[1] * len(cert.copies), coverage=1, mode="vertex"
    )


def coupling_from_fractional_tiling(cert: FractionalTilingCertificate) -> CouplingCertificate:
    """The coupling of a fractional (vertex) tiling (Strassen 1965).

    With multiplicities k_c and coverage m, the mass of (x, y) is
    sum_c k_c*[img_c(y) = x] / (m*|G|).  Each x lies in copies of total
    multiplicity m, so its row sums to 1/|G|; each y has one image per copy,
    and sum_c k_c = m*|G|/|H| (count the covered vertices twice), so its
    column sums to 1/|H|.  Every positive-mass pair lies on a copy's image,
    so the support's images are the witnesses, and no search runs.
    """
    if cert.mode != "vertex":
        raise ValueError("only a vertex fractional tiling gives a coupling")
    support = [(c.image, k) for c, k in zip(cert.copies, cert.multiplicities) if k]
    units: dict[tuple[int, int], int] = {}
    for img, k in support:
        for y, x in enumerate(img):
            units[(x, y)] = units.get((x, y), 0) + k
    g_n = sum(k for _, k in support) * len(support[0][0]) // cert.coverage
    masses = {pair: Fraction(u, cert.coverage * g_n) for pair, u in sorted(units.items())}
    return CouplingCertificate(masses=masses, witnesses=[img for img, _ in support])


# -- certificate verification ---------------------------------------------------


def _is_embedding(g: Multigraph, h: Multigraph, emb: tuple[int, ...]) -> bool:
    """True iff ``emb`` (H's vertices in order) is injective into V(G) and
    sends every H-pair to a G-pair of at least its multiplicity."""
    if len(emb) != h.n or len(set(emb)) != h.n or not all(0 <= x < g.n for x in emb):
        return False
    g_adj = g.adjacency
    for (a, b), m in h.adjacency.items():
        x, y = emb[a], emb[b]
        if g_adj.get((x, y) if x < y else (y, x), 0) < m:
            return False
    return True


def _copy_is_valid(g: Multigraph, h: Multigraph, c: Copy) -> bool:
    # so its vertices are distinct, its pairs sorted and each used once, and it is isomorphic to H
    return _is_embedding(g, h, c.image) and c == _copy_of(c.image, h)


def verify_certificate(g: Multigraph, h: Multigraph, cert: Certificate) -> bool:
    """Re-validate every certificate invariant from scratch."""
    if isinstance(cert, TilingCertificate):
        # covering every vertex exactly once: disjoint copies that cover V(G)
        cert = fractional_from_tiling(cert)
    if isinstance(cert, FractionalTilingCertificate):
        if len(cert.copies) != len(cert.multiplicities):
            return False
        if any(m < 0 for m in cert.multiplicities) or not any(cert.multiplicities):
            return False
        if cert.coverage < 1:
            return False
        active = [
            (c, m) for c, m in zip(cert.copies, cert.multiplicities) if m > 0
        ]
        for c, _ in active:
            if not _copy_is_valid(g, h, c):
                return False
        if cert.mode == "vertex":
            # valid copies hold distinct vertices of G
            covered = [0] * g.n
            for c, m in active:
                for v in c.vertices:
                    covered[v] += m
            return all(k == cert.coverage for k in covered)
        if cert.mode == "edge":
            # valid copies use only pairs of G, each at most once
            units: dict[tuple[int, int], int] = {}
            for c, m in active:
                for a, b, cm in c.edges:
                    units[(a, b)] = units.get((a, b), 0) + m * cm
            return all(units.get(pair, 0) == cert.coverage * gm for pair, gm in g.adjacency.items())
        return False

    if isinstance(cert, CouplingCertificate):
        # row sums 1/|G| and column sums 1/|H| over one common denominator;
        # zero masses are ignored wherever they lie
        nums, den = clear_denominators(list(cert.masses.values()))
        if any(num < 0 for num in nums):
            return False
        rows, cols = [0] * g.n, [0] * h.n
        unwitnessed: set[tuple[int, int]] = set()
        for (x, y), num in zip(cert.masses, nums):
            if num:
                if not (0 <= x < g.n and 0 <= y < h.n):
                    return False
                rows[x] += num
                cols[y] += num
                unwitnessed.add((x, y))
        if any(r * g.n != den for r in rows) or any(c * h.n != den for c in cols):
            return False
        roots = range(h.n)
        for emb in cert.witnesses:
            if not _is_embedding(g, h, emb):
                return False
            unwitnessed.difference_update(zip(emb, roots))
        # each positive-mass pair (x, y) needs a witness sending y to x
        return not unwitnessed

    raise TypeError(f"unknown certificate type {type(cert)!r}")


# -- JSON serialization -----------------------------------------------------------


def _copy_to_json(c: Copy) -> dict:
    # vertices == sorted(image) in every valid copy
    return {"image": list(c.image), "edges": [list(e) for e in c.edges]}


def _copy_from_json(obj: dict) -> Copy:
    if "image" not in obj:
        raise ValueError("copy record without an image")
    image = tuple(int(x) for x in obj["image"])
    return Copy(
        vertices=tuple(sorted(image)),
        edges=tuple((int(u), int(v), int(m)) for u, v, m in obj["edges"]),
        image=image,
    )


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, TilingCertificate):
        return {"type": "tiling", "copies": [_copy_to_json(c) for c in cert.copies]}
    if isinstance(cert, FractionalTilingCertificate):
        return {
            "type": "fractional_tiling",
            "mode": cert.mode,
            "coverage": cert.coverage,
            "copies": [_copy_to_json(c) for c in cert.copies],
            "multiplicities": list(cert.multiplicities),
        }
    if isinstance(cert, CouplingCertificate):
        return {
            "type": "coupling",
            "masses": [
                [x, y, f"{m.numerator}/{m.denominator}"]
                for (x, y), m in sorted(cert.masses.items())
            ],
            "witnesses": [list(emb) for emb in cert.witnesses],
        }
    raise TypeError(f"unknown certificate type {type(cert)!r}")


def certificate_from_json(obj: dict) -> Certificate:
    kind = obj["type"]
    if kind == "tiling":
        return TilingCertificate(copies=[_copy_from_json(c) for c in obj["copies"]])
    if kind == "fractional_tiling":
        return FractionalTilingCertificate(
            copies=[_copy_from_json(c) for c in obj["copies"]],
            multiplicities=[int(m) for m in obj["multiplicities"]],
            coverage=int(obj["coverage"]),
            mode=obj["mode"],
        )
    if kind == "coupling":
        if "witnesses" not in obj:
            raise ValueError("coupling certificate without witnesses")
        return CouplingCertificate(
            masses={(int(x), int(y)): Fraction(s) for x, y, s in obj["masses"]},
            witnesses=[tuple(int(x) for x in emb) for emb in obj["witnesses"]],
        )
    raise ValueError(f"unknown certificate type {kind!r}")
