import ast
import builtins
import inspect
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdom import relations
from gdom.checks import _IMPLIES, HYPOTHESIS_FAILED, INEQUALITIES, check
from gdom.counting import clear_denominators
from gdom.embeddings import _copy_of, embeddings_iter, enumerate_copies, rooted_copy_relation
from gdom.multigraph import (
    Multigraph,
    complete_graph,
    cycle_graph,
    parse_graph,
    path_graph,
    single_edge,
    single_vertex,
    star_graph,
)
from gdom.relations import (
    CouplingCertificate,
    FractionalTilingCertificate,
    RELATIONS,
    TilingCertificate,
    certificate_from_json,
    certificate_to_json,
    check_domination,
    check_fractional_edge_tiling,
    check_fractional_tiling,
    check_tiling,
    domination_hall_condition,
    feasible_nonnegative,
    relate,
    verify_certificate,
)
from gdom.rng import Stream, derive_seed
from gdom.search import PairGenerator, _propose
from gdom.symmetry import is_transitive

from conftest import atlas_up_to, random_connected


def grid4x4():
    rows = [(i * 4 + j, i * 4 + j + 1) for i in range(4) for j in range(3)]
    cols = [(i * 4 + j, (i + 1) * 4 + j) for i in range(3) for j in range(4)]
    return Multigraph(16, rows + cols)


# -- simplex -------------------------------------------------------------------


def _columns(rows):
    """The columns of dense rows: each maps every row to its entry, 0s
    included, so that all of them have one width."""
    return [{i: row[j] for i, row in enumerate(rows)} for j in range(len(rows[0]))]


def test_simplex_feasible_and_infeasible():
    x = feasible_nonnegative(_columns([[1, 1]]), [1])
    assert x is not None and sum(x) == 1 and all(v >= 0 for v in x)
    # x1 - x2 = 1 and x1 + x2 = 0 has no nonnegative solution
    assert feasible_nonnegative(_columns([[1, -1], [1, 1]]), [1, 0]) is None
    # equality forced: x = 3 in one variable
    x = feasible_nonnegative(_columns([[2]]), [3])
    assert x == [Fraction(3, 2)]


def test_phase1_stops_when_objective_reaches_zero(monkeypatch):
    """x0 = 1 zeroes the objective after one pivot; x1 still has a negative
    reduced cost, so Dantzig's rule alone would make a degenerate pivot."""
    costs = []

    def dantzig_min(xs):
        costs.append(builtins.min(xs))
        return costs[-1]

    monkeypatch.setattr(relations, "min", dantzig_min, raising=False)
    assert feasible_nonnegative(_columns([[1, 0], [1, 1]]), [1, 1]) == [1, 0]
    assert [c < 0 for c in costs] == [True]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_simplex_against_scipy_oracle(seed):
    from scipy.optimize import linprog

    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 8)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(0, 4) for _ in range(m)]
    x = feasible_nonnegative(_columns(rows), rhs)
    if x is not None:
        # soundness is exact: A x = b, x >= 0
        assert all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b
    ref = linprog(
        [0.0] * n,
        A_eq=[[float(a) for a in row] for row in rows],
        b_eq=[float(b) for b in rhs],
        bounds=[(0, None)] * n,
        method="highs",
    )
    assert (x is not None) == ref.success


def _eager_feasible_nonnegative(rows, rhs):
    """The simplex with eager row scaling: every pivot rewrites every row to
    the new pivot.  The reference for the lazy one, pivot for pivot.

    Dantzig's rule prices in blocks of ``relations._PRICING_BLOCK``
    structural columns, each with every artificial column: the first block
    with a negative reduced cost gives the most negative one, the lowest
    index among ties (the block's columns before the artificials), and the
    next pricing starts at the block after it."""
    m, n = len(rows), len(rows[0])
    T = []
    for i in range(m):
        *row, b = clear_denominators([*rows[i], rhs[i]])[0]
        if b < 0:
            row, b = [-a for a in row], -b
        T.append(row + [1 if j == i else 0 for j in range(m)] + [b])
    basis = [n + i for i in range(m)]
    width = n + m + 1
    obj = [0] * width
    for i in range(m):
        for j in range(width):
            obj[j] -= T[i][j]
    for i in range(m):
        obj[n + i] += 1
    den_piv = 1
    pivots = 0
    size = relations._PRICING_BLOCK
    blocks = [list(range(lo, min(lo + size, n))) + list(range(n, n + m)) for lo in range(0, n, size)]
    start = 0
    while True:
        if pivots < relations._BLAND_SWITCH:
            enter, best_cost = None, 0
            for k in range(len(blocks)):
                for j in blocks[(start + k) % len(blocks)]:
                    if obj[j] < best_cost:
                        best_cost, enter = obj[j], j
                if enter is not None:
                    start = (start + k + 1) % len(blocks)
                    break
        else:
            enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            tie = T[i][enter]
            if tie > 0:
                if leave is None:
                    leave = i
                else:
                    lhs, rhs_ = T[i][-1] * T[leave][enter], T[leave][-1] * tie
                    if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                        leave = i
        piv, prow = T[leave][enter], T[leave]
        for i in range(m):
            if i != leave:
                f = T[i][enter]
                T[i] = [(piv * a - f * b) // den_piv for a, b in zip(T[i], prow)]
        f = obj[enter]
        obj = [(piv * a - f * b) // den_piv for a, b in zip(obj, prow)]
        den_piv = piv
        basis[leave] = enter
        pivots += 1
    if obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(T[i][-1], den_piv)
    return x


def _random_lp(rng, kind):
    m, n = rng.randint(1, 7), rng.randint(1, 12)
    if kind == "int":  # small ints, rhs >= 0
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], [rng.randint(0, 4) for _ in range(m)]
    # 0/1 columns of one width: with rhs 1 the vertex LP's form ("cover"),
    # with rhs >= 1 a simple H's edge LP's ("copies")
    w = rng.randint(1, m)
    cols = [rng.sample(range(m), w) for _ in range(n)]
    rhs = [1] * m if kind == "cover" else [rng.randint(1, 2) for _ in range(m)]
    return [[int(i in col) for col in cols] for i in range(m)], rhs


@pytest.mark.parametrize("bland_switch", [relations._BLAND_SWITCH, 0])
@pytest.mark.parametrize("kind", ["cover", "copies", "int"])
def test_lazy_row_scaling_matches_eager_simplex(monkeypatch, bland_switch, kind):
    """Rescaling only the rows a pivot touches gives the eager tableau's x,
    under Dantzig's rule and (switch 0) under Bland's rule alone."""
    _assert_lazy_matches_eager(monkeypatch, bland_switch, kind)


@pytest.mark.parametrize("bland_switch", [relations._BLAND_SWITCH, 0])
@pytest.mark.parametrize("kind", ["cover", "copies", "int"])
def test_block_pricing_matches_eager_simplex(monkeypatch, bland_switch, kind):
    """The same over pricing blocks of 3 columns, so that most of these LPs
    span several blocks."""
    monkeypatch.setattr(relations, "_PRICING_BLOCK", 3)
    _assert_lazy_matches_eager(monkeypatch, bland_switch, kind)


def _assert_lazy_matches_eager(monkeypatch, bland_switch, kind):
    monkeypatch.setattr(relations, "_BLAND_SWITCH", bland_switch)
    rng = random.Random(f"lazy-{kind}")
    feasible = 0
    for _ in range(300):
        rows, rhs = _random_lp(rng, kind)
        x = feasible_nonnegative(_columns(rows), rhs)
        assert x == _eager_feasible_nonnegative(rows, rhs), (rows, rhs)
        if kind in ("cover", "copies"):  # the same columns as lists of their rows
            columns = [[i for i, a in col.items() if a] for col in _columns(rows)]
            assert feasible_nonnegative(columns, rhs) == x, (rows, rhs)
        feasible += x is not None
    assert 30 < feasible < 270


# -- tiling -------------------------------------------------------------------


def test_grid_tiled_by_c4():
    cert = check_tiling(grid4x4(), cycle_graph(4))
    assert cert is not None and len(cert.copies) == 4
    assert verify_certificate(grid4x4(), cycle_graph(4), cert)


def test_k4_not_tiled_by_k3():
    assert check_tiling(complete_graph(4), complete_graph(3)) is None


def test_self_tiling():
    g = complete_graph(4)
    cert = check_tiling(g, g)
    assert cert is not None and len(cert.copies) == 1


def test_tiling_gives_fractional_tiling_with_m1():
    g, h = grid4x4(), cycle_graph(4)
    tiling = check_tiling(g, h)
    as_frac = FractionalTilingCertificate(
        copies=tiling.copies,
        multiplicities=[1] * len(tiling.copies),
        coverage=1,
        mode="vertex",
    )
    assert verify_certificate(g, h, as_frac)
    assert check_fractional_tiling(g, h) is not None


# -- fractional tiling -----------------------------------------------------------


def test_k4_fractionally_tiled_by_k3():
    cert = check_fractional_tiling(complete_graph(4), complete_graph(3))
    assert cert is not None
    assert cert.coverage == 3
    assert sorted(cert.multiplicities) == [1, 1, 1, 1]
    assert verify_certificate(complete_graph(4), complete_graph(3), cert)


def test_path3_edge_infeasible():
    assert check_fractional_tiling(path_graph(3), single_edge()) is None


def test_c5_by_edge():
    cert = check_fractional_tiling(cycle_graph(5), single_edge())
    assert cert is not None and cert.coverage == 2
    assert cert.multiplicities == [1] * 5
    assert verify_certificate(cycle_graph(5), single_edge(), cert)


def test_star_not_fractionally_tiled_by_edge():
    assert check_fractional_tiling(star_graph(4), single_edge()) is None


def test_fractional_tiling_by_edge_vs_scipy_oracle():
    """Tiling by an edge is a fractional perfect matching; cross-check the
    whole decider against an independent LP solver."""
    from scipy.optimize import linprog

    rng = random.Random(67)
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 8), extra=rng.randint(0, 5))
        mine = check_fractional_tiling(g, single_edge()) is not None
        pairs = sorted(g.adjacency)
        a_eq = [[1.0 if v in e else 0.0 for e in pairs] for v in range(g.n)]
        ref = linprog(
            [0.0] * len(pairs),
            A_eq=a_eq,
            b_eq=[1.0] * g.n,
            bounds=[(0, None)] * len(pairs),
            method="highs",
        )
        assert mine == ref.success, g.edges


# -- fractional edge tiling --------------------------------------------------------


def test_c6_edge_tiled_by_path3():
    g, h = cycle_graph(6), path_graph(3)
    cert = check_fractional_edge_tiling(g, h)
    assert cert is not None
    assert verify_certificate(g, h, cert)


def test_k4_edge_tiled_by_k3():
    cert = check_fractional_edge_tiling(complete_graph(4), complete_graph(3))
    assert cert is not None and cert.coverage == 2
    assert cert.multiplicities == [1, 1, 1, 1]  # each edge lies in exactly 2 triangles
    assert verify_certificate(complete_graph(4), complete_graph(3), cert)


def test_star_no_triangle_copies():
    assert check_fractional_edge_tiling(star_graph(2), complete_graph(3)) is None


def _fraction_rows_certificate(g, h, mode):
    """(copies, multiplicities, coverage) from the LP written in Fraction rows:
    vertex rows 0/1, edge rows c_m/g_m, every rhs 1; None when infeasible.
    The eager reference pivots them, clearing each row's denominators."""
    if h.n > g.n:
        return None
    copies = enumerate_copies(g, h).copies
    if not copies:
        return None
    key = (lambda c: c.vertices) if mode == "vertex" else (lambda c: c.edges)
    reps: dict = {}
    for i, c in enumerate(copies):
        reps.setdefault(key(c), i)
    cols = list(reps.values())
    if mode == "vertex":
        rows = [[Fraction(v in copies[i].vertices) for i in cols] for v in range(g.n)]
    else:
        used = [{(u, v): m for u, v, m in copies[i].edges} for i in cols]
        rows = [[Fraction(cm.get(p, 0), g.adjacency[p]) for cm in used] for p in sorted(g.adjacency)]
    if rows:
        x = _eager_feasible_nonnegative(rows, [Fraction(1)] * len(rows))
    else:
        x = [Fraction(1)] + [Fraction(0)] * (len(cols) - 1)
    if x is None:
        return None
    full = [Fraction(0)] * len(copies)
    for i, xi in zip(cols, x):
        full[i] = xi
    mults, m = clear_denominators(full)
    return copies, mults, m


def _random_multigraph(rng, n, low, high, extra):
    base = random_connected(rng, n, extra=extra)
    return Multigraph(n, [(u, v, rng.randint(low, high)) for u, v, _, _ in base.edges])


def test_integer_lp_rows_give_the_fraction_rows_certificates():
    """The integer rows pivot like the Fraction rows they replace, so every
    certificate (copies, multiplicities, coverage) comes out the same, less
    the copies of multiplicity 0."""
    pairs = [(g, h) for g in atlas_up_to(6) for h in atlas_up_to(4)]
    rng = random.Random(2016)
    for _ in range(240):
        g = _random_multigraph(rng, rng.randint(3, 6), 2, 3, rng.randint(0, 5))
        h = _random_multigraph(rng, rng.randint(2, 4), 1, 3, rng.randint(0, 2))
        pairs.append((g, h))
    multi_edge_certs = 0
    for g, h in pairs:
        for mode, decider in (("vertex", check_fractional_tiling), ("edge", check_fractional_edge_tiling)):
            cert = decider(g, h)
            got = None if cert is None else (cert.copies, cert.multiplicities, cert.coverage)
            ref = _fraction_rows_certificate(g, h, mode)
            if ref is not None:
                copies, mults, m = ref
                ref = ([c for c, k in zip(copies, mults) if k], [k for k in mults if k], m)
            assert got == ref, (g, h, mode)
            multi_edge_certs += cert is not None and mode == "edge" and not g.is_simple()
    assert multi_edge_certs > 20


def _dense_lp(g, copies, mode):
    """The first copy of each column and the integer rows, each ending in
    its rhs, that the dense row builders made: vertex rows 0/1 against 1,
    edge rows a copy's units on each pair of G against the pair
    multiplicity, each row over its gcd."""
    key = (lambda c: c.vertices) if mode == "vertex" else (lambda c: c.edges)
    reps: dict = {}
    for c in copies:
        reps.setdefault(key(c), c)
    reps = list(reps.values())
    if mode == "vertex":
        return reps, [[int(v in c.vertices) for c in reps] + [1] for v in range(g.n)]
    used = [{(u, v): m for u, v, m in c.edges} for c in reps]
    rows = []
    for pair in sorted(g.adjacency):
        row = [cm.get(pair, 0) for cm in used] + [g.adjacency[pair]]
        rows.append([a // math.gcd(*row) for a in row])
    return reps, rows


def _eager_certificate(g, copies, mode):
    """The certificate of the eager dense simplex over ``_dense_lp``'s rows."""
    if not copies:
        return None
    reps, rows = _dense_lp(g, copies, mode)
    if rows:
        x = _eager_feasible_nonnegative([r[:-1] for r in rows], [r[-1] for r in rows])
    else:
        x = [Fraction(1)] + [Fraction(0)] * (len(reps) - 1)
    if x is None:
        return None
    support = [(c, xi) for c, xi in zip(reps, x) if xi]
    mults, m = clear_denominators([xi for _, xi in support])
    return FractionalTilingCertificate(copies=[c for c, _ in support], multiplicities=mults, coverage=m, mode=mode)


def _gcd_multigraph_pairs(rng, count):
    """Pairs whose G has every multiplicity in {2, 4} and whose H has every
    multiplicity 2, so every edge row has a gcd of at least 2."""
    def doubled(x):
        return Multigraph(x.n, [(u, v, 2 * m) for u, v, m, _ in x.edges])

    pairs = []
    for _ in range(count):
        g = doubled(_random_multigraph(rng, rng.randint(4, 6), 1, 2, rng.randint(0, 4)))
        pairs.append((g, doubled(_random_multigraph(rng, rng.randint(2, 4), 1, 1, rng.randint(0, 2)))))
    return pairs


def test_sparse_columns_give_the_dense_eager_certificates():
    """The revised simplex over sparse copy columns pivots as the eager dense
    tableau over the rows the dense builders made, so both copy deciders
    give the same certificates: atlas <= 6 x <= 5, and multigraphs whose
    edge rows have a gcd > 1."""
    atlas = [(g, h, False) for g in atlas_up_to(6) for h in atlas_up_to(5) if h.n <= g.n]
    held = {"vertex": 0, "edge": 0, "gcd edge": 0}
    for g, h, gcd in atlas + [(g, h, True) for g, h in _gcd_multigraph_pairs(random.Random(1954), 120)]:
        copies = enumerate_copies(g, h).copies
        for mode, decider in (("vertex", relations._fractional_tiling), ("edge", relations._fractional_edge_tiling)):
            cert = decider(g, h, [c.image for c in copies])
            assert cert == _eager_certificate(g, copies, mode), (g, h, mode)
            held[mode] += cert is not None
        held["gcd edge"] += gcd and cert is not None
    assert min(held.values()) > 20, held


def test_lp_cells_count_the_nonzeros_of_both_copy_lps(monkeypatch):
    """Every copy column has one entry per vertex or per pair of H, so
    ``len(columns) * len(columns[0])``, what the benchmark counts as LP
    cells, is the LP's nonzero count, that of the dense rows included.
    Each call is of the simplex's one form: the columns all dicts of
    positive int coefficients or all row collections, over a positive int
    rhs."""
    calls = []
    solve = relations.feasible_nonnegative

    def spy(columns, rhs):
        calls.append((columns, rhs))
        return solve(columns, rhs)

    monkeypatch.setattr(relations, "feasible_nonnegative", spy)
    pairs = [(g, h) for g in atlas_up_to(5) for h in atlas_up_to(4) if h.n <= g.n]
    pairs += _gcd_multigraph_pairs(random.Random(54), 40)
    # simple H in multigraphs: a multiple pair that no copy meets has rhs 1
    rng = random.Random(55)
    pairs += [(_random_multigraph(rng, 5, 1, 3, 3), _random_multigraph(rng, rng.randint(2, 4), 1, 1, 1)) for _ in range(40)]
    for g, h in pairs:
        copies = enumerate_copies(g, h).copies
        for mode, decider in (("vertex", relations._fractional_tiling), ("edge", relations._fractional_edge_tiling)):
            calls.clear()
            decider(g, h, [c.image for c in copies])
            if not calls:  # no copies, or no rows
                continue
            (columns, rhs), = calls
            _, rows = _dense_lp(g, copies, mode)
            nonzeros = sum(a != 0 for row in rows for a in row[:-1])
            assert len(columns) * len(columns[0]) == sum(map(len, columns)) == nonzeros, (g, h, mode)
            assert rhs == [row[-1] for row in rows]
            assert all(type(b) is int and b > 0 for b in rhs), rhs
            dicts = [isinstance(col, dict) for col in columns]
            assert all(dicts) or not any(dicts), columns
            assert all(type(a) is int and a > 0 for col in columns if isinstance(col, dict) for a in col.values())


def test_rows_that_force_a_copy_lp_give_the_simplex_answer(monkeypatch):
    """Whenever the rows settle a copy LP, their answer is the simplex's on
    the same LP: atlas <= 6 x <= 4 and random multigraph pairs.  Every
    outcome occurs: a row no copy meets, refuted, solved and undecided."""
    lps = []
    forced = relations._forced

    def spy(columns, rhs):
        result = forced(columns, rhs)
        lps.append((columns, rhs, result))
        return result

    monkeypatch.setattr(relations, "_forced", spy)
    pairs = [(g, h) for g in atlas_up_to(6) for h in atlas_up_to(4)]
    rng = random.Random(2016)
    for _ in range(240):
        g = _random_multigraph(rng, rng.randint(3, 6), 2, 3, rng.randint(0, 5))
        h = _random_multigraph(rng, rng.randint(2, 4), 1, 3, rng.randint(0, 2))
        pairs.append((g, h))
    for g, h in pairs:
        images = list(relations._search(g, h, each_copy_once=True))
        relations._fractional_tiling(g, h, images)
        relations._fractional_edge_tiling(g, h, images)
    seen = {"uncovered": 0, "refuted": 0, "solved": 0, "undecided": 0}
    for columns, rhs, (decided, x) in lps:
        uncovered = set(range(len(rhs))).difference(*columns)
        if decided:
            assert x == feasible_nonnegative(columns, rhs), (columns, rhs)
        else:
            assert not uncovered and x is None
        outcome = "undecided" if not decided else "uncovered" if uncovered else "refuted" if x is None else "solved"
        seen[outcome] += 1
    assert min(seen.values()) > 20, seen


def test_a_used_up_row_fixes_its_live_columns_at_0():
    """Row 0 fixes column 0 at 1, which uses up row 1, which fixes column 1
    at 0 and leaves row 2 to fix column 2.  With a coefficient of 2 on row
    0, each row leaves the next half its rhs instead."""
    assert relations._forced([[0, 1], [1, 2], [2]], [1, 1, 1]) == (True, [1, 0, 1])
    assert relations._forced([{0: 2, 1: 1}, [1, 2], [2]], [1, 1, 1]) == (True, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])


def test_a_forced_edge_lp_makes_no_simplex_call(monkeypatch):
    """Each pair of a path is covered by one copy of K_2 alone, so the rows
    fix every column of the edge LP, and the tiling leaves no vertex LP."""
    calls = []
    solve = relations.feasible_nonnegative

    def spy(columns, rhs):
        calls.append(rhs)
        return solve(columns, rhs)

    monkeypatch.setattr(relations, "feasible_nonnegative", spy)
    result = relate(path_graph(12), single_edge())
    assert calls == []
    assert result["fractional_edge_tiling"].multiplicities == [1] * 11
    assert all(verify_certificate(path_graph(12), single_edge(), cert) for cert in result.values())


def test_relate_enumerates_copies_once(monkeypatch):
    calls = []
    search = relations._search

    def counted(g, h, each_copy_once):
        calls.append((g, h, each_copy_once))
        return search(g, h, each_copy_once)

    monkeypatch.setattr(relations, "_search", counted)
    result = relate(grid4x4(), cycle_graph(4))
    assert len(calls) == 1 and calls[0][2]  # one search, one embedding per copy
    assert list(result) == list(RELATIONS)
    assert result["tiling"] is not None and result["fractional_tiling"] is not None
    assert relate(single_edge(), complete_graph(3)) == dict.fromkeys(RELATIONS)
    assert len(calls) == 2  # a larger H is searched once too, and has no copy


def test_a_copy_is_built_only_for_the_copies_a_certificate_lists(monkeypatch):
    """The copy deciders work on the search's images and build a ``Copy``
    once for each copy their certificates list, in certificate order: the
    tiling's cover and the support of each LP, and no other.  A fractional
    tiling that ``relate`` maps from a tiling lists the tiling's copies and
    builds none."""
    built = []
    copy_of = relations._copy_of

    def spy(image, h):
        built.append(image)
        return copy_of(image, h)

    monkeypatch.setattr(relations, "_copy_of", spy)
    pairs = [(g, h) for g in atlas_up_to(6) for h in atlas_up_to(5) if h.n <= g.n]
    pairs += _gcd_multigraph_pairs(random.Random(1954), 120)
    listed = 0
    for g, h in pairs:
        built.clear()
        result = relate(g, h)
        certs = [result[name] for name in ("tiling", "fractional_tiling", "fractional_edge_tiling")]
        if certs[0] is not None:
            assert certs[1].copies == certs[0].copies
            del certs[1]
        assert built == [c.image for cert in certs if cert is not None for c in cert.copies], (g, h)
        listed += len(built)
        for decider in (check_tiling, check_fractional_tiling, check_fractional_edge_tiling):
            built.clear()
            cert = decider(g, h)
            assert built == ([] if cert is None else [c.image for c in cert.copies]), (g, h, decider)
    assert listed > 1000, listed


def test_relate_equals_the_deciders():
    """The verdicts of calling each decider on its own, on atlas pairs and
    seeded multigraph pairs.  The tiling and edge certificates are the
    deciders'; where a stronger relation holds, the weaker certificate is
    the map of the stronger one, and otherwise the decider's."""
    pairs = [(g, h) for g in atlas_up_to(6) for h in atlas_up_to(4)]
    rng = random.Random(1602)
    for _ in range(120):
        g = _random_multigraph(rng, rng.randint(3, 7), 1, 3, rng.randint(0, 6))
        h = _random_multigraph(rng, rng.randint(2, 4), 1, 2, rng.randint(0, 2))
        pairs.append((g, h))
    held = dict.fromkeys(RELATIONS, 0)
    mapped = {"fractional_tiling": 0, "domination": 0}
    for g, h in pairs:
        result = relate(g, h)
        assert list(result) == list(RELATIONS)
        alone = {name: decider(g, h) for name, decider in RELATIONS.items()}
        assert {k: v is not None for k, v in result.items()} == {k: v is not None for k, v in alone.items()}, (g, h)
        for name in ("tiling", "fractional_edge_tiling"):
            assert result[name] == alone[name], (g, h, name)
        tiling, fractional = result["tiling"], result["fractional_tiling"]
        if tiling is not None:
            assert fractional == relations.fractional_from_tiling(tiling), (g, h)
            mapped["fractional_tiling"] += 1
        else:
            assert fractional == alone["fractional_tiling"], (g, h)
        if fractional is not None:
            assert result["domination"] == relations.coupling_from_fractional_tiling(fractional), (g, h)
            mapped["domination"] += 1
        else:
            assert result["domination"] == alone["domination"], (g, h)
        for name, cert in result.items():
            held[name] += cert is not None
            assert cert is None or verify_certificate(g, h, cert), (g, h, name)
    assert min(held.values()) > 20, held
    assert held["domination"] > mapped["domination"] > mapped["fractional_tiling"] > 20, mapped


# -- certificate maps ------------------------------------------------------------


def _mapped_certificates():
    """(g, h, cert) for the map of every tiling and every fractional tiling
    that holds: atlas <= 6 x <= 5 and the gcd multigraph pairs."""
    pairs = [(g, h) for g in atlas_up_to(6) for h in atlas_up_to(5) if h.n <= g.n]
    pairs += _gcd_multigraph_pairs(random.Random(1965), 120)
    for g, h in pairs:
        tiling = check_tiling(g, h)
        if tiling is not None:
            yield g, h, relations.fractional_from_tiling(tiling)
        for fractional in (tiling and relations.fractional_from_tiling(tiling), check_fractional_tiling(g, h)):
            if fractional is not None:
                yield g, h, relations.coupling_from_fractional_tiling(fractional)


def test_certificate_maps_verify():
    kinds = {"fractional_tiling": 0, "domination": 0}
    for g, h, cert in _mapped_certificates():
        assert verify_certificate(g, h, cert), (g, h, cert)
        kinds[cert.relation] += 1
    assert min(kinds.values()) > 100, kinds


def test_mutated_mapped_certificates_rejected():
    """A raised multiplicity breaks the common coverage; mass moved between
    two pairs of one row breaks both columns; a dropped witness is rejected
    exactly when some positive-mass pair loses its last witness."""
    rejected = {"multiplicity": 0, "row": 0, "witness": 0}
    for g, h, cert in _mapped_certificates():
        if isinstance(cert, FractionalTilingCertificate):
            for i in range(len(cert.multiplicities)):
                mults = list(cert.multiplicities)
                mults[i] += 1
                assert not verify_certificate(g, h, replace(cert, multiplicities=mults)), (g, h, i)
                rejected["multiplicity"] += 1
            continue
        rows: dict = {}
        for x, y in cert.masses:
            rows.setdefault(x, []).append(y)
        x, ys = max(rows.items(), key=lambda row: len(row[1]))
        if len(ys) > 1:
            masses = dict(cert.masses)
            moved = masses[(x, ys[0])] / 2
            masses[(x, ys[0])] -= moved
            masses[(x, ys[1])] += moved
            assert not verify_certificate(g, h, replace(cert, masses=masses)), (g, h)
            rejected["row"] += 1
        for i in range(len(cert.witnesses)):
            rest = cert.witnesses[:i] + cert.witnesses[i + 1 :]
            covered = {(x, y) for emb in rest for y, x in enumerate(emb)}
            kept = verify_certificate(g, h, replace(cert, witnesses=rest))
            assert kept == covered.issuperset(cert.masses), (g, h, i)
            rejected["witness"] += not kept
    assert min(rejected.values()) > 100, rejected


def test_relate_walks_no_embeddings_when_a_fractional_tiling_holds(monkeypatch):
    """One copy search per ``relate``; the domination walk runs only where
    no fractional tiling holds."""
    searches, walks = [], []
    search, walk = relations._search, relations.embeddings_iter

    def counted_search(g, h, each_copy_once):
        searches.append(g)
        return search(g, h, each_copy_once)

    def counted_walk(g, h):
        walks.append(g)
        return walk(g, h)

    monkeypatch.setattr(relations, "_search", counted_search)
    monkeypatch.setattr(relations, "embeddings_iter", counted_walk)
    held = 0
    for g in atlas_up_to(6):
        for h in atlas_up_to(4):
            if h.n > g.n:
                continue
            searches.clear()
            walks.clear()
            result = relate(g, h)
            assert len(searches) == 1, (g, h)
            if result["fractional_tiling"] is not None:
                assert walks == [], (g, h)
                held += 1
            else:
                assert len(walks) <= 1, (g, h)
    assert held > 100, held


# -- domination ---------------------------------------------------------------------


def test_domination_examples():
    assert check_domination(complete_graph(4), complete_graph(3)) is not None
    assert check_domination(star_graph(4), single_edge()) is not None
    assert check_domination(single_edge(), complete_graph(3)) is None


def test_coupling_marginals():
    g, h = complete_graph(4), complete_graph(3)
    cert = check_domination(g, h)
    for x in range(g.n):
        assert sum((m for (a, _), m in cert.masses.items() if a == x), Fraction(0)) == Fraction(1, 4)
    for y in range(h.n):
        assert sum((m for (_, b), m in cert.masses.items() if b == y), Fraction(0)) == Fraction(1, 3)
    assert verify_certificate(g, h, cert)


def test_hall_examples():
    assert domination_hall_condition(complete_graph(4), complete_graph(3)) == (True, None)
    assert domination_hall_condition(complete_graph(3), star_graph(2)) == (True, None)
    ok, witness = domination_hall_condition(cycle_graph(4), complete_graph(3))
    assert not ok and witness is not None


def test_hall_size_bound():
    from gdom.relations import HALL_SIZE_BOUND

    big = path_graph(HALL_SIZE_BOUND + 1)
    with pytest.raises(ValueError):
        domination_hall_condition(big, big)


def _assert_agrees_with_hall(g, h):
    cert = check_domination(g, h)
    feasible, witness = domination_hall_condition(g, h)
    assert (cert is not None) == feasible, (g, h)
    if cert is not None:
        assert verify_certificate(g, h, cert), (g, h)
    else:
        # the witness really violates Hall's condition
        rel = rooted_copy_relation(g, h)
        reach = {x for (x, y) in rel if y in witness}
        assert len(reach) * h.n < len(witness) * g.n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_flow_agrees_with_hall(seed):
    rng = random.Random(seed)
    g = random_connected(rng, rng.randint(2, 8), extra=rng.randint(0, 5))
    h = random_connected(rng, rng.randint(1, min(6, g.n)), extra=rng.randint(0, 3))
    _assert_agrees_with_hall(g, h)


def test_flow_agrees_with_hall_on_atlas():
    for g in atlas_up_to(6):
        for h in atlas_up_to(5):
            _assert_agrees_with_hall(g, h)


def test_domination_stops_at_the_first_complete_coupling(monkeypatch):
    """A yes may stop the walk early and pulls at most every embedding.  A
    no pulls every embedding, or none when the degree classes refute it,
    and the Hall oracle agrees with each no."""
    pulled = [0]

    def counted(g, h):
        for emb in embeddings_iter(g, h):
            pulled[0] += 1
            yield emb

    monkeypatch.setattr(relations, "embeddings_iter", counted)

    def walk(g, h):
        pulled[0] = 0
        cert = check_domination(g, h)
        return cert, pulled[0], sum(1 for _ in embeddings_iter(g, h))

    cert, n, every = walk(path_graph(4), path_graph(3))
    assert cert is not None and n < every
    refuted = searched = 0
    for g in atlas_up_to(5):
        for h in atlas_up_to(4):
            if h.n <= g.n:
                cert, n, every = walk(g, h)
                if cert is not None:
                    assert n <= every, (g, h)
                    continue
                assert not domination_hall_condition(g, h)[0], (g, h)
                if relations._degree_classes_refute(g, h):
                    assert n == 0, (g, h)
                    refuted += 1
                else:
                    assert n == every, (g, h)
                    searched += every > 0
    assert refuted > 0 and searched > 0


def _overlay_proposals(count):
    """The first ``count`` pairs that ``generate_pair`` proposes on the
    seed-2024 ``overlay_copies`` hunt, rejected ones included."""
    gen = PairGenerator("overlay_copies", seed=2024, relation="domination", max_g=10, max_h=5)
    out = []
    for trial in itertools.count():
        for attempt in range(gen.max_attempts):
            g, h, known = _propose(Stream(derive_seed(gen.seed, trial, attempt)), gen)
            out.append((g, h))
            if len(out) == count:
                return out
            if check_domination(g, h, known) is not None:
                break


def test_degree_refutation_is_sound():
    """The degree classes never refute a pair that dominates: every pair
    they refute fails the Hall oracle.  Degrees count multiplicity, so a
    double edge is refuted in a simple path by its degree alone."""

    def refuted(pairs):
        fired = 0
        for g, h in pairs:
            if h.n <= g.n and relations._degree_classes_refute(g, h):
                assert not domination_hall_condition(g, h)[0], (g, h)
                fired += 1
        return fired

    assert refuted([(path_graph(3), Multigraph(2, [(0, 1, 2)]))]) == 1
    assert not relations._degree_classes_refute(cycle_graph(4), Multigraph(2, [(0, 1, 2)]))
    assert refuted((g, h) for g in atlas_up_to(6) for h in atlas_up_to(5)) > 100
    rng = random.Random(22)
    multi = [
        (_random_multigraph(rng, rng.randint(2, 8), 1, 3, rng.randint(0, 6)), _random_multigraph(rng, rng.randint(1, 5), 1, 3, rng.randint(0, 3)))
        for _ in range(400)
    ]
    assert refuted(multi) > 20
    assert refuted(_overlay_proposals(500)) > 0


def test_known_embeddings_change_no_domination_answer():
    """Known embeddings, walked first, decide every atlas pair as the bare
    walk does, and the certificate they give verifies, also from JSON."""
    rng = random.Random(16)
    seeded = 0
    for g in atlas_up_to(6):
        for h in atlas_up_to(5):
            if h.n > g.n:
                continue
            every = list(embeddings_iter(g, h))
            known = rng.sample(every, rng.randint(0, min(len(every), 6)))
            cert = check_domination(g, h, known)
            assert (cert is None) == (check_domination(g, h) is None), (g, h)
            if cert is not None:
                assert verify_certificate(g, h, cert), (g, h)
                assert verify_certificate(g, h, certificate_from_json(certificate_to_json(cert))), (g, h)
                seeded += bool(known)
    assert seeded > 1000


def test_known_entry_that_is_not_an_embedding_raises():
    g, h = path_graph(4), path_graph(3)
    assert check_domination(g, h, [(0, 1, 2), [3, 2, 1]]) is not None
    for bad in ((0, 1, 3), (1, 0, 1), (0, 1), (0, 1, 4)):
        with pytest.raises(ValueError):
            check_domination(g, h, [(0, 1, 2), bad])
    with pytest.raises(ValueError):  # no embedding exists when |H| > |G|
        check_domination(h, g, [(0, 1, 2, 3)])


def test_relate_counts_on_the_small_atlas():
    """The four verdicts over the ordered pairs of connected graphs up to 5
    vertices with |H| <= |G|, as scripts/survey_small_pairs.py counts them."""
    graphs = atlas_up_to(5)
    held = dict.fromkeys(RELATIONS, 0)
    pairs = 0
    for g in graphs:
        for h in graphs:
            if h.n <= g.n:
                pairs += 1
                for name, cert in relate(g, h).items():
                    held[name] += cert is not None
    assert pairs == 722
    assert held == {
        "tiling": 222,
        "fractional_tiling": 273,
        "fractional_edge_tiling": 185,
        "domination": 336,
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_fractional_tiling_implies_domination(seed):
    rng = random.Random(seed)
    g = random_connected(rng, rng.randint(2, 7), extra=rng.randint(0, 4))
    h = random_connected(rng, rng.randint(1, min(5, g.n)), extra=rng.randint(0, 2))
    if check_fractional_tiling(g, h) is not None:
        assert check_domination(g, h) is not None


def test_transitive_shortcuts_on_atlas():
    """For transitive H: domination iff every vertex covered; for transitive G:
    domination iff a copy exists, and then H fractionally tiles G."""
    from conftest import covers_every_vertex

    graphs = atlas_up_to(5)
    rng = random.Random(77)
    for _ in range(120):
        g = rng.choice(graphs)
        h = rng.choice([x for x in graphs if x.n <= g.n])
        dom = check_domination(g, h) is not None
        if is_transitive(h):
            assert dom == covers_every_vertex(g, h)
        if is_transitive(g):
            has_copy = next(embeddings_iter(g, h), None) is not None
            assert dom == has_copy
            if dom:
                assert check_fractional_tiling(g, h) is not None


# -- verification and serialization ---------------------------------------------------


def test_perturbed_certificates_rejected():
    g, h = complete_graph(4), complete_graph(3)
    frac = check_fractional_tiling(g, h)
    bad = FractionalTilingCertificate(
        copies=frac.copies,
        multiplicities=[0] + frac.multiplicities[1:],
        coverage=frac.coverage,
        mode="vertex",
    )
    assert not verify_certificate(g, h, bad)
    coup = check_domination(g, h)
    masses = dict(coup.masses)
    key = next(iter(masses))
    masses[key] += Fraction(1, 997)
    witnesses = _relation_witnesses(g, h)
    assert not verify_certificate(g, h, CouplingCertificate(masses=masses, witnesses=witnesses))
    tiling = check_tiling(grid4x4(), cycle_graph(4))
    assert not verify_certificate(
        grid4x4(), cycle_graph(4), TilingCertificate(copies=tiling.copies[:-1])
    )
    # a copy that repeats an edge pair would count one unit of G twice
    from gdom.checks import HYPOTHESIS_FAILED, check
    from gdom.embeddings import Copy

    g, h = parse_graph("2; 0 1"), parse_graph("2; 0 1 2")
    forged = Copy((0, 1), ((0, 1, 1), (0, 1, 1)), (0, 1))
    for cert in (
        TilingCertificate([forged]),
        FractionalTilingCertificate([forged], [1], 1, "vertex"),
        FractionalTilingCertificate([forged], [1], 2, "edge"),
    ):
        assert not verify_certificate(g, h, cert)
        assert not verify_certificate(g, h, certificate_from_json(certificate_to_json(cert)))
    report = check("frac_tiling_tree", g, h, {"certificate": TilingCertificate([forged])})
    assert report.verdict == HYPOTHESIS_FAILED


def _relation_witnesses(g, h):
    """The first embedding of h into g that adds each rooted pair, in DFS
    order: together they cover the whole rooted copy relation."""
    rel, witnesses = set(), []
    for emb in embeddings_iter(g, h):
        if not rel.issuperset(zip(emb, range(h.n))):
            rel.update(zip(emb, range(h.n)))
            witnesses.append(emb)
    return witnesses


def _star_path_masses():
    """Marginals of a coupling of (star with 3 leaves, P3), one pair outside the relation.

    The centre of P3 can only sit on the star's centre, so (1, 1) is no rooted
    copy; the other support pairs all lie in the first embeddings found.
    """
    q = Fraction(1, 12)
    return {(0, 1): 3 * q, (1, 1): q, (1, 0): 2 * q, (2, 0): 2 * q, (2, 2): q, (3, 2): 3 * q}


def test_coupling_pair_outside_relation_rejected():
    g, h = star_graph(3), path_graph(3)
    masses = _star_path_masses()
    witnesses = _relation_witnesses(g, h)
    assert (1, 1) not in rooted_copy_relation(g, h)
    assert set(masses) - {(1, 1)} <= rooted_copy_relation(g, h)
    assert not verify_certificate(g, h, CouplingCertificate(masses=masses, witnesses=witnesses))
    # the same marginals without the bad pair's mass are not a coupling either
    masses[(0, 1)] += masses.pop((1, 1))
    assert not verify_certificate(g, h, CouplingCertificate(masses=masses, witnesses=witnesses))


def test_coupling_zero_masses_ignored_anywhere():
    # P3 dominates P4, but the centre of P3 never sits on an end of P4
    g, h = path_graph(4), path_graph(3)
    rel = rooted_copy_relation(g, h)
    outside = {(x, y) for x in range(g.n) for y in range(h.n)} - rel
    assert (0, 1) in outside
    cert = check_domination(g, h)
    zeros = {pair: Fraction(0) for pair in outside | {(g.n, 0), (0, h.n), (-1, -1)}}
    witnesses = _relation_witnesses(g, h)
    assert verify_certificate(g, h, CouplingCertificate(masses={**cert.masses, **zeros}, witnesses=witnesses))
    bad = {**cert.masses, **zeros}
    bad[next(iter(cert.masses))] += Fraction(1, 97)
    assert not verify_certificate(g, h, CouplingCertificate(masses=bad, witnesses=witnesses))


def test_coupling_positive_mass_out_of_range_rejected():
    g, h = complete_graph(4), complete_graph(3)
    cert = check_domination(g, h)
    witnesses = _relation_witnesses(g, h)
    for pair in ((g.n, 0), (0, h.n), (-1, 0), (0, -1), (-10, 0), (0, -10)):
        masses = {**cert.masses, pair: Fraction(1, 7)}
        assert verify_certificate(g, h, CouplingCertificate(masses=masses, witnesses=witnesses)) is False
    # a row that is balanced only through an out-of-range column
    masses = {(x, y): Fraction(1, 12) for x in range(4) for y in range(3)}
    masses[(0, 0)] = Fraction(0)
    masses[(0, h.n)] = Fraction(1, 12)
    assert verify_certificate(g, h, CouplingCertificate(masses=masses, witnesses=witnesses)) is False


def test_coupling_certificates_verify_on_incomplete_relations():
    rng = random.Random(404)
    incomplete = 0
    for _ in range(300):
        g = random_connected(rng, rng.randint(3, 8), extra=rng.randint(0, 4))
        h = random_connected(rng, rng.randint(2, min(5, g.n)), extra=rng.randint(0, 2))
        cert = check_domination(g, h)
        if cert is None:
            continue
        assert verify_certificate(g, h, cert)
        incomplete += len(rooted_copy_relation(g, h)) < g.n * h.n
    assert incomplete > 20


def test_certificate_wrong_isomorphism_type_rejected():
    g = complete_graph(4)
    cl = enumerate_copies(g, path_graph(3))
    cert = TilingCertificate(copies=[cl.copies[0]])
    # copies are paths, h claims triangle
    assert not verify_certificate(g, complete_graph(3), cert)
    # in K3 one P3 copy covers every vertex, and its image embeds K3 too:
    # only the triangle's third edge, missing from the copy, rejects it
    k3 = complete_graph(3)
    cert = TilingCertificate(copies=enumerate_copies(k3, path_graph(3)).copies[:1])
    assert relations._is_embedding(k3, k3, cert.copies[0].image)
    assert not verify_certificate(k3, k3, cert)


# -- copies checked through the embedding they carry ------------------------------------


def _forgeries(g, h, c):
    """(what is wrong, copy) for copies forged from c, a valid P3 copy in C6."""
    x, y, z = c.image  # y is the centre of P3
    yield "not injective", replace(c, image=(x, y, x))  # both H-edges land on x-y
    yield "out of range", replace(c, image=(x, y, g.n))
    yield "negative", replace(c, image=(x, y, -1))
    yield "too short", replace(c, image=(x, y))
    yield "too long", replace(c, image=(*c.image, next(v for v in range(g.n) if v not in c.image)))
    # the copy (y, x, z) makes, whose H-edge x-z misses C6
    yield "edge off G", _copy_of((y, x, z), h)
    yield "edge dropped", replace(c, edges=c.edges[:1])
    yield "edge doubled", replace(c, edges=tuple((u, v, 2) for u, v, _ in c.edges))
    yield "edge swapped", replace(c, edges=((min(x, z), max(x, z), 1), *c.edges[1:]))
    yield "other vertices", replace(c, vertices=tuple(sorted((v + 1) % g.n for v in c.vertices)))
    yield "unsorted vertices", replace(c, vertices=c.vertices[::-1])


def test_copy_not_made_by_its_image_rejected():
    g, h = cycle_graph(6), path_graph(3)
    for cert in (check_tiling(g, h), check_fractional_tiling(g, h), check_fractional_edge_tiling(g, h)):
        c = cert.copies[0]
        assert verify_certificate(g, h, cert)
        # an image that differs by an automorphism of H makes the same copy
        assert verify_certificate(g, h, replace(cert, copies=[replace(c, image=c.image[::-1]), *cert.copies[1:]]))
        for what, forged in _forgeries(g, h, c):
            assert forged != c or forged.image != c.image, what
            bad = replace(cert, copies=[forged, *cert.copies[1:]])
            assert not verify_certificate(g, h, bad), (cert.relation, what)


def test_verification_imports_nothing_from_symmetry():
    tree = ast.parse(inspect.getsource(relations))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    assert not any("symmetry" in m for m in modules), modules


def test_json_keeps_every_image():
    k4, k3, c6, p3 = complete_graph(4), complete_graph(3), cycle_graph(6), path_graph(3)
    for g, h, decider in (
        (grid4x4(), cycle_graph(4), check_tiling),
        (k4, k3, check_fractional_tiling),
        (k4, k3, check_fractional_edge_tiling),
        (c6, p3, check_fractional_edge_tiling),
    ):
        cert = decider(g, h)
        obj = certificate_to_json(cert)
        assert all(set(rec) == {"image", "edges"} for rec in obj["copies"])
        back = certificate_from_json(obj)
        # == ignores the images, so they are compared apart
        assert back == cert and [c.image for c in back.copies] == [c.image for c in cert.copies]
        assert verify_certificate(g, h, back)
        del obj["copies"][0]["image"]
        with pytest.raises(ValueError):
            certificate_from_json(obj)


def test_json_roundtrip_all_certificate_kinds():
    g, h = complete_graph(4), complete_graph(3)
    for cert in (
        check_fractional_tiling(g, h),
        check_fractional_edge_tiling(g, h),
        check_domination(g, h),
        check_tiling(grid4x4(), cycle_graph(4)),
    ):
        assert cert is not None
        back = certificate_from_json(certificate_to_json(cert))
        target = (g, h) if not isinstance(cert, TilingCertificate) else (grid4x4(), cycle_graph(4))
        assert verify_certificate(*target, back)


# -- witness-carrying couplings and support-only fractional certificates -------------


def _with_witness(g, h, emb):
    cert = check_domination(g, h)
    assert cert is not None and verify_certificate(g, h, cert)
    return CouplingCertificate(masses=cert.masses, witnesses=[*cert.witnesses, emb])


def test_witness_not_an_injective_map_into_g_rejected():
    # (1, 0, 1) sends both ends of P3 to one vertex, yet every edge of P3 lands
    g, h = path_graph(4), path_graph(3)
    for emb in ((1, 0, 1), (0, 1), (0, 1, 2, 3)):
        assert not verify_certificate(g, h, _with_witness(g, h, emb)), emb
    # K_1 has no edges to land, so only the range check rejects these
    g, h = single_edge(), Multigraph(1, [])
    for emb in ((2,), (-1,)):
        assert not verify_certificate(g, h, _with_witness(g, h, emb)), emb


def test_witness_off_the_edges_of_g_rejected():
    g, h = path_graph(4), path_graph(3)
    assert not verify_certificate(g, h, _with_witness(g, h, (0, 1, 3)))
    # the double edge of H may not land on a single edge of G
    g, h = parse_graph("3; 0 1 2; 1 2 2; 0 2 1"), parse_graph("2; 0 1 2")
    assert verify_certificate(g, h, _with_witness(g, h, (2, 1)))
    assert not verify_certificate(g, h, _with_witness(g, h, (0, 2)))


def test_positive_mass_pair_without_witness_rejected():
    rng = random.Random(909)
    checked = 0
    for _ in range(60):
        g = random_connected(rng, rng.randint(3, 7), extra=rng.randint(0, 4))
        h = random_connected(rng, rng.randint(2, min(4, g.n)), extra=rng.randint(0, 1))
        cert = check_domination(g, h)
        if cert is None:
            continue
        for x, y in cert.masses:
            fewer = [emb for emb in cert.witnesses if emb[y] != x]
            assert not verify_certificate(g, h, CouplingCertificate(masses=cert.masses, witnesses=fewer))
        checked += 1
    assert checked > 20


def test_coupling_verification_does_not_search(monkeypatch):
    """No certificate kind searches for embeddings or computes a canonical code."""
    from gdom import embeddings, symmetry

    k4, k3 = complete_graph(4), complete_graph(3)
    pairs = [
        (grid4x4(), cycle_graph(4), check_tiling),
        (k4, k3, check_fractional_tiling),
        (k4, k3, check_fractional_edge_tiling),
        (path_graph(4), path_graph(3), check_domination),
    ]
    certs = [(g, h, decider(g, h)) for g, h, decider in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("verification searched or computed a canonical code")

    for module, name in ((embeddings, "_search"), (symmetry, "canonical_code"), (symmetry, "cached_code")):
        monkeypatch.setattr(module, name, refuse)
    for g, h, cert in certs:
        assert verify_certificate(g, h, cert), cert.relation


def test_witnesses_survive_json():
    for g, h in ((complete_graph(4), complete_graph(3)), (path_graph(4), path_graph(3))):
        cert = check_domination(g, h)
        obj = certificate_to_json(cert)
        assert obj["witnesses"] == [list(emb) for emb in cert.witnesses]
        assert certificate_from_json(obj) == cert


def test_coupling_record_without_witnesses_raises():
    obj = certificate_to_json(check_domination(complete_graph(4), complete_graph(3)))
    del obj["witnesses"]
    with pytest.raises(ValueError):
        certificate_from_json(obj)


def test_fractional_certificates_list_only_their_support():
    held = 0
    for g in atlas_up_to(6):
        for h in atlas_up_to(4):
            for decider in (check_fractional_tiling, check_fractional_edge_tiling):
                cert = decider(g, h)
                if cert is not None:
                    assert len(cert.copies) == len(cert.multiplicities)
                    assert all(m > 0 for m in cert.multiplicities), (g, h, cert.mode)
                    held += 1
    assert held > 100


def test_a_larger_h_has_no_copy_and_no_relation():
    """|H| > |G| is decided once, by the copy search finding nothing: every
    relation, every decider and the rooted relation come out empty, and so
    every hypothesis of every check that takes H fails."""
    pairs = [(g, h) for g in atlas_up_to(4) for h in atlas_up_to(4) if h.n > g.n]
    assert len(pairs) == 29
    takes_h = [ineq for ineq, entry in INEQUALITIES.items() if entry.takes_h]
    for g, h in pairs:
        result = relate(g, h)
        assert list(result) == list(RELATIONS) and result == dict.fromkeys(RELATIONS)
        assert all(decider(g, h) is None for decider in RELATIONS.values())
        assert rooted_copy_relation(g, h) == set()
        with pytest.raises(ValueError):
            enumerate_copies(g, h)
        for ineq in takes_h:
            for hypothesis in _IMPLIES:
                assert check(ineq, g, h, {"hypothesis": hypothesis}).verdict == HYPOTHESIS_FAILED, (ineq, hypothesis)


@pytest.mark.parametrize("g, h", [(path_graph(1200), single_vertex()), (path_graph(1000), single_edge())])
def test_a_tiling_of_many_copies_needs_no_recursion(g, h):
    """The exact cover search goes |G|/|H| copies deep without recursing."""
    result = relate(g, h)
    assert len(result["tiling"].copies) == g.n // h.n
    for name, cert in result.items():
        assert cert is None or verify_certificate(g, h, cert), name
