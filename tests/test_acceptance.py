"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is reproducible: fixed seeds, exact arithmetic
wherever the compared quantities are exact, stated tolerances elsewhere.
"""

import itertools
import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from gdom.checks import (
    HOLDS,
    HOLDS_WITH_EQUALITY,
    HYPOTHESIS_FAILED,
    INCONCLUSIVE,
    VIOLATED,
    check,
    check_shearer,
    default_t_grid,
    JointDistribution,
)
from gdom.counting import (
    HomTarget,
    count_acyclic_orientations,
    count_forests,
    count_independent_sets,
    count_proper_colorings,
    count_spanning_trees,
    count_weighted_homomorphisms,
    laplacian_minor,
    tutte_polynomial,
)
from gdom.embeddings import enumerate_copies
from gdom.multigraph import (
    Multigraph,
    complete_graph,
    parse_graph,
    path_graph,
    single_edge,
    star_graph,
)
from gdom.relations import (
    check_domination,
    check_fractional_edge_tiling,
    check_fractional_tiling,
    domination_hall_condition,
    verify_certificate,
)
from gdom.rng import Stream, derive_seed
from gdom.search import PairGenerator, hunt, random_regular_cover, transitive_catalog
from gdom.spectral import heat_trace, hinge, spectral_functional
from gdom.symmetry import cached_code, is_transitive

from conftest import (
    atlas_up_to,
    brute_acyclic_orientation_count,
    brute_coloring_count,
    brute_forest_count,
    brute_spanning_tree_count,
    covers_every_vertex,
    nx_to_multigraph,
    random_connected,
)

OK_VERDICTS = (HOLDS, HOLDS_WITH_EQUALITY)


def _pass(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


# -- 1: Matrix-Tree vs exhaustive enumeration ---------------------------------------


def test_criterion_01_matrix_tree_identity():
    graphs = atlas_up_to(6)
    assert len(graphs) == 143
    for g in graphs:
        assert count_spanning_trees(g) == brute_spanning_tree_count(g)
    # multigraph variants keep the identity (parallel edges give distinct trees)
    rng = random.Random(1)
    for _ in range(30):
        base = random_connected(rng, rng.randint(2, 5), extra=rng.randint(0, 3))
        g = Multigraph(base.n, [(u, v, rng.randint(1, 3), w) for u, v, m, w in base.edges])
        assert count_spanning_trees(g) == brute_spanning_tree_count(g)
    _pass(1, "tau = exhaustive spanning-tree count on all 143 connected graphs <= 6 vertices")


# -- 2: the paper's path-3 failure example ------------------------------------------


def test_criterion_02_koteljanskii_failure_example():
    r = check("koteljanskii_step", path_graph(3), params={"a": [0, 1], "b": [1, 2]})
    assert r.verdict == HYPOTHESIS_FAILED
    assert r.lhs == 1 and r.rhs == 2
    assert any("raw comparison: violated" in note for note in r.notes)
    _pass(2, "path-3 A={x,y} B={y,z}: raw LHS=1 RHS=2, hypothesis_failed")


# -- 3: Koteljanskii property suite ---------------------------------------------------


def test_criterion_03_koteljanskii_random_suite():
    rng = random.Random(derive_seed(3, 3))
    trials = 0
    while trials < 10_000:
        g = random_connected(
            rng, rng.randint(2, 7), extra=rng.randint(0, 6), weighted=rng.random() < 0.3
        )
        a = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
        b = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
        union_proper = len(a | b) < g.n
        crossing = any(g.multiplicity(u, v) > 0 for u in a - b for v in b - a)
        if not (union_proper or crossing):
            continue
        lhs = Fraction(laplacian_minor(g, a)) * Fraction(laplacian_minor(g, b))
        rhs = Fraction(laplacian_minor(g, a | b)) * Fraction(laplacian_minor(g, a & b))
        assert lhs >= rhs, (g.edges, sorted(a), sorted(b))
        trials += 1
    _pass(3, "M(A)M(B) >= M(AuB)M(AnB) exact on 10^4 random triples with the step hypothesis")


# -- 4: theorem soundness sweep --------------------------------------------------------


HOM_TARGET = HomTarget.independent_set_target()
HOM_WEIGHTS = {0: Fraction(1), 1: Fraction(3, 2)}


def _assert_ok(report, context):
    assert report.verdict in OK_VERDICTS, (context, report.to_json())


def test_criterion_04_theorem_soundness_sweep():
    graphs = atlas_up_to(6)
    trans = {g: is_transitive(g) for g in graphs}
    vertex_params = [
        {"family": "independent_sets"},
        {"family": "proper_colorings", "q": 3},
        {"family": "weighted_homomorphisms", "hom_target": HOM_TARGET, "hom_weights": HOM_WEIGHTS},
    ]
    checked = 0
    for g in graphs:
        for h in graphs:
            if h.n > g.n:
                continue
            if not enumerate_copies(g, h).copies:
                continue
            _assert_ok(check("tree_product", g, h), (g, h, "tree_product"))
            checked += 1
            ft = check_fractional_tiling(g, h)
            if ft is not None:
                _assert_ok(
                    check("frac_tiling_tree", g, h, params={"certificate": ft}),
                    (g, h, "frac_tiling_tree"),
                )
                for vp in vertex_params:
                    params = dict(vp)
                    params["certificate"] = ft
                    _assert_ok(check("vertex_counting", g, h, params), (g, h, vp["family"]))
                checked += 4
            fe = check_fractional_edge_tiling(g, h)
            if fe is not None and h.edge_unit_count() > 0:
                for fam in ("forests", "acyclic_orientations", "matchings"):
                    _assert_ok(
                        check("edge_counting", g, h, {"certificate": fe, "family": fam}),
                        (g, h, fam),
                    )
                checked += 3
            if trans[h] and covers_every_vertex(g, h):
                _assert_ok(check("transitive_H", g, h), (g, h, "transitive_H"))
                checked += 1
            if trans[g]:
                r = check("transitive_G", g, h)
                if r.verdict != HYPOTHESIS_FAILED:
                    _assert_ok(r, (g, h, "transitive_G"))
                    checked += 1
    assert checked > 15_000

    # cover_product: random m-regular covers over every G
    rng = Stream(derive_seed(4, 1))
    for g in graphs:
        for _ in range(2):
            cover = random_regular_cover(rng, g.n, rng.randint(1, 3))
            _assert_ok(check("cover_product", g, params={"cover": cover}), (g, "cover"))

    # a thousand generated pairs across the same ids, zero violations
    budget = {
        ("tree_product", "subgraph", None): 220,
        ("frac_tiling_tree", "fractional_tiling", None): 170,
        ("vertex_counting", "fractional_tiling", "independent_sets"): 110,
        ("vertex_counting", "fractional_tiling", "proper_colorings"): 110,
        ("edge_counting", "fractional_edge_tiling", "forests"): 110,
        ("edge_counting", "fractional_edge_tiling", "acyclic_orientations"): 110,
        ("edge_counting", "fractional_edge_tiling", "matchings"): 110,
        ("transitive_H", "domination", None): 80,
        ("transitive_G", "domination", None): 80,
    }
    total = 0
    for (ineq, relation, family), trials in budget.items():
        gen = PairGenerator(
            "transitive_catalog", seed=derive_seed(4, 2, total), relation=relation, max_g=8, max_h=4
        )
        params = {"family": family} if family else {}
        res = hunt(ineq, gen, trials, params)
        assert res.violations == [], res.summary()
        total += res.checked
    assert total >= 1000
    _pass(4, f"zero violations: exhaustive |G|<=6 sweep ({checked} checks) + {total} generated pairs")


# -- 5: the K4/K3 witness ----------------------------------------------------------------


def test_criterion_05_k4_k3_witness():
    K4, K3 = complete_graph(4), complete_graph(3)
    ft = check_fractional_tiling(K4, K3)
    assert ft is not None and ft.coverage == 3
    assert sorted(ft.multiplicities) == [1, 1, 1, 1]
    assert verify_certificate(K4, K3, ft)

    r = check("spanning_tree", K4, K3)
    assert r.verdict == HOLDS and r.lhs == 16 and r.rhs == 3
    assert Fraction(16) ** 3 >= Fraction(3) ** 4  # 4096 >= 81, the exact comparison

    r = check("heat_trace_frac", K4, K3)
    assert r.verdict == HOLDS
    for p in r.points:
        t = float(Fraction(p.label[2:]))
        lhs_closed = (1 + 3 * math.exp(-4 * t)) / 4
        rhs_closed = (1 + 2 * math.exp(-3 * t)) / 3
        assert abs(p.lhs - lhs_closed) < 1e-9
        assert abs(p.rhs - rhs_closed) < 1e-9
        assert p.verdict == HOLDS
    _pass(5, "K4/K3: m=3 certificate, 16^3 >= 3^4, heat traces match closed forms to 1e-9")


# -- 6: equality clause of the heat-trace theorem ------------------------------------------


def test_criterion_06_heat_trace_equality_clause():
    K4, K3 = complete_graph(4), complete_graph(3)
    r = check("heat_trace_frac", K4, complete_graph(4))
    assert r.verdict == HOLDS_WITH_EQUALITY
    assert all(p.verdict == HOLDS_WITH_EQUALITY for p in r.points)
    r2 = check("heat_trace_frac", K4, K3)
    assert all(p.verdict == HOLDS for p in r2.points)  # strict at every t > 0
    _pass(6, "equality at every grid point on (G,G); strict at every point on (K4,K3)")


# -- 7: the derivative identity at t = 0 ----------------------------------------------------


def test_criterion_07_derivative_identity():
    from conftest import heat_trace_derivative_at_zero

    rng = random.Random(derive_seed(7, 7))
    eps = 1e-4
    for _ in range(100):
        n = rng.randint(2, 8)
        edges = [
            (rng.randrange(i), i, 1, Fraction(rng.randint(1, 8), 8)) for i in range(1, n)
        ]
        for _ in range(rng.randint(0, 2)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, 1, Fraction(rng.randint(1, 8), 8)))
        g = Multigraph(n, edges)
        exact = float(heat_trace_derivative_at_zero(g))
        fd = (heat_trace(g, eps) - 1.0) / eps
        assert abs(fd - exact) <= 1e-3 * abs(exact), (g.edges, fd, exact)
    _pass(7, "finite-difference slope at eps=1e-4 matches -(2/|G|) sum w(e) within 1e-3 relative, 100 graphs")


# -- 8: known violations and equalities under bare domination --------------------------------


def test_criterion_08_star_violations_and_equality_regressions():
    EDGE = single_edge()
    r = check(
        "vertex_counting",
        star_graph(4),
        EDGE,
        params={"family": "independent_sets", "hypothesis": "domination"},
    )
    assert r.verdict == VIOLATED and r.lhs == 17 and r.rhs == 3
    assert 17**2 > 3**5  # 289 > 243

    r = check("matchings_lower", star_graph(4), EDGE, params={"hypothesis": "domination"})
    assert r.verdict == VIOLATED and r.lhs == 5 and r.rhs == 2
    assert 5**2 < 2**5  # 25 < 32

    r = check(
        "vertex_counting",
        star_graph(3),
        EDGE,
        params={"family": "independent_sets", "hypothesis": "domination"},
    )
    assert r.verdict == HOLDS_WITH_EQUALITY  # 9^(1/4) = 3^(1/2)

    r = check("matchings_lower", star_graph(3), EDGE, params={"hypothesis": "domination"})
    assert r.verdict == HOLDS_WITH_EQUALITY  # 4^(1/4) = 2^(1/2)
    _pass(8, "K_{1,4}/edge violated with 17^2>3^5 and 5^2<2^5; K_{1,3}/edge equalities detected")


# -- 9: the hunt reproduces the hinge counterexample phenomenon ------------------------------


def test_criterion_09_hinge_counterexample_hunt():
    gen = PairGenerator("overlay_copies", seed=2024, relation="domination", max_g=10, max_h=5)
    res = hunt(
        "spectral_decreasing_convex",
        gen,
        2000,  # within the <= 10^4 budget
        params={"functional": hinge(4), "hypothesis": "domination"},
    )
    assert len(res.violations) >= 1, res.summary()
    v = res.violations[0]
    assert v.report.verdict == VIOLATED

    # independently re-establish the archived pair from its serialized form
    g = parse_graph(v.g)
    h = parse_graph(v.h)
    assert g.n <= 10
    feasible, _ = domination_hall_condition(g, h)
    assert feasible  # domination holds by the brute-force oracle
    lhs = spectral_functional(g, hinge(4))
    rhs = spectral_functional(h, hinge(4))
    assert lhs > rhs + 1e-9
    _pass(9, f"hinge c=4 violation found and re-verified: trial {v.trial}, {lhs:.4f} > {rhs:.4f}")


# -- 10: Tutte conjecture replication ----------------------------------------------------------


def test_criterion_10_tutte_conjecture_replication():
    gen = PairGenerator("overlay_copies", seed=10, relation="domination", max_g=8, max_h=5)
    res = hunt("tutte_coefficients", gen, 1000)
    assert res.violations == [], res.summary()
    assert res.checked >= 900

    # pointwise version with H a tree, exhaustively for |G| <= 6
    trees = [nx_to_multigraph(t) for n in range(2, 7) for t in nx.nonisomorphic_trees(n)]
    trees.insert(0, Multigraph(1, []))
    checked = 0
    for g in atlas_up_to(6):
        for h in trees:
            if h.n > g.n:
                continue
            r = check("tutte_pointwise", g, h)
            if r.verdict == HYPOTHESIS_FAILED:
                continue
            assert r.verdict in OK_VERDICTS, (g, h, r.to_json())
            checked += 1
    assert checked > 1000
    _pass(10, f"0/{res.checked} tutte-coefficient violations; tutte_pointwise holds on {checked} tree pairs")


# -- 11: cross-oracle identities ----------------------------------------------------------------


def _eight_unit_graphs():
    """Connected multigraphs with at most 8 edge units, exhaustively:
    simple skeletons (atlas <= 7 vertices, trees and unicyclics on 8..9 vertices)
    with every multiplicity assignment summing to <= 8."""
    skeletons = [g for g in atlas_up_to(7) if g.edge_unit_count() <= 8]
    skeletons += [nx_to_multigraph(t) for t in nx.nonisomorphic_trees(8)]
    skeletons += [nx_to_multigraph(t) for t in nx.nonisomorphic_trees(9)]
    unicyclic = {}
    for t in nx.nonisomorphic_trees(8):
        g = nx_to_multigraph(t)
        for u in range(8):
            for v in range(u + 1, 8):
                if g.multiplicity(u, v) == 0:
                    cand = Multigraph(8, list(g.edges) + [(u, v, 1, Fraction(1))])
                    unicyclic.setdefault(cached_code(cand), cand)
    skeletons += list(unicyclic.values())

    out = []
    for sk in skeletons:
        k = len(sk.edges)
        budget = 8 - k
        if budget < 0:
            continue
        pairs = [(u, v) for u, v, m, w in sk.edges]
        for extra in itertools.product(range(budget + 1), repeat=k):
            if sum(extra) > budget:
                continue
            out.append(
                Multigraph(sk.n, [(u, v, 1 + e, Fraction(1)) for (u, v), e in zip(pairs, extra)])
            )
    return out


def test_criterion_11_cross_oracle_identities():
    graphs = _eight_unit_graphs()
    assert len(graphs) > 2000
    for g in graphs:
        t = tutte_polynomial(g)
        assert t.evaluate(1, 1) == count_spanning_trees(g), g.edges
        assert t.evaluate(2, 1) == brute_forest_count(g), g.edges
        assert t.evaluate(2, 0) == brute_acyclic_orientation_count(g), g.edges

    rng = random.Random(derive_seed(11, 0))
    for _ in range(100):
        g = random_connected(rng, rng.randint(2, 7), extra=rng.randint(0, 5))
        assert count_weighted_homomorphisms(g, HomTarget.independent_set_target()) == (
            count_independent_sets(g)
        )
        # both sides run the one elimination engine, so each also meets the brute force
        colorings = brute_coloring_count(g, 3)
        assert count_weighted_homomorphisms(g, HomTarget.complete(3)) == colorings
        assert count_proper_colorings(g, 3) == colorings
    _pass(11, f"T(1,1)=tau, T(2,1)=forests, T(2,0)=acyclic on {len(graphs)} graphs; hom encodings on 100")


# -- 12: relation-decider cross-validation ---------------------------------------------------------


def test_criterion_12_decider_cross_validation():
    pairs = 0
    small = atlas_up_to(5)
    for g in atlas_up_to(7):
        for h in small:
            if h.n > g.n:
                continue
            flow = check_domination(g, h)
            hall_ok, witness = domination_hall_condition(g, h)
            assert (flow is not None) == hall_ok, (g.edges, h.edges)
            pairs += 1
    assert pairs == 30637  # 996 classes of G (<= 7) x 31 of H (<= 5), sizes compatible

    # transitive shortcuts agree with the flow decider on the catalog
    rng = random.Random(12)
    from gdom.embeddings import embeddings_iter

    for g in transitive_catalog(8):
        for h in rng.sample(small, 8):
            if h.n > g.n:
                continue
            dom = check_domination(g, h) is not None
            assert dom == (next(embeddings_iter(g, h), None) is not None)
            if is_transitive(h):
                assert dom == covers_every_vertex(g, h)
    _pass(12, f"flow decider == Hall oracle on {pairs} pairs; transitive shortcuts agree on the catalog")


# -- 13: Shearer suite ----------------------------------------------------------------------------


def _random_joint(rng: random.Random, k: int, support: int) -> JointDistribution:
    alphabet = [0, 1, 2]
    keys = set()
    while len(keys) < support:
        keys.add(tuple(rng.choice(alphabet) for _ in range(k)))
    weights = {key: rng.randint(1, 20) for key in keys}
    total = sum(weights.values())
    return JointDistribution(k, {key: Fraction(w, total) for key, w in weights.items()})


def _random_cover(rng: random.Random, k: int) -> tuple[list[list[int]], int]:
    r = rng.randint(1, 3)
    cover = []
    for _ in range(r):
        coords = list(range(k))
        rng.shuffle(coords)
        i = 0
        while i < k:
            size = rng.randint(1, k - i)
            cover.append(sorted(coords[i : i + size]))
            i += size
    return cover, r


def test_criterion_13_shearer_suite():
    rng = random.Random(derive_seed(13, 13))
    for _ in range(1000):
        k = rng.randint(1, 6)
        support = rng.randint(1, min(64, 3**k))
        dist = _random_joint(rng, k, support)
        cover, r = _random_cover(rng, k)
        report = check_shearer(dist, cover, r)
        assert report.verdict in (HOLDS, HOLDS_WITH_EQUALITY, INCONCLUSIVE)
        assert report.lhs <= report.rhs + 1e-9
    _pass(13, "r H(X) <= sum H(X_S) within 1e-9 on 10^3 random distributions and covers")
