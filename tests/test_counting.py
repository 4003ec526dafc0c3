import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdom.counting import (
    BivariatePoly,
    CountingBoundExceeded,
    HomTarget,
    bareiss_determinant,
    count_acyclic_orientations,
    count_forests,
    count_independent_sets,
    count_matchings,
    count_packings,
    count_proper_colorings,
    count_spanning_trees,
    count_weighted_homomorphisms,
    laplacian_minor,
    tutte_polynomial,
)
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

from conftest import (
    atlas_up_to,
    brute_acyclic_orientation_count,
    brute_coloring_count,
    brute_forest_count,
    brute_hom_count,
    brute_independent_set_count,
    brute_matching_count,
    brute_spanning_tree_count,
    brute_weighted_tree_sum,
    contract,
    random_connected,
)


# -- determinants ------------------------------------------------------------


def test_bareiss_small():
    assert bareiss_determinant([[2]]) == 2
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([]) == 1


def test_bareiss_vs_permanent_expansion():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        expect = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = [False] * n
            for i in range(n):  # sign by cycle decomposition
                if not seen[i]:
                    j, clen = i, 0
                    while not seen[j]:
                        seen[j] = True
                        j = perm[j]
                        clen += 1
                    if clen % 2 == 0:
                        sign = -sign
            prod = 1
            for i in range(n):
                prod *= m[i][perm[i]]
            expect += sign * prod
        assert bareiss_determinant(m) == expect


# -- spanning trees ------------------------------------------------------------


def test_tau_examples():
    assert count_spanning_trees(complete_graph(3)) == 3
    assert count_spanning_trees(complete_graph(4)) == 16
    assert count_spanning_trees(complete_graph(5)) == 125  # Cayley n^(n-2)
    assert count_spanning_trees(parse_graph("2; 0 1; 0 1")) == 2
    assert count_spanning_trees(single_vertex()) == 1


def test_tau_weighted_tree_sum():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 5), extra=rng.randint(0, 3), weighted=True)
        assert count_spanning_trees(g) == brute_weighted_tree_sum(g)


def test_minor_examples():
    p3 = path_graph(3)
    assert laplacian_minor(p3, []) == 1
    assert laplacian_minor(p3, [0, 2]) == 1
    assert laplacian_minor(complete_graph(3), [0, 1]) == 3


def test_minor_equals_tau_of_contraction():
    # e.MTT: the principal minor on A is the tree weight of G/(V - A), here
    # summed tree by tree on conftest's reference contraction
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected(rng, rng.randint(2, 6), extra=rng.randint(0, 4), weighted=True)
        for a in (set(), set(range(1, g.n)), set(rng.sample(range(g.n), rng.randint(0, g.n - 1)))):
            assert laplacian_minor(g, a) == brute_weighted_tree_sum(contract(g, set(range(g.n)) - a))


# -- Koteljanskii / log-submodularity (exact, no tolerance) -----------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_koteljanskii_minors_log_submodular(seed):
    rng = random.Random(seed)
    g = random_connected(
        rng, rng.randint(2, 6), extra=rng.randint(0, 5), weighted=rng.random() < 0.4
    )
    verts = list(range(g.n))
    a = set(rng.sample(verts, rng.randint(0, g.n)))
    b = set(rng.sample(verts, rng.randint(0, g.n)))
    lhs = Fraction(laplacian_minor(g, a)) * Fraction(laplacian_minor(g, b))
    rhs = Fraction(laplacian_minor(g, a | b)) * Fraction(laplacian_minor(g, a & b))
    assert lhs >= rhs


def test_tree_product_lemma_exhaustive_small():
    """tau(H) tau(G//H) <= tau(G) for every connected subgraph H, |G| <= 5."""
    for g in atlas_up_to(5):
        tau_g = count_spanning_trees(g)
        pairs = sorted(g.adjacency)
        for r in range(len(pairs) + 1):
            for sub in itertools.combinations(pairs, r):
                verts = {v for e in sub for v in e}
                if not verts:
                    continue
                sub_g = _as_subgraph(verts, sub)
                if sub_g is None:
                    continue
                tau_h = count_spanning_trees(sub_g)
                quotient = contract(g, verts)  # sub_g is connected, so G//H merges verts
                assert tau_h * count_spanning_trees(quotient) <= tau_g


def _as_subgraph(verts, pairs):
    lbl = {v: i for i, v in enumerate(sorted(verts))}
    try:
        return Multigraph(len(verts), [(lbl[u], lbl[v]) for u, v in pairs])
    except Exception:
        return None  # disconnected edge set; the lemma needs connected H


def test_tree_product_lemma_sampled_seven_vertices():
    # exhaustive coverage at |G| <= 6 lives in the acceptance sweep; here
    # random 7-vertex hosts with random connected subgraphs
    rng = random.Random(53)
    seven = [g for g in atlas_up_to(7) if g.n == 7]
    for _ in range(150):
        g = rng.choice(seven)
        tau_g = count_spanning_trees(g)
        pairs = sorted(g.adjacency)
        sub = [p for p in pairs if rng.random() < 0.55]
        verts = {v for e in sub for v in e}
        if not verts:
            continue
        sub_g = _as_subgraph(verts, sub)
        if sub_g is None:
            continue
        quotient = contract(g, verts)
        assert count_spanning_trees(sub_g) * count_spanning_trees(quotient) <= tau_g


# -- Tutte ------------------------------------------------------------------------


def test_tutte_base_cases():
    assert tutte_polynomial(single_edge()).as_dict() == {(1, 0): 1}
    assert tutte_polynomial(complete_graph(3)).as_dict() == {
        (2, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
    }
    assert tutte_polynomial(parse_graph("2; 0 1; 0 1")).as_dict() == {
        (1, 0): 1,
        (0, 1): 1,
    }
    assert tutte_polynomial(single_vertex()).as_dict() == {(0, 0): 1}


def test_tutte_spanning_tree_identity_atlas():
    for g in atlas_up_to(6):
        if g.edge_unit_count() <= 15:
            assert tutte_polynomial(g).evaluate(1, 1) == count_spanning_trees(g)


def test_tutte_bound():
    with pytest.raises(CountingBoundExceeded):
        tutte_polynomial(complete_graph(8))


def test_forest_and_orientation_counts():
    assert count_forests(complete_graph(3)) == 7
    assert count_acyclic_orientations(complete_graph(3)) == 6
    assert count_forests(single_vertex()) == 1
    assert count_acyclic_orientations(single_vertex()) == 1


def test_tutte_evaluations_against_brute_force():
    rng = random.Random(31)
    seen = 0
    for g in atlas_up_to(6):
        if g.edge_unit_count() > 10:
            continue
        assert count_forests(g) == brute_forest_count(g)
        assert count_acyclic_orientations(g) == brute_acyclic_orientation_count(g)
        seen += 1
    assert seen > 100
    # multigraphs: loops created inside the recursion must be consumed as y factors
    for _ in range(15):
        base = random_connected(rng, rng.randint(2, 4), extra=2)
        edges = [(u, v, rng.randint(1, 3), w) for u, v, m, w in base.edges]
        g = Multigraph(base.n, edges)
        if g.edge_unit_count() > 8:
            continue
        assert count_forests(g) == brute_forest_count(g)
        assert count_acyclic_orientations(g) == brute_acyclic_orientation_count(g)


def test_bivariate_poly_algebra():
    t = tutte_polynomial(complete_graph(4))
    shifted = t.substitute_plus_one()
    for x, y in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)), (Fraction(-1), Fraction(3))):
        assert shifted.evaluate(x, y) == t.evaluate(x + 1, y + 1)
    sq = t.power(2)
    assert sq.evaluate(2, 3) == t.evaluate(2, 3) ** 2
    assert BivariatePoly.from_dict({(i, j): int(v) for i, j, v in t.to_json_triples()}) == t


# -- independent sets / colorings ----------------------------------------------------


def test_independent_set_examples():
    assert count_independent_sets(single_edge()) == 3
    assert count_independent_sets(star_graph(4)) == 17
    assert count_independent_sets(complete_graph(3)) == 4


def test_independent_sets_vs_brute():
    for g in atlas_up_to(6)[::3]:
        assert count_independent_sets(g) == brute_independent_set_count(g)


def test_coloring_examples():
    assert count_proper_colorings(single_edge(), 3) == 6
    assert count_proper_colorings(complete_graph(3), 3) == 6
    assert count_proper_colorings(path_graph(3), 2) == 2


def test_colorings_vs_brute_and_tutte_sign_formula():
    for g in atlas_up_to(6):
        t = tutte_polynomial(g)
        for q in range(5):
            mine = count_proper_colorings(g, q)
            assert mine == brute_coloring_count(g, q)
            # connected case of the sign formula: P(q) = (-1)^(n-1) q T(1-q, 0)
            assert mine == (-1) ** (g.n - 1) * q * t.evaluate(1 - q, 0)


def test_chromatic_polynomial_parallel_edges_collapse():
    simple = path_graph(3)
    multi = parse_graph("3; 0 1 3; 1 2")
    for q in range(5):
        assert count_proper_colorings(simple, q) == count_proper_colorings(multi, q)


def test_coloring_bound_names_the_largest_table():
    # K8 eliminates one vertex with its 7 neighbours: a table of 8^8 = 2^24 entries
    with pytest.raises(CountingBoundExceeded, match=r"^8\^8 entries exceed the table bound 1048576$"):
        count_proper_colorings(complete_graph(8), 8)
    assert count_proper_colorings(complete_graph(8), 4) == 0  # 4^8 = 2^16 entries fit


def test_colorings_are_refused_before_k_q_is_built():
    # K_q has q(q - 1)/2 pairs; the k^2 adjacency table counts as a table, so
    # even a single vertex, of elimination width 0, is refused past q = 1024
    for g in (path_graph(3), single_vertex()):
        start = time.perf_counter()
        with pytest.raises(CountingBoundExceeded, match=r"^100000\^2 entries exceed the table bound 1048576$"):
            count_proper_colorings(g, 10**5)
        assert time.perf_counter() - start < 0.05
    assert count_proper_colorings(single_vertex(), 1024) == 1024
    with pytest.raises(CountingBoundExceeded):
        count_proper_colorings(single_vertex(), 1025)


def test_a_repeated_colouring_count_is_a_memo_hit():
    # the memo key is (G, q): a hit neither builds nor hashes K_q's pairs
    assert count_proper_colorings(path_graph(3), 1024) == 1024 * 1023**2
    start = time.perf_counter()
    assert count_proper_colorings(path_graph(3), 1024) == 1024 * 1023**2
    assert time.perf_counter() - start < 0.01


def test_colorings_of_long_trees():
    # a tree has elimination width 1: q (q-1)^(n-1) colourings, with no recursion per edge
    assert count_proper_colorings(path_graph(600), 3) == 3 * 2**599
    assert count_proper_colorings(star_graph(599), 3) == 3 * 2**599


# -- homomorphisms ---------------------------------------------------------------------


def test_hom_reach_is_the_elimination_width():
    # |G| bounds nothing: a path has width 1 and a cycle width 2
    assert count_weighted_homomorphisms(path_graph(40), HomTarget.complete(3)) == 3 * 2**39
    assert count_weighted_homomorphisms(cycle_graph(16), HomTarget.complete(4)) == 3**16 + 3


def _random_target(rng: random.Random) -> tuple[HomTarget, dict[int, Fraction]]:
    k = rng.randint(1, 4)
    edges = frozenset((u, v) for u in range(k) for v in range(u, k) if rng.random() < 0.5)
    return HomTarget(k, edges), {v: Fraction(rng.randint(1, 5), rng.randint(1, 5)) for v in range(k)}


def test_weighted_homs_against_brute_force():
    """300 seeded targets of up to 4 vertices, with loops and rational
    weights, over every connected graph of at most 6 vertices in turn."""
    rng = random.Random(2002)
    atlas = atlas_up_to(6)
    for i in range(300):
        g = atlas[i % len(atlas)]
        target, weights = _random_target(rng)
        assert count_weighted_homomorphisms(g, target, weights) == brute_hom_count(g, target, weights)
        assert count_weighted_homomorphisms(g, target) == brute_hom_count(g, target)


def test_hom_constant_map():
    for g in (complete_graph(4), path_graph(3)):
        assert count_weighted_homomorphisms(g, HomTarget(1, frozenset({(0, 0)}))) == 1  # one looped vertex


def test_hom_encodes_independent_sets():
    target = HomTarget.independent_set_target()
    for g in atlas_up_to(5)[::2]:
        assert count_weighted_homomorphisms(g, target) == count_independent_sets(g)


def test_hom_encodes_colorings():
    for g in atlas_up_to(5)[::2]:
        assert count_weighted_homomorphisms(g, HomTarget.complete(3)) == count_proper_colorings(g, 3)


def _blow_up(target: HomTarget, weights: dict[int, int]) -> HomTarget:
    names = [(x, i) for x in range(target.n) for i in range(weights[x])]
    idx = {p: i for i, p in enumerate(names)}
    edges = set()
    for (x, i) in names:
        for (y, j) in names:
            if target.adjacent(x, y):
                a, b = idx[(x, i)], idx[(y, j)]
                edges.add((min(a, b), max(a, b)))
    return HomTarget(len(names), frozenset(edges))


def test_weighted_homs_match_blow_up_oracle():
    rng = random.Random(41)
    for _ in range(20):
        fn = rng.randint(1, 3)
        edges = set()
        for u in range(fn):
            for v in range(u, fn):
                if rng.random() < 0.6:
                    edges.add((u, v))
        target = HomTarget(fn, frozenset(edges))
        weights = {v: rng.randint(1, 3) for v in range(fn)}
        g = random_connected(rng, rng.randint(2, 4), extra=1)
        mine = count_weighted_homomorphisms(g, target, {v: Fraction(w) for v, w in weights.items()})
        oracle = count_weighted_homomorphisms(g, _blow_up(target, weights))
        assert mine == oracle


def test_hom_weights_positive_required():
    with pytest.raises(ValueError):
        count_weighted_homomorphisms(
            single_edge(), HomTarget.complete(2), {0: Fraction(0), 1: Fraction(1)}
        )


# -- matchings / packings -----------------------------------------------------------------


def test_matching_examples():
    assert count_matchings(single_edge()) == 2
    assert count_matchings(star_graph(4)) == 5
    assert count_matchings(parse_graph("2; 0 1; 0 1")) == 3


def test_matching_bound_and_long_paths():
    with pytest.raises(CountingBoundExceeded):
        count_matchings(path_graph(80))
    # Fibonacci growth along paths; memoization keeps this instant
    assert count_matchings(path_graph(50)) == 20365011074


def test_matchings_vs_brute():
    rng = random.Random(43)
    for g in atlas_up_to(6)[::4]:
        assert count_matchings(g) == brute_matching_count(g)
    for _ in range(10):
        base = random_connected(rng, rng.randint(2, 5), extra=2)
        g = Multigraph(base.n, [(u, v, rng.randint(1, 2), w) for u, v, m, w in base.edges])
        assert count_matchings(g) == brute_matching_count(g)


def test_packings_reduce_to_matchings():
    for g in (star_graph(4), complete_graph(4), cycle_graph(5)):
        assert count_packings(g, single_edge()) == count_matchings(g)


def test_packing_examples():
    assert count_packings(complete_graph(3), complete_graph(3)) == 2
    assert count_packings(path_graph(3), complete_graph(3)) == 1
    assert count_packings(complete_graph(3), complete_graph(4)) == 1
    # one level per copy would pass the recursion limit here
    assert count_packings(star_graph(1100), single_edge()) == 1101


def test_loop_invariance_of_counters():
    """Deleting parallel units down to a simple graph changes tree/matching counts
    but never independent sets or colorings."""
    g = parse_graph("3; 0 1 3; 1 2 2")
    simple = parse_graph("3; 0 1; 1 2")
    assert count_independent_sets(g) == count_independent_sets(simple)
    assert count_proper_colorings(g, 3) == count_proper_colorings(simple, 3)
    assert count_matchings(g) != count_matchings(simple)
