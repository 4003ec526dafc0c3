import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdom.multigraph import (
    Multigraph,
    complete_graph,
    cycle_graph,
    parse_graph,
    path_graph,
    single_vertex,
    star_graph,
)
from gdom import symmetry
from gdom.symmetry import (
    SizeBoundExceeded,
    automorphisms,
    canonical_code,
    cached_code,
    is_transitive,
    local_statistics,
    rooted_ball,
    tv_distance,
)

from conftest import atlas_up_to, brute_automorphism_count, brute_isomorphic, random_connected


# -- automorphisms ----------------------------------------------------------------


def test_automorphism_orders_by_example():
    assert automorphisms(complete_graph(4)).order == 24
    info = automorphisms(path_graph(3))
    assert info.order == 2
    assert info.orbits == [[0, 2], [1]]
    assert automorphisms(single_vertex()).order == 1


def test_automorphism_orders_against_brute_force_atlas():
    for g in atlas_up_to(6):
        assert automorphisms(g).order == brute_automorphism_count(g)


def test_automorphism_orders_multigraphs():
    rng = random.Random(1)
    for _ in range(25):
        base = random_connected(rng, rng.randint(2, 5), extra=2)
        edges = [(u, v, rng.randint(1, 3), w) for u, v, m, w in base.edges]
        g = Multigraph(base.n, edges)
        assert automorphisms(g).order == brute_automorphism_count(g)


def test_generators_preserve_adjacency():
    g = parse_graph("4; 0 1 2; 1 2; 2 3; 0 3")
    info = automorphisms(g)
    for perm in info.generators:
        for (u, v), m in g.adjacency.items():
            assert g.multiplicity(perm[u], perm[v]) == m


def test_orbit_stabilizer_arithmetic():
    for g in atlas_up_to(6)[::7]:
        info = automorphisms(g)
        assert math.factorial(g.n) % info.order == 0
        largest = max(len(o) for o in info.orbits)
        assert info.order % largest == 0


def test_size_bound():
    with pytest.raises(SizeBoundExceeded):
        automorphisms(cycle_graph(symmetry.DEFAULT_SIZE_BOUND + 1))


def test_transitivity_examples():
    assert is_transitive(cycle_graph(5))
    assert is_transitive(complete_graph(4))
    assert not is_transitive(star_graph(3))
    assert is_transitive(parse_graph("2; 0 1; 0 1"))
    hyper = Multigraph(
        8, [(x, x ^ (1 << b)) for x in range(8) for b in range(3) if x < x ^ (1 << b)]
    )
    assert is_transitive(hyper)


def test_transitivity_is_memoized_on_the_graph_value(monkeypatch):
    calls = []
    orbits = symmetry.automorphisms
    monkeypatch.setattr(symmetry, "automorphisms", lambda g: calls.append(g) or orbits(g))
    # a weight no other test uses keeps the graph out of the process-wide memo;
    # transitivity ignores weights, the key does not
    c7 = Multigraph(7, [(i, (i + 1) % 7, 1, Fraction(97, 89)) for i in range(7)])
    assert is_transitive(c7) and is_transitive(Multigraph(7, c7.edges)) and not is_transitive(star_graph(7))
    assert calls == [c7]  # a star's vertex invariants differ, so no group is computed
    # the bound still holds on a miss, and a miss that raised stores nothing
    for _ in range(2):
        with pytest.raises(SizeBoundExceeded):
            is_transitive(cycle_graph(symmetry.DEFAULT_SIZE_BOUND + 1))


# -- canonical codes ---------------------------------------------------------------


def test_code_relabeling_invariance():
    assert canonical_code(cycle_graph(4)) == canonical_code(
        Multigraph(4, [(2, 3), (3, 0), (0, 1), (1, 2)])
    )
    # twin-heavy graphs: every search node has a large cell of twins
    k2_12 = Multigraph(14, [(a, b) for a in range(2) for b in range(2, 14)])
    rng = random.Random(3)
    for g in (star_graph(20), k2_12):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Multigraph(g.n, [(perm[u], perm[v], m, w) for u, v, m, w in g.edges])
        assert canonical_code(g) == canonical_code(h)
        assert canonical_code(g) != canonical_code(path_graph(g.n))


def test_rooted_codes():
    p3 = path_graph(3)
    assert canonical_code(p3, 0) == canonical_code(p3, 2)
    assert canonical_code(p3, 0) != canonical_code(p3, 1)
    k3 = complete_graph(3)
    assert len({canonical_code(k3, r) for r in range(3)}) == 1


def test_codes_complete_on_atlas6():
    """Codes agree exactly with brute-force isomorphism on all pairs (<= 6 vertices)."""
    graphs = atlas_up_to(6)
    by_key: dict[tuple, list] = {}
    for g in graphs:
        by_key.setdefault((g.n, g.edge_unit_count()), []).append(g)
    for bucket in by_key.values():
        for i, g in enumerate(bucket):
            for h in bucket[i + 1 :]:
                same_code = cached_code(g) == cached_code(h)
                assert same_code == brute_isomorphic(g, h)
    # atlas graphs are pairwise non-isomorphic, so all codes must be distinct
    assert len({cached_code(g) for g in graphs}) == len(graphs)


def test_orbit_pruning_keeps_codes(monkeypatch):
    # branching on one vertex per orbit of the colored stabilizer chain
    # must give the same minimum as branching on the whole cell
    graphs = atlas_up_to(7)
    pruned = [canonical_code(g) for g in graphs]
    monkeypatch.setattr(symmetry, "_ORBIT_PRUNE_CELL", 10**9)
    assert [canonical_code(g) for g in graphs] == pruned


def test_codes_distinguish_multiplicity():
    a = parse_graph("2; 0 1")
    b = parse_graph("2; 0 1; 0 1")
    assert canonical_code(a) != canonical_code(b)


def test_codes_on_random_multigraph_relabelings():
    rng = random.Random(5)
    for _ in range(30):
        base = random_connected(rng, rng.randint(2, 6), extra=3)
        edges = [(u, v, rng.randint(1, 3), w) for u, v, m, w in base.edges]
        g = Multigraph(base.n, edges)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Multigraph(g.n, [(perm[u], perm[v], m, w) for u, v, m, w in g.edges])
        assert canonical_code(g) == canonical_code(h)


# -- local statistics ----------------------------------------------------------------


def test_radius_zero_single_class():
    for g in (complete_graph(4), path_graph(3), star_graph(4)):
        stats = local_statistics(g, 0)
        assert len(stats.dist) == 1
        assert sum(stats.dist.values()) == 1


def test_triangle_radius_one_point_mass():
    stats = local_statistics(cycle_graph(3), 1)
    assert list(stats.dist.values()) == [Fraction(1)]


def test_path3_radius_one():
    stats = local_statistics(path_graph(3), 1)
    assert sorted(stats.dist.values()) == [Fraction(1, 3), Fraction(2, 3)]


def test_ball_is_induced_subgraph():
    g = cycle_graph(5)
    ball, root = rooted_ball(g, 0, 1)
    assert ball.n == 3 and root == 0
    assert ball.adjacency == {(0, 1): 1, (0, 2): 1}  # no edge between the two nbrs


def test_transitive_point_mass_all_radii():
    for g in (cycle_graph(6), complete_graph(5)):
        assert is_transitive(g)
        for r in range(3):
            assert len(local_statistics(g, r).dist) == 1


def test_tv_examples():
    a = local_statistics(cycle_graph(3), 1)
    b = local_statistics(cycle_graph(4), 1)
    assert tv_distance(a, b) == 1
    assert tv_distance(a, a) == 0
    r0a = local_statistics(complete_graph(4), 0)
    r0b = local_statistics(path_graph(3), 0)
    assert tv_distance(r0a, r0b) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_tv_triangle_inequality(seed):
    rng = random.Random(seed)
    graphs = [random_connected(rng, rng.randint(2, 6), extra=rng.randint(0, 4)) for _ in range(3)]
    r = rng.randint(0, 2)
    a, b, c = (local_statistics(g, r) for g in graphs)
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)
    assert 0 <= tv_distance(a, b) <= 1
    assert tv_distance(a, b) == tv_distance(b, a)
