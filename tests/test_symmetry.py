import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
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

from conftest import (
    atlas_up_to,
    brute_automorphism_count,
    brute_embeddings,
    brute_isomorphic,
    nx_to_multigraph,
    random_connected,
)

ROOT = Path(__file__).resolve().parents[1]


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


def test_orders_orbits_and_generators_against_brute_force_atlas7():
    for g in atlas_up_to(7):
        auts = brute_embeddings(g, g)
        info = automorphisms(g)
        assert info.order == len(auts)
        orbits = sorted({tuple(sorted({p[v] for p in auts})) for v in range(g.n)})
        assert info.orbits == [list(orbit) for orbit in orbits]
        assert set(info.generators) <= set(auts)


def test_known_group_orders():
    cases = [
        (nx_to_multigraph(nx.petersen_graph()), 120),
        (nx_to_multigraph(nx.hypercube_graph(5)), 3840),
        (nx_to_multigraph(nx.complete_bipartite_graph(6, 6)), 1036800),
        (cycle_graph(30), 60),
        (star_graph(40), math.factorial(40)),
    ]
    for g, order in cases:
        assert automorphisms(g).order == order
    assert automorphisms(star_graph(40)).orbits == [[0], list(range(1, 41))]


_REACH = """
import time
from conftest import cubic_graph
from gdom.embeddings import enumerate_copies
from gdom.multigraph import path_graph, star_graph
from gdom.symmetry import automorphisms, canonical_code

def cpu(f, *args):
    t = time.process_time()
    f(*args)
    return time.process_time() - t

for n in (20, 30, 40):
    g = cubic_graph(n)
    print(f"cubic{n}", cpu(canonical_code, g) + cpu(automorphisms, g) + cpu(enumerate_copies, g, g))
print("path60", cpu(enumerate_copies, path_graph(60), path_graph(60)))
print("star80", cpu(canonical_code, star_graph(80)))
"""


def test_regular_graphs_long_paths_and_stars_take_under_a_second():
    # in a child process, so that a search that stalls fails by timeout
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run([sys.executable, "-c", _REACH], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    seconds = {name: float(t) for name, t in map(str.split, done.stdout.splitlines())}
    assert set(seconds) == {"cubic20", "cubic30", "cubic40", "path60", "star80"}
    assert all(t < 1.0 for t in seconds.values()), seconds
    with pytest.raises(SizeBoundExceeded):
        automorphisms(star_graph(80))


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


def _unpruned_code(g):
    """The least leaf code over the whole search tree, every cell branched in full."""
    adj = symmetry._pair_adjacency(g)

    def least(colors):
        colors = symmetry._refine(adj, colors)
        cells = [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
        cell = next((cell for cell in cells if len(cell) > 1), None)
        if cell is None:
            return symmetry._leaf_code(adj, colors, None)
        subs = []
        for v in cell:
            branched = [(c, 0 if u == v else 1) for u, c in enumerate(colors)]
            palette = {s: i for i, s in enumerate(sorted(set(branched)))}
            subs.append(least([palette[s] for s in branched]))
        return min(subs)

    return repr(least([0] * g.n)).encode("ascii")


def test_orbit_pruning_keeps_codes():
    # branching on one vertex per orbit of the automorphisms found so far
    # must give the same minimum as branching on the whole cell
    graphs = atlas_up_to(7)
    assert [canonical_code(g) for g in graphs] == [_unpruned_code(g) for g in graphs]


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
