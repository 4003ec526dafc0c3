import itertools
import random
from fractions import Fraction

import pytest

from gdom import embeddings
from gdom.embeddings import (
    Copy,
    embeddings_iter,
    enumerate_copies,
    rooted_copy_relation,
)
from gdom.multigraph import (
    Memo,
    Multigraph,
    complete_graph,
    cycle_graph,
    parse_graph,
    path_graph,
    single_edge,
    single_vertex,
    star_graph,
)
from gdom.symmetry import automorphisms

from conftest import atlas_up_to, brute_embeddings, covers_every_vertex, random_connected


def test_k4_triangles():
    cl = enumerate_copies(complete_graph(4), complete_graph(3))
    assert len(cl.copies) == 4
    # 4 copies x |Aut(K3)| = 6
    assert sum(1 for _ in embeddings_iter(complete_graph(4), complete_graph(3))) == 24


def test_self_copy_unique():
    for g in (complete_graph(4), path_graph(4), star_graph(3)):
        cl = enumerate_copies(g, g)
        assert len(cl.copies) == 1


def test_path3_edges():
    cl = enumerate_copies(path_graph(3), single_edge())
    assert len(cl.copies) == 2


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        enumerate_copies(complete_graph(3), complete_graph(4))


def test_multiplicity_dominance():
    g = parse_graph("3; 0 1 2; 1 2")
    h = parse_graph("2; 0 1; 0 1")  # needs a double edge
    cl = enumerate_copies(g, h)
    assert len(cl.copies) == 1
    assert cl.copies[0].edges == ((0, 1, 2),)
    # simple H lands anywhere with multiplicity >= 1
    assert len(enumerate_copies(g, single_edge()).copies) == 2


def test_deterministic_order():
    a = enumerate_copies(complete_graph(4), path_graph(3))
    b = enumerate_copies(complete_graph(4), path_graph(3))
    assert list(embeddings_iter(complete_graph(4), path_graph(3))) == list(
        embeddings_iter(complete_graph(4), path_graph(3))
    )
    assert [c.vertices for c in a.copies] == [c.vertices for c in b.copies]


def test_copy_times_aut_equals_embeddings_atlas():
    rng = random.Random(9)
    graphs = atlas_up_to(6)
    for _ in range(150):
        g = rng.choice(graphs)
        h = rng.choice([x for x in graphs if x.n <= g.n and x.n <= 4])
        cl = enumerate_copies(g, h)
        embeddings = sum(1 for _ in embeddings_iter(g, h))
        assert embeddings == len(cl.copies) * automorphisms(h).order


def test_agrees_with_naive_injections():
    rng = random.Random(13)
    graphs = atlas_up_to(6)
    small = [x for x in graphs if x.n <= 4]
    for _ in range(120):
        g = rng.choice(graphs)
        h = rng.choice([x for x in small if x.n <= g.n])
        mine = sorted(embeddings_iter(g, h))
        assert mine == sorted(brute_embeddings(g, h))


def test_rooted_relation_star_edge():
    rel = rooted_copy_relation(star_graph(3), single_edge())
    assert len(rel) == 8  # every (x, y) pair
    assert rel == {(x, y) for x in range(4) for y in range(2)}


def test_rooted_relation_no_triangle():
    assert rooted_copy_relation(path_graph(3), complete_graph(3)) == set()


def test_rooted_relation_self_transitive():
    c4 = cycle_graph(4)
    assert rooted_copy_relation(c4, c4) == {(x, y) for x in range(4) for y in range(4)}


def test_relation_projections():
    rng = random.Random(21)
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 6), extra=rng.randint(0, 3))
        h = random_connected(rng, rng.randint(1, g.n), extra=1)
        rel = rooted_copy_relation(g, h)
        cl = enumerate_copies(g, h)
        covered = {v for c in cl.copies for v in c.vertices}
        assert {x for x, _ in rel} == covered
        if cl.copies:
            assert {y for _, y in rel} == set(range(h.n))


def test_covers_every_vertex():
    assert covers_every_vertex(complete_graph(4), complete_graph(3))
    assert not covers_every_vertex(star_graph(3), complete_graph(3))
    assert covers_every_vertex(star_graph(3), single_vertex())
    assert covers_every_vertex(path_graph(5), single_edge())


# -- each copy once: the copy list is the first-appearance dedup of the embeddings --


def _first_appearance_copies(g, h):
    """One Copy per distinct (vertex set, edge multiset), in first-embedding
    order, with that first embedding as its image."""
    copies = {}
    for emb in embeddings_iter(g, h):
        pairs = {}
        for (a, b), m in h.adjacency.items():
            u, v = sorted((emb[a], emb[b]))
            pairs[(u, v)] = pairs.get((u, v), 0) + m
        edges = tuple(sorted((u, v, m) for (u, v), m in pairs.items()))
        copies.setdefault(Copy(vertices=tuple(sorted(emb)), edges=edges, image=emb), None)
    return list(copies)


def _random_multigraph_pair(rng):
    """A multigraph G with parallel edges of multiplicity 2-3, and H drawn from G."""
    n = rng.randint(2, 8)
    edges = [(rng.randrange(i), i, rng.choice((1, 2, 3))) for i in range(1, n)]
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice((1, 2))))
    g = Multigraph(n, edges)
    k = rng.randint(1, min(5, n))
    chosen = [rng.randrange(n)]
    while len(chosen) < k:
        chosen.append(rng.choice(sorted({u for v in chosen for u in g.neighbors[v]} - set(chosen))))
    lbl = {v: i for i, v in enumerate(sorted(chosen))}
    sub = [
        (lbl[u], lbl[v], rng.randint(1, m))
        for (u, v), m in g.adjacency.items()
        if u in lbl and v in lbl
    ]
    for e in list(sub):  # drop some edges while H stays connected
        rest = [f for f in sub if f is not e]
        if rng.random() < 0.4 and Multigraph(k, rest, _validated=True).is_connected():
            sub = rest
    return g, Multigraph(k, sub)


def test_copy_order_pinned_on_atlas():
    graphs = atlas_up_to(6)
    for g in graphs:
        for h in graphs:
            if h.n <= min(g.n, 5):
                got, expected = enumerate_copies(g, h).copies, _first_appearance_copies(g, h)
                # == ignores the images, so they are compared apart
                assert got == expected and [c.image for c in got] == [c.image for c in expected]


def test_copy_order_pinned_on_multigraphs():
    rng = random.Random(2024)
    multiple = 0
    for _ in range(300):
        g, h = _random_multigraph_pair(rng)
        assert sorted(embeddings_iter(g, h)) == sorted(brute_embeddings(g, h))
        got, expected = enumerate_copies(g, h).copies, _first_appearance_copies(g, h)
        assert got == expected and [c.image for c in got] == [c.image for c in expected]
        multiple += any(m > 1 for m in h.adjacency.values())
    assert multiple > 50


def test_copy_floors_are_the_basic_orbits_along_the_search_order():
    # level i's orbit is that of order[i] under the automorphisms fixing
    # order[:i]; each of its other points must be placed above order[i]
    for h in atlas_up_to(6):
        auts = brute_embeddings(h, h)
        order = embeddings._plan(h)[0]
        below = [[] for _ in order]
        for i, b in enumerate(order):
            stabilizer = [p for p in auts if all(p[u] == u for u in order[:i])]
            for k, y in enumerate(order):
                if y != b and any(p[b] == y for p in stabilizer):
                    below[k].append(b)
        assert embeddings._plan(h)[-1] == tuple(map(tuple, below))


def test_rooted_relation_agrees_with_naive_injections():
    rng = random.Random(31)
    graphs = atlas_up_to(6)
    small = [x for x in graphs if x.n <= 5]
    for _ in range(400):
        g = rng.choice(graphs)
        h = rng.choice([x for x in small if x.n <= g.n])
        naive = {(x, y) for emb in brute_embeddings(g, h) for y, x in enumerate(emb)}
        assert rooted_copy_relation(g, h) == naive


# -- one search plan per H value --------------------------------------------------


def _fresh_h(weight):
    """A path with a double edge; the weight, which the search ignores, makes
    the graph value (and so its plan key) new to this process."""
    return Multigraph(4, [(0, 1, 2, weight), (1, 2, 1, weight), (2, 3, 1, weight)])


def test_equal_graphs_share_one_search_plan(monkeypatch):
    monkeypatch.setattr(embeddings, "_plans", Memo())  # a full table would drop an entry per new plan
    g = Multigraph(6, [(u, v, 2) for u in range(6) for v in range(u + 1, 6)])
    h1 = _fresh_h(Fraction(5, 7919))
    h2 = Multigraph(4, [(3, 2, 1, Fraction(10, 15838)), (2, 1, 1, Fraction(5, 7919)), (1, 0, 2, Fraction(5, 7919))])
    assert h1 == h2 and h1 is not h2
    before = len(embeddings._plans._values)
    first = list(embeddings_iter(g, h1))
    plan = embeddings._plan(h2)
    assert list(embeddings_iter(g, h2)) == first and embeddings._plan(h1) is plan
    copies = enumerate_copies(g, h2).copies
    assert embeddings._plan(h1) is plan
    assert len(embeddings._plans._values) == before + 1
    assert copies == enumerate_copies(g, _fresh_h(1)).copies


def test_interleaved_searches_on_equal_graphs_match_solo_runs():
    """Live generators on equal H share one plan, also while a copy search
    replaces it with one that has floors."""
    rng = random.Random(22)
    for trial in range(40):
        g = random_connected(rng, rng.randint(5, 8), extra=rng.randint(2, 8))
        solo = list(embeddings_iter(g, _fresh_h(1)))
        copies = enumerate_copies(g, _fresh_h(1)).copies
        weight = Fraction(trial + 1, 104729)
        a, b = embeddings_iter(g, _fresh_h(weight)), embeddings_iter(g, _fresh_h(weight))
        got_a, got_b = [], []
        for step, (ea, eb) in enumerate(itertools.zip_longest(a, b)):
            got_a.append(ea)
            got_b.append(eb)
            if step == 1:
                assert enumerate_copies(g, _fresh_h(weight)).copies == copies
        assert got_a == got_b == solo  # a short generator would pad with None
