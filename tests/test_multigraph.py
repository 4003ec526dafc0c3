import json
import random
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdom.multigraph import (
    DisconnectedError,
    FormatError,
    GraphError,
    Multigraph,
    blocks,
    complete_graph,
    cycle_graph,
    has_cut_edge,
    parse_graph,
    path_graph,
    serialize_graph,
    single_edge,
    star_graph,
)
from gdom.checks import _tau_contract
from gdom.counting import count_spanning_trees, laplacian_minor

from conftest import atlas_up_to, bound_memos, contract, gdom_memos, nx_to_multigraph, random_connected


# -- parsing -------------------------------------------------------------------


def test_parse_edge_list_path():
    g = parse_graph("3; 0 1; 1 2")
    assert g.n == 3
    assert g.adjacency == {(0, 1): 1, (1, 2): 1}


def test_parse_edge_list_parallel():
    g = parse_graph("2; 0 1; 0 1")
    assert g.adjacency == {(0, 1): 2}


def test_parse_edge_list_mult_weight():
    g = parse_graph("2; 0 1 3 5/2")
    assert g.edges == ((0, 1, 3, Fraction(5, 2)),)


def test_parse_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        parse_graph("4; 0 1; 2 3")


def test_too_few_edge_records_are_refused_before_the_walk():
    # n vertices need n - 1 records to connect; the walk would allocate per vertex
    for text in ("1000000000", "2000000; 0 1"):
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedError):
                parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, text


def test_parse_rejects_loop():
    with pytest.raises(GraphError):
        parse_graph("2; 0 0; 0 1")


def test_parse_syntax_error_reports_position():
    with pytest.raises(FormatError):
        parse_graph("3; 0 1; bogus clause")
    with pytest.raises(FormatError):
        parse_graph("x; 0 1")


def test_graph6_k4_against_reference_decoder():
    g = parse_graph("C~", "graph6")
    ref = nx_to_multigraph(nx.from_graph6_bytes(b"C~"))
    assert g.n == ref.n == 4 and g.adjacency == ref.adjacency


def test_graph6_roundtrip_against_networkx_on_atlas():
    for g in atlas_up_to(5):
        code = serialize_graph(g, "graph6")
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.adjacency)
        ref = nx.to_graph6_bytes(nxg, header=False).strip().decode()
        assert code == ref  # byte-identical to the reference encoder
        decoded = nx_to_multigraph(nx.from_graph6_bytes(code.encode()))
        assert decoded.adjacency == g.adjacency and decoded.n == g.n


def test_graph6_k3_code():
    assert serialize_graph(complete_graph(3), "graph6") == "Bw"


def test_graph6_refuses_multigraph():
    with pytest.raises(GraphError):
        serialize_graph(parse_graph("2; 0 1; 0 1"), "graph6")


def test_json_roundtrip_weighted():
    g = Multigraph(3, [(0, 1, 2, Fraction(1, 3)), (1, 2, 1, Fraction(4))])
    assert parse_graph(serialize_graph(g, "json"), "json") == g


def test_serialize_canonical_edge_order():
    assert serialize_graph(path_graph(3)) == "3; 0 1; 1 2"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 7), st.booleans())
def test_roundtrip_all_formats(seed, n, weighted):
    rng = random.Random(seed)
    g = random_connected(rng, n, extra=rng.randint(0, n), weighted=weighted)
    for fmt in ("edge_list", "json"):
        assert parse_graph(serialize_graph(g, fmt), fmt) == g
    if g.is_simple() and g.is_unweighted():
        assert parse_graph(serialize_graph(g, "graph6"), "graph6") == g


# -- contraction ---------------------------------------------------------------
# tau(G/S) is the principal Laplacian minor on V - S (all-minors Matrix-Tree);
# the contracted graphs come from conftest's reference ``contract``


def test_contract_path3_endpoints():
    g = contract(path_graph(3), {0, 2})
    assert g.n == 2 and g.adjacency == {(0, 1): 2}
    assert count_spanning_trees(g) == laplacian_minor(path_graph(3), {1}) == 2


def test_contract_singleton_is_identity():
    g = complete_graph(4)
    assert contract(g, {2}) == g
    assert laplacian_minor(g, {0, 1, 3}) == count_spanning_trees(g) == 16


def test_contract_triangle_pair():
    g = contract(complete_graph(3), {0, 1})
    assert g.n == 2 and g.adjacency == {(0, 1): 2}
    assert count_spanning_trees(g) == laplacian_minor(complete_graph(3), {2}) == 2


def test_contract_complement_cases():
    # tau(G_A), G_A = G/(V - A), as the checks read it
    p3 = path_graph(3)
    assert _tau_contract(p3, {0, 1}) == count_spanning_trees(p3)  # complement is a singleton
    assert _tau_contract(p3, range(3)) == count_spanning_trees(p3)  # A = V: G itself, though det L = 0
    assert _tau_contract(p3, set()) == 1  # a point
    k4a = contract(complete_graph(4), {1, 2, 3})
    assert k4a.n == 2 and k4a.adjacency == {(0, 1): 3}
    assert _tau_contract(complete_graph(4), {0}) == 3


def test_contract_subgraph_edges_triangle_in_k4():
    g = contract(complete_graph(4), {0, 1, 2})
    assert g.n == 2 and g.adjacency == {(0, 1): 3}
    assert laplacian_minor(complete_graph(4), {3}) == 3


def test_contract_subgraph_no_edges_is_identity():
    # a one-vertex copy leaves G//H = G, and its minor is tau(G)
    g = cycle_graph(5)
    assert contract(g, {3}) == g
    assert laplacian_minor(g, {0, 1, 2, 4}) == count_spanning_trees(g) == 5


def test_contract_subgraph_middle_edge_of_path4():
    g = contract(path_graph(4), {1, 2})
    assert g.n == 3 and g.adjacency == {(0, 1): 1, (1, 2): 1}
    assert laplacian_minor(path_graph(4), {0, 3}) == 1


def subdivide_edge(g: Multigraph, edge_index: int) -> Multigraph:
    """Replace one unit of edge record ``edge_index`` by a 2-path through a new vertex."""
    if not (0 <= edge_index < len(g.edges)):
        raise GraphError(f"no edge record {edge_index}")
    u, v, m, w = g.edges[edge_index]
    edges = [rec for i, rec in enumerate(g.edges) if i != edge_index]
    if m > 1:
        edges.append((u, v, m - 1, w))
    z = g.n
    edges.append((u, z, 1, w))
    edges.append((v, z, 1, w))
    return Multigraph(g.n + 1, edges, _validated=True)


def test_subdivide_single_edge():
    g = subdivide_edge(single_edge(), 0)
    assert g.n == 3 and g.adjacency == {(0, 2): 1, (1, 2): 1}


def test_subdivide_triangle_tau():
    tri = complete_graph(3)
    assert count_spanning_trees(tri) == 3
    assert count_spanning_trees(subdivide_edge(tri, 0)) == 4  # C4


def test_subdivide_one_unit_of_parallel_pair():
    g = subdivide_edge(parse_graph("2; 0 1; 0 1"), 0)
    assert g.n == 3 and g.adjacency == {(0, 1): 1, (0, 2): 1, (1, 2): 1}


def test_subdivide_missing_edge():
    with pytest.raises(GraphError):
        subdivide_edge(single_edge(), 5)


def test_tau_never_drops_under_subdivision_atlas5():
    for g in atlas_up_to(5):
        tau = count_spanning_trees(g)
        for i in range(len(g.edges)):
            assert count_spanning_trees(subdivide_edge(g, i)) >= tau


# -- laplacian ------------------------------------------------------------------


def test_laplacian_single_edge():
    assert single_edge().laplacian() == [
        [Fraction(1), Fraction(-1)],
        [Fraction(-1), Fraction(1)],
    ]


def test_laplacian_k3():
    L = complete_graph(3).laplacian()
    assert all(L[i][i] == 2 for i in range(3))
    assert all(L[i][j] == -1 for i in range(3) for j in range(3) if i != j)


def test_laplacian_parallel_pair():
    L = parse_graph("2; 0 1; 0 1").laplacian()
    assert L == [[Fraction(2), Fraction(-2)], [Fraction(-2), Fraction(2)]]


def test_laplacian_unit_weights_are_ints():
    L = parse_graph("3; 0 1 2; 1 2").laplacian()
    assert L == [[2, -2, 0], [-2, 3, -1], [0, -1, 1]]
    assert all(type(x) is int for row in L for x in row)
    weighted = Multigraph(3, [(0, 1, 1, Fraction(1, 2)), (1, 2, 2, 1)]).laplacian()
    assert weighted == [
        [Fraction(1, 2), Fraction(-1, 2), 0],
        [Fraction(-1, 2), Fraction(5, 2), -2],
        [0, -2, 2],
    ]


def test_laplacian_zero_row_sums_weighted():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 7), extra=3, weighted=True)
        for row in g.laplacian():
            assert sum(row) == 0


def _merged_laplacian(L, w: set[int], n: int):
    """Contract rows/columns of w in an existing Laplacian: sum the w-rows and
    w-columns into one slot, then restore the zero row sum on the diagonal
    (which is exactly the loop-discard convention)."""
    keep = [v for v in range(n) if v not in w]
    order = [min(w)] + keep  # merged vertex first
    out = []
    for a in order:
        rows = w if a == order[0] else {a}
        row = []
        for b in order:
            cols = w if b == order[0] else {b}
            row.append(sum(L[i][j] for i in rows for j in cols))
        out.append(row)
    out[0][0] = -sum(out[0][1:])
    return out


def test_contraction_commutes_with_laplacian_atlas5():
    rng = random.Random(3)
    for g in atlas_up_to(5):
        if g.n < 3:
            continue
        w = set(rng.sample(range(g.n), rng.randint(2, g.n - 1)))
        contracted = contract(g, w)
        direct = contracted.laplacian()
        merged = _merged_laplacian(g.laplacian(), w, g.n)
        # align labels: contract puts the merged vertex at rank of min(w)
        rep = min(w)
        keep = [v for v in range(g.n) if v not in w]
        order = sorted(keep + [rep])
        pos = {v: i for i, v in enumerate(order)}
        relabeled = [[None] * contracted.n for _ in range(contracted.n)]
        src_order = [rep] + keep
        for i, a in enumerate(src_order):
            for j, b in enumerate(src_order):
                relabeled[pos[a]][pos[b]] = merged[i][j]
        assert relabeled == direct


# -- cut edges -------------------------------------------------------------------


def brute_has_cut_edge(g: Multigraph) -> bool:
    units = []
    for u, v, m, w in g.edges:
        units.extend([(u, v, 1, w)] * m)
    for i in range(len(units)):
        rest = units[:i] + units[i + 1 :]
        h = Multigraph(g.n, rest, _validated=True)
        if not h.is_connected():
            return True
    return False


def test_cut_edge_examples():
    assert has_cut_edge(path_graph(3))
    assert not has_cut_edge(cycle_graph(4))
    assert not has_cut_edge(parse_graph("2; 0 1; 0 1"))
    assert has_cut_edge(star_graph(3))


def test_cut_edge_against_brute_force():
    rng = random.Random(11)
    for g in atlas_up_to(6):
        assert has_cut_edge(g) == brute_has_cut_edge(g)
    for _ in range(50):
        g = random_connected(rng, rng.randint(2, 8), extra=rng.randint(0, 4))
        # sprinkle multiplicities
        edges = [
            (u, v, m + (1 if rng.random() < 0.3 else 0), w) for u, v, m, w in g.edges
        ]
        g2 = Multigraph(g.n, edges)
        assert has_cut_edge(g2) == brute_has_cut_edge(g2)


def test_blocks_against_networkx():
    rng = random.Random(19)
    graphs = list(atlas_up_to(6))
    for _ in range(200):
        g = random_connected(rng, rng.randint(1, 14), extra=rng.randint(0, 10))
        # multiplicities do not change the blocks
        graphs.append(Multigraph(g.n, [(u, v, rng.randint(1, 3)) for u, v in g.adjacency]))
    for g in graphs:
        nxg = nx.Graph(list(g.adjacency))
        nxg.add_nodes_from(range(g.n))
        expected = sorted(sorted(tuple(sorted(e)) for e in b) for b in nx.biconnected_component_edges(nxg))
        assert sorted(sorted(b) for b in blocks(g)) == expected, g.edges


# -- validation -------------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(GraphError):
        Multigraph(0, [])
    with pytest.raises(GraphError):
        Multigraph(2, [(0, 1, 0, 1)])
    with pytest.raises(GraphError):
        Multigraph(2, [(0, 1, 1, 0)])
    with pytest.raises(GraphError):
        Multigraph(2, [(0, 2)])


def test_merges_equal_weight_records():
    g = Multigraph(2, [(0, 1, 1, Fraction(1)), (1, 0, 2, Fraction(1))])
    assert g.edges == ((0, 1, 3, Fraction(1)),)
    g2 = Multigraph(2, [(0, 1, 1, Fraction(1)), (0, 1, 1, Fraction(2))])
    assert len(g2.edges) == 2
    assert g2.multiplicity(0, 1) == 2


# -- integral weights are ints ----------------------------------------------------

# each weight value with its int (or normalized) form and its other spellings
_WEIGHT_FORMS = {
    1: (1, Fraction(1), "1"),
    2: (2, Fraction(2)),
    Fraction(1, 2): (Fraction(1, 2), "1/2"),
}


def _weighted_records(rng, n, values):
    """A random connected record list on n vertices; weight values from ``values``."""
    recs = [(rng.randrange(i), i, rng.randint(1, 2), rng.choice(values)) for i in range(1, n)]
    for _ in range(rng.randint(0, n) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        recs.append((u, v, rng.randint(1, 2), rng.choice(values)))
    return recs


def _spellings(recs, rng):
    """The records with the int forms, and with another spelling of each weight."""
    ints = [(u, v, m, _WEIGHT_FORMS[w][0]) for u, v, m, w in recs]
    others = [(u, v, m, rng.choice(_WEIGHT_FORMS[w][1:])) for u, v, m, w in recs]
    return ints, others


def _edge_list_text(n, recs):
    """Edge-list text; about half the unit-weight clauses omit the weight."""
    clauses = [str(n)]
    for u, v, m, w in recs:
        clauses.append(f"{u} {v} {m}" if w == 1 and (u + v) % 2 else f"{u} {v} {m} {w}")
    return "; ".join(clauses)


def _same_value(a, b):
    assert a.edges == b.edges and a == b and hash(a) == hash(b)
    assert [type(w) for *_, w in a.edges] == [type(w) for *_, w in b.edges]
    assert all((type(w) is int) == (w.denominator == 1) for *_, w in a.edges)
    la, lb = a.laplacian(), b.laplacian()
    assert la == lb and [list(map(type, row)) for row in la] == [list(map(type, row)) for row in lb]
    for fmt in ("edge_list", "json") + (("graph6",) if a.is_simple() and a.is_unweighted() else ()):
        assert serialize_graph(a, fmt) == serialize_graph(b, fmt)


@pytest.mark.parametrize("values", [(1,), (1, 2), (1, 2, Fraction(1, 2))])
def test_int_and_fraction_weights_give_one_value(values):
    rng = random.Random(f"weights-{len(values)}")
    for _ in range(60):
        n = rng.randint(1, 7)
        recs = _weighted_records(rng, n, values)
        ints, others = _spellings(recs, rng)
        g = Multigraph(n, ints)
        _same_value(g, Multigraph(n, others))
        _same_value(g, parse_graph(_edge_list_text(n, ints), "edge_list"))
        js = {"n": n, "edges": [[u, v, m, w if type(w) is int else str(w)] for u, v, m, w in others]}
        _same_value(g, parse_graph(json.dumps(js), "json"))
        if g.is_simple() and g.is_unweighted():
            _same_value(g, parse_graph(serialize_graph(g, "graph6"), "graph6"))


def test_unit_weights_are_stored_as_ints():
    for g in (
        parse_graph("3; 0 1; 1 2 2; 0 2 1 1"),
        parse_graph('{"n": 2, "edges": [[0, 1], [0, 1, 2], [0, 1, 1, "1"], [0, 1, 1, 1.0]]}', "json"),
        parse_graph("Bw", "graph6"),
        Multigraph(2, [(0, 1, 1, Fraction(4, 4)), (0, 1, 1, True)]),
    ):
        assert all(type(w) is int and w == 1 for *_, w in g.edges), g.edges
    assert parse_graph("2; 0 1 1 6/3").edges == ((0, 1, 1, 2),)
    assert type(parse_graph("2; 0 1 1 6/3").edges[0][3]) is int


def test_int_and_fraction_spellings_share_memo_entries(monkeypatch):
    from gdom import spectral, symmetry
    from gdom.multigraph import Memo

    monkeypatch.setattr(spectral, "_spectra", Memo())
    monkeypatch.setattr(symmetry, "_codes", Memo())
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 7)
        ints, others = _spellings(_weighted_records(rng, n, (1, 2)), rng)
        g, h = Multigraph(n, ints), Multigraph(n, others)
        assert spectral.eigenvalues(h) is spectral.eigenvalues(g)
        assert symmetry.cached_code(h) is symmetry.cached_code(g)
    assert len(spectral._spectra._values) == len(symmetry._codes._values) <= 20


def test_memo_keeps_the_most_recently_used_entries(monkeypatch):
    from gdom import multigraph
    from gdom.multigraph import Memo

    monkeypatch.setattr(multigraph, "MEMO_BOUND", 3)
    memo = Memo()
    for key in "abc":
        memo.put(key, key.upper())
    assert memo.get("a") == "A"  # a hit moves "a" to the recent end
    assert memo.put("d", "D") == "D"  # past the bound: "b", the oldest, goes
    assert memo.get("b") is None and list(memo._values) == ["c", "a", "d"]
    memo.put("c", "C")  # storing a key again moves it too
    assert list(memo._values) == ["a", "d", "c"]


def _memo_traffic() -> list:
    """Hunts, relations and checks that ask the memos again and again: a hinge
    hunt (spectra, plans, transitivity), a Tutte hunt (codes, Tutte blocks)
    and relate plus check over small atlas pairs (plans, the LP)."""
    from gdom.checks import check
    from gdom.relations import certificate_to_json, relate
    from gdom.search import PairGenerator, hunt
    from gdom.spectral import hinge

    out = []
    for ineq, gen, trials, params in (
        (
            "spectral_decreasing_convex",
            PairGenerator("overlay_copies", 2024, relation="domination", max_g=10, max_h=5),
            200,
            {"functional": hinge(4), "hypothesis": "domination"},
        ),
        ("tutte_coefficients", PairGenerator("overlay_copies", 10, relation="domination", max_g=8, max_h=5), 30, {}),
    ):
        payload = hunt(ineq, gen, trials, params).to_json()
        payload.pop("elapsed")
        out.append(payload)
    for g in atlas_up_to(5):
        for h in atlas_up_to(4):
            certs = {name: cert and certificate_to_json(cert) for name, cert in relate(g, h).items()}
            out.append((certs, check("frac_tiling_tree", g, h).to_json()))
    return out


def test_memo_eviction_never_changes_an_answer(monkeypatch):
    """Every memoized value is a pure function of its key, so with every memo
    bounded at 2 entries each answer is recomputed, and equals the answer
    that the default bound gave."""
    expected = _memo_traffic()
    assert {
        ("gdom.spectral", "_spectra"),
        ("gdom.symmetry", "_codes"),
        ("gdom.symmetry", "_transitive"),
        ("gdom.embeddings", "_plans"),
        ("gdom.counting", "_tutte_memo"),
        ("gdom.counting", "_hom_memo"),
        ("gdom.search", "_catalogs"),
    } <= set(gdom_memos())
    bound_memos(monkeypatch, 2)
    assert _memo_traffic() == expected
    assert all(len(memo._values) <= 2 for memo in gdom_memos().values())


@pytest.mark.parametrize("weight", [0, -1, Fraction(0), Fraction(-1, 2), Fraction(-3), "0", "-2/3"])
def test_non_positive_weights_rejected(weight):
    with pytest.raises(GraphError):
        Multigraph(2, [(0, 1, 1, weight)])
    with pytest.raises(GraphError):
        parse_graph(f"2; 0 1 1 {weight}")
    with pytest.raises(GraphError):
        parse_graph(f'{{"n": 2, "edges": [[0, 1, 1, "{weight}"]]}}', "json")


def test_unit_weight_hunt_hashes_no_fraction(monkeypatch):
    from gdom.search import PairGenerator, hunt
    from gdom.spectral import hinge

    params = {"functional": hinge(4), "hypothesis": "domination"}
    calls = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    gen = PairGenerator("overlay_copies", seed=2024, relation="domination", max_g=10, max_h=5)
    result = hunt("spectral_decreasing_convex", gen, 100, params=params)
    assert result.checked == 100
    assert calls == []
