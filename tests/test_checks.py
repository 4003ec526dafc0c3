import json
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from gdom.checks import (
    CONJECTURED,
    HOLDS,
    HOLDS_WITH_EQUALITY,
    HYPOTHESIS_FAILED,
    INCONCLUSIVE,
    INEQUALITIES,
    KNOWN_FALSE,
    PARAMS,
    PROVEN,
    VIOLATED,
    CheckReport,
    InequalityId,
    JointDistribution,
    MissingParameter,
    aggregate_verdicts,
    check,
    check_shearer,
    claim_status,
    compare_float,
    compare_normalized_powers,
    default_t_grid,
    entropy_nats,
    params_to_json,
    verify_relation_hypothesis,
)
from gdom.counting import HomTarget
from gdom.multigraph import (
    Multigraph,
    complete_graph,
    cycle_graph,
    parse_graph,
    path_graph,
    single_edge,
    star_graph,
)
from gdom.relations import RELATIONS, check_domination, check_fractional_tiling
from gdom.rng import Stream, derive_seed
from gdom.spectral import hinge, shifted_inverse
from gdom.symmetry import SizeBoundExceeded
from gdom.search import PairGenerator, generate_pair, random_connected_graph, transitive_catalog

from conftest import atlas_up_to, relabelled_petersen

K4 = complete_graph(4)
K3 = complete_graph(3)
P3 = path_graph(3)
EDGE = single_edge()


# -- comparison helpers -----------------------------------------------------------


def test_compare_normalized_exact_cases():
    # 16^(1/4) = 2 >= 3^(1/3): 16^3 = 4096 >= 3^4 = 81
    assert compare_normalized_powers(16, 4, 3, 3, "ge") == HOLDS
    # 9^(1/4) = 3^(1/2) exactly
    assert compare_normalized_powers(9, 4, 3, 2, "le") == HOLDS_WITH_EQUALITY
    assert compare_normalized_powers(17, 5, 3, 2, "le") == VIOLATED  # 289 > 243
    assert compare_normalized_powers(5, 5, 2, 2, "ge") == VIOLATED  # 25 < 32


def test_cross_exponentiation_agrees_with_high_precision_floats():
    mp.prec = 200
    rng = random.Random(2)
    for _ in range(300):
        a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
        na, nb = rng.randint(1, 12), rng.randint(1, 12)
        verdict = compare_normalized_powers(a, na, b, nb, "ge")
        lhs = mpf(a) ** (mpf(1) / na)
        rhs = mpf(b) ** (mpf(1) / nb)
        if verdict == HOLDS:
            assert lhs > rhs
        elif verdict == VIOLATED:
            assert lhs < rhs
        else:
            assert abs(lhs - rhs) < mpf(2) ** -150


def test_compare_float_budget():
    assert compare_float(1.0, 1.0, 1e-9) == INCONCLUSIVE  # a float tie proves no equality
    assert compare_float(1.0, 1.0, 0.0) == INCONCLUSIVE
    assert compare_float(1.0, 2.0, 1e-9) == HOLDS
    assert compare_float(2.0, 1.0, 1e-9) == VIOLATED
    assert compare_float(1.0, 1.0 + 1e-12, 1e-9) == INCONCLUSIVE


def test_aggregate_verdicts():
    assert aggregate_verdicts([HOLDS, HOLDS_WITH_EQUALITY]) == HOLDS
    assert aggregate_verdicts([HOLDS_WITH_EQUALITY] * 3) == HOLDS_WITH_EQUALITY
    assert aggregate_verdicts([HOLDS, VIOLATED, INCONCLUSIVE]) == VIOLATED
    assert aggregate_verdicts([HOLDS, INCONCLUSIVE]) == INCONCLUSIVE


# -- spec examples ------------------------------------------------------------------


def test_spanning_tree_k4_k3():
    r = check("spanning_tree", K4, K3)
    assert r.verdict == HOLDS and r.lhs == 16 and r.rhs == 3
    assert r.hypothesis == "domination" and r.hypothesis_ok
    assert r.status == CONJECTURED


def test_koteljanskii_path3_failure_example():
    r = check("koteljanskii_step", P3, params={"a": [0, 1], "b": [1, 2]})
    assert r.verdict == HYPOTHESIS_FAILED
    assert r.lhs == 1 and r.rhs == 2
    assert any("violated" in n for n in r.notes)


def test_koteljanskii_crossing_edge_extension():
    # A union B = V but an edge joins A-B to B-A: hypothesis holds
    r = check("koteljanskii_step", cycle_graph(4), params={"a": [0, 1], "b": [2, 3]})
    assert r.hypothesis_ok
    assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY)


def test_vertex_counting_star_violation():
    r = check(
        "vertex_counting",
        star_graph(4),
        EDGE,
        params={"family": "independent_sets", "hypothesis": "domination"},
    )
    assert r.verdict == VIOLATED and r.lhs == 17 and r.rhs == 3
    assert r.status == KNOWN_FALSE


def test_default_family_sets_the_claim_status():
    # without a family the checker counts independent sets, so the claim
    # status is that family's
    plain = check("vertex_counting", star_graph(4), EDGE, {"hypothesis": "domination"})
    named = check("vertex_counting", star_graph(4), EDGE, {"hypothesis": "domination", "family": "independent_sets"})
    for r in (plain, named):
        assert (r.family, r.verdict, r.status, r.lhs, r.rhs) == ("independent_sets", VIOLATED, KNOWN_FALSE, 17, 3)
    plain = check("edge_counting", cycle_graph(6), P3)
    named = check("edge_counting", cycle_graph(6), P3, {"family": "forests"})
    for r in (plain, named):
        assert (r.family, r.status, r.lhs, r.rhs) == ("forests", PROVEN, named.lhs, named.rhs)


def test_vertex_counting_under_fractional_tiling_is_proven():
    r = check("vertex_counting", K4, K3, params={"family": "independent_sets"})
    assert r.status == PROVEN
    assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY)


def test_equality_regressions_k13_edge():
    r = check(
        "vertex_counting",
        star_graph(3),
        EDGE,
        params={"family": "independent_sets", "hypothesis": "domination"},
    )
    assert r.verdict == HOLDS_WITH_EQUALITY and r.lhs == 9 and r.rhs == 3
    r = check("matchings_lower", star_graph(3), EDGE, params={"hypothesis": "domination"})
    assert r.verdict == HOLDS_WITH_EQUALITY and r.lhs == 4 and r.rhs == 2


def test_matchings_lower_star_violation():
    r = check("matchings_lower", star_graph(4), EDGE, params={"hypothesis": "domination"})
    assert r.verdict == VIOLATED and r.lhs == 5 and r.rhs == 2


def test_matchings_lower_packing_variant():
    r = check(
        "matchings_lower",
        K4,
        K3,
        params={"packing_by": K3},
    )
    assert r.family == "packings"
    assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY, VIOLATED)


def test_heat_trace_k4_k3_strict_on_grid():
    r = check("heat_trace_frac", K4, K3)
    assert r.verdict == HOLDS
    assert len(r.points) == len(default_t_grid())
    assert all(p.verdict == HOLDS for p in r.points)


def test_heat_trace_equality_iff_isomorphic():
    r = check("heat_trace_frac", K4, complete_graph(4))
    assert r.verdict == HOLDS_WITH_EQUALITY
    assert all(p.verdict == HOLDS_WITH_EQUALITY for p in r.points)
    relabeled = Multigraph(4, [(3, 2), (3, 1), (3, 0), (2, 1), (2, 0), (1, 0)])
    assert check("heat_trace_frac", K4, relabeled).verdict == HOLDS_WITH_EQUALITY


@pytest.mark.parametrize("ineq", ["heat_trace_frac", "spectral_decreasing_convex"])
def test_isomorphic_graphs_hold_with_equality_at_every_point(ineq):
    # their float traces tie, which proves nothing; their codes prove equality
    g, h = relabelled_petersen()
    assert g.edges != h.edges
    r = check(ineq, g, h)
    assert r.verdict == HOLDS_WITH_EQUALITY and r.status == PROVEN
    assert r.points and all(p.verdict == HOLDS_WITH_EQUALITY and p.lhs == p.rhs for p in r.points)
    assert r.notes == ["G and H are isomorphic; equality holds at every point"]


def test_a_tiny_shifted_inverse_parameter_is_decided():
    # the zero eigenvalue is exact, so the Lipschitz bound is taken from
    # about 3 up; from 0 it would be 1/p^2, which overflows to inf
    p = Fraction(1, 10**160)
    r = check("spectral_decreasing_convex", K4, K3, {"functional": shifted_inverse(p)})
    with mp.workdps(400):
        q = mpf(p.numerator) / p.denominator
        lhs = (1 / q + 3 / (4 + q)) / 4
        rhs = (1 / q + 2 / (3 + q)) / 3
        assert lhs < rhs
        assert abs(mpf(r.lhs) - lhs) + abs(mpf(r.rhs) - rhs) <= r.error_bound < rhs - lhs
    assert r.verdict == HOLDS and r.status == PROVEN


def test_heat_trace_under_domination_is_conjecture():
    r = check("heat_trace_frac", star_graph(4), EDGE, params={"hypothesis": "domination"})
    assert r.status == CONJECTURED
    assert r.hypothesis == "domination"


def test_frac_tiling_tree_p3_edge_hypothesis_failed():
    r = check("frac_tiling_tree", P3, EDGE)
    assert r.verdict == HYPOTHESIS_FAILED and not r.hypothesis_ok


def test_tree_product_and_minor_power():
    r = check("tree_product", K4, K3)
    assert r.verdict == HOLDS and r.lhs == 9 and r.rhs == 16
    r = check("minor_power", K4, K3)
    assert r.verdict == HOLDS
    r = check("minor_power", P3, EDGE)  # P3 not transitive
    assert r.verdict == HYPOTHESIS_FAILED


def test_transitive_checks():
    r = check("transitive_G", cycle_graph(6), P3)
    assert r.verdict == HOLDS and r.strictness is not None
    r = check("transitive_G", P3, EDGE)
    assert r.verdict == HYPOTHESIS_FAILED  # G not transitive
    r = check("transitive_H", K4, K3)
    assert r.verdict == HOLDS
    r = check("transitive_H", K4, P3)
    assert r.verdict == HYPOTHESIS_FAILED  # H not transitive


def test_an_equality_where_strictness_is_asserted_is_a_violation():
    # C4 has no cut edge, and tau(C4)^(1/4) = 4^(1/4) is tau^(1/2) of one edge of weight 2
    r = check("transitive_G", cycle_graph(4), parse_graph("2; 0 1 1 2"))
    assert (r.hypothesis_ok, r.verdict, r.status, r.lhs, r.rhs) == (True, VIOLATED, CONJECTURED, 4, 2)
    assert r.strictness == "strict inequality asserted (no cut-edge, G not H)"
    assert r.notes == ["G transitive", "equality where strict inequality is asserted"]


def test_transitive_g_strictness_on_catalog():
    rng = random.Random(4)
    catalog = [g for g in transitive_catalog(8) if not g.is_simple() is True]
    for g in catalog[:20]:
        h = rng.choice([x for x in atlas_up_to(4) if x.n <= g.n])
        r = check("transitive_G", g, h)
        if r.verdict == HYPOTHESIS_FAILED:
            continue
        from gdom.multigraph import has_cut_edge
        from gdom.symmetry import cached_code

        if not has_cut_edge(g) and cached_code(g) != cached_code(h):
            assert r.verdict == HOLDS  # strict, never equality


def test_cover_product():
    cov = [[x for x in range(4) if x != v] for v in range(4)]
    r = check("cover_product", K4, params={"cover": cov})
    assert r.verdict == HOLDS and r.params["m"] == 3
    r = check("cover_product", K4, params={"cover": [[0, 1], [2]]})
    assert r.verdict == HYPOTHESIS_FAILED


@pytest.mark.parametrize("vertex", [4, -1])
def test_cover_index_out_of_range_is_an_error(vertex):
    # a negative index must not wrap round to the last vertex
    cover = [[0], [1], [2], [3], [vertex]]
    with pytest.raises(ValueError, match="out of range"):
        check("cover_product", K4, params={"cover": cover})
    weighted = [{"vertices": s, "edges": []} for s in cover]
    with pytest.raises(ValueError, match="out of range"):
        check("weighted_cover_heat", K4, params={"weighted_cover": weighted})


def test_op_monotone_and_char_poly():
    r = check("op_monotone", K4, K3)
    assert r.verdict == HOLDS and r.status == PROVEN and r.exact and r.error_bound == 0
    assert r.params["t_grid"] == [str(t) for t in default_t_grid()] and "functionals" not in r.params
    r = check("char_poly", K4, K3)
    assert r.verdict == HOLDS and r.exact
    # det(K4 + I) = 125, det(K3 + I) = 16 at t=1: 125^3 vs 16^4
    point = next(p for p in r.points if p.label == "t=1")
    assert point.lhs == 125 and point.rhs == 16


def test_op_monotone_is_char_poly_on_a_domination_corpus():
    # op_monotone states the log-determinant inequality that char_poly decides:
    # the same points, values and verdicts, and every point decided
    for strategy, seed in (("random_connected_pair", 5), ("overlay_copies", 2024), ("transitive_catalog", 7)):
        gen = PairGenerator(strategy, seed=seed, relation="domination", max_g=8, max_h=4)
        for trial in range(12):
            pair = generate_pair(gen, trial)
            params = {"certificate": pair.certificate}
            op = check("op_monotone", pair.g, pair.h, params)
            cp = check("char_poly", pair.g, pair.h, params)
            assert [p.to_json() for p in op.points] == [p.to_json() for p in cp.points], (op.g, op.h)
            assert op.verdict == cp.verdict in (HOLDS, HOLDS_WITH_EQUALITY) and op.exact


def test_op_monotone_and_char_poly_give_one_report_under_each_hypothesis():
    # one Inequality entry serves both ids; K4 over K3 fails only the tiling hypothesis
    for hypothesis in (*RELATIONS, "subgraph"):
        op, cp = (check(ineq, K4, K3, {"hypothesis": hypothesis}).to_json() for ineq in ("op_monotone", "char_poly"))
        assert (op.pop("inequality"), cp.pop("inequality")) == ("op_monotone", "char_poly")
        assert op == cp, hypothesis


def test_op_monotone_decides_a_relabelled_path_exactly():
    g, h = parse_graph("3; 0 1; 1 2"), parse_graph("3; 0 1; 0 2")
    r = check("op_monotone", g, h)
    assert r.verdict == HOLDS_WITH_EQUALITY and r.exact
    assert all(p.lhs == p.rhs and p.error_bound == 0 for p in r.points)
    assert r.points[0].label == "t=1/64"


def test_op_monotone_calls_no_eigensolver(monkeypatch):
    from gdom import spectral

    def refuse(*args):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(spectral, "jacobi_eigenvalues", refuse)
    monkeypatch.setattr(spectral, "eigenvalues", refuse)
    assert check("op_monotone", K4, K3).verdict == HOLDS
    assert check("op_monotone", cycle_graph(6), P3).verdict in (HOLDS, HOLDS_WITH_EQUALITY)


def test_empty_grid_is_an_error():
    for ineq, params in (
        ("heat_trace_frac", {"t_grid": []}),
        ("spectral_decreasing_convex", {"functional": []}),
        ("op_monotone", {"t_grid": []}),
        ("char_poly", {"t_grid": []}),
        ("tutte_pointwise", {"xy_grid": []}),
    ):
        with pytest.raises(ValueError, match="nonempty grid"):
            check(ineq, K4, K3, params)


def test_spectral_decreasing_convex_validation():
    r = check("spectral_decreasing_convex", K4, K3, params={"functional": hinge(4)})
    assert r.verdict == HOLDS and r.status == PROVEN


def test_spectral_status_under_domination():
    r = check(
        "spectral_decreasing_convex",
        star_graph(4),
        EDGE,
        params={"functional": hinge(4), "hypothesis": "domination"},
    )
    # H = edge is transitive: the conjecture side-condition applies
    assert r.status == CONJECTURED
    r = check(
        "spectral_decreasing_convex",
        K4,
        P3,
        params={"functional": hinge(4), "hypothesis": "domination"},
    )
    assert r.status == KNOWN_FALSE  # H not transitive


def test_a_failed_hypothesis_keeps_the_status_of_the_pair():
    # under domination the claim is conjectured for a vertex-transitive H,
    # such as K3, whether or not G dominates it
    params = {"functional": hinge(4), "hypothesis": "domination"}
    r = check("spectral_decreasing_convex", path_graph(4), K3, params=params)
    assert (r.hypothesis_ok, r.verdict, r.status) == (False, HYPOTHESIS_FAILED, CONJECTURED)
    r = check("spectral_decreasing_convex", K4, K3, params=params)
    assert (r.hypothesis_ok, r.verdict, r.status) == (True, HOLDS, CONJECTURED)


def test_the_spectral_status_decides_transitivity_only_where_it_reads_it():
    # past the 64-vertex bound of the automorphism search, H's transitivity is
    # refused; the claim's status needs it under domination alone
    c65 = cycle_graph(65)
    for hypothesis, status in (("fractional_tiling", PROVEN), ("subgraph", KNOWN_FALSE)):
        r = check("spectral_decreasing_convex", c65, c65, params={"functional": hinge(4), "hypothesis": hypothesis})
        assert (r.verdict, r.status) == (HOLDS_WITH_EQUALITY, status)
    for g in (c65, path_graph(70)):
        with pytest.raises(SizeBoundExceeded, match="65 vertices exceed the automorphism search bound 64"):
            check("spectral_decreasing_convex", g, c65, params={"functional": hinge(4), "hypothesis": "domination"})


def test_edge_counting():
    r = check("edge_counting", cycle_graph(6), P3, params={"family": "forests"})
    assert r.verdict == HOLDS
    r = check("edge_counting", K4, K3, params={"family": "matchings"})
    assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY)
    assert r.params["normalization"] == "lhs^(1/6) vs rhs^(1/3)"


def test_weighted_homomorphism_family():
    params = {
        "family": "weighted_homomorphisms",
        "hom_target": HomTarget.independent_set_target(),
        "hom_weights": {0: Fraction(1), 1: Fraction(2)},
    }
    r = check("vertex_counting", K4, K3, params=params)
    assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY)
    assert isinstance(r.lhs, (int, Fraction))


@pytest.mark.parametrize("weights", [{0: 1}, {0: 1, 1: 2, 7: 1}])
def test_hom_weights_that_do_not_match_the_target_are_an_error(weights):
    """A weight missing for a target vertex, or given for a vertex the
    target does not have, is a ValueError that names the weights."""
    params = {
        "family": "weighted_homomorphisms",
        "hom_target": HomTarget.independent_set_target(),
        "hom_weights": weights,
    }
    with pytest.raises(ValueError, match="hom_weights"):
        check("vertex_counting", K4, K3, params=params)


def test_tutte_pointwise_and_coefficients():
    r = check("tutte_pointwise", K4, K3)
    assert r.verdict == HOLDS and len(r.points) == 16
    r = check("tutte_coefficients", K4, K3)
    assert r.verdict == HOLDS and r.status == CONJECTURED
    r = check("tutte_coefficients", K4, complete_graph(4))
    assert r.verdict == HOLDS_WITH_EQUALITY


def test_tutte_pointwise_grid_validation():
    with pytest.raises(ValueError):
        check("tutte_pointwise", K4, K3, params={"xy_grid": [(Fraction(1, 2), Fraction(1))]})


def _cover_from_fractional_tiling(cert, scale: Fraction) -> list[dict]:
    entries = []
    for copy, mult in zip(cert.copies, cert.multiplicities):
        for _ in range(mult):
            entries.append(
                {
                    "vertices": list(copy.vertices),
                    "edges": [[u, v, m, str(scale)] for u, v, m in copy.edges],
                }
            )
    return entries


def test_weighted_cover_heat_from_fractional_tilings():
    """Covers built from fractional-tiling certificates satisfy both hypotheses;
    with full weights the bound coincides with the two-graph heat comparison."""
    from gdom.search import PairGenerator, generate_pair

    gen = PairGenerator(
        "transitive_catalog", seed=21, relation="fractional_tiling", max_g=8, max_h=4
    )
    matched = 0
    for trial in range(12):
        pair = generate_pair(gen, trial)
        if pair.h.n < 2:
            continue
        full = check(
            "weighted_cover_heat",
            pair.g,
            params={"weighted_cover": _cover_from_fractional_tiling(pair.certificate, Fraction(1))},
        )
        assert full.hypothesis_ok
        assert all(p.verdict != VIOLATED for p in full.points)
        two_graph = check("heat_trace_frac", pair.g, pair.h, params={"certificate": pair.certificate})
        for a, b in zip(full.points, two_graph.points):
            # every cover entry is a copy of H, so the averaged trace is H's
            assert abs(a.rhs - b.rhs) < 1e-9
            assert abs(a.lhs - b.lhs) < 1e-12
        matched += 1

        # scaling all cover weights down keeps hypothesis (ii); the Laplacians
        # shrink, return probabilities grow, and the bound stays valid
        scaled = check(
            "weighted_cover_heat",
            pair.g,
            params={
                "weighted_cover": _cover_from_fractional_tiling(pair.certificate, Fraction(1, 3))
            },
        )
        assert scaled.hypothesis_ok
        assert all(p.verdict != VIOLATED for p in scaled.points)
        for a, b in zip(scaled.points, full.points):
            assert a.rhs >= b.rhs - 1e-12
    assert matched >= 8


def test_weighted_cover_heat():
    g = parse_graph("3; 0 1 1 1; 1 2 1 1")
    cover = [
        {"vertices": [0, 1, 2], "edges": [[0, 1, 1, "1/2"], [1, 2, 1, "1/2"]]}
    ]
    r = check("weighted_cover_heat", g, params={"weighted_cover": cover})
    assert r.hypothesis_ok
    # the gap vanishes below the float budget for large t, so single points may
    # be inconclusive, but nothing is ever violated
    assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY, INCONCLUSIVE)
    assert all(p.verdict != VIOLATED for p in r.points)
    # hypothesis (ii) fails when a cover entry outweighs the host edge
    heavy = [{"vertices": [0, 1, 2], "edges": [[0, 1, 1, "3"], [1, 2, 1, "1"]]}]
    r = check("weighted_cover_heat", g, params={"weighted_cover": heavy})
    assert r.verdict == HYPOTHESIS_FAILED


@pytest.mark.parametrize(
    "cover, note",
    [
        # vertex 2 of P3 is in no entry
        ([{"vertices": [0, 1], "edges": [[0, 1, 1, "1"]]}], "cover does not hit every vertex the same number of times"),
        ([{"vertices": [0, 1, 2], "edges": [[0, 2, 1, "1"]]}], "cover entry uses pair (0, 2) absent from G"),
    ],
)
def test_weighted_cover_heat_hypothesis_fails_before_any_spectrum(cover, note):
    r = check("weighted_cover_heat", P3, params={"weighted_cover": cover})
    assert (r.hypothesis_ok, r.verdict, r.status, r.notes, r.points) == (False, HYPOTHESIS_FAILED, PROVEN, [note], [])


@pytest.mark.parametrize("edge", [[0, 1, 1, "-1"], [0, 1, 1, "0"], [0, 1, 0, "1"], [0, 1, -1, "1"]])
def test_weighted_cover_entry_must_be_a_weighted_graph(edge):
    # every vertex of K4 once; a negative or zero unit would make the bound vacuous
    cover = [{"vertices": [0, 1], "edges": [edge]}, {"vertices": [2, 3], "edges": [[2, 3, 1, "1"]]}]
    with pytest.raises(ValueError, match="positive weight"):
        check("weighted_cover_heat", K4, params={"weighted_cover": cover})


def test_weighted_cover_entry_with_a_loop_is_an_error():
    cover = [{"vertices": [0, 1, 2, 3], "edges": [[0, 0, 1, "1"], [0, 1, 1, "1"]]}]
    with pytest.raises(ValueError, match="loop"):
        check("weighted_cover_heat", K4, params={"weighted_cover": cover})


def test_weighted_cover_heat_at_t_zero_is_an_error():
    cover = [{"vertices": [0, 1, 2, 3], "edges": [[u, v, m, "1/2"] for u, v, m, _ in K4.edges]}]
    with pytest.raises(ValueError, match="exp_decay needs a positive parameter"):
        check("weighted_cover_heat", K4, params={"weighted_cover": cover, "t_grid": "0"})


def test_weighted_cover_heat_solves_each_spectrum_once(monkeypatch):
    from gdom import spectral
    from gdom.multigraph import Memo

    calls = []
    solve = spectral.jacobi_eigenvalues

    def counted(matrix):
        calls.append(len(matrix))
        return solve(matrix)

    monkeypatch.setattr(spectral, "jacobi_eigenvalues", counted)
    monkeypatch.setattr(spectral, "_spectra", Memo())  # G's spectrum is solved here, not recalled
    g = complete_graph(5)
    cover = [{"vertices": list(range(5)), "edges": [[u, v, m, "1/2"] for u, v, m, _ in g.edges]}]
    r = check("weighted_cover_heat", g, params={"weighted_cover": cover})
    assert r.hypothesis_ok and len(r.points) == len(default_t_grid()) == 13
    assert calls == [5, 5]  # one for G, one for the cover entry
    # a repeated entry is the same graph, recalled from the memo
    calls.clear()
    monkeypatch.setattr(spectral, "_spectra", Memo())
    r = check("weighted_cover_heat", g, params={"weighted_cover": cover * 2})
    assert r.hypothesis_ok and r.params["m"] == 2
    assert calls == [5, 5]


def test_weighted_cover_heat_disconnected_entry():
    # one entry, two disjoint unit edges covering C4 once: its trace is
    # 2 (1 + e^-2t) over 4 vertices, C4's is (1 + 2 e^-2t + e^-4t) / 4
    c4 = cycle_graph(4)
    cover = [{"vertices": [0, 1, 2, 3], "edges": [[0, 1, 1, "1"], [2, 3, 1, "1"]]}]
    r = check("weighted_cover_heat", c4, params={"weighted_cover": cover, "t_grid": "1/2,1,2"})
    assert r.hypothesis_ok and r.verdict == HOLDS
    for p, t in zip(r.points, (0.5, 1.0, 2.0)):
        assert abs(p.rhs - (1 + math.exp(-2 * t)) / 2) < 1e-12
        assert abs(p.lhs - (1 + 2 * math.exp(-2 * t) + math.exp(-4 * t)) / 4) < 1e-12


def test_certificate_passthrough():
    cert = check_fractional_tiling(K4, K3)
    r = check("frac_tiling_tree", K4, K3, params={"certificate": cert})
    assert r.verdict == HOLDS and r.hypothesis_ok


def test_unknown_id_and_missing_params():
    with pytest.raises(ValueError):
        check("nonsense", K4, K3)
    with pytest.raises(ValueError):
        check("koteljanskii_step", P3, params={"a": [0]})
    param_ids = {"koteljanskii_step", "cover_product", "weighted_cover_heat"}
    for ineq in InequalityId:
        if ineq.value not in param_ids:
            with pytest.raises(MissingParameter):
                check(ineq, K4, None)


# a valid value of each PARAMS key on (K4, K3), in native form
_SAMPLES = {
    "hypothesis": "domination",
    "family": "independent_sets",
    "certificate": check_fractional_tiling(K4, K3),
    "t_grid": [Fraction(1, 2), 2],
    "xy_grid": [(1, 1), (Fraction(3, 2), 2)],
    "functional": [hinge(4), hinge(Fraction(5, 2))],
    "q": 4,
    "a": [0, 1],
    "b": [1, 2],
    "cover": [[0, 1, 2], [3]],
    "weighted_cover": [{"vertices": [0, 1, 2, 3], "edges": [[0, 1, 1, Fraction(1, 2)]]}],
    "hom_target": HomTarget.independent_set_target(),
    "hom_weights": {0: Fraction(1), 1: Fraction(3, 2)},
    "packing_by": EDGE,
}


def _sample_checks():
    """(id, family, params): each id, once per family, with each key it reads
    but the hypothesis and the certificate, which keep their defaults."""
    for ineq, entry in INEQUALITIES.items():
        for family in entry.families or (None,):
            keys = entry.keys(family) - {"hypothesis", "certificate", "family"}
            params = {key: _SAMPLES[key] for key in keys}
            if family:
                params["family"] = family
            yield ineq, family, params


def test_every_param_has_a_sample():
    assert set(_SAMPLES) == set(PARAMS)
    for key, value in _SAMPLES.items():
        parsed = PARAMS[key].read(value)
        assert PARAMS[key].read(params_to_json({key: parsed})[key]) == parsed, key


@pytest.mark.parametrize("ineq", list(InequalityId))
def test_a_param_the_id_does_not_read_is_an_error(ineq):
    entry = INEQUALITIES[ineq]
    h = K3 if entry.takes_h else None
    for key in sorted(set(PARAMS) - entry.keys(entry.family)):
        with pytest.raises(ValueError, match=f"reads no parameter '{key}'"):
            check(ineq, K4, h, {key: _SAMPLES[key]})


@pytest.mark.parametrize("ineq, family, params", list(_sample_checks()))
def test_report_params_replay_the_check_through_json(ineq, family, params):
    entry = INEQUALITIES[ineq]
    h = K3 if entry.takes_h else None
    report = check(ineq, K4, h, params)
    # the report records each input key in its JSON form, beside what the checker derived
    recorded = params_to_json({key: PARAMS[key].read(value) for key, value in params.items() if key != "family"})
    assert {key: report.params[key] for key in recorded} == recorded
    given = {key: value for key, value in report.params.items() if key in PARAMS}
    given["hypothesis"] = report.hypothesis
    if family:
        given["family"] = report.family
    if report.certificate is not None:
        given["certificate"] = report.certificate
    replay = check(ineq, K4, h, json.loads(json.dumps(given)))
    assert replay.verdict == report.verdict and replay.lhs == report.lhs
    assert [p.to_json() for p in replay.points] == [p.to_json() for p in report.points]


def test_a_missing_required_param_is_an_error():
    for ineq, key in (("koteljanskii_step", "b"), ("cover_product", "cover"), ("weighted_cover_heat", "weighted_cover")):
        params = {k: _SAMPLES[k] for k in INEQUALITIES[InequalityId(ineq)].reads if k != key}
        with pytest.raises(MissingParameter, match=f"needs params\\['{key}'\\]"):
            check(ineq, K4, None, params)
    with pytest.raises(MissingParameter, match="hom_target"):
        check("vertex_counting", K4, K3, {"family": "weighted_homomorphisms"})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("xy_grid", "1,2,3", "'1,2,3' is not one x,y pair"),
        ("xy_grid", [[1]], "is not one x,y pair"),
        ("xy_grid", "1/2,1", "with x, y >= 1"),
        ("t_grid", "1,1/0", "zero denominator in '1/0'"),
        ("t_grid", ",", "needs a nonempty grid"),
        ("functional", "cubic(2)", "unknown functional family"),
        ("q", "x", "invalid literal"),
        ("q", True, "is not an integer"),
        ("a", "0,one", "invalid literal"),
        ("packing_by", "x; 0 1", "bad vertex count"),
        ("weighted_cover", [{"vertices": [0]}], "'edges'"),
        ("hom_target", {"edges": [[0, 1]]}, "'n'"),
        ("hom_target", {"n": 2, "edges": [[0, 0], [0, 5]]}, "pairs in range\\(2\\)"),
        ("certificate", {"type": "nonsense"}, "unknown certificate type"),
    ],
)
def test_a_malformed_param_is_a_value_error_that_names_its_key(key, value, message):
    with pytest.raises(ValueError, match=f"^{key}\\b.*{message}"):
        PARAMS[key].read(value)


_HYPOTHESES = ("tiling", "fractional_tiling", "fractional_edge_tiling", "domination", "subgraph", "params")
_STATUS_CODE = {PROVEN: "P", CONJECTURED: "C", KNOWN_FALSE: "F"}
# (id, family, H) -> status under each of _HYPOTHESES, in order; only
# spectral_decreasing_convex reads H: K3 is vertex-transitive, P3 is not
_STATUS_TABLE = {
    ("spanning_tree", None, P3): "PPCCFC",
    ("tree_product", None, P3): "PPPPPC",
    ("minor_power", None, P3): "PPPPPC",
    ("transitive_G", None, P3): "PPCPCC",
    ("transitive_H", None, P3): "PPCPFC",
    ("frac_tiling_tree", None, P3): "PPCCFC",
    ("koteljanskii_step", None, P3): "PPPPPP",
    ("cover_product", None, P3): "PPPPPP",
    ("heat_trace_frac", None, P3): "PPCCFC",
    ("weighted_cover_heat", None, P3): "PPPPPP",
    ("spectral_decreasing_convex", None, P3): "PPFFFF",
    ("spectral_decreasing_convex", None, K3): "PPCCFC",
    ("op_monotone", None, P3): "PPCPFC",
    ("char_poly", None, P3): "PPCPFC",
    ("vertex_counting", None, P3): "PPCCCC",
    ("vertex_counting", "proper_colorings", P3): "PPCCCC",
    ("vertex_counting", "independent_sets", P3): "PPFFFF",
    ("edge_counting", None, P3): "CCPCCC",
    ("matchings_lower", None, P3): "CCFFFF",
    ("tutte_pointwise", None, P3): "CCCCFC",
    ("tutte_coefficients", None, P3): "CCCCFC",
}


def test_status_table_spot_checks():
    assert {ineq for ineq, _, _ in _STATUS_TABLE} == {i.value for i in InequalityId}
    for (ineq, family, h), expected in _STATUS_TABLE.items():
        got = "".join(_STATUS_CODE[claim_status(InequalityId(ineq), hyp, family, h)] for hyp in _HYPOTHESES)
        assert got == expected, (ineq, family, h)


# a subgraph pair, found by a 3,000-pair seed-5 random_connected_pair sweep,
# on which each claim below fails
_SUBGRAPH_G = parse_graph("9; 0 1; 0 7; 1 2; 1 3; 1 5; 1 7; 2 4; 3 6; 5 8")
_REFUTED_UNDER_SUBGRAPH = (
    "spanning_tree",
    "transitive_H",
    "frac_tiling_tree",
    "heat_trace_frac",
    "spectral_decreasing_convex",
    "op_monotone",
    "char_poly",
    "tutte_pointwise",
    "tutte_coefficients",
)


@pytest.mark.parametrize("ineq", _REFUTED_UNDER_SUBGRAPH)
def test_subgraph_alone_is_too_weak(ineq):
    r = check(ineq, _SUBGRAPH_G, K3, params={"hypothesis": "subgraph"})
    assert (r.hypothesis_ok, r.verdict, r.status) == (True, VIOLATED, KNOWN_FALSE)
    assert check(ineq, _SUBGRAPH_G, K3).verdict == HYPOTHESIS_FAILED  # under its default


@pytest.mark.parametrize(
    "ineq, note",
    [
        ("char_poly", "violated at t=1"),
        ("op_monotone", "violated at t=1"),
        ("tutte_pointwise", "violated at (x,y)=(1,1)"),
        ("heat_trace_frac", "violated at t=1/64"),
        ("spectral_decreasing_convex", "violated at exp_decay(1/64)"),
    ],
)
def test_a_violated_grid_names_its_first_violated_point(ineq, note):
    r = check(ineq, _SUBGRAPH_G, K3, params={"hypothesis": "subgraph"})
    first = next(p for p in r.points if p.verdict == VIOLATED)
    assert (r.verdict, r.notes, r.lhs, r.rhs) == (VIOLATED, [note], first.lhs, first.rhs)
    assert note == f"violated at {first.label}"


def test_check_rejects_a_hypothesis_it_cannot_honour():
    # an id that takes H needs a relation hypothesis; one that takes none, "params"
    for hypothesis in ("bogus", "params"):
        with pytest.raises(ValueError, match="expected one of"):
            check("char_poly", _SUBGRAPH_G, K3, params={"hypothesis": hypothesis})
    ab = {"a": [0, 1], "b": [1, 2]}
    for hypothesis in ("bogus", "tiling", "subgraph"):
        with pytest.raises(ValueError, match="expected one of"):
            check("koteljanskii_step", K4, params={**ab, "hypothesis": hypothesis})
    r = check("koteljanskii_step", K4, params={**ab, "hypothesis": "params"})
    assert r.verdict == check("koteljanskii_step", K4, params=ab).verdict


def test_coupling_certifies_subgraph():
    cert = check_domination(K4, K3)
    assert verify_relation_hypothesis("subgraph", K4, K3, cert) == (True, cert)


def test_no_violation_is_proven_under_any_relation_hypothesis():
    # every id that takes H, under every relation hypothesis, on 300 small
    # seeded pairs (G up to 9 vertices, H up to 4): a claim reported proven
    # must never be violated
    ids = [ineq for ineq, entry in INEQUALITIES.items() if entry.takes_h]
    violated = 0
    for trial in range(300):
        rng = Stream(derive_seed(5, trial))
        g = random_connected_graph(rng, rng.randint(2, 9))
        h = random_connected_graph(rng, rng.randint(1, min(4, g.n)))
        for hypothesis in (*RELATIONS, "subgraph"):
            for ineq in ids:
                r = check(ineq, g, h, params={"hypothesis": hypothesis})
                if r.verdict == VIOLATED:
                    violated += 1
                    assert r.status != PROVEN, (ineq.value, hypothesis, r.g, r.h)
    assert violated > 0  # the sweep reaches claims that fail


def _reweighted(g: Multigraph, rng: random.Random, weights: tuple) -> Multigraph:
    return Multigraph(g.n, [(u, v, m, rng.choice(weights)) for u, v, m, _ in g.edges])


def test_no_violation_is_proven_on_reweighted_pairs():
    # the relations read multiplicities only, so reweighting a generated pair
    # keeps its certificate; 120 seed-2024 overlay pairs per tiling relation
    # (G up to 8 vertices, H up to 4), reweighted twice each: H's edges from
    # {1, 2, 3}, and G's from {1/2, 1, 2}.  Every id proven for unit weights
    # under the relation is checked, and none may be both violated and proven
    rng = random.Random(1)
    violated = 0
    for relation in ("tiling", "fractional_tiling"):
        ids = [ineq for ineq, entry in INEQUALITIES.items() if entry.takes_h and claim_status(ineq, relation) == PROVEN]
        gen = PairGenerator("overlay_copies", 2024, relation=relation, max_g=8, max_h=4)
        for trial in range(120):
            p = generate_pair(gen, trial)
            for g, h in ((p.g, _reweighted(p.h, rng, (1, 2, 3))), (_reweighted(p.g, rng, (Fraction(1, 2), 1, 2)), p.h)):
                for ineq in ids:
                    r = check(ineq, g, h, params={"hypothesis": relation, "certificate": p.certificate})
                    if r.verdict == VIOLATED:
                        violated += 1
                        assert r.status != PROVEN, (ineq.value, relation, r.g, r.h)
    assert violated > 0  # the weights break claims that unit weights prove


# P4 and C4 are tiled by an edge of weight 3, and so is a 4-vertex path
# whose copies carry weight 3 but whose middle edge weighs 1/1000
_WEIGHTED_COUNTEREXAMPLES = [
    ("4; 0 1; 0 2; 1 3", "fractional_tiling", 1),
    ("4; 0 1; 1 2; 2 3; 0 3", "tiling", 4),
    ("4; 0 1 1 3; 2 3 1 3; 1 2 1 1/1000", "tiling", Fraction(9, 1000)),
]


@pytest.mark.parametrize("ineq", ["spanning_tree", "frac_tiling_tree"])
@pytest.mark.parametrize("g, hypothesis, lhs", _WEIGHTED_COUNTEREXAMPLES)
def test_tree_ratio_is_known_false_on_weighted_tilings(ineq, g, hypothesis, lhs):
    r = check(ineq, parse_graph(g), parse_graph("2; 0 1 1 3"), params={"hypothesis": hypothesis})
    assert (r.hypothesis_ok, r.verdict, r.status, r.lhs, r.rhs) == (True, VIOLATED, KNOWN_FALSE, lhs, 3)


def test_a_weighted_claim_is_proven_only_where_its_entry_names_the_weights():
    for ineq, entry in INEQUALITIES.items():
        for hypothesis in _HYPOTHESES[:-1] if entry.takes_h else ("params",):
            unit = claim_status(ineq, hypothesis)
            weighted = claim_status(ineq, hypothesis, unit_weights=False)
            if entry.weights is not None or unit != PROVEN:
                assert weighted == unit, (ineq.value, hypothesis)
            elif hypothesis in entry.weighted_false:
                assert weighted == KNOWN_FALSE, (ineq.value, hypothesis)
            else:
                assert weighted in (CONJECTURED, KNOWN_FALSE), (ineq.value, hypothesis)
    # the counts read no weight; the heat comparison's hypothesis bounds them
    assert claim_status(InequalityId.VERTEX_COUNTING, "tiling", unit_weights=False) == PROVEN
    assert claim_status(InequalityId.WEIGHTED_COVER_HEAT, "params", unit_weights=False) == PROVEN
    assert claim_status(InequalityId.KOTELJANSKII_STEP, "params", unit_weights=False) == CONJECTURED


def test_report_json_roundtrippable():
    import json

    r = check("heat_trace_frac", K4, K3)
    payload = json.dumps(r.to_json(), sort_keys=True)
    back = json.loads(payload)
    assert back["inequality"] == "heat_trace_frac"
    assert back["verdict"] == HOLDS
    assert len(back["points"]) == 13


def test_colorings_vs_edge_under_domination_holds():
    # unlike independent sets, the coloring comparison against an edge
    # survives bare domination (checked exhaustively at desk scale)
    for g in atlas_up_to(6):
        if g.n < 2:
            continue
        for q in (2, 3, 4):
            r = check(
                "vertex_counting",
                g,
                EDGE,
                params={"family": "proper_colorings", "q": q, "hypothesis": "domination"},
            )
            assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY), (g.edges, q, r.to_json())


def test_every_connected_graph_with_two_vertices_dominates_an_edge():
    from gdom.relations import check_domination

    for g in atlas_up_to(5):
        cert = check_domination(g, EDGE)
        assert (cert is not None) == (g.n >= 2)


# -- mini soundness sweep (the full one is in test_acceptance) -------------------------


def test_theorem_soundness_small():
    graphs = atlas_up_to(4)
    for g in graphs:
        for h in graphs:
            if h.n > g.n:
                continue
            r = check("tree_product", g, h)
            assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY, HYPOTHESIS_FAILED)
            r = check("frac_tiling_tree", g, h)
            assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY, HYPOTHESIS_FAILED)
            r = check("transitive_H", g, h)
            assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY, HYPOTHESIS_FAILED)
            r = check("char_poly", g, h)
            assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY, HYPOTHESIS_FAILED)


# -- Shearer -----------------------------------------------------------------------


def _uniform_bits(k):
    return JointDistribution(
        k, {tuple(b >> i & 1 for i in range(k)): Fraction(1, 2**k) for b in range(2**k)}
    )


def test_shearer_independent_bits_equality():
    r = check_shearer(_uniform_bits(2), [[0], [1]], 1)
    assert r.verdict in (HOLDS_WITH_EQUALITY, INCONCLUSIVE)
    assert abs(r.lhs - r.rhs) < 1e-9


def test_shearer_correlated_bits_strict():
    d = JointDistribution(2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    r = check_shearer(d, [[0], [1]], 1)
    assert r.verdict == HOLDS
    assert abs(r.lhs - 0.6931471805599453) < 1e-12
    assert abs(r.rhs - 2 * 0.6931471805599453) < 1e-12


def test_shearer_regularity_enforced():
    with pytest.raises(ValueError):
        check_shearer(_uniform_bits(2), [[0, 1], [0], [1]], 1)
    with pytest.raises(ValueError):
        check_shearer(_uniform_bits(2), [[0], [1]], 0)


def test_shearer_double_cover():
    d = _uniform_bits(3)
    cover = [[0, 1], [1, 2], [0, 2]]
    r = check_shearer(d, cover, 2)
    assert r.verdict in (HOLDS, HOLDS_WITH_EQUALITY, INCONCLUSIVE)


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution(2, {(0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        JointDistribution(1, {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        JointDistribution(1, {(0,): Fraction(0), (1,): Fraction(1)})


def test_entropy_values():
    assert entropy_nats({(0,): Fraction(1)}) == 0.0
    import math

    assert abs(entropy_nats({(0,): Fraction(1, 2), (1,): Fraction(1, 2)}) - math.log(2)) < 1e-15
