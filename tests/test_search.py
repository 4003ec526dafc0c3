import hashlib
import json
from collections import Counter

import pytest

from gdom import checks, multigraph, relations, search, spectral
from gdom.checks import VIOLATED
from gdom.relations import verify_certificate
from gdom.rng import Stream, derive_seed
from gdom.search import (
    GenerationError,
    PairGenerator,
    generate_pair,
    hunt,
    overlay_copies,
    random_connected_graph,
    random_connected_subgraph,
    random_regular_cover,
    transitive_catalog,
)
from gdom.spectral import EigensolverError, hinge
from gdom.symmetry import is_transitive


def test_catalog_is_transitive():
    for g in transitive_catalog(8):
        assert is_transitive(g), g


def test_catalog_is_built_once_per_size():
    catalog = transitive_catalog(8)
    assert isinstance(catalog, tuple) and transitive_catalog(8) is catalog
    assert transitive_catalog(6) == tuple(g for g in catalog if g.n <= 6)


def test_random_connected_graph_connected():
    rng = Stream(5)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(1, 9))
        assert g.is_connected()


@pytest.mark.parametrize("strategy", search.STRATEGIES)
def test_proposals_are_connected(strategy):
    """The generators build connected graphs by construction and skip the
    connectivity walk; the walk, called here, agrees on every proposal."""
    gen = PairGenerator(strategy, seed=0, max_g=10, max_h=5)
    for seed in range(200):
        for attempt in range(4):
            g, h, _ = search._propose(Stream(derive_seed(seed, attempt)), gen)
            assert g.is_connected() and h.is_connected(), (strategy, seed, attempt)


def test_random_subgraph_is_a_copy():
    from gdom.embeddings import embeddings_iter

    rng = Stream(6)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 8), extra_hi=4)
        h, _ = random_connected_subgraph(rng, g, rng.randint(1, g.n))
        assert h.is_connected()
        assert next(embeddings_iter(g, h), None) is not None


def test_overlay_covers_every_vertex():
    from conftest import covers_every_vertex

    rng = Stream(87)
    for _ in range(20):
        h = random_connected_graph(rng, rng.randint(2, 4), extra_hi=2)
        g, _ = overlay_copies(rng, h, rng.randint(2, 4), 10)
        assert g.n <= 10
        assert covers_every_vertex(g, h)


def test_generate_pair_deterministic_and_verified():
    gen = PairGenerator("transitive_catalog", seed=7, relation="domination", max_g=10, max_h=5)
    a = generate_pair(gen, 3)
    b = generate_pair(gen, 3)
    assert a.g == b.g and a.h == b.h
    assert verify_certificate(a.g, a.h, a.certificate)


@pytest.mark.parametrize("strategy, seed", [("overlay_copies", 2024), ("transitive_catalog", 7)])
def test_proposal_embeddings_change_no_generated_pair(monkeypatch, strategy, seed):
    """The embeddings a proposal was built from only speed the domination
    decider up: every trial gives the same pair after the same attempts."""
    gen = PairGenerator(strategy, seed=seed, relation="domination", max_g=10, max_h=5)
    seeded = [generate_pair(gen, trial) for trial in range(200)]
    verify = search.verify_relation_hypothesis
    monkeypatch.setattr(
        search, "verify_relation_hypothesis", lambda hyp, g, h, known=(): verify(hyp, g, h)
    )
    for a in seeded:
        b = generate_pair(gen, a.trial)
        assert (a.g, a.h, a.attempts) == (b.g, b.h, b.attempts), a.trial
        assert verify_certificate(a.g, a.h, a.certificate), a.trial


def test_proposals_carry_embeddings_of_h_in_g():
    from gdom.relations import _is_embedding

    for strategy in ("overlay_copies", "transitive_catalog"):
        gen = PairGenerator(strategy, seed=5, max_g=10, max_h=5)
        for attempt in range(100):
            g, h, known = search._propose(Stream(attempt), gen)
            assert known and all(_is_embedding(g, h, emb) for emb in known), (strategy, attempt)
    g, h, known = search._propose(Stream(0), PairGenerator("random_connected_pair", seed=5))
    assert known == []


def test_generate_fractional_tiling_pairs():
    gen = PairGenerator("transitive_catalog", seed=11, relation="fractional_tiling", max_g=8, max_h=4)
    for trial in range(5):
        p = generate_pair(gen, trial)
        assert p.certificate.mode == "vertex"
        assert verify_certificate(p.g, p.h, p.certificate)


def test_generate_edge_tiling_pairs():
    gen = PairGenerator(
        "transitive_catalog", seed=13, relation="fractional_edge_tiling", max_g=8, max_h=4
    )
    p = generate_pair(gen, 0)
    assert p.certificate.mode == "edge"
    assert verify_certificate(p.g, p.h, p.certificate)


def test_unknown_strategy_and_relation():
    with pytest.raises(ValueError):
        PairGenerator("bogus", seed=1)
    gen = PairGenerator("overlay_copies", seed=1, relation="bogus")
    with pytest.raises(ValueError):
        generate_pair(gen, 0)


def test_hunt_theorem_finds_nothing():
    gen = PairGenerator("random_connected_pair", seed=3, relation="subgraph", max_g=7, max_h=4)
    res = hunt("tree_product", gen, 40)
    assert res.violations == [] and res.checked == 40


def test_hunt_finds_hinge_counterexample():
    gen = PairGenerator("overlay_copies", seed=2024, relation="domination", max_g=10, max_h=5)
    res = hunt(
        "spectral_decreasing_convex",
        gen,
        800,
        params={"functional": hinge(4), "hypothesis": "domination"},
    )
    assert len(res.violations) >= 1
    v = res.violations[0]
    assert v.report.verdict == VIOLATED
    assert v.report.lhs > v.report.rhs
    # reproduction data present
    assert v.g and v.h and v.trial >= 0


def _criterion_9_hunt(trials: int):
    gen = PairGenerator("overlay_copies", seed=2024, relation="domination", max_g=10, max_h=5)
    return hunt("spectral_decreasing_convex", gen, trials, params={"functional": hinge(4), "hypothesis": "domination"})


def test_hinge_hunt_record_is_pinned():
    res = _criterion_9_hunt(1000)
    assert [v.trial for v in res.violations] == [747, 875, 944]
    record = {key: value for key, value in res.to_json().items() if key != "elapsed"}
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == "bb7a0fee5946242ecf814ccb6e4cd824e39c75fb4dd6be813ed11f0506c094ae"


def test_a_trial_writes_json_only_for_a_violation_and_reads_each_spectrum_once(monkeypatch):
    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in (
        (multigraph, "serialize_graph"),
        (checks, "serialize_graph"),
        (relations, "certificate_to_json"),
        (checks, "certificate_to_json"),
        (spectral, "eigenvalues"),
    ):
        spy(module, name)
    res = _criterion_9_hunt(1000)
    assert len(res.violations) == 3 and res.checked > 900
    # G and H of each violation, once each; no certificate until a report is written
    assert calls["serialize_graph"] == 2 * len(res.violations)
    assert calls["certificate_to_json"] == 0
    assert calls["eigenvalues"] == 2 * res.checked


def test_hunt_reports_are_reproducible():
    gen = PairGenerator("overlay_copies", seed=99, relation="domination", max_g=8, max_h=4)
    r1 = hunt("spanning_tree", gen, 25)
    r2 = hunt("spanning_tree", gen, 25)
    assert [v.trial for v in r1.violations] == [v.trial for v in r2.violations]
    assert r1.checked == r2.checked


def test_hunt_vertex_counting_finds_star_type_violation():
    # trees with pendant-heavy shapes violate the independent-set comparison
    # under bare domination; H is an edge
    gen = PairGenerator("random_connected_pair", seed=17, relation="domination", max_g=7, max_h=2)
    res = hunt("vertex_counting", gen, 300, params={"family": "independent_sets"})
    assert len(res.violations) >= 1


def test_hunt_proven_spectral_ids_never_violate():
    # p.opmon is a theorem under domination: char_poly and op_monotone, both exact
    gen = PairGenerator("overlay_copies", seed=31, relation="domination", max_g=8, max_h=4)
    res = hunt("char_poly", gen, 250)
    assert res.violations == [], res.summary()
    res = hunt("op_monotone", gen, 250)
    assert res.violations == [], res.summary()
    # the heat-trace comparison is a theorem under fractional tiling
    genf = PairGenerator("transitive_catalog", seed=32, relation="fractional_tiling", max_g=8, max_h=4)
    res = hunt("heat_trace_frac", genf, 150)
    assert res.violations == [], res.summary()


def test_hunt_param_ids():
    gen = PairGenerator("random_connected_pair", seed=5, relation="domination", max_g=7)
    res = hunt("koteljanskii_step", gen, 60)
    assert res.violations == []
    res = hunt("cover_product", gen, 40)
    assert res.violations == []
    res = hunt("weighted_cover_heat", gen, 20)
    assert res.violations == []


def test_hunt_reads_its_params_once_before_any_trial(monkeypatch):
    # a value for a key the hunt draws per trial would be recorded yet never used
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(search, "generate_pair", no_trial)
    monkeypatch.setattr(search, "check", no_trial)
    gen = PairGenerator("random_connected_pair", seed=5, relation="domination", max_g=7)
    for ineq, params, message in (
        ("koteljanskii_step", {"a": [0, 1], "b": [1, 2]}, "draws 'a' itself"),
        ("cover_product", {"cover": [[0]]}, "draws 'cover' itself"),
        ("weighted_cover_heat", {"weighted_cover": []}, "draws 'weighted_cover' itself"),
        ("spanning_tree", {"certificate": {"type": "tiling", "copies": []}}, "draws 'certificate' itself"),
        ("spanning_tree", {"q": 3}, "reads no parameter 'q'"),
        ("heat_trace_frac", {"t_grid": "1/0"}, "zero denominator"),
        ("vertex_counting", {"family": "weighted_homomorphisms"}, "needs params\\['hom_target'\\]"),
    ):
        with pytest.raises(ValueError, match=message):
            hunt(ineq, gen, 5, params)


def test_hunt_refuses_a_negative_trial_count(monkeypatch):
    gen = PairGenerator("random_connected_pair", seed=5, relation="domination", max_g=7)
    assert hunt("spanning_tree", gen, 0).checked == 0

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(search, "generate_pair", no_trial)
    with pytest.raises(ValueError, match="trials must be >= 0, not -3"):
        hunt("spanning_tree", gen, -3)


def test_random_regular_cover():
    rng = Stream(8)
    for _ in range(20):
        n = rng.randint(1, 9)
        rounds = rng.randint(1, 3)
        cover = random_regular_cover(rng, n, rounds)
        counts = [0] * n
        for s in cover:
            for v in s:
                counts[v] += 1
        assert all(c == rounds for c in counts)


def test_hunt_result_json():
    gen = PairGenerator("overlay_copies", seed=1, relation="domination", max_g=6, max_h=3)
    res = hunt("spanning_tree", gen, 10)
    payload = res.to_json()
    assert payload["trials"] == 10 and payload["inequality"] == "spanning_tree"


@pytest.mark.parametrize("exc", [RecursionError, EigensolverError])
def test_hunt_survives_a_failed_trial(monkeypatch, exc):
    calls = [0]
    real_check = search.check

    def flaky(ineq, g, h, params):
        calls[0] += 1
        if calls[0] == 4:
            raise exc("injected")
        return real_check(ineq, g, h, params)

    monkeypatch.setattr(search, "check", flaky)
    gen = PairGenerator("overlay_copies", seed=1, relation="domination", max_g=6, max_h=3)
    res = hunt("spanning_tree", gen, 10)
    assert res.generation_failures == 0 and res.checked == 9
    assert res.failed_trials == [3] and res.errors == {exc.__name__: 1}
    payload = res.to_json()
    assert payload["failed_trials"] == [3] and payload["errors"] == {exc.__name__: 1}
    assert f"failed trials [3], 1 {exc.__name__})" in res.summary()
