"""Shared memo caches are concurrently usable; results are schedule-independent."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from gdom.counting import count_forests, tutte_polynomial
from gdom.embeddings import embeddings_iter, enumerate_copies
from gdom.multigraph import Multigraph
from gdom.spectral import heat_trace
from gdom.symmetry import cached_code

from conftest import atlas_up_to, bound_memos, random_connected


def _tutte_and_codes():
    rng = random.Random(71)
    graphs = [random_connected(rng, rng.randint(3, 6), extra=rng.randint(0, 4)) for _ in range(24)]
    graphs *= 3  # overlapping work shares the memo caches

    expected = {g: tutte_polynomial(g) for g in set(graphs)}
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(tutte_polynomial, graphs, timeout=120))
    for g, res in zip(graphs, results):
        assert res == expected[g]

    with ThreadPoolExecutor(max_workers=8) as pool:
        codes = list(pool.map(cached_code, graphs, timeout=120))
    for g, code in zip(graphs, codes):
        assert code == cached_code(g)


def test_concurrent_tutte_and_codes_consistent():
    _tutte_and_codes()


def _mixed_counters():
    graphs = [g for g in atlas_up_to(5) if g.edge_unit_count() <= 8]

    def work(g):
        return count_forests(g), heat_trace(g, 1.0)

    baseline = [work(g) for g in graphs]
    with ThreadPoolExecutor(max_workers=6) as pool:
        concurrent = list(pool.map(work, graphs, timeout=120))
    assert concurrent == baseline


def test_concurrent_mixed_counters():
    _mixed_counters()


def _shared_search_plans():
    rng = random.Random(72)
    graphs = [random_connected(rng, rng.randint(5, 8), extra=rng.randint(2, 8)) for _ in range(12)]
    shapes = [(4, [(0, 1), (1, 2), (2, 3)]), (3, [(0, 1), (1, 2), (0, 2)]), (4, [(0, 1), (0, 2), (0, 3), (1, 2)])]

    def work(job):
        g, (n, pairs), weight = job
        h = Multigraph(n, [(u, v, 1, weight) for u, v in pairs])
        return list(embeddings_iter(g, h)), [(c, c.image) for c in enumerate_copies(g, h).copies]

    jobs = [(g, shape, Fraction(1, 7907)) for g in graphs for shape in shapes] * 3
    rng.shuffle(jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-plan
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(work, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (g, shape, _), res in zip(jobs, results):
        assert res == work((g, shape, Fraction(1, 7919))), (g, shape)


def test_concurrent_searches_share_search_plans():
    """Threads that search equal H at once build and share one plan per H
    value, and each search yields what a solo run on a separately planned
    equal H yields.  The weights, which the search ignores, make every H
    value new to the plan memo."""
    _shared_search_plans()


def test_shared_memos_under_eviction(monkeypatch):
    """With every memo bounded at 4 entries, threads drop the entries that
    others are about to read or replace, and every result is still the one
    that a serial run gives."""
    bound_memos(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _tutte_and_codes()
        _mixed_counters()
        _shared_search_plans()
    finally:
        sys.setswitchinterval(interval)
