import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gdom import spectral
from gdom.multigraph import Multigraph, complete_graph, path_graph, single_edge
from gdom.search import PairGenerator, generate_pair
from gdom.spectral import (
    EigensolverError,
    FunctionalSpec,
    eigenvalues,
    exp_decay,
    heat_trace,
    hinge,
    jacobi_eigenvalues,
    shifted_determinant_exact,
    shifted_inverse,
    spectral_functional,
)

from conftest import atlas_up_to, heat_trace_derivative_at_zero, random_connected


def test_k2_spectrum():
    spec = eigenvalues(single_edge())
    assert len(spec.values) == 2
    assert abs(spec.values[0]) < 1e-12 and abs(spec.values[1] - 2) < 1e-12


def test_zero_eigenvalues_are_exact_one_per_component(monkeypatch):
    assert eigenvalues(complete_graph(4)).values[0] == 0.0
    two_edges = Multigraph(4, [(0, 1), (2, 3)], _validated=True)
    assert eigenvalues(two_edges).values[:2] == [0.0, 0.0] and eigenvalues(two_edges).values[2] > 0.5
    # a smallest value farther from 0 than the residual allows is the solver's failure
    monkeypatch.setattr(spectral, "jacobi_eigenvalues", lambda a: spectral.Spectrum([0.5, 2.0], 1e-3))
    with pytest.raises(EigensolverError):
        eigenvalues(Multigraph(2, [(0, 1, 1, Fraction(7, 9973))]))


def test_the_budget_is_taken_above_the_pinned_zeros():
    # the zeros are exact, and by Weyl the other eigenvalues lie within the
    # residual of theirs, so no lower than the smallest of them minus it
    s = eigenvalues(Multigraph(4, [(0, 1), (2, 3)], _validated=True))
    assert s.zeros == 2 and s.values[:2] == [0.0, 0.0] and 0 < s.residual < 1e-12
    lo = s.values[2] - s.residual
    assert s.functional_error(exp_decay(1)) == math.exp(-lo) * s.residual + 1e-14 * 2.0 * 4
    assert s.functional_error(shifted_inverse(1)) == 1.0 / (lo + 1.0) ** 2 * s.residual + 1e-14 * 2.0 * 4
    # hinge's Lipschitz constant is 1 on any interval, so its budget is as it was
    assert s.functional_error(hinge(4)) == 1.0 * s.residual + 1e-14 * 5.0 * 4


def test_complete_graph_spectra():
    for n in (3, 4):
        spec = eigenvalues(complete_graph(n))
        assert abs(spec.values[0]) < 1e-10
        for v in spec.values[1:]:
            assert abs(v - n) < 1e-10


def test_weight_scaling_linearity():
    g = path_graph(4)
    scaled = Multigraph(4, [(u, v, m, w * 3) for u, v, m, w in g.edges])
    a, b = eigenvalues(g).values, eigenvalues(scaled).values
    for x, y in zip(a, b):
        assert abs(3 * x - y) < 1e-9


def test_spectra_against_numpy_oracle():
    rng = random.Random(5)
    for _ in range(40):
        g = random_connected(rng, rng.randint(2, 10), extra=rng.randint(0, 6), weighted=True)
        mine = eigenvalues(g).values
        ref = sorted(np.linalg.eigvalsh(np.array([[float(x) for x in r] for r in g.laplacian()])))
        assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-9


def _fraction_laplacian(g):
    """The Laplacian built entirely from Fractions."""
    L = [[Fraction(0)] * g.n for _ in range(g.n)]
    for u, v, m, w in g.edges:
        L[u][v] -= m * w
        L[v][u] -= m * w
        L[u][u] += m * w
        L[v][v] += m * w
    return L


def test_spectra_bit_identical_to_fraction_laplacian():
    rng = random.Random(11)
    graphs = atlas_up_to(6) + [
        random_connected(rng, rng.randint(2, 9), extra=rng.randint(0, 6), weighted=True)
        for _ in range(60)
    ]
    for g in graphs:
        ref = jacobi_eigenvalues([[float(x) for x in row] for row in _fraction_laplacian(g)])
        # the zero eigenvalue of a connected graph is pinned to an exact 0.0
        assert abs(ref.values[0]) <= ref.residual
        assert eigenvalues(g).values == [0.0] + ref.values[1:]


def test_trace_identity():
    rng = random.Random(9)
    for _ in range(30):
        g = random_connected(rng, rng.randint(2, 8), extra=3, weighted=True)
        spec = eigenvalues(g)
        exact = float(sum(row[i] for i, row in enumerate(g.laplacian())))
        assert abs(sum(spec.values) - exact) <= 1e-8 * max(1.0, abs(exact))


def test_psd_and_constant_kernel():
    rng = random.Random(13)
    for _ in range(30):
        g = random_connected(rng, rng.randint(2, 8), extra=2, weighted=True)
        spec = eigenvalues(g)
        assert spec.values[0] >= -1e-9
        assert abs(spec.values[0]) < 1e-9  # connected: single zero eigenvalue
        L = g.laplacian()
        assert all(sum(row) == 0 for row in L)  # constants are in the kernel, exactly


def test_heat_trace_examples():
    assert heat_trace(complete_graph(3), 0.0) == 1.0
    expect = 0.25 + 0.75 * math.exp(-4)
    assert abs(heat_trace(complete_graph(4), 1.0) - expect) < 1e-12
    assert abs(heat_trace(complete_graph(3), 500.0) - 1 / 3) < 1e-12


def test_heat_trace_range_and_monotonicity():
    rng = random.Random(21)
    ts = [2.0**k for k in range(-6, 7)]
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 7), extra=2)
        curve = [(t, heat_trace(g, t)) for t in ts]
        vals = [v for _, v in curve]
        # open interval (1/n, 1] mathematically; the zero eigenvalue carries
        # O(1e-16) noise that t <= 64 amplifies, so allow that much slack
        assert all(1 / g.n - 1e-12 <= v <= 1.0 + 1e-12 for v in vals)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))  # nonincreasing
        # convex in t: second differences of a convex function on any grid
        for (t0, v0), (t1, v1), (t2, v2) in zip(curve, curve[1:], curve[2:]):
            lam = (t1 - t0) / (t2 - t0)
            assert v1 <= (1 - lam) * v0 + lam * v2 + 1e-10


def test_functional_examples():
    assert abs(spectral_functional(single_edge(), hinge(4)) - 3.0) < 1e-12
    assert spectral_functional(complete_graph(4), exp_decay(1)) == heat_trace(complete_graph(4), 1.0)
    assert abs(spectral_functional(single_edge(), shifted_inverse(1)) - 2 / 3) < 1e-12


def test_functional_flags():
    with pytest.raises(ValueError):
        FunctionalSpec("exp_decay", Fraction(-1))
    with pytest.raises(ValueError):
        FunctionalSpec("nonsense", Fraction(1))
    with pytest.raises(ValueError):  # log(s + t) is decided by exact determinants instead
        FunctionalSpec("shifted_log", Fraction(1))


def test_a_functional_is_its_family_and_parameter():
    # the float that evaluations read is kept, but equality, hashing and
    # describe() see only the two fields
    a, b = shifted_inverse(Fraction(1, 3)), FunctionalSpec("shifted_inverse", Fraction(2, 6))
    assert a == b and hash(a) == hash(b) and a.describe() == "shifted_inverse(1/3)"
    assert a(0.0) == 1.0 / (1 / 3) and a.lipschitz_on(0.0, 1.0) == 1.0 / (1 / 3) ** 2
    assert a != exp_decay(Fraction(1, 3))


@pytest.mark.parametrize("exponent", [200, 400])
def test_a_shifted_inverse_parameter_whose_float_square_is_zero_is_rejected(exponent):
    with pytest.raises(ValueError, match="too small"):
        shifted_inverse(Fraction(1, 10**exponent))
    spec = shifted_inverse(Fraction(1, 10**150))  # its square is a float: 1e-300
    assert spec.lipschitz_on(0.0, 1.0) > 0


def test_shifted_determinants():
    assert shifted_determinant_exact(complete_graph(4), Fraction(1)) == 125
    assert shifted_determinant_exact(complete_graph(3), Fraction(1)) == 16


def test_log_det_equals_shifted_log_functional():
    rng = random.Random(33)
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 7), extra=3, weighted=True)
        t = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        d = shifted_determinant_exact(g, t)
        exact = (math.log(d.numerator) - math.log(d.denominator)) / g.n
        viaspec = sum(math.log(max(v, 0.0) + t) for v in eigenvalues(g).values) / g.n
        assert abs(exact - viaspec) <= 1e-8 * max(1.0, abs(exact))


def test_derivative_at_zero():
    assert heat_trace_derivative_at_zero(single_edge()) == -1
    assert heat_trace_derivative_at_zero(complete_graph(4)) == -3
    g = path_graph(3)
    doubled = Multigraph(3, [(u, v, m, 2 * w) for u, v, m, w in g.edges])
    assert heat_trace_derivative_at_zero(doubled) == 2 * heat_trace_derivative_at_zero(g)


def test_finite_difference_matches_derivative():
    rng = random.Random(37)
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 8), extra=2, weighted=True)
        exact = float(heat_trace_derivative_at_zero(g))
        # Richardson consistency: error shrinks like O(eps)
        errs = []
        for eps in (1e-3, 1e-4):
            fd = (heat_trace(g, eps) - 1.0) / eps
            errs.append(abs(fd - exact) / abs(exact))
        assert errs[1] < 1e-2
        assert errs[1] < errs[0] + 1e-12


def test_eigenvalue_monotonicity_under_weight_decrease():
    rng = random.Random(41)
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 7), extra=3, weighted=True)
        reduced = Multigraph(
            g.n,
            [
                (u, v, m, w * Fraction(rng.randint(1, 4), 4))
                for u, v, m, w in g.edges
            ],
        )
        big = eigenvalues(g).values
        small = eigenvalues(reduced).values
        for a, b in zip(big, small):
            assert a >= b - 1e-9


def test_jacobi_nonconvergence_guard():
    spec = jacobi_eigenvalues([[2.0]])
    assert spec.values == [2.0]


def test_ql_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_QL_STEPS", 0)
    with pytest.raises(EigensolverError):
        jacobi_eigenvalues([[2.0, -1.0], [-1.0, 2.0]])


def test_residual_bounds_true_eigenvalues():
    gen = PairGenerator("overlay_copies", 7, max_g=10, max_h=5)
    pairs = [generate_pair(gen, trial) for trial in range(200)]
    rng = random.Random(17)
    weighted = [
        random_connected(rng, n, extra=rng.randint(0, 2 * n), weighted=True)
        for n in (rng.randint(2, 12) for _ in range(200))
    ]
    graphs = atlas_up_to(6) + [g for p in pairs for g in (p.g, p.h)] + weighted
    for g in graphs:
        L = [[float(x) for x in row] for row in g.laplacian()]
        spec = jacobi_eigenvalues(L)
        with mpmath.workdps(40):
            exact = sorted(mpmath.eigsy(mpmath.matrix(L), eigvals_only=True))
            for computed, true in zip(spec.values, exact):
                assert abs(mpmath.mpf(computed) - true) <= spec.residual, (g, computed, true, spec.residual)
