"""Laplacian spectra, heat-kernel traces, and spectral functionals.

Eigenvalues come from a cyclic Jacobi sweep on the symmetric Laplacian;
floating point enters only here.  Shifted determinants stay exact
(Bareiss over rationals) so the operator-monotone checks can be decided
by big-integer comparison, with floats only for roots and logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .counting import rational_determinant
from .multigraph import Memo, Multigraph

DEFAULT_TOLERANCE = 1e-12
MAX_SWEEPS = 100

FUNCTIONAL_FAMILIES = ("exp_decay", "hinge", "shifted_log", "shifted_inverse")


class EigensolverError(RuntimeError):
    pass


@dataclass
class Spectrum:
    values: list[float]  # ascending
    dimension: int
    residual: float  # bound on |lambda_computed - lambda_true| per eigenvalue

    def trace(self) -> float:
        return sum(self.values)


def _off_norm(a: list[list[float]]) -> float:
    n = len(a)
    return math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))


def jacobi_eigenvalues(matrix: Sequence[Sequence[float]]) -> Spectrum:
    """Cyclic Jacobi rotations; converges fast at desk scale (n <= 64)."""
    n = len(matrix)
    a = [list(map(float, row)) for row in matrix]
    if n == 1:
        return Spectrum(values=[a[0][0]], dimension=1, residual=0.0)
    scale = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n))) or 1.0
    for _ in range(MAX_SWEEPS):
        off = _off_norm(a)
        if off <= DEFAULT_TOLERANCE * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    else:
        raise EigensolverError(f"Jacobi did not converge in {MAX_SWEEPS} sweeps")
    off = _off_norm(a)
    values = sorted(a[i][i] for i in range(n))
    return Spectrum(values=values, dimension=n, residual=off)


_spectra = Memo()


def eigenvalues(g: Multigraph) -> Spectrum:
    """Sorted Laplacian eigenvalues with a residual bound; cached per graph."""
    key = (g.n, g.edges)
    hit = _spectra.get(key)
    if hit is not None:
        return hit
    L = [[float(x) for x in row] for row in g.laplacian()]
    return _spectra.put(key, jacobi_eigenvalues(L))


# -- functionals ----------------------------------------------------------


@dataclass(frozen=True)
class FunctionalSpec:
    """One of a closed family of spectral test functions.

    exp_decay(t):        s -> exp(-t s),   t > 0    decreasing convex
    hinge(c):            s -> max(c-s, 0)           decreasing convex
    shifted_log(t):      s -> log(s+t),    t > 0    increasing, operator monotone
    shifted_inverse(t):  s -> 1/(s+t),     t > 0    decreasing convex
    """

    family: str
    param: Fraction

    def __post_init__(self):
        if self.family not in FUNCTIONAL_FAMILIES:
            raise ValueError(f"unknown functional family {self.family!r}")
        if self.family != "hinge" and self.param <= 0:
            raise ValueError(f"{self.family} needs a positive parameter")

    @property
    def decreasing(self) -> bool:
        return self.family in ("exp_decay", "hinge", "shifted_inverse")

    @property
    def convex(self) -> bool:
        return self.family in ("exp_decay", "hinge", "shifted_inverse")

    @property
    def operator_monotone_increasing(self) -> bool:
        return self.family == "shifted_log"

    def __call__(self, s: float) -> float:
        p = float(self.param)
        if self.family == "exp_decay":
            return math.exp(-p * s)
        if self.family == "hinge":
            return max(p - s, 0.0)
        if self.family == "shifted_log":
            return math.log(s + p)
        return 1.0 / (s + p)

    def lipschitz_on(self, lo: float, hi: float) -> float:
        """A Lipschitz constant on [lo, hi], for error budgets."""
        p = float(self.param)
        if self.family == "exp_decay":
            return p * math.exp(-p * lo)
        if self.family == "hinge":
            return 1.0
        if self.family == "shifted_log":
            return 1.0 / (lo + p)
        return 1.0 / (lo + p) ** 2

    def describe(self) -> str:
        return f"{self.family}({self.param})"


def exp_decay(t) -> FunctionalSpec:
    return FunctionalSpec("exp_decay", Fraction(t))


def hinge(c) -> FunctionalSpec:
    return FunctionalSpec("hinge", Fraction(c))


def shifted_log(t) -> FunctionalSpec:
    return FunctionalSpec("shifted_log", Fraction(t))


def shifted_inverse(t) -> FunctionalSpec:
    return FunctionalSpec("shifted_inverse", Fraction(t))


def spectral_functional(g: Multigraph, spec: FunctionalSpec) -> float:
    """Normalized trace (1/|G|) sum f(lambda_i)."""
    eig = eigenvalues(g)
    return sum(spec(max(v, 0.0)) for v in eig.values) / g.n


def spectral_functional_error(g: Multigraph, spec: FunctionalSpec) -> float:
    """Bound on the error of spectral_functional from eigenvalue residuals."""
    eig = eigenvalues(g)
    hi = max(eig.values) + eig.residual if eig.values else 0.0
    lip = spec.lipschitz_on(0.0, hi)
    float_noise = 1e-14 * (1.0 + abs(spec(0.0))) * g.n
    return lip * eig.residual + float_noise


def heat_trace(g: Multigraph, t: float) -> float:
    """Mean return probability (1/|G|) sum_x p_t(x; G) = (1/|G|) sum exp(-t lambda_i)."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    eig = eigenvalues(g)
    return sum(math.exp(-t * max(v, 0.0)) for v in eig.values) / g.n


def heat_trace_derivative_at_zero(g: Multigraph) -> Fraction:
    """d/dt of the mean return probability at t = 0: -(2/|G|) sum of edge weights."""
    return Fraction(-2, g.n) * g.total_weight()


# -- exact shifted determinants ---------------------------------------------


def shifted_determinant_exact(g: Multigraph, t: Fraction) -> Fraction:
    """det(Laplacian + t I) as an exact rational; positive for t > 0."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("shift must be positive")
    L = g.laplacian()
    for i in range(g.n):
        L[i][i] += t
    return rational_determinant(L)


# -- raw traces on explicit Laplacians (for weighted covers) -----------------


def heat_trace_sum_from_matrix(matrix: list[list[Fraction]], t: float) -> float:
    """sum_x p_t(x) for an arbitrary PSD Laplacian-like matrix (not normalized)."""
    spec = jacobi_eigenvalues([[float(x) for x in row] for row in matrix])
    return sum(math.exp(-t * max(v, 0.0)) for v in spec.values)
