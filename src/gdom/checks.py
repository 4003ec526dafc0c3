"""Inequality checkers for the graph-comparison relations.

Each checker verifies its relation hypothesis first (producing a
certificate), then compares both sides.  Exact quantities are compared by
big-integer cross-exponentiation: a^(1/m) >= b^(1/n) iff a^n >= b^m for
positive exact values, so equality cases are decided, never guessed.  The
log-determinant family is exact too: (1/n) sum log(lambda_i + t) is
(1/n) log det(L + tI), so ``op_monotone`` and ``char_poly`` both compare
Bareiss determinants.  Only the remaining spectral functionals and the
entropy comparison are made in floating point under an explicit error
budget; a difference inside the budget is reported inconclusive, never a
false violation.  Continuous-parameter claims are checked on finite grids
named in the report; an empty grid is an error.

:data:`INEQUALITIES` is the one place an inequality is defined: for each
:class:`InequalityId` it holds the default hypothesis, the checker, the
params keys it reads, the hypotheses under which the claim is proven and
when it is known false.  :func:`check`, :func:`claim_status` and the hunt
read only that table.  Beside it, :data:`PARAMS` is the one place a check
parameter is defined: its parser, default and JSON writer.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import log
from typing import Callable, Optional, Sequence, Union

from . import counting, spectral
from .counting import Count, HomTarget
from .embeddings import embeddings_iter, enumerate_copies
from .multigraph import Multigraph, has_cut_edge, parse_graph, serialize_graph
from .relations import RELATIONS, Certificate, certificate_from_json, certificate_to_json, verify_certificate
from .spectral import FunctionalSpec, spectral_functional
from .symmetry import cached_code, is_transitive

HOLDS = "holds"
HOLDS_WITH_EQUALITY = "holds_with_equality"
VIOLATED = "violated"
HYPOTHESIS_FAILED = "hypothesis_failed"
INCONCLUSIVE = "inconclusive"

PROVEN = "proven"
CONJECTURED = "conjectured"
KNOWN_FALSE = "known_false"

SHEARER_BUDGET = 1e-9  # entropies are sums of float logs; a closer difference is inconclusive

# family -> the params keys it reads besides those of its id: the arguments,
# in order, that ``counting.count_<family>`` takes after the graph
VERTEX_FAMILIES = {
    "independent_sets": (),
    "proper_colorings": ("q",),
    "weighted_homomorphisms": ("hom_target", "hom_weights"),
}
EDGE_FAMILIES = dict.fromkeys(("acyclic_orientations", "forests", "matchings"), ())


class InequalityId(str, Enum):
    SPANNING_TREE = "spanning_tree"
    TREE_PRODUCT = "tree_product"
    MINOR_POWER = "minor_power"
    TRANSITIVE_G = "transitive_G"
    TRANSITIVE_H = "transitive_H"
    FRAC_TILING_TREE = "frac_tiling_tree"
    KOTELJANSKII_STEP = "koteljanskii_step"
    COVER_PRODUCT = "cover_product"
    HEAT_TRACE_FRAC = "heat_trace_frac"
    WEIGHTED_COVER_HEAT = "weighted_cover_heat"
    SPECTRAL_DECREASING_CONVEX = "spectral_decreasing_convex"
    OP_MONOTONE = "op_monotone"
    CHAR_POLY = "char_poly"
    VERTEX_COUNTING = "vertex_counting"
    EDGE_COUNTING = "edge_counting"
    MATCHINGS_LOWER = "matchings_lower"
    TUTTE_POINTWISE = "tutte_pointwise"
    TUTTE_COEFFICIENTS = "tutte_coefficients"


# relation hypothesis -> the hypotheses it implies, itself included; a
# domination coupling's witnesses are embeddings, so domination implies
# subgraph
_IMPLIES: dict[str, frozenset[str]] = {
    "tiling": frozenset({"tiling", "fractional_tiling", "domination", "subgraph"}),
    "fractional_tiling": frozenset({"fractional_tiling", "domination", "subgraph"}),
    "fractional_edge_tiling": frozenset({"fractional_edge_tiling", "subgraph"}),
    "domination": frozenset({"domination", "subgraph"}),
    "subgraph": frozenset({"subgraph"}),
}


# params keys that a report keeps in fields of their own
_OWN_FIELDS = ("hypothesis", "family", "certificate")


# -- report ------------------------------------------------------------------


def _value_repr(v) -> Optional[Union[str, float]]:
    """A float as itself, an exact value as its ``str``: "3", "1/2"."""
    return v if v is None or isinstance(v, float) else str(v)


@dataclass
class GridPoint:
    label: str
    lhs: Union[Fraction, float, int]
    rhs: Union[Fraction, float, int]
    verdict: str
    error_bound: float = 0.0

    def to_json(self) -> dict:
        return {
            "at": self.label,
            "lhs": _value_repr(self.lhs),
            "rhs": _value_repr(self.rhs),
            "verdict": self.verdict,
            "error_bound": self.error_bound,
        }


@dataclass
class CheckReport:
    """One check's outcome.  G, H and the hypothesis certificate are kept as
    values, ``graphs`` and ``cert``; :attr:`g`, :attr:`h`, :attr:`certificate`
    and :meth:`to_json` write them as edge-list text and certificate JSON
    only when read, so a hunt pays for that only on the reports it keeps."""

    inequality: str
    verdict: str
    hypothesis: str
    hypothesis_ok: bool
    status: str = CONJECTURED
    family: Optional[str] = None
    lhs: Optional[Union[Fraction, float, int]] = None
    rhs: Optional[Union[Fraction, float, int]] = None
    exact: bool = True
    error_bound: float = 0.0
    strictness: Optional[str] = None
    params: dict = field(default_factory=dict)
    points: list[GridPoint] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    graphs: tuple[Optional[Multigraph], Optional[Multigraph]] = (None, None)
    cert: Optional[Certificate] = None

    @property
    def g(self) -> Optional[str]:
        return None if self.graphs[0] is None else serialize_graph(self.graphs[0])

    @property
    def h(self) -> Optional[str]:
        return None if self.graphs[1] is None else serialize_graph(self.graphs[1])

    @property
    def certificate(self) -> Optional[dict]:
        return None if self.cert is None else certificate_to_json(self.cert)

    def to_json(self) -> dict:
        fields = {key: value for key, value in vars(self).items() if key not in ("graphs", "cert")}
        return {
            **fields,
            "g": self.g,
            "h": self.h,
            "certificate": self.certificate,
            "lhs": _value_repr(self.lhs),
            "rhs": _value_repr(self.rhs),
            "points": [p.to_json() for p in self.points],
        }


# -- grids and comparisons ------------------------------------------------------


def default_t_grid() -> list[Fraction]:
    return [Fraction(2) ** k for k in range(-6, 7)]


def default_xy_grid() -> list[tuple[Fraction, Fraction]]:
    axis = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    return [(x, y) for x in axis for y in axis]


def compare_exact(lhs: Count, rhs: Count, direction: str) -> str:
    if lhs == rhs:
        return HOLDS_WITH_EQUALITY
    if direction == "ge":
        return HOLDS if lhs > rhs else VIOLATED
    return HOLDS if lhs < rhs else VIOLATED


def compare_normalized_powers(a: Count, na: int, b: Count, nb: int, direction: str) -> str:
    """Compare a^(1/na) with b^(1/nb) exactly via a^nb vs b^na (a, b >= 0)."""
    if a < 0 or b < 0:
        raise ValueError("normalized power comparison needs nonnegative values")
    return compare_exact(Fraction(a) ** nb, Fraction(b) ** na, direction)


def compare_float(lhs: float, rhs: float, direction: str, budget: float) -> str:
    """Two floats within the budget of each other, equal ones included, are
    inconclusive: a float tie proves no equality, which only exact paths claim."""
    diff = lhs - rhs
    if abs(diff) <= budget:
        return INCONCLUSIVE
    if direction == "ge":
        return HOLDS if diff > 0 else VIOLATED
    return HOLDS if diff < 0 else VIOLATED


def aggregate_verdicts(verdicts: Sequence[str]) -> str:
    if not verdicts:
        return INCONCLUSIVE
    if any(v == VIOLATED for v in verdicts):
        return VIOLATED
    if any(v == HYPOTHESIS_FAILED for v in verdicts):
        return HYPOTHESIS_FAILED
    if any(v == INCONCLUSIVE for v in verdicts):
        return INCONCLUSIVE
    if all(v == HOLDS_WITH_EQUALITY for v in verdicts):
        return HOLDS_WITH_EQUALITY
    return HOLDS


# -- hypothesis verification -----------------------------------------------------


class MissingParameter(ValueError):
    pass


def _has_copy(g: Multigraph, h: Multigraph) -> bool:
    return next(embeddings_iter(g, h), None) is not None


def verify_relation_hypothesis(
    hypothesis: str,
    g: Multigraph,
    h: Multigraph,
    certificate: Optional[Certificate] = None,
    known: Sequence[tuple[int, ...]] = (),
) -> tuple[bool, Optional[Certificate]]:
    """Certify the relation hypothesis, reusing a supplied certificate if valid.

    ``known`` embeddings of H in G go to the domination decider alone, which
    walks them before its own search; no other hypothesis reads them.
    """
    if certificate is not None and hypothesis in _IMPLIES[certificate.relation]:
        if verify_certificate(g, h, certificate):
            return True, certificate
    if hypothesis == "subgraph":
        return _has_copy(g, h), None
    decider = RELATIONS.get(hypothesis)
    if decider is None:
        raise ValueError(f"unknown relation hypothesis {hypothesis!r}")
    cert = decider(g, h, known) if hypothesis == "domination" else decider(g, h)
    return cert is not None, cert


# -- family counters ---------------------------------------------------------------


def family_count(g: Multigraph, family: str, params: dict) -> Count:
    """``counting.count_<family>`` of g, given the params keys the family reads."""
    keys = {**VERTEX_FAMILIES, **EDGE_FAMILIES}[family]
    return getattr(counting, f"count_{family}")(g, *(params.get(key) for key in keys))


# -- the checker --------------------------------------------------------------------


def check(
    ineq: Union[InequalityId, str],
    g: Multigraph,
    h: Optional[Multigraph] = None,
    params: Optional[dict] = None,
) -> CheckReport:
    """Run one inequality check; :data:`INEQUALITIES` gives each id's
    hypothesis, default family, params, checker and claim status.  The hypothesis
    must be a relation of ``_IMPLIES`` for an id that takes H, else "params".
    :func:`parse_params` reads ``params``, and :func:`run_check` runs the check."""
    ineq = InequalityId(ineq)
    return run_check(ineq, g, h, parse_params(ineq, params))


def run_check(ineq: InequalityId, g: Multigraph, h: Optional[Multigraph], params: dict) -> CheckReport:
    """:func:`check` on ``params`` that :func:`parse_params` has read, as a
    hunt reads its own once for all its trials."""
    entry = INEQUALITIES[ineq]
    hypothesis = params.get("hypothesis", entry.hypothesis)
    valid = tuple(_IMPLIES) if entry.takes_h else ("params",)
    if hypothesis not in valid:
        raise ValueError(f"{ineq.value} takes no hypothesis {hypothesis!r}; expected one of {valid}")
    family = params.get("family", entry.family)
    report = CheckReport(
        inequality=ineq.value,
        verdict=INCONCLUSIVE,
        hypothesis=hypothesis,
        hypothesis_ok=False,
        family=family,
        params=params_to_json({k: v for k, v in params.items() if k not in _OWN_FIELDS}),
        graphs=(g, h),
    )
    if entry.takes_h and h is None:
        raise MissingParameter(f"{ineq.value} needs a second graph")

    unit_weights = g.is_unweighted() and (h is None or h.is_unweighted())
    side = entry.transitive
    hypothesis_ok = not side or is_transitive(g if side == "G" else h)
    if not hypothesis_ok:
        report.notes.append(f"{side} is not transitive")
    elif entry.takes_h:
        hypothesis_ok, cert = verify_relation_hypothesis(hypothesis, g, h, params.get("certificate"))
        report.hypothesis_ok, report.cert = hypothesis_ok, cert
    if not hypothesis_ok:
        report.verdict = HYPOTHESIS_FAILED
        report.status = claim_status(ineq, hypothesis, family, unit_weights=unit_weights)
        return report
    if side:
        report.notes.append(f"{side} transitive")

    h_trans = ineq is InequalityId.SPECTRAL_DECREASING_CONVEX and h is not None and is_transitive(h)
    report.status = claim_status(ineq, hypothesis, family, h_trans, unit_weights)
    entry.checker(g, h, params, report)
    return report


# --- individual checkers: each takes (g, h, params, report) and fills the report ---


def _assert_strict(report: CheckReport, why: str) -> None:
    report.strictness = f"strict inequality asserted ({why})"
    if report.verdict == HOLDS_WITH_EQUALITY:
        report.verdict = VIOLATED
        report.notes.append("equality where strict inequality is asserted")


def _settle_grid(report: CheckReport, note_violation: bool = False) -> None:
    """Aggregate the grid points; report the first violated point, else the last."""
    report.verdict = aggregate_verdicts([p.verdict for p in report.points])
    bad = next((p for p in report.points if p.verdict == VIOLATED), report.points[-1])
    report.lhs, report.rhs, report.error_bound = bad.lhs, bad.rhs, bad.error_bound
    if note_violation and report.verdict == VIOLATED:
        report.notes.append(f"violated at {bad.label}")


def _compare_normalized(report: CheckReport, lhs, n_lhs: int, rhs, n_rhs: int, direction: str) -> None:
    report.lhs, report.rhs = lhs, rhs
    report.params["normalization"] = f"lhs^(1/{n_lhs}) vs rhs^(1/{n_rhs})"
    report.verdict = compare_normalized_powers(lhs, n_lhs, rhs, n_rhs, direction)


def _check_tree_ratio(g, h, params: dict, report: CheckReport) -> None:
    tg, th = counting.count_spanning_trees(g), counting.count_spanning_trees(h)
    _compare_normalized(report, tg, g.n, th, h.n, "ge")


def _check_transitive_g(g, h, params: dict, report: CheckReport) -> None:
    _check_tree_ratio(g, h, params, report)
    if not has_cut_edge(g) and (g.n != h.n or cached_code(g) != cached_code(h)):
        _assert_strict(report, "no cut-edge, G not H")


def _check_tree_product(g, h, params: dict, report: CheckReport) -> None:
    tg = counting.count_spanning_trees(g)
    th = counting.count_spanning_trees(h)
    worst = None
    copies = enumerate_copies(g, h).copies
    for c in copies:
        # a copy of the connected H merges into one vertex of G//H
        lhs = th * counting.laplacian_minor(g, set(range(g.n)).difference(c.vertices))
        if worst is None or lhs > worst:
            worst = lhs
    report.lhs, report.rhs = worst, tg
    report.params["copies_checked"] = len(copies)
    report.verdict = compare_exact(worst, tg, "le")


def _check_minor_power(g, h, params: dict, report: CheckReport) -> None:
    tg = counting.count_spanning_trees(g)
    copies = enumerate_copies(g, h).copies
    verdicts = []
    worst = None
    for c in copies:
        minor = _tau_contract(g, c.vertices)
        verdicts.append(compare_normalized_powers(minor, 1, Fraction(tg) ** h.n, g.n, "ge"))
        if worst is None or minor < worst:
            worst = minor
    report.lhs = worst
    report.rhs = tg
    report.params["copies_checked"] = len(copies)
    report.params["normalization"] = f"tau(G_H) vs tau(G)^({h.n}/{g.n})"
    report.verdict = aggregate_verdicts(verdicts)
    if not has_cut_edge(g) and g.n > h.n >= 1:
        _assert_strict(report, "no cut-edge, |G| > |H|")


def _tau_contract(g: Multigraph, a: Iterable[int]) -> Count:
    """tau(G_A) = tau(G / (V - A)): the principal Laplacian minor on A, or tau(G) when A = V."""
    a = set(a)
    return counting.count_spanning_trees(g) if len(a) == g.n else counting.laplacian_minor(g, a)


def _check_koteljanskii_step(g, h, params: dict, report: CheckReport) -> None:
    a, b = params["a"], params["b"]
    if not (a | b).issubset(range(g.n)):
        raise ValueError(f"subsets a and b must lie in range({g.n})")
    union, inter = a | b, a & b
    lhs = Fraction(_tau_contract(g, a)) * Fraction(_tau_contract(g, b))
    rhs = Fraction(_tau_contract(g, union)) * Fraction(_tau_contract(g, inter))
    report.lhs, report.rhs = lhs, rhs
    crossing = any(
        g.multiplicity(u, v) > 0 for u in a - b for v in b - a
    )
    hyp_ok = len(union) < g.n or crossing
    report.hypothesis_ok = hyp_ok
    raw = compare_exact(lhs, rhs, "ge")
    if hyp_ok:
        report.verdict = raw
    else:
        report.verdict = HYPOTHESIS_FAILED
        report.notes.append(
            f"union is all of V(G) and no edge joins A-B to B-A; raw comparison: {raw}"
        )


def _cover_degree(sets: Sequence[Sequence[int]], n: int) -> Optional[int]:
    """The m with which the sets cover each of range(n) exactly m times, or
    None if they cover it unevenly; an index outside range(n) is a ValueError."""
    counts = [0] * n
    for s in sets:
        for v in s:
            if not 0 <= v < n:
                raise ValueError(f"cover index {v} out of range({n})")
            counts[v] += 1
    m = counts[0] if counts else 0
    return m if all(c == m for c in counts) else None


def _check_cover_product(g, h, params: dict, report: CheckReport) -> None:
    sets = params["cover"]
    m = _cover_degree(sets, g.n)
    report.params["cover_sizes"] = [len(s) for s in sets]
    if not m:
        report.verdict = HYPOTHESIS_FAILED
        report.notes.append("cover is not m-regular over the vertices")
        return
    report.hypothesis_ok = True
    report.params["m"] = m
    lhs = Fraction(1)
    for s in sets:
        lhs *= Fraction(_tau_contract(g, s))
    rhs = Fraction(counting.count_spanning_trees(g)) ** m
    report.lhs, report.rhs = lhs, rhs
    report.verdict = compare_exact(lhs, rhs, "ge")


def _compare_functionals(report: CheckReport, g, h, specs: Sequence[FunctionalSpec], labels: Sequence[str]) -> None:
    """(1/|G|) tr f(L_G) <= (1/|H|) tr f(L_H) at each f of ``specs``, one grid
    point per f, labelled by ``labels``, within the eigenvalue residuals' budget.
    Each spectrum is read once.  Isomorphic unweighted graphs have the same
    spectrum, so their traces are equal at every f."""
    report.exact = False
    sg, sh = spectral.eigenvalues(g), spectral.eigenvalues(h)
    if g.n == h.n and g.is_unweighted() and h.is_unweighted() and cached_code(g) == cached_code(h):
        for f, label in zip(specs, labels):
            val = sg.functional(f)
            report.points.append(GridPoint(label, val, val, HOLDS_WITH_EQUALITY))
        report.notes.append("G and H are isomorphic; equality holds at every point")
        _settle_grid(report)
        return
    for f, label in zip(specs, labels):
        budget = sg.functional_error(f) + sh.functional_error(f)
        lhs = sg.functional(f)
        rhs = sh.functional(f)
        report.points.append(GridPoint(label, lhs, rhs, compare_float(lhs, rhs, "le", budget), budget))
    _settle_grid(report, note_violation=True)


def _check_heat_trace(g, h, params: dict, report: CheckReport) -> None:
    grid = params["t_grid"]
    _compare_functionals(report, g, h, [FunctionalSpec("exp_decay", t) for t in grid], [f"t={t}" for t in grid])


def _check_weighted_cover_heat(g, h, params: dict, report: CheckReport) -> None:
    cover = params["weighted_cover"]
    m = _cover_degree([entry["vertices"] for entry in cover], g.n)
    if not m:
        report.verdict = HYPOTHESIS_FAILED
        report.notes.append("cover does not hit every vertex the same number of times")
        return
    # weight hypothesis: w(e) >= (1/m) sum of entry weights on e, per pair
    g_weight: dict[tuple[int, int], Fraction] = {}
    for u, v, mult, w in g.edges:
        g_weight[(u, v)] = g_weight.get((u, v), Fraction(0)) + mult * w
    total_weight_on: dict[tuple[int, int], Fraction] = {}
    for u, v, mult, w in (edge for entry in cover for edge in entry["edges"]):
        pair = (min(u, v), max(u, v))
        if pair not in g_weight:
            report.verdict = HYPOTHESIS_FAILED
            report.notes.append(f"cover entry uses pair {pair} absent from G")
            return
        total_weight_on[pair] = total_weight_on.get(pair, Fraction(0)) + mult * w
    for pair, tw in total_weight_on.items():
        if g_weight[pair] < tw / m:
            report.verdict = HYPOTHESIS_FAILED
            report.notes.append(f"weight hypothesis fails on pair {pair}")
            return
    report.hypothesis_ok = True
    report.params["m"] = m
    # each entry is a graph in its own vertex order, possibly disconnected
    parts = []
    for entry in cover:
        lbl = {v: i for i, v in enumerate(entry["vertices"])}
        if lbl:  # an entry without vertices adds nothing to either sum
            edges = [(lbl[u], lbl[v], mult, w) for u, v, mult, w in entry["edges"]]
            parts.append(Multigraph(len(lbl), edges, _validated=True))
    big_n = sum(part.n for part in parts)
    report.exact = False
    budget = 1e-9
    for t in params["t_grid"]:
        f = FunctionalSpec("exp_decay", t)
        lhs = spectral_functional(g, f)
        rhs = sum(spectral.eigenvalues(part).trace(f) for part in parts) / big_n
        report.points.append(GridPoint(f"t={t}", lhs, rhs, compare_float(lhs, rhs, "le", budget), budget))
    _settle_grid(report)


def _check_spectral_functionals(g, h, params: dict, report: CheckReport) -> None:
    fs = params["functional"]
    _compare_functionals(report, g, h, fs, [f.describe() for f in fs])


def _check_char_poly(g, h, params: dict, report: CheckReport) -> None:
    """det(L_G + tI)^(1/|G|) >= det(L_H + tI)^(1/|H|) on the t grid: the
    operator-monotone trace inequality for log(s + t), decided exactly."""
    for t in params["t_grid"]:
        dg = spectral.shifted_determinant_exact(g, t)
        dh = spectral.shifted_determinant_exact(h, t)
        v = compare_normalized_powers(dg, g.n, dh, h.n, "ge")
        report.points.append(GridPoint(f"t={t}", dg, dh, v))
    _settle_grid(report)
    report.params["normalization"] = f"det^(1/{g.n}) vs det^(1/{h.n})"


def _check_family_counting(g, h, params: dict, report: CheckReport) -> None:
    """The family's counts, normalized per vertex, or per edge unit for an edge family."""
    ng, nh = (g.edge_unit_count(), h.edge_unit_count()) if report.family in EDGE_FAMILIES else (g.n, h.n)
    if ng == 0 or nh == 0:
        report.verdict = HYPOTHESIS_FAILED
        report.hypothesis_ok = False
        report.notes.append("edge-normalized comparison needs at least one edge on each side")
        return
    fg, fh = family_count(g, report.family, params), family_count(h, report.family, params)
    _compare_normalized(report, fg, ng, fh, nh, "le")


def _check_matchings_lower(g, h, params: dict, report: CheckReport) -> None:
    k = params.get("packing_by")
    if k is None:
        fg, fh = counting.count_matchings(g), counting.count_matchings(h)
        report.family = "matchings"
    else:
        fg, fh = counting.count_packings(g, k), counting.count_packings(h, k)
        report.family = "packings"
    _compare_normalized(report, fg, g.n, fh, h.n, "ge")


def _check_tutte_pointwise(g, h, params: dict, report: CheckReport) -> None:
    tg = counting.tutte_polynomial(g)
    th = counting.tutte_polynomial(h)
    for x, y in params["xy_grid"]:
        a = tg.evaluate(x, y)
        b = th.evaluate(x, y)
        v = compare_normalized_powers(a, g.n, b, h.n, "ge")
        report.points.append(GridPoint(f"(x,y)=({x},{y})", a, b, v))
    _settle_grid(report)


def _check_tutte_coefficients(g, h, params: dict, report: CheckReport) -> None:
    tg = counting.tutte_polynomial(g).substitute_plus_one()
    th = counting.tutte_polynomial(h).substitute_plus_one()
    diff = tg.power(h.n) - th.power(g.n)
    report.params["statement"] = f"coefficients of T_G(x+1,y+1)^{h.n} - T_H(x+1,y+1)^{g.n}"
    if not diff.coeffs:
        report.verdict = HOLDS_WITH_EQUALITY
        return
    negatives = [(k, v) for k, v in diff.coeffs if v < 0]
    if negatives:
        (i, j), v = min(negatives, key=lambda kv: kv[1])
        report.verdict = VIOLATED
        report.notes.append(f"negative coefficient {v} at x^{i} y^{j}")
        report.lhs, report.rhs = v, 0
    else:
        report.verdict = HOLDS


# -- the inequality table -------------------------------------------------------------


_TILINGS = frozenset({"tiling", "fractional_tiling"})
_NEVER = frozenset()

# the relations read multiplicities only, so a claim whose quantity reads
# no weight holds of a weighted pair exactly when of its unweighted one
_WEIGHT_BLIND = "any: the quantity reads multiplicities, never weights"


def _false_under_subgraph(hypothesis: str, family: Optional[str], h_transitive: bool) -> bool:
    # G = 9; 0 1; 0 7; 1 2; 1 3; 1 5; 1 7; 2 4; 3 6; 5 8 contains H = K3 and
    # violates each claim that uses this (tests/test_checks.py pins it)
    return hypothesis == "subgraph"


@dataclass(frozen=True)
class Inequality:
    """One inequality: its default relation hypothesis (``"params"`` means a
    single graph plus parameters, no H), its checker, the hypotheses under
    which the claim is proven (None: the default and every hypothesis that
    implies it, or any hypothesis for a claim with no H, which no relation
    constrains), when the claim is known false outside them (else it is
    conjectured), which graph, if any, the claim needs vertex-transitive,
    the :data:`PARAMS` keys its checker reads, the families it counts and
    the keys each reads, and the family counted when the params name none.

    The proofs are for unit weights.  ``weights`` names the weights beyond
    those that an entry's proof covers, if any; without it a claim on a
    weighted graph is not proven, and it is known false under the
    hypotheses of ``weighted_false``.

    A claim is known false only where a test pins a counterexample."""

    hypothesis: str
    checker: Callable[[Multigraph, Optional[Multigraph], dict, CheckReport], None]
    proven_under: Optional[frozenset[str]] = None
    known_false: Callable[[str, Optional[str], bool], bool] = lambda hypothesis, family, h_transitive: False
    transitive: Optional[str] = None
    reads: tuple[str, ...] = ()
    families: Optional[dict[str, tuple[str, ...]]] = None
    family: Optional[str] = None
    weights: Optional[str] = None
    weighted_false: frozenset[str] = _NEVER

    @property
    def takes_h(self) -> bool:
        return self.hypothesis != "params"

    def keys(self, family: Optional[str]) -> set[str]:
        """The params keys a check of this id and family reads."""
        if self.families is not None and family not in self.families:
            raise ValueError(f"unknown family {family!r}; expected one of {tuple(self.families)}")
        by_family = ("family", *self.families[family]) if self.families else ()
        return {"hypothesis", *self.reads, *by_family, *(("certificate",) if self.takes_h else ())}


# op_monotone states the log-determinant inequality that char_poly decides:
# one entry under both ids
_LOG_DET = Inequality("domination", _check_char_poly, known_false=_false_under_subgraph, reads=("t_grid",))

INEQUALITIES: dict[InequalityId, Inequality] = {
    # P4 against one edge of weight 3 is tiled, and tau gives 1 against 3;
    # tests/test_checks.py pins it and two more weighted pairs for both ids
    InequalityId.SPANNING_TREE: Inequality(
        "domination", _check_tree_ratio, _TILINGS, known_false=_false_under_subgraph, weighted_false=_TILINGS
    ),
    InequalityId.TREE_PRODUCT: Inequality("subgraph", _check_tree_product),
    InequalityId.MINOR_POWER: Inequality("subgraph", _check_minor_power, transitive="G"),
    InequalityId.TRANSITIVE_G: Inequality("domination", _check_transitive_g, transitive="G"),
    InequalityId.TRANSITIVE_H: Inequality(
        "domination", _check_tree_ratio, known_false=_false_under_subgraph, transitive="H"
    ),
    InequalityId.FRAC_TILING_TREE: Inequality(
        "fractional_tiling", _check_tree_ratio, known_false=_false_under_subgraph, weighted_false=_TILINGS
    ),
    InequalityId.KOTELJANSKII_STEP: Inequality("params", _check_koteljanskii_step, reads=("a", "b")),
    InequalityId.COVER_PRODUCT: Inequality("params", _check_cover_product, reads=("cover",)),
    InequalityId.HEAT_TRACE_FRAC: Inequality(
        "fractional_tiling", _check_heat_trace, _TILINGS, known_false=_false_under_subgraph, reads=("t_grid",)
    ),
    InequalityId.WEIGHTED_COVER_HEAT: Inequality(
        "params",
        _check_weighted_cover_heat,
        reads=("weighted_cover", "t_grid"),
        weights="any positive weights: hypothesis (ii) bounds the cover's weight on each pair by G's",
    ),
    InequalityId.SPECTRAL_DECREASING_CONVEX: Inequality(
        "fractional_tiling",
        _check_spectral_functionals,
        _TILINGS,
        known_false=lambda hypothesis, family, h_transitive: (
            not h_transitive or _false_under_subgraph(hypothesis, family, h_transitive)
        ),
        reads=("functional",),
    ),
    InequalityId.OP_MONOTONE: _LOG_DET,
    InequalityId.CHAR_POLY: _LOG_DET,
    InequalityId.VERTEX_COUNTING: Inequality(
        "fractional_tiling",
        _check_family_counting,
        _TILINGS,
        known_false=lambda hypothesis, family, h_transitive: family == "independent_sets",
        families=VERTEX_FAMILIES,
        family="independent_sets",
        weights=_WEIGHT_BLIND,
    ),
    InequalityId.EDGE_COUNTING: Inequality(
        "fractional_edge_tiling",
        _check_family_counting,
        frozenset({"fractional_edge_tiling"}),
        families=EDGE_FAMILIES,
        family="forests",
        weights=_WEIGHT_BLIND,
    ),
    InequalityId.MATCHINGS_LOWER: Inequality(
        "fractional_tiling",
        _check_matchings_lower,
        _NEVER,
        known_false=lambda hypothesis, family, h_transitive: hypothesis not in _TILINGS,
        reads=("packing_by",),
        weights=_WEIGHT_BLIND,
    ),
    InequalityId.TUTTE_POINTWISE: Inequality(
        "domination",
        _check_tutte_pointwise,
        _NEVER,
        known_false=_false_under_subgraph,
        reads=("xy_grid",),
        weights=_WEIGHT_BLIND,
    ),
    InequalityId.TUTTE_COEFFICIENTS: Inequality(
        "domination", _check_tutte_coefficients, _NEVER, known_false=_false_under_subgraph, weights=_WEIGHT_BLIND
    ),
}


def claim_status(
    ineq: InequalityId,
    hypothesis: str,
    family: Optional[str] = None,
    h_transitive: bool = False,
    unit_weights: bool = True,
) -> str:
    """Proven / conjectured / known-false status of the claim being checked,
    on graphs whose edge weights are all 1 or, if not ``unit_weights``, not."""
    entry = INEQUALITIES[InequalityId(ineq)]
    if entry.proven_under is None:
        proven = (
            not entry.takes_h
            or hypothesis == entry.hypothesis
            or entry.hypothesis in _IMPLIES.get(hypothesis, ())
        )
    else:
        proven = hypothesis in entry.proven_under
    if not unit_weights and entry.weights is None:
        if hypothesis in entry.weighted_false:
            return KNOWN_FALSE
        proven = False
    if proven:
        return PROVEN
    return KNOWN_FALSE if entry.known_false(hypothesis, family, h_transitive) else CONJECTURED


# -- the parameter table ----------------------------------------------------------------


def _rational(value) -> Fraction:
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {str(value).strip()!r}") from None


def _int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _list(item: Callable, sep: str = ",", grid: bool = True) -> Callable[[object], list]:
    """A parser of a list, of text split at ``sep`` or of one native item,
    that reads each item with ``item``; an empty grid is an error."""

    def parse(value) -> list:
        if isinstance(value, str):
            value = [tok for tok in map(str.strip, value.split(sep)) if tok]
        out = [item(v) for v in (value if isinstance(value, Iterable) else [value])]
        if grid and not out:
            raise ValueError("needs a nonempty grid")
        return out

    return parse


_ints = _list(_int, grid=False)


def _xy_point(point) -> tuple[Fraction, Fraction]:
    xy = _list(_rational, grid=False)(point)
    if len(xy) != 2 or min(xy) < 1:
        raise ValueError(f"{point!r} is not one x,y pair with x, y >= 1")
    return xy[0], xy[1]


def _functional(value) -> FunctionalSpec:
    """'hinge(4)' as ``describe`` writes it; a bare c, as ``--hinge`` gives it, is hinge(c)."""
    if isinstance(value, FunctionalSpec):
        return value
    family, _, param = str(value).removesuffix(")").partition("(")
    return FunctionalSpec(family, _rational(param)) if param else FunctionalSpec("hinge", _rational(family))


def _cover_entry(entry) -> dict:
    vertices = _ints(entry["vertices"])
    edges = [(_int(u), _int(v), _int(m), _rational(w)) for u, v, m, w in entry["edges"]]
    if any(u not in vertices or v not in vertices for u, v, _, _ in edges):
        raise ValueError("cover entry edge outside its vertex set")
    if any(u == v for u, v, _, _ in edges):
        raise ValueError("cover entry edge is a loop")
    if any(m < 1 or w <= 0 for _, _, m, w in edges):
        raise ValueError("cover entry edge needs multiplicity >= 1 and a positive weight")
    return {"vertices": vertices, "edges": edges}


def _hom_target(value) -> HomTarget:
    if isinstance(value, HomTarget):
        return value
    n, edges = _int(value["n"]), frozenset(tuple(sorted(_ints(e))) for e in value["edges"])
    if any(len(e) != 2 or not 0 <= e[0] <= e[1] < n for e in edges):
        raise ValueError(f"target edges must be pairs in range({n})")
    return HomTarget(n, edges)


def _json(value):
    """A parsed value in JSON form: a rational as its ``str`` ("3", "1/2"), a
    tuple as a list, a set as a sorted list, a dict with ``str`` keys."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(_json(v) for v in value)
    return value


@dataclass(frozen=True)
class Param:
    """One check parameter: ``parse`` reads its native value, its JSON form
    and its CLI ``flag``'s text; ``write`` gives the JSON form ``parse`` reads."""

    key: str
    parse: Callable[[object], object]
    write: Callable[[object], object] = _json
    default: Optional[Callable[[], object]] = None
    required: bool = False
    flag: Optional[str] = None
    help: Optional[str] = None

    def read(self, value):
        """``parse``, with every failure a ValueError that names the key."""
        try:
            return self.parse(value)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise ValueError(f"{self.key}{f' ({self.flag})' if self.flag else ''}: {exc}") from None


PARAMS: dict[str, Param] = {
    p.key: p
    for p in (
        Param("hypothesis", str, flag="--hypothesis"),
        Param("family", str),
        Param("certificate", lambda v: certificate_from_json(v) if isinstance(v, dict) else v,
              certificate_to_json),
        Param("t_grid", _list(_rational), default=default_t_grid, flag="--t-grid"),
        Param("xy_grid", _list(_xy_point, ";"), default=default_xy_grid, flag="--grid",
              help="x,y pairs separated by ';'"),
        Param("functional", _list(_functional), lambda fs: [f.describe() for f in fs],
              lambda: [FunctionalSpec("exp_decay", t) for t in default_t_grid()], flag="--hinge",
              help="hinge functional threshold"),
        Param("q", _int, default=lambda: 3, flag="--q", help="number of colors"),
        Param("a", lambda v: frozenset(_ints(v)), required=True, flag="--a", help="vertex subset A"),
        Param("b", lambda v: frozenset(_ints(v)), required=True, flag="--b", help="vertex subset B"),
        Param("cover", lambda v: [frozenset(_ints(s)) for s in v], required=True),
        Param("weighted_cover", _list(_cover_entry, grid=False), required=True),
        Param("hom_target", _hom_target, lambda target: _json(vars(target)), required=True),
        Param("hom_weights", lambda v: {_int(k): _rational(w) for k, w in dict(v).items()}),
        Param("packing_by", lambda v: v if isinstance(v, Multigraph) else parse_graph(v), serialize_graph),
    )
}


def parse_params(ineq: Union[InequalityId, str], params: Optional[dict], supplied: Sequence[str] = ()) -> dict:
    """``params`` read through :data:`PARAMS`, plus the defaults of the keys
    that a check of ``ineq`` reads; an unread key and a missing required key
    are a ValueError.  The caller fills in ``supplied`` keys: none is given."""
    ineq = InequalityId(ineq)
    entry = INEQUALITIES[ineq]
    params = params or {}
    parsed = {key: PARAMS[key].read(value) for key, value in params.items() if key in PARAMS}
    reads = entry.keys(parsed.get("family", entry.family))
    for key in params:
        if key not in reads:
            raise ValueError(f"{ineq.value} reads no parameter {key!r}; it reads {sorted(reads)}")
        if key in supplied:
            raise ValueError(f"{ineq.value} draws {key!r} itself; it cannot be given")
    for key in sorted(reads - parsed.keys() - set(supplied)):
        if PARAMS[key].required:
            raise MissingParameter(f"{ineq.value} needs params[{key!r}]")
        if PARAMS[key].default:
            parsed[key] = PARAMS[key].default()
    return parsed


def params_to_json(params: dict) -> dict:
    """Parsed params in the JSON form that :func:`parse_params` reads back."""
    return {key: PARAMS[key].write(value) for key, value in params.items()}


# -- Shearer ---------------------------------------------------------------------


@dataclass
class JointDistribution:
    """Finite joint distribution of k discrete coordinates, exact probabilities."""

    k: int
    probs: dict[tuple, Fraction]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one coordinate")
        total = Fraction(0)
        for key, p in self.probs.items():
            if len(key) != self.k:
                raise ValueError(f"support tuple {key!r} has arity != {self.k}")
            if p <= 0:
                raise ValueError("support probabilities must be positive")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def marginal(self, coords: Sequence[int]) -> dict[tuple, Fraction]:
        out: dict[tuple, Fraction] = {}
        cs = tuple(coords)
        for key, p in self.probs.items():
            proj = tuple(key[i] for i in cs)
            out[proj] = out.get(proj, Fraction(0)) + p
        return out


def entropy_nats(probs: dict[tuple, Fraction]) -> float:
    """Shannon entropy in nats from exact probabilities, floating logs."""
    return -sum(float(p) * log(float(p)) for p in probs.values() if p != 1)


def check_shearer(dist: JointDistribution, cover: Sequence[Sequence[int]], r: int) -> CheckReport:
    """r * H(X_1..X_k) <= sum over cover sets S of H(X_S), for an r-regular cover."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    sets = [tuple(sorted(set(int(i) for i in s))) for s in cover]
    if _cover_degree(sets, dist.k) != r:
        raise ValueError(f"cover is not {r}-regular over {dist.k} coordinates")
    joint = entropy_nats(dist.probs)
    lhs = r * joint
    parts = [entropy_nats(dist.marginal(s)) for s in sets]
    rhs = sum(parts)
    report = CheckReport(
        inequality="shearer",
        verdict=compare_float(lhs, rhs, "le", SHEARER_BUDGET),
        hypothesis=f"{r}-regular cover",
        hypothesis_ok=True,
        status=PROVEN,
        lhs=lhs,
        rhs=rhs,
        exact=False,
        error_bound=SHEARER_BUDGET,
        params={"r": r, "cover": [list(s) for s in sets], "support": len(dist.probs)},
    )
    return report
