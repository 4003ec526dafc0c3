"""Per-layer timing and work counts for gdom, installed from outside the package.

A layer is a ``gdom`` module.  :func:`install` wraps every public function
of each layer module, plus a few hot methods, and rebinds the wrapper in
every ``gdom.*`` namespace (and module-level dict) that holds the original.
Nothing under ``src/`` changes; a process that never calls :func:`install`
runs the untouched code.

A layer's self time is the time inside its wrapped calls minus the time of
wrapped calls they make in turn, so the self times of all layers add up to
the time spent inside ``gdom`` with no double counting.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter

# rng is left out: it is under 1% of every workload.
LAYERS = (
    "multigraph",
    "symmetry",
    "embeddings",
    "relations",
    "counting",
    "spectral",
    "checks",
    "search",
    "cli",
)

# (layer, class, method) wrapped on the class itself.
METHODS = (
    ("multigraph", "Multigraph", "__init__"),
    ("multigraph", "Multigraph", "laplacian"),
    ("counting", "BivariatePoly", "__mul__"),
    ("cli", "RunLog", "append"),
)

# Two wrapped callables that share one key add to one inclusive time.
_KEY_ALIASES = {
    "multigraph.Multigraph.laplacian": "multigraph.laplacian",
}

# Every per-layer metric, in the order they are printed.
METRICS = (
    ("embeddings.self_s", "s"),
    ("embeddings.enumerate_copies.calls", "count"),
    ("embeddings.rooted_copy_relation.calls", "count"),
    ("embeddings.embeddings_yielded", "count"),
    ("embeddings.copies_found", "count"),
    ("embeddings.copy_yield_ratio", "ratio"),
    ("relations.self_s", "s"),
    ("relations.simplex_s", "s"),
    ("relations.simplex.calls", "count"),
    ("relations.lp_cells", "count"),
    ("relations.domination_s", "s"),
    ("relations.verify_s", "s"),
    ("relations.verify.calls", "count"),
    ("counting.self_s", "s"),
    ("counting.tutte_polynomial.calls", "count"),
    ("counting.poly_mul.calls", "count"),
    ("counting.poly_mul_s", "s"),
    ("counting.bareiss.calls", "count"),
    ("counting.bareiss_dim_sum", "count"),
    ("symmetry.self_s", "s"),
    ("symmetry.cached_code.calls", "count"),
    ("symmetry.code_hit_ratio", "ratio"),
    ("symmetry.automorphisms.calls", "count"),
    ("spectral.self_s", "s"),
    ("spectral.eigenvalues.calls", "count"),
    ("spectral.jacobi.calls", "count"),
    ("spectral.cache_hit_ratio", "ratio"),
    ("spectral.jacobi_s", "s"),
    ("multigraph.self_s", "s"),
    ("multigraph.graphs_built", "count"),
    ("multigraph.laplacian_s", "s"),
    ("multigraph.parse_s", "s"),
    ("checks.self_s", "s"),
    ("checks.check.calls", "count"),
    ("search.self_s", "s"),
    ("search.accept_ratio", "ratio"),
    ("cli.self_s", "s"),
    ("cli.parser_s", "s"),
    ("cli.log_append_s", "s"),
)


# The result line carries every count and ratio, but only the times that both
# workloads in BENCHMARK.json exercise: a layer a workload never calls reads
# exactly 0 s on every run, and a time that never varies is not a measurement.
# The summary prints all of METRICS.
TIMED_ON_EVERY_WORKLOAD = {
    "embeddings.self_s",
    "relations.self_s",
    "relations.domination_s",
    "multigraph.self_s",
    "multigraph.laplacian_s",
    "checks.self_s",
}
RESULT_METRICS = tuple((name, unit) for name, unit in METRICS if unit != "s" or name in TIMED_ON_EVERY_WORKLOAD)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for the wrapped calls of one process."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # per open span: time of its wrapped children
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.incl_s: Counter = Counter()  # outermost inclusive time per key
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()

    # -- wrappers ---------------------------------------------------------------

    def _close(self, layer: str, key: str, dt: float, children: float) -> None:
        self.self_s[layer] += dt - children
        if self.stack:
            self.stack[-1][0] += dt
        self.depth[key] -= 1
        if not self.depth[key]:
            self.incl_s[key] += dt

    def wrap(self, fn, layer: str, key: str):
        hook = _HOOKS.get(key)
        perf = time.perf_counter
        stack, depth, calls = self.stack, self.depth, self.calls

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[key] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [0.0]
                        stack.append(frame)
                        depth[key] += 1
                        t0 = perf()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            dt = perf() - t0
                            stack.pop()
                            self._close(layer, key, dt, frame[0])
                        self.counts[key + ".yielded"] += 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = hook(self, "enter", args, None) if hook else None
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            t0 = perf()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                self._close(layer, key, dt, frame[0])
                calls[key] += 1
                if hook:
                    hook(self, "exit", args, (state, result, exc))

        return wrapper

    # -- report -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every metric of :data:`METRICS`, 0 where the layer saw no calls."""
        c, n, t = self.calls, self.counts, self.incl_s
        values = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        values.update(
            {
                "embeddings.enumerate_copies.calls": c["embeddings.enumerate_copies"],
                "embeddings.rooted_copy_relation.calls": c["embeddings.rooted_copy_relation"],
                "embeddings.embeddings_yielded": n["embeddings.embeddings_iter.yielded"],
                "embeddings.copies_found": n["copies_found"],
                "embeddings.copy_yield_ratio": _ratio(n["copies_found"], n["copy_embeddings"]),
                "relations.simplex_s": t["relations.feasible_nonnegative"],
                "relations.simplex.calls": c["relations.feasible_nonnegative"],
                "relations.lp_cells": n["lp_cells"],
                "relations.domination_s": t["relations.check_domination"],
                "relations.verify_s": t["relations.verify_certificate"],
                "relations.verify.calls": c["relations.verify_certificate"],
                "counting.tutte_polynomial.calls": c["counting.tutte_polynomial"],
                "counting.poly_mul.calls": c["counting.BivariatePoly.__mul__"],
                "counting.poly_mul_s": t["counting.BivariatePoly.__mul__"],
                "counting.bareiss.calls": c["counting.bareiss_determinant"],
                "counting.bareiss_dim_sum": n["bareiss_dim_sum"],
                "symmetry.cached_code.calls": c["symmetry.cached_code"],
                "symmetry.code_hit_ratio": 1.0
                - _ratio(n["code_misses"], c["symmetry.cached_code"])
                if c["symmetry.cached_code"]
                else 0.0,
                "symmetry.automorphisms.calls": c["symmetry.automorphisms"],
                "spectral.eigenvalues.calls": c["spectral.eigenvalues"],
                "spectral.jacobi.calls": c["spectral.jacobi_eigenvalues"],
                "spectral.cache_hit_ratio": 1.0
                - _ratio(n["eigen_misses"], c["spectral.eigenvalues"])
                if c["spectral.eigenvalues"]
                else 0.0,
                "spectral.jacobi_s": t["spectral.jacobi_eigenvalues"],
                "multigraph.graphs_built": c["multigraph.Multigraph.__init__"],
                "multigraph.laplacian_s": t["multigraph.laplacian"],
                "multigraph.parse_s": t["multigraph.parse_graph"],
                "checks.check.calls": c["checks.check"],
                "search.accept_ratio": _ratio(n["pairs_generated"], n["generation_attempts"]),
                "cli.parser_s": t["cli.build_parser"] + t["cli.parse_args"],
                "cli.log_append_s": t["cli.RunLog.append"],
            }
        )
        return {name: values[name] for name, _ in METRICS}


# -- hooks: counts taken at the boundary of one wrapped call ----------------------


def _lp_cells(tr: Tracer, phase: str, args, _):
    if phase == "enter" and args and args[0]:
        tr.counts["lp_cells"] += len(args[0]) * len(args[0][0])


def _bareiss_dim(tr: Tracer, phase: str, args, _):
    if phase == "enter" and args:
        tr.counts["bareiss_dim_sum"] += len(args[0])


def _enumerate_copies(tr: Tracer, phase: str, args, payload):
    yielded = tr.counts["embeddings.embeddings_iter.yielded"]
    if phase == "enter":
        return yielded
    before, result, _ = payload
    tr.counts["copy_embeddings"] += yielded - before
    if result is not None:
        tr.counts["copies_found"] += len(result.copies)


def _miss_inside(outer: str, miss: str):
    def hook(tr: Tracer, phase: str, args, _):
        if phase == "enter" and tr.depth[outer]:
            tr.counts[miss] += 1

    return hook


def _generate_pair(tr: Tracer, phase: str, args, payload):
    if phase == "exit":
        from gdom.search import GenerationError

        _, pair, exc = payload
        if pair is not None:
            tr.counts["pairs_generated"] += 1
            tr.counts["generation_attempts"] += pair.attempts
        elif isinstance(exc, GenerationError):
            tr.counts["generation_attempts"] += args[0].max_attempts


def _build_parser(tr: Tracer, phase: str, args, payload):
    if phase == "exit" and payload[1] is not None:
        parser = payload[1]
        parser.parse_args = tr.wrap(parser.parse_args, "cli", "cli.parse_args")


_HOOKS = {
    "relations.feasible_nonnegative": _lp_cells,
    "counting.bareiss_determinant": _bareiss_dim,
    "embeddings.enumerate_copies": _enumerate_copies,
    "symmetry.canonical_code": _miss_inside("symmetry.cached_code", "code_misses"),
    "spectral.jacobi_eigenvalues": _miss_inside("spectral.eigenvalues", "eigen_misses"),
    "search.generate_pair": _generate_pair,
    "cli.build_parser": _build_parser,
}


# -- installation ------------------------------------------------------------------


def _public_functions(mod: types.ModuleType):
    for name, obj in vars(mod).items():
        if (
            isinstance(obj, types.FunctionType)
            and obj.__module__ == mod.__name__
            and not name.startswith("_")
        ):
            yield name, obj


def install() -> Tracer:
    """Wrap every layer of the imported ``gdom`` package; return the tracer."""
    import gdom.cli  # noqa: F401  (imports every layer module)

    tracer = Tracer()
    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"gdom.{layer}"]
        for name, fn in _public_functions(mod):
            wrapped[id(fn)] = tracer.wrap(fn, layer, f"{layer}.{name}")
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"gdom.{layer}"], cls_name)
        key = f"{layer}.{cls_name}.{meth}"
        setattr(cls, meth, tracer.wrap(getattr(cls, meth), layer, _KEY_ALIASES.get(key, key)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "gdom" and not mod_name.startswith("gdom."):
            continue
        for name, val in list(vars(mod).items()):
            if id(val) in wrapped:
                setattr(mod, name, wrapped[id(val)])
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if id(v) in wrapped:
                        val[k] = wrapped[id(v)]
    return tracer
