"""Spans for the traced pass: recording in the worker, per-layer metrics after.

The tracer replaces each traced public function at every module attribute
that holds it, so a caller that imported the function by name (``verify``
calling ``char_poly``, ``eigenvalues`` calling ``char_poly`` inside
``spectral``) reaches the wrapper too. Spans stay in memory as
``(name, start, end, parent)`` and are written once, when the worker exits.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

from reference import VERIFY_CHECKS

# (module, function, span name); enumerate_connected is named by strategy.
TRACED = (
    ("census", "enumerate_connected", None),
    ("census", "census_cache_load", "census.cache_load"),
    ("census", "census_cache_store", "census.cache_store"),
    ("canon", "canonical_rows", "canon.canonical_rows"),
    ("canon", "canonical_g6", "canon.canonical_g6"),
    ("graph6", "graph6_decode", "graph6.decode"),
    ("spectral", "char_poly", "spectral.char_poly"),
    ("spectral", "eigenvalues", "spectral.eigenvalues"),
    ("spectral", "energy_coulson", "spectral.coulson"),
    ("classify", "classify", "classify.classify"),
    ("classify", "is_bipartite", "classify.is_bipartite"),
    ("verify", "rank_class", "verify.rank_class"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.census_sizes: dict[str, int] = {}
        self.coulson_evals = 0
        self.coulson_worst_bound = 0.0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        raised = False
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            raised = True
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            # a call that raised (a cache miss, say) is kept apart as "name!"
            self.spans[idx] = (name + "!" if raised else name, start, end, parent)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:  # enumerate_connected(n, e, *, strategy)
                strategy = kwargs.get("strategy", "edge")
                with self.span(f"census.{strategy}"):
                    census = fn(*args, **kwargs)
                self.census_sizes[f"{args[0]},{args[1]},{strategy}"] = len(census)
                return census
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "spectral.coulson":
                self.coulson_evals += result.evaluations
                self.coulson_worst_bound = max(self.coulson_worst_bound, result.error_bound)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever a graphenergy module holds it."""
        import graphenergy.cli  # noqa: F401  (loads every submodule)
        import graphenergy.verify as verify

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "graphenergy"]
        replace = {}
        for mod, attr, name in TRACED:
            fn = getattr(sys.modules[f"graphenergy.{mod}"], attr, None)
            if fn is not None:
                replace[id(fn)] = self._wrap(fn, name)
        for check, fn in list(verify.CHECKS.items()):
            replace[id(fn)] = verify.CHECKS[check] = self._wrap(fn, f"verify.check.{check}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "census_sizes": self.census_sizes,
            "coulson_evals": self.coulson_evals,
            "coulson_worst_bound": self.coulson_worst_bound,
        }


def self_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: self seconds, inclusive seconds, call count."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), c in zip(spans, child):
        own[name] = own.get(name, 0.0) + (end - start - c)
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    return own, total, calls


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced set-up and pass of one run.

    ``_s`` metrics are self time (time in the span minus its traced
    children), except the verify checks, which are inclusive.
    """
    spans = []
    census_sizes: dict[str, int] = {}
    for d in dumps:
        offset = len(spans)
        spans += [(n, s, e, p + offset if p >= 0 else -1) for n, s, e, p in d["spans"]]
        census_sizes.update(d["census_sizes"])
    own, total, calls = self_times(spans)
    evals = sum(d["coulson_evals"] for d in dumps)
    decodes = calls.get("graph6.decode", 0)
    coulson_calls = calls.get("spectral.coulson", 0)
    poly_ms = sorted(
        (e - s) * 1e3 for n, s, e, _ in spans if n == "spectral.char_poly"
    ) or [0.0]
    m = {
        "census.edge_self_s": own.get("census.edge", 0.0),
        "census.vertex_self_s": own.get("census.vertex", 0.0),
        "census.graphs": sum(census_sizes.values()),
        "census.cache_load_s": total.get("census.cache_load", 0.0),
        "census.cache_loads": calls.get("census.cache_load", 0),
        "census.cache_store_s": total.get("census.cache_store", 0.0),
        "canon.canonical_rows_s": own.get("canon.canonical_rows", 0.0),
        "canon.canonical_rows_calls": calls.get("canon.canonical_rows", 0),
        "canon.canonical_g6_s": own.get("canon.canonical_g6", 0.0),
        "canon.canonical_g6_calls": calls.get("canon.canonical_g6", 0),
        "graph6.decode_s": own.get("graph6.decode", 0.0),
        "graph6.decodes": decodes,
        "spectral.char_poly_s": own.get("spectral.char_poly", 0.0),
        "spectral.char_poly_calls": calls.get("spectral.char_poly", 0),
        "spectral.char_poly_per_graph": calls.get("spectral.char_poly", 0) / decodes
        if decodes else 0.0,
        "spectral.char_poly_ms_p50": statistics.median(poly_ms),
        "spectral.char_poly_ms_p99": poly_ms[min(len(poly_ms) - 1, int(0.99 * len(poly_ms)))],
        "spectral.eigenvalues_self_s": own.get("spectral.eigenvalues", 0.0),
        "spectral.eigenvalues_calls": calls.get("spectral.eigenvalues", 0),
        "spectral.coulson_s": total.get("spectral.coulson", 0.0),
        "spectral.coulson_calls": coulson_calls,
        "spectral.coulson_evals": evals,
        "spectral.coulson_evals_per_call": evals / coulson_calls if coulson_calls else 0.0,
        "spectral.coulson_worst_bound": max(d["coulson_worst_bound"] for d in dumps),
        "classify.classify_s": own.get("classify.classify", 0.0),
        "classify.is_bipartite_s": own.get("classify.is_bipartite", 0.0),
        "verify.rank_class_self_s": own.get("verify.rank_class", 0.0),
    }
    for check in VERIFY_CHECKS:
        m[f"verify.check.{check}_s"] = total.get(f"verify.check.{check}", 0.0)
    m["cli.main_self_s"] = own.get("cli.main", 0.0)
    m["trace.layers_self_s"] = sum(v for k, v in own.items() if k not in ("setup", "pass"))
    m["trace.glue_self_s"] = own.get("setup", 0.0) + own.get("pass", 0.0)
    m["trace.spans"] = len(spans)
    return m
