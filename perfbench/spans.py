"""Spans around calls into htc's modules, recorded from outside the package.

``Tracer.install`` rebinds each traced public function, wherever a module of
the package holds a reference to it (``from .x import f`` copies the
reference), to a wrapper that records a span.  ``ProcessPoolExecutor`` is
replaced by a subclass whose lifetime is a ``pool`` span.  Nothing under
``src/`` changes; the patch lives only in the traced benchmark process.

A span's self time is its duration minus the time covered by its child
spans, so the self times of all spans add up to the duration of the
top-level ``cli.main`` spans.
"""

from __future__ import annotations

import concurrent.futures
import resource
import sys
import time
from collections import defaultdict

# (module, function, span name); the span name's prefix is the layer
TRACED = (
    ("htc.cli", "main", "cli.main"),
    ("htc.parser", "parse_theory", "parser.parse"),
    ("htc.parser", "pretty_print", "parser.print"),
    ("htc.syntax", "desugar_theory", "syntax.desugar_theory"),
    ("htc.syntax", "desugar_aggregates", "syntax.desugar_aggregates"),
    ("htc.transforms", "theory_formulas", "transforms.formulas"),
    ("htc.transforms", "unfold_rule", "transforms.unfold"),
    ("htc.transforms", "eliminate_conditionals", "transforms.delta"),
    ("htc.semantics", "stable_models", "semantics.stable"),
    ("htc.semantics", "ht_models", "semantics.ht"),
    ("htc.checker", "equivalent", "checker.equivalent"),
    ("htc.checker", "stable_equivalent", "checker.stable_equiv"),
    ("htc.checker", "strong_equiv_sampled", "checker.strong_equiv"),
    ("htc.checker", "run_property_suite", "checker.props"),
    ("htc.checker", "context_family", "checker.context_family"),
)


def _candidates(theory) -> int:
    spec = theory.spec
    n = 1
    for name in spec.variables():
        n *= len(spec.domain_values(name)) + 1
    return n


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans kept in memory: ``spans`` holds (id, parent id, name, start, end)."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []  # [span id, child time]
        self._next = 0

    def _enter(self):
        self._next += 1
        self._stack.append([self._next, 0.0])
        return time.perf_counter()

    def _exit(self, name, start):
        end = time.perf_counter()
        span_id, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        dur = end - start
        self.spans.append((span_id, parent[0] if parent else None, name, start, end))
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        self.calls[name] += 1
        if parent:
            parent[1] += dur
        return dur

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, start)
            tracer._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, kwargs, result):
        c = self.counts
        if name == "parser.parse":
            c["parser.bytes"] += len(args[0].encode())
        elif name == "parser.print":
            c["parser.bytes"] += len(result.encode())
        elif name == "transforms.delta":
            c["transforms.side_formulas"] += len(result.side)
        elif name in ("semantics.stable", "semantics.ht"):
            c["semantics.candidates_scanned"] += _candidates(args[0])
        elif name == "checker.strong_equiv":
            c["checker.contexts"] += len(kwargs["contexts"])  # cli passes it by name
        elif name == "checker.props":
            c["checker.items"] += kwargs["count"]

    def install(self, functions=True):
        """Patch the process pool, and with ``functions`` the traced
        functions, in every loaded ``htc`` module."""
        modules = [m for n, m in sys.modules.items() if n == "htc" or n.startswith("htc.")]
        for mod_name, attr, name in TRACED if functions else ():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        base = concurrent.futures.ProcessPoolExecutor
        pool_class = _timed_pool(self, base)
        for mod in modules + [concurrent.futures]:
            if getattr(mod, "ProcessPoolExecutor", None) is base:
                mod.ProcessPoolExecutor = pool_class


def _timed_pool(tracer, base):
    class TimedProcessPool(base):
        """A pool whose lifetime, from creation to shutdown, is a ``pool`` span."""

        def __init__(self, max_workers=None, *args, **kwargs):
            self._bench_start = tracer._enter()
            self._bench_cpu = _child_cpu()
            self._bench_jobs = max_workers or 1
            super().__init__(max_workers, *args, **kwargs)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            if self._bench_start is not None:
                wall = tracer._exit("pool.wall", self._bench_start)
                self._bench_start = None
                tracer.counts["pool.child_cpu_s"] += _child_cpu() - self._bench_cpu
                tracer.counts["pool.slot_s"] += wall * self._bench_jobs

    return TimedProcessPool


def layer_metrics(tracer: Tracer, wall_s: float, transforms_module) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    s, incl, c = tracer.self_s, tracer.incl_s, tracer.counts

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    sem_incl = incl["semantics.stable"] + incl["semantics.ht"]
    cache = sum(
        getattr(transforms_module, f).cache_info().currsize
        for f in ("phi", "def_of", "assignment_formula")
    )
    return {
        "parser.parse_s": s["parser.parse"],
        "parser.print_s": s["parser.print"],
        "parser.bytes": c["parser.bytes"],
        "syntax.desugar_s": s["syntax.desugar_theory"] + s["syntax.desugar_aggregates"],
        "syntax.desugar_calls": tracer.calls["syntax.desugar_theory"],
        "transforms.formulas_s": s["transforms.formulas"],
        "transforms.unfold_s": s["transforms.unfold"],
        "transforms.delta_s": s["transforms.delta"],
        "transforms.side_formulas": c["transforms.side_formulas"],
        "transforms.cache_entries": cache,
        "semantics.stable_s": s["semantics.stable"],
        "semantics.ht_s": s["semantics.ht"],
        "semantics.candidates_per_s": rate(c["semantics.candidates_scanned"], sem_incl),
        "checker.stable_equiv_s": s["checker.stable_equiv"],
        "checker.strong_equiv_s": s["checker.strong_equiv"],
        "checker.equivalent_s": s["checker.equivalent"],
        "checker.props_s": s["checker.props"],
        "checker.contexts_per_s": rate(c["checker.contexts"], incl["checker.strong_equiv"]),
        "checker.items_per_s": rate(c["checker.items"], incl["checker.props"]),
        "cli.self_s": s["cli.main"],
        "trace.coverage": sum(s.values()) / wall_s if wall_s > 0 else 0.0,
    }


def pool_metrics(tracer: Tracer) -> dict:
    """Pool numbers of one pass: pooled wall time, CPU time of the workers,
    and that CPU time over the workers' wall-clock capacity."""
    c = tracer.counts
    return {
        "pool.wall_s": tracer.self_s["pool.wall"],
        "pool.child_cpu_s": c["pool.child_cpu_s"],
        "pool.busy_frac": c["pool.child_cpu_s"] / c["pool.slot_s"] if c["pool.slot_s"] else 0.0,
    }
