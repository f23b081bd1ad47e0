"""Spans and counters recorded around calls into staticstar's modules.

Tracing lives entirely in the benchmark: ``Tracer.installed()`` replaces the
module-level names each layer calls (``tov.integrate_tov``, ``tov.quad``,
``quasilocal.shape_operator``, ...) with wrappers that open a span per call,
and puts the originals back on exit.  Nothing inside ``src/`` changes, and
with no tracer installed the program runs its own code untouched.

A name that a later version of the program no longer has is skipped: its
metrics then report 0 calls instead of failing the run.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


@dataclass
class Span:
    """One timed call.  Every span of a request descends from its "request" span."""

    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into Tracer.spans


class Tracer:
    """In-memory spans (nested through a context variable) and counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(name, time.perf_counter_ns(), 0, _CURRENT.get())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        token = _CURRENT.set(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            _CURRENT.reset(token)

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0), value)

    # -- installation --------------------------------------------------------

    def wrap(self, func, name: str, after=None):
        """``func`` inside a span; ``after(tracer, args, result)`` adds counts."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every name in ``WRAPS`` (and the mass thread pool) for a traced one."""
        saved = []
        try:
            for module_name, attr, name, after in WRAPS:
                owner, leaf = _resolve(f"staticstar.{module_name}", attr)
                if owner is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                original = getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(original, name, after))
            cli = importlib.import_module("staticstar.cli")
            if hasattr(cli, "ThreadPoolExecutor"):
                saved.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
                cli.ThreadPoolExecutor = _traced_pool(self)
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    # -- reduction -----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms, and self ms (minus child spans)."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            dur = span.end - span.start
            covered = _union_ns(span, children.get(index, ()))
            row = out.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += dur / 1e6
            row["self_ms"] += (dur - covered) / 1e6
        return out


def _union_ns(parent: Span, kids) -> int:
    """Length of the part of ``parent`` that its children cover.

    Children opened on pool threads can overlap each other, so the union is
    taken rather than the sum.
    """
    covered = 0
    cursor = parent.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo, hi = max(kid.start, cursor), min(kid.end, parent.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def _resolve(module_name: str, attr: str):
    """(object holding the last component, last component), or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, leaf, None)):
        return None, None
    return owner, leaf


def _traced_pool(tracer: Tracer):
    """A ThreadPoolExecutor whose tasks run in the submitter's context.

    The stock executor runs tasks in a fresh context, so spans opened on a
    worker would lose their request.  Copying the context keeps them nested;
    the pool itself is a span, so worker time can be compared with pool wall
    time (``cli.mass.pool_overlap``).
    """

    class TracedPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            tracer.peak("cli.mass.pool_threads", self._max_workers)
            self._pool_span = tracer.span("cli.mass.pool")
            self._pool_span.__enter__()

        def submit(self, fn, /, *args, **kwargs):
            ctx = contextvars.copy_context()

            def task():
                with tracer.span("cli.mass.worker"):
                    return fn(*args, **kwargs)

            return super().submit(ctx.run, task)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            if self._pool_span is not None:
                self._pool_span.__exit__(None, None, None)
                self._pool_span = None

    return TracedPool


# -- counters taken from arguments and results ----------------------------------

def _nfev(prefix):
    def after(tracer, args, result):
        tracer.add(f"{prefix}.nfev", int(getattr(result, "nfev", 0)))
    return after


def _grid_points(name, index):
    def after(tracer, args, result):
        tracer.add(name, len(args[index]))
    return after


def _surface_from_event(tracer, args, result):
    profile = args[0]
    event_r = getattr(profile, "surface_event_r", None)
    if event_r is not None and result == min(event_r, profile.r_end):
        tracer.add("tov.detect_surface.event_hits")


def _level_set_hit(tracer, args, result):
    if result:
        tracer.add("quasilocal.level_set_data.hits")


# (module, attribute, span name, counter hook).  Several bindings of one
# function share a span name: catalog and conformal both call
# geometry.spf_residuals through their own imported names.
WRAPS = (
    ("cli", "main", "cli.main", None),
    ("tov", "integrate_tov", "tov.integrate_tov", None),
    ("tov", "solve_ivp", "tov.solve_ivp", _nfev("tov.solve_ivp")),
    ("tov", "detect_surface", "tov.detect_surface", _surface_from_event),
    ("tov", "integrate_lapse", "tov.integrate_lapse", None),
    ("tov", "quad", "tov.quad", None),
    ("tov", "match_exterior", "tov.match_exterior", None),
    ("quasilocal", "level_set_data", "quasilocal.level_set_data", _level_set_hit),
    ("quasilocal", "find_brackets", "quasilocal.find_brackets",
     _grid_points("quasilocal.find_brackets.points", 1)),
    ("quasilocal", "refine_root", "quasilocal.refine_root", None),
    ("quasilocal", "shape_operator", "quasilocal.shape_operator", None),
    ("quasilocal", "willmore_energy", "quasilocal.willmore_energy", None),
    ("quasilocal", "sphere_rule", "quasilocal.sphere_rule", None),
    ("quasilocal", "conformal_hessian", "geometry.conformal_hessian", None),
    ("geometry", "conformal_hessian", "geometry.conformal_hessian", None),
    ("catalog", "parse_model_spec", "catalog.parse_model_spec", None),
    ("catalog", "AnalyticModel.verify", "catalog.verify", None),
    ("catalog", "spf_residuals", "geometry.spf_residuals", None),
    ("conformal", "spf_residuals", "geometry.spf_residuals", None),
    ("catalog", "tolman_residuals", "geometry.tolman_residuals", None),
    ("energy", "scan_model", "energy.scan_model", None),
    ("energy", "scan_conditions", "energy.scan_conditions",
     _grid_points("energy.scan_conditions.points", 2)),
    ("conformal", "build_model", "conformal.build_model", None),
    ("conformal", "solve_lapse", "conformal.solve_lapse", None),
    ("conformal", "solve_ivp", "conformal.solve_ivp", _nfev("conformal.solve_ivp")),
)

# (metric, unit).  A name ending in calls, ms or self_ms is read from
# the spans; the ratios are computed in layer_values; the rest are counters.
LAYER_METRICS = (
    ("tov.integrate_tov.self_ms", "ms"),
    ("tov.solve_ivp.nfev", "count"),
    ("tov.solve_ivp.ms", "ms"),
    ("tov.integrate_lapse.self_ms", "ms"),
    ("tov.quad.calls", "count"),
    ("tov.quad.ms", "ms"),
    ("tov.match_exterior.self_ms", "ms"),
    ("tov.detect_surface.ms", "ms"),
    ("tov.detect_surface.event_ratio", "ratio"),
    ("quasilocal.level_set_data.self_ms", "ms"),
    ("quasilocal.level_set_data.calls", "count"),
    ("quasilocal.level_set_data.hit_ratio", "ratio"),
    ("quasilocal.find_brackets.ms", "ms"),
    ("quasilocal.find_brackets.points", "count"),
    ("quasilocal.refine_root.calls", "count"),
    ("quasilocal.shape_operator.calls", "count"),
    ("quasilocal.shape_operator.ms", "ms"),
    ("quasilocal.willmore_energy.ms", "ms"),
    ("quasilocal.sphere_rule.calls", "count"),
    ("geometry.conformal_hessian.calls", "count"),
    ("catalog.parse_model_spec.ms", "ms"),
    ("catalog.verify.self_ms", "ms"),
    ("geometry.spf_residuals.ms", "ms"),
    ("geometry.tolman_residuals.ms", "ms"),
    ("energy.scan_model.ms", "ms"),
    ("energy.scan_conditions.points", "count"),
    ("conformal.build_model.self_ms", "ms"),
    ("conformal.solve_lapse.ms", "ms"),
    ("conformal.solve_ivp.nfev", "count"),
    ("cli.main.self_ms", "ms"),
    ("cli.mass.pool_threads", "count"),
    ("cli.mass.pool_overlap", "ratio"),
)

# metrics that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS if unit == "count")


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value for one traced pass (0 for unused layers)."""
    totals = tracer.span_totals()
    counters = tracer.counters

    def total(name, field):
        return totals.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, _unit in LAYER_METRICS:
        span_name, _, field = metric.rpartition(".")
        if field in ("ms", "self_ms", "calls"):
            out[metric] = total(span_name, field)
        else:
            out[metric] = counters.get(metric, 0)
    out["tov.detect_surface.event_ratio"] = ratio(
        counters.get("tov.detect_surface.event_hits", 0),
        total("tov.detect_surface", "calls"))
    out["quasilocal.level_set_data.hit_ratio"] = ratio(
        counters.get("quasilocal.level_set_data.hits", 0),
        total("quasilocal.level_set_data", "calls"))
    out["cli.mass.pool_overlap"] = ratio(
        total("cli.mass.worker", "ms"), total("cli.mass.pool", "ms"))
    return out
