"""Per-layer measurement for the traced run, taken from outside the program.

:class:`LayerTracer` replaces public functions and methods of each layer
with timing wrappers for the duration of one traced window and restores
them afterwards; it adds nothing to ``src/``.  Wrappers nest per thread,
so every layer gets both its inclusive and its *self* time (inclusive
minus the wrapped layers it called).  The spans the program already
emits (``kernel.global_dual_filter``, ``kernel.ball_scan``,
``reach.build``, ``site.evaluate``, ``coordinator.union``, ...) are
collected alongside and split the engine and distributed layers further.

Costs paid inside other processes (fragment decode and partials encode
happen in the site workers) are re-timed in this process by calling the
same public wire functions on the same payloads.

``METRICS`` is the per-layer table, and with it the prediction map:
which end-to-end metric each layer metric should move, on which
workload.  ``JSON_METRICS`` names the subset printed in the result line;
all of them have a value on every workload (layer times that only some
workloads exercise are printed in the table only).
"""

from __future__ import annotations

import statistics
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core import kernel as _kernel
from repro.core import npkernel as _npkernel
from repro.core.kernel import GraphIndex, aggregate_index_stats
from repro.distributed.coordinator import Cluster
from repro.distributed.runtime import transport as _transport
from repro.distributed.runtime.wire import (
    decode_fragment,
    encode_fragment,
    encode_partials,
)
from repro.distributed.sitekernel import SiteGraphIndex
from repro.obs.trace import collector, set_tracing
from repro.service import executor as _executor
from repro.service.cache import ResultCache

from harness import QUERY


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: The denominator: per query, per call, per build, per window ...
    per: str
    layer: str
    #: The end-to-end metric it should move, and on which workloads.
    moves: str
    on: str


_ALL = "all"
METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("index.compile_ms", "ms", "lower", "build", "core.kernel",
                "setup_s", _ALL),
    LayerMetric("index.sync_ms", "ms", "lower", "sync", "core.kernel",
                "read_after_write_p50_ms", "serve-mixed paths-mixed"),
    LayerMetric("index.full_compiles", "count", "lower", "window",
                "core.kernel", "read_after_write_p50_ms",
                "serve-mixed paths-mixed"),
    LayerMetric("npkernel.view_build_ms", "ms", "lower", "build",
                "core.npkernel", "read_after_write_p50_ms", "serve-mixed"),
    LayerMetric("npkernel.view_builds", "count", "lower", "window",
                "core.npkernel", "read_after_write_p50_ms", "serve-mixed"),
    LayerMetric("engine.eval_ms", "ms", "lower", "query", "engines",
                "query_p50_ms", _ALL),
    LayerMetric("engine.dual_filter_ms", "ms", "lower", "query", "engines",
                "query_p50_ms", "strong-heavy serve-mixed"),
    LayerMetric("engine.ball_scan_ms", "ms", "lower", "query", "engines",
                "query_p50_ms query_p90_ms", "strong-heavy"),
    LayerMetric("engine.balls_scanned", "count", "lower", "match-plus run",
                "engines", "query_p50_ms query_p90_ms", "strong-heavy"),
    LayerMetric("engine.balls_matched", "count", "higher", "match-plus run",
                "engines", "query_p50_ms query_p90_ms", "strong-heavy"),
    LayerMetric("engine.ball_yield", "ratio", "higher", "window", "engines",
                "query_p50_ms query_p90_ms", "strong-heavy"),
    LayerMetric("engine.candidates_per_node", "count", "lower", "pattern",
                "engines", "throughput_qps", "serve-mixed"),
    LayerMetric("engine.routed.python", "count", "lower", "window",
                "engines", "throughput_qps", "serve-mixed"),
    LayerMetric("engine.routed.kernel", "count", "higher", "window",
                "engines", "throughput_qps", "serve-mixed"),
    LayerMetric("engine.routed.numpy", "count", "lower", "window",
                "engines", "throughput_qps", "serve-mixed"),
    LayerMetric("reach.build_ms", "ms", "lower", "build", "core.reach",
                "setup_s read_after_write_p50_ms", "paths-mixed"),
    LayerMetric("reach.rebuild_ms", "ms", "lower", "build", "core.reach",
                "read_after_write_p50_ms", "paths-mixed"),
    LayerMetric("reach.builds", "count", "lower", "window", "core.reach",
                "throughput_qps", "paths-mixed"),
    LayerMetric("reach.patches", "count", "lower", "window", "core.reach",
                "throughput_qps", "paths-mixed"),
    LayerMetric("reach.drops", "count", "lower", "window", "core.reach",
                "throughput_qps", "paths-mixed"),
    LayerMetric("reach.probes", "count", "lower", "window", "core.reach",
                "throughput_qps", "paths-mixed"),
    LayerMetric("reach.bounded_ms", "ms", "lower", "call", "core.reach",
                "query_p50_ms query_p90_ms", "paths-mixed"),
    LayerMetric("reach.regular_ms", "ms", "lower", "call", "core.reach",
                "query_p50_ms query_p90_ms", "paths-mixed"),
    LayerMetric("fingerprint.canonical_ms", "ms", "lower", "call",
                "service.fingerprint", "query_p50_ms", "serve-mixed"),
    LayerMetric("cache.hit_ratio", "ratio", "higher", "window",
                "service.cache", "throughput_qps query_p50_ms",
                "serve-mixed"),
    LayerMetric("cache.lookup_ms", "ms", "lower", "call", "service.cache",
                "throughput_qps query_p50_ms", "serve-mixed"),
    LayerMetric("cache.replay_ms", "ms", "lower", "call", "service.cache",
                "throughput_qps query_p50_ms", "serve-mixed"),
    LayerMetric("cache.store_ms", "ms", "lower", "call", "service.cache",
                "query_p50_ms", "strong-heavy serve-mixed"),
    LayerMetric("cache.invalidations", "count", "lower", "window",
                "service.cache", "throughput_qps query_p50_ms",
                "serve-mixed"),
    LayerMetric("cache.retained", "count", "higher", "window",
                "service.cache", "throughput_qps query_p50_ms",
                "serve-mixed"),
    LayerMetric("cache.evictions", "count", "lower", "window",
                "service.cache", "throughput_qps query_p50_ms",
                "serve-mixed"),
    LayerMetric("service.queue_wait_ms", "ms", "lower", "query",
                "service.executor", "query_p90_ms",
                "serve-mixed strong-heavy"),
    LayerMetric("service.overhead_ms", "ms", "lower", "query",
                "service.executor", "query_p50_ms", _ALL),
    LayerMetric("service.coalesced", "count", "lower", "window",
                "service.executor", "query_p90_ms",
                "serve-mixed strong-heavy"),
    LayerMetric("site.evaluate_max_ms", "ms", "lower", "query",
                "distributed", "query_p50_ms", "distributed-2site"),
    LayerMetric("site.evaluate_sum_ms", "ms", "lower", "query",
                "distributed", "query_p50_ms", "distributed-2site"),
    LayerMetric("coordinator.union_ms", "ms", "lower", "query",
                "distributed", "query_p50_ms", "distributed-2site"),
    LayerMetric("fetch.round_trips", "count", "lower", "query",
                "distributed", "query_p50_ms", "distributed-2site"),
    LayerMetric("fetch.records", "count", "lower", "query", "distributed",
                "query_p50_ms", "distributed-2site"),
    LayerMetric("bus.units.fetch", "units", "lower", "query", "distributed",
                "shipped_units_per_query", "distributed-2site"),
    LayerMetric("bus.units.query", "units", "lower", "query", "distributed",
                "shipped_units_per_query", "distributed-2site"),
    LayerMetric("bus.units.result", "units", "lower", "query",
                "distributed", "shipped_units_per_query",
                "distributed-2site"),
    LayerMetric("bus.units.update", "units", "lower", "query",
                "distributed", "shipped_units_per_query",
                "distributed-2site"),
    LayerMetric("shipped_units_per_query", "units", "lower", "query",
                "distributed", "shipped_units_per_query",
                "distributed-2site"),
    LayerMetric("runtime.bootstrap_ms", "ms", "lower", "build",
                "distributed.runtime", "setup_s", "distributed-2site"),
    LayerMetric("worker.index_builds", "count", "lower", "window",
                "distributed.runtime", "setup_s", "distributed-2site"),
    LayerMetric("wire.fragment_encode_ms", "ms", "lower", "build",
                "distributed.runtime", "setup_s", "distributed-2site"),
    LayerMetric("wire.fragment_decode_ms", "ms", "lower", "build",
                "distributed.runtime", "setup_s", "distributed-2site"),
    LayerMetric("wire.partials_encode_ms", "ms", "lower", "query",
                "distributed.runtime", "query_p50_ms", "distributed-2site"),
    LayerMetric("wire.partials_decode_ms", "ms", "lower", "query",
                "distributed.runtime", "query_p50_ms", "distributed-2site"),
    LayerMetric("runtime.ipc_wait_ms", "ms", "lower", "query",
                "distributed.runtime", "query_p50_ms", "distributed-2site"),
    LayerMetric("trace.residual_pct", "%", "lower", "window", "obs",
                "all", _ALL),
    LayerMetric("trace.overhead_pct", "%", "lower", "window", "obs",
                "all", _ALL),
)

#: Printed in the result line of ``--trace 1``: every count, ratio and
#: percentage (a layer a workload bypasses reads 0), plus the layer
#: times every workload exercises.
JSON_METRICS = tuple(
    m.name for m in METRICS
    if m.unit != "ms"
    or m.name in ("index.compile_ms", "engine.eval_ms",
                  "service.queue_wait_ms")
)

# (owner, attribute, layer) of the wrapped public callables.
_METHODS = (
    (_executor.MatchService, "_execute", "service.executor"),
    (_executor.MatchService, "_execute_distributed", "service.executor"),
    (_executor.MatchService, "_decode", "cache.replay"),
    (_executor.MatchService, "_encode", "cache.encode"),
    (ResultCache, "lookup", "cache.lookup"),
    (ResultCache, "store", "cache.store"),
    (GraphIndex, "sync", "index.sync"),
    (Cluster, "run", "distributed.run"),
)
_FUNCTIONS = (
    (_executor, "canonical_form", "fingerprint.canonical"),
    (_executor, "resolve_engine", "engine.route"),
    (_executor, "resolve_path_engine", "engine.route"),
    (_transport, "encode_fragment", "wire.fragment_encode"),
    (_transport, "decode_partials", "wire.partials_decode"),
)
_ENGINE_LAYER = {
    "match-plus": "engine.match-plus", "match": "engine.match",
    "dual": "engine.dual", "sim": "engine.sim",
    "bounded": "reach.bounded", "regular": "reach.regular",
}


class _Totals:
    __slots__ = ("calls", "inclusive", "own")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.own = 0.0


class LayerTracer:
    """Timing wrappers around layer entry points (see module docstring)."""

    def __init__(self) -> None:
        self.totals: Dict[str, _Totals] = {}
        self.queue_wait: List[float] = []
        self.routed: Dict[str, int] = {}
        self.view_builds: List[float] = []
        self.partials: List[object] = []
        self.roots: List[object] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for owner, attr, layer in _METHODS:
            self._replace(owner, attr, layer)
        for module, attr, layer in _FUNCTIONS:
            self._replace(module, attr, layer)
        compute = _executor._COMPUTE
        for algorithm, layer in _ENGINE_LAYER.items():
            original = compute[algorithm]
            compute[algorithm] = self._timed(original, layer)
            self._undo.append((compute, algorithm, original))
        original_view = _npkernel.get_array_view
        _npkernel.get_array_view = self._view_probe(original_view)
        self._undo.append((_npkernel, "get_array_view", original_view))
        sink = collector()
        sink.clear()
        self._undo.append((sink, "add", None))
        sink.add = self._collect
        set_tracing(True)

    def uninstall(self) -> None:
        set_tracing(False)
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (set-up ends, window opens)."""
        with self._lock:
            self.totals = {}
            self.queue_wait = []
            self.routed = {}
            self.view_builds = []
            self.partials = []
            self.roots = []

    def _replace(self, owner, attr: str, layer: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self._timed(original.__func__, layer))
        else:
            wrapped = self._timed(original, layer)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    # -- wrappers -----------------------------------------------------------
    def _stack(self) -> List[float]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _timed(self, func, layer: str):
        tracer = self
        queue_layer = layer == "service.executor"
        route_layer = layer == "engine.route"

        def timed(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            started = perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    totals = tracer.totals.get(layer)
                    if totals is None:
                        totals = tracer.totals[layer] = _Totals()
                    totals.calls += 1
                    totals.inclusive += elapsed
                    totals.own += elapsed - children
                    if queue_layer:
                        # submit() passes its perf_counter() stamp last.
                        tracer.queue_wait.append(started - args[-1])
                    if route_layer and result is not None:
                        tracer.routed[result] = tracer.routed.get(result, 0) + 1
                    if layer == "wire.partials_decode" and result is not None:
                        tracer.partials.append(result)

        return timed

    def _view_probe(self, original):
        tracer = self

        def get_array_view(index):
            # The index caches its view; only a call that finds none builds.
            if index._np_view is not None:
                return original(index)
            started = perf_counter()
            try:
                return original(index)
            finally:
                with tracer._lock:
                    tracer.view_builds.append(perf_counter() - started)

        return get_array_view

    def _collect(self, root) -> None:
        with self._lock:
            self.roots.append(root)

    # -- span queries ---------------------------------------------------------
    def spans(self, *names: str) -> List[object]:
        found = []
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            stack = [root]
            while stack:
                node = stack.pop()
                if node.name in names:
                    found.append(node)
                stack.extend(node.children)
        return found

    def layer(self, name: str) -> _Totals:
        return self.totals.get(name) or _Totals()


def _mean_ms(values) -> Optional[float]:
    values = list(values)
    return statistics.fmean(values) * 1e3 if values else None


def _per_call_ms(totals: _Totals) -> Optional[float]:
    return totals.inclusive / totals.calls * 1e3 if totals.calls else None


def compute(
    tracer: LayerTracer,
    setup: Dict[str, object],
    window,
    untraced_seconds: float,
    session,
    stats_before,
) -> Dict[str, Optional[float]]:
    """Every metric of :data:`METRICS` for one traced window.

    ``None`` marks a layer this workload does not exercise.
    """
    queries = max(1, window.queries)
    values: Dict[str, Optional[float]] = {m.name: None for m in METRICS}
    phases = setup["phases"]

    def phase_ms(name: str) -> Optional[float]:
        samples = phases.get(name)
        return statistics.median(samples) * 1e3 if samples else None

    values["index.compile_ms"] = setup.get("site_compile_ms") or phase_ms(
        "index.compile"
    )
    sync = tracer.layer("index.sync")
    values["index.sync_ms"] = _per_call_ms(sync)
    stats_after = aggregate_index_stats()
    for field_name, metric in (
        ("full_compiles", "index.full_compiles"),
        ("reach_builds", "reach.builds"),
        ("reach_patches", "reach.patches"),
        ("reach_drops", "reach.drops"),
        ("reach_probes", "reach.probes"),
    ):
        values[metric] = float(
            getattr(stats_after, field_name) - getattr(stats_before, field_name)
        )
    values["npkernel.view_build_ms"] = _mean_ms(tracer.view_builds) or (
        phase_ms("npkernel.view_build")
    )
    values["npkernel.view_builds"] = float(len(tracer.view_builds))

    # Engines.
    engine_s = sum(
        tracer.layer(layer).inclusive for layer in _ENGINE_LAYER.values()
    )
    site_spans = tracer.spans("site.evaluate")
    runs = tracer.spans("distributed.run")
    if runs:
        slowest = [
            max((c.duration for c in run.children if c.name == "site.evaluate"),
                default=0.0)
            for run in runs
        ]
        engine_s = sum(slowest)
        values["site.evaluate_max_ms"] = sum(slowest) * 1e3 / queries
        values["site.evaluate_sum_ms"] = (
            sum(s.duration for s in site_spans) * 1e3 / queries
        )
        unions = tracer.spans("coordinator.union")
        union_s = sum(s.duration for s in unions)
        values["coordinator.union_ms"] = union_s * 1e3 / queries
        values["runtime.ipc_wait_ms"] = (
            sum(r.duration for r in runs) - sum(slowest) - union_s
        ) * 1e3 / queries
        values["fetch.round_trips"] = sum(
            s.attrs.get("fetch.round_trips", 0) for s in site_spans
        ) / queries
        values["fetch.records"] = sum(
            s.attrs.get("fetch.records", 0) for s in site_spans
        ) / queries
        for span in site_spans:
            engine = span.attrs.get("engine")
            tracer.routed[engine] = tracer.routed.get(engine, 0) + 1
    values["engine.eval_ms"] = engine_s * 1e3 / queries
    for metric, names in (
        ("engine.dual_filter_ms",
         ("kernel.global_dual_filter", "numpy.global_dual_filter")),
        ("engine.ball_scan_ms", ("kernel.ball_scan", "numpy.ball_scan")),
    ):
        found = tracer.spans(*names)
        if found:
            values[metric] = sum(s.duration for s in found) * 1e3 / queries
    plus = tracer.spans("kernel.match_plus", "numpy.match_plus")
    scanned = sum(s.attrs.get("balls.scanned", 0) for s in plus)
    matched = sum(s.attrs.get("balls.matched", 0) for s in plus)
    values["engine.balls_scanned"] = scanned / len(plus) if plus else 0.0
    values["engine.balls_matched"] = matched / len(plus) if plus else 0.0
    values["engine.ball_yield"] = matched / scanned if scanned else 0.0
    values["engine.candidates_per_node"] = setup.get("candidates_per_node")
    for engine in ("python", "kernel", "numpy"):
        values[f"engine.routed.{engine}"] = float(tracer.routed.get(engine, 0))

    # Reach.
    values["reach.build_ms"] = phase_ms("reach.build")
    values["reach.rebuild_ms"] = _mean_ms(
        s.duration for s in tracer.spans("reach.build")
    )
    values["reach.bounded_ms"] = _per_call_ms(tracer.layer("reach.bounded"))
    values["reach.regular_ms"] = _per_call_ms(tracer.layer("reach.regular"))

    # Service: fingerprint, cache, executor.
    values["fingerprint.canonical_ms"] = _per_call_ms(
        tracer.layer("fingerprint.canonical")
    )
    values["cache.lookup_ms"] = _per_call_ms(tracer.layer("cache.lookup"))
    values["cache.replay_ms"] = _per_call_ms(tracer.layer("cache.replay"))
    store = tracer.layer("cache.store")
    if store.calls:
        values["cache.store_ms"] = (
            (tracer.layer("cache.encode").own + store.own) / store.calls * 1e3
        )
    cache = session.service.stats.cache
    lookups = cache.hits + cache.misses
    values["cache.hit_ratio"] = cache.hits / lookups if lookups else 0.0
    values["cache.invalidations"] = float(cache.invalidations)
    values["cache.retained"] = float(cache.retained)
    values["cache.evictions"] = float(cache.evictions)
    values["service.queue_wait_ms"] = _mean_ms(tracer.queue_wait)
    values["service.overhead_ms"] = (
        tracer.layer("service.executor").own * 1e3 / queries
    )
    values["service.coalesced"] = float(session.service.stats.coalesced)

    # Distributed traffic, from each report's own query log.
    if session.cluster is not None:
        by_kind: Dict[str, int] = {}
        for kept in window.results:
            if kept is None:
                continue
            for kind, units in kept[1].items():
                by_kind[kind] = by_kind.get(kind, 0) + units
        update_units = (
            session.cluster.bus.units_by_kind().get("update", 0)
            - setup["update_units_before"]
        )
        for kind in ("fetch", "query", "result"):
            values[f"bus.units.{kind}"] = by_kind.get(kind, 0) / queries
        values["bus.units.update"] = update_units / queries
        values["shipped_units_per_query"] = sum(by_kind.values()) / queries
        values["worker.index_builds"] = float(sum(
            stats["index_builds"]
            for stats in session.cluster.worker_stats().values()
        ))
        values["runtime.bootstrap_ms"] = phase_ms("runtime.bootstrap")
        values["wire.fragment_encode_ms"] = setup.get("fragment_encode_ms")
        values["wire.fragment_decode_ms"] = setup.get("fragment_decode_ms")
        values["wire.partials_decode_ms"] = (
            tracer.layer("wire.partials_decode").inclusive * 1e3 / queries
        )
        started = perf_counter()
        for partial in tracer.partials:
            encode_partials(partial)
        values["wire.partials_encode_ms"] = (
            (perf_counter() - started) * 1e3 / queries
        )

    # Residual: caller-side latency not inside any timed layer.
    attributed = sum(t.own for t in tracer.totals.values()) + sum(
        tracer.queue_wait
    )
    latency_s = sum(window.latencies_ms) / 1e3
    values["trace.residual_pct"] = (
        (latency_s - attributed) / latency_s * 100.0 if latency_s else None
    )
    values["trace.overhead_pct"] = (
        (window.seconds / untraced_seconds - 1.0) * 100.0
        if untraced_seconds else None
    )
    return values


def setup_extras(session, tracer: LayerTracer):
    """Traced-run values measured around set-up rather than the window."""
    extras: Dict[str, object] = {}
    if session.cluster is not None:
        extras["update_units_before"] = (
            session.cluster.bus.units_by_kind().get("update", 0)
        )
        # One encode per site per build: report the cost of one build.
        encode = tracer.layer("wire.fragment_encode")
        builds = max(1, encode.calls // len(session.cluster.workers))
        extras["fragment_encode_ms"] = encode.inclusive * 1e3 / builds
        # Site compile and fragment decode run in the worker processes;
        # re-time them here on the same fragments the workers received.
        compile_s, decode_s = [], 0.0
        for worker in session.cluster.workers.values():
            wire = encode_fragment(worker.fragment)
            started = perf_counter()
            fragment = decode_fragment(wire)
            decode_s += perf_counter() - started
            started = perf_counter()
            SiteGraphIndex(fragment)
            compile_s.append(perf_counter() - started)
        extras["fragment_decode_ms"] = decode_s * 1e3
        # The sites compile in parallel: the slowest one gates set-up.
        extras["site_compile_ms"] = max(compile_s) * 1e3
    return extras


def candidates_per_node(inputs, executed) -> float:
    """Mean dual-simulation candidates per pattern node, over the
    distinct patterns a window queried, on the initial data graph."""
    seen = []
    for kind, payload in executed:
        if kind == QUERY and payload[0] not in seen:
            seen.append(payload[0])
    graph = inputs.graph.copy()
    sizes = []
    for pattern_id in seen[:50]:
        pattern = inputs.patterns[pattern_id]
        pattern = getattr(pattern, "pattern", pattern)
        relation = _kernel.dual_simulation_kernel(pattern, graph)
        sizes.extend(
            len(relation.matches_of_raw(u)) for u in relation.pattern_nodes()
        )
    return statistics.fmean(sizes) if sizes else 0.0
