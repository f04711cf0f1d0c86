"""The unified observability layer: spans, metrics, merged traces.

Five concerns:

* unit behavior of :mod:`repro.obs.trace` (no-op when disabled, nesting,
  capture/adopt grafting, JSON export) and :mod:`repro.obs.metrics`
  (instruments, collectors, snapshot merge, Prometheus rendering);
* wire round-trips for the span / metrics frames the process-backend
  workers ship back;
* the merged-trace contract across engines x backends: ONE
  ``distributed.run`` trace whose ``site.evaluate`` children cover every
  site and whose ``bus.log`` attribute reproduces the per-query bus log
  byte-identically — and tracing must never perturb results;
* collector lifetimes: a closed cluster is freed, a forked worker
  process ships only what it records itself, and the cluster-merged
  service histograms count each distributed query once;
* stats-object thread-safety under concurrent ``MatchService.submit``
  storms (the counters now feed the metrics registry, so lost
  increments would surface as wrong metrics).
"""

import gc
import json
import os
import threading
import weakref
from bisect import bisect_left

import pytest

from repro.core.digraph import DiGraph
from repro.core.engines import ENGINE_TABLE
from repro.core.matchplus import match_plus
from repro.datasets import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from repro.distributed import Cluster, bfs_partition, process_backend_available
from repro.obs.metrics import (
    HISTOGRAM_BUCKETS,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.report import QueryReport
from repro.obs.trace import (
    NOOP_SPAN,
    capture,
    collector,
    current_span,
    export_traces_json,
    set_tracing,
    span,
    span_from_dict,
    span_to_dict,
    tracing_enabled,
)


@pytest.fixture
def traced():
    """Tracing on, collector clean; restores the previous state."""
    collector().clear()
    previous = set_tracing(True)
    yield
    set_tracing(previous)
    collector().clear()


def small_graph(n=120, seed=7):
    return generate_graph(n, alpha=1.2, num_labels=6, seed=seed)


def pattern_for(data, size=4, seed=11):
    pattern = sample_pattern_from_data(data, size, seed=seed)
    assert pattern is not None
    return pattern


# ----------------------------------------------------------------------
# Tracing unit behavior
# ----------------------------------------------------------------------
#: The CI "differential suite under tracing" job runs with REPRO_TRACE=1,
#: where the disabled-default tests do not apply.
_TRACED_PROCESS = pytest.mark.skipif(
    bool(os.environ.get("REPRO_TRACE")),
    reason="REPRO_TRACE forces tracing on for the whole process",
)


class TestTrace:
    @_TRACED_PROCESS
    def test_disabled_spans_are_the_shared_noop(self):
        assert not tracing_enabled()
        s = span("anything")
        assert s is NOOP_SPAN
        with s as inner:
            assert inner is NOOP_SPAN
            assert inner.set(k=1) is NOOP_SPAN
            assert not inner.enabled
        assert collector().roots() == []
        assert current_span() is NOOP_SPAN

    def test_nesting_attrs_and_timing(self, traced):
        with span("outer") as outer:
            outer.set(a=1)
            with span("inner") as inner:
                inner.set(b="x")
                assert current_span() is inner
            assert current_span() is outer
        roots = collector().roots()
        assert [r.name for r in roots] == ["outer"]
        (root,) = roots
        assert root.attrs == {"a": 1}
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].attrs == {"b": "x"}
        assert root.duration >= root.children[0].duration >= 0.0
        assert root.span_count() == 2
        assert [s.name for s in root.find("inner")] == ["inner"]

    @_TRACED_PROCESS
    def test_set_tracing_returns_previous(self):
        assert set_tracing(True) is False
        try:
            assert tracing_enabled()
            assert set_tracing(True) is True
        finally:
            set_tracing(False)

    def test_capture_detaches_and_adopt_grafts(self, traced):
        with capture("shipped") as shipped:
            shipped.set(site=3)
        # A captured span does not land in the collector by itself...
        assert collector().roots() == []
        with span("root") as root:
            root.adopt(shipped)
        (trace_root,) = collector().roots()
        assert [c.name for c in trace_root.children] == ["shipped"]
        assert trace_root.children[0].attrs == {"site": 3}

    def test_span_dict_roundtrip(self, traced):
        with span("a") as a:
            a.set(n=2)
            with span("b"):
                pass
        (root,) = collector().roots()
        clone = span_from_dict(span_to_dict(root))
        assert clone.name == root.name
        assert clone.attrs == root.attrs
        assert [c.name for c in clone.children] == ["b"]
        assert clone.start == root.start and clone.end == root.end

    def test_export_traces_json(self, traced, tmp_path):
        with span("q") as q:
            q.set(engine="kernel")
        path = tmp_path / "trace.json"
        text = export_traces_json(path=str(path))
        document = json.loads(path.read_text())
        assert document == json.loads(text)
        assert document["schema_version"] == 1
        assert document["traces"][0]["name"] == "q"
        assert document["traces"][0]["attrs"] == {"engine": "kernel"}

    def test_non_jsonable_attrs_degrade_to_repr(self, traced):
        marker = object()
        with span("q") as q:
            q.set(weird=marker)
        document = json.loads(export_traces_json())
        assert document["traces"][0]["attrs"]["weird"] == repr(marker)

    def test_collector_is_bounded(self):
        from repro.obs.trace import Span, TraceCollector

        bounded = TraceCollector(capacity=3)
        for i in range(5):
            bounded.add(Span(f"s{i}"))
        assert [s.name for s in bounded.roots()] == ["s2", "s3", "s4"]
        assert bounded.dropped == 2
        assert [s.name for s in bounded.drain()] == ["s2", "s3", "s4"]
        assert bounded.roots() == []


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.counter("c", kind="x").inc()
        for value in (1e-6, 1e-3, 1.0):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["counters"]["c{kind=x}"] == 1
        hist = snap["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(1.001001)
        assert sum(hist["counts"]) == 3
        assert len(hist["counts"]) == len(HISTOGRAM_BUCKETS) + 1

    def test_labels_are_order_insensitive(self):
        registry = MetricsRegistry()
        registry.counter("m", a=1, b=2).inc()
        registry.counter("m", b=2, a=1).inc()
        assert registry.snapshot()["counters"]["m{a=1,b=2}"] == 2

    def test_collector_lifetime_follows_owner(self):
        import gc

        registry = MetricsRegistry()

        class Stats:
            value = 7

        stats = Stats()
        registry.register_collector(
            stats, lambda: [("s.value", {}, 7)]
        )
        assert registry.snapshot()["counters"]["s.value"] == 7
        # Collector samples sum into live counters on key collision.
        registry.counter("s.value").inc(3)
        assert registry.snapshot()["counters"]["s.value"] == 10
        del stats
        gc.collect()
        # The registration died with its owner; only the live counter
        # remains.
        assert registry.snapshot()["counters"]["s.value"] == 3

    def test_reset_drops_instruments_and_collectors(self):
        registry = MetricsRegistry()

        def sample():
            return [("s.value", {}, 7)]

        registry.register_collector(sample, sample)
        registry.counter("c").inc()
        registry.histogram("h").observe(0.5)
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}

    def test_merge_snapshots(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.histogram("h").observe(0.5)
        b.histogram("h").observe(0.5)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["counters"]["c"] == 3
        assert merged["histograms"]["h"]["count"] == 2

    def test_histogram_buckets_are_upper_inclusive(self):
        """``counts[i]`` holds observations in ``(bound[i-1], bound[i]]``;
        anything past the last finite bound lands in the +Inf bucket."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(HISTOGRAM_BUCKETS[3])
        histogram.observe(HISTOGRAM_BUCKETS[3] * 1.5)
        histogram.observe(HISTOGRAM_BUCKETS[-1] * 10)
        data = registry.snapshot()["histograms"]["h"]
        assert len(data["counts"]) == len(HISTOGRAM_BUCKETS) + 1
        assert data["counts"][3] == 1
        assert data["counts"][4] == 1
        assert data["counts"][-1] == 1
        assert sum(data["counts"]) == data["count"] == 3
        assert data["sum"] == pytest.approx(
            HISTOGRAM_BUCKETS[3] * 2.5 + HISTOGRAM_BUCKETS[-1] * 10
        )

    def test_merged_histogram_buckets_add_and_render_cumulative(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("h").observe(1e-3)
        b.histogram("h").observe(1e-3)
        b.histogram("h").observe(2.0)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        data = merged["histograms"]["h"]
        assert [
            x + y for x, y in zip(
                a.snapshot()["histograms"]["h"]["counts"],
                b.snapshot()["histograms"]["h"]["counts"],
            )
        ] == data["counts"]
        assert data["sum"] == pytest.approx(2.002)
        text = render_prometheus(merged)
        # Exposition buckets are cumulative: the +Inf bucket holds all.
        assert 'repro_h_bucket{le="+Inf"} 3' in text
        assert "repro_h_count 3" in text
        low = bisect_left(HISTOGRAM_BUCKETS, 1e-3)
        assert f'repro_h_bucket{{le="{HISTOGRAM_BUCKETS[low]:.6g}"}} 2' in text

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(5)
        registry.counter("bus.units", kind="fetch").inc(9)
        registry.histogram("service.query_seconds", algorithm="match").observe(0.01)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_cache_hits counter" in text
        assert "repro_cache_hits 5" in text
        assert 'repro_bus_units{kind="fetch"} 9' in text
        assert 'repro_service_query_seconds_count{algorithm="match"} 1' in text
        assert "_bucket{" in text and 'le="+Inf"' in text

    def test_global_registry_absorbs_kernel_stats(self):
        data = small_graph(seed=23)
        pattern = pattern_for(data, seed=29)
        before = (
            get_registry().snapshot()["counters"].get("index.full_compiles", 0)
        )
        match_plus(pattern, data, engine="kernel")
        after = get_registry().snapshot()["counters"]["index.full_compiles"]
        assert after == before + 1


# ----------------------------------------------------------------------
# Wire frames for spans and metric snapshots
# ----------------------------------------------------------------------
class TestWire:
    def test_span_roundtrip(self, traced):
        from repro.distributed.runtime.wire import decode_span, encode_span

        with capture("site.evaluate") as shipped:
            shipped.set(site=1, partial=4)
            with span("kernel.match_plus"):
                pass
        clone = decode_span(encode_span(shipped))
        assert clone.name == "site.evaluate"
        assert clone.attrs == {"site": 1, "partial": 4}
        assert [c.name for c in clone.children] == ["kernel.match_plus"]

    def test_span_none_roundtrip(self):
        from repro.distributed.runtime.wire import decode_span, encode_span

        assert decode_span(encode_span(None)) is None

    def test_metrics_roundtrip(self):
        from repro.distributed.runtime.wire import (
            decode_metrics,
            encode_metrics,
        )

        registry = MetricsRegistry()
        registry.counter("c", kind="x").inc(3)
        registry.histogram("h").observe(0.02)
        snap = registry.snapshot()
        clone = decode_metrics(encode_metrics(snap))
        assert clone == snap

    def test_malformed_span_rejected(self):
        from repro.distributed.runtime.wire import _stamp, decode_span
        from repro.exceptions import WireFormatError

        with pytest.raises(WireFormatError):
            decode_span(_stamp("span", ("not", "a", "span")))
        with pytest.raises(WireFormatError):
            decode_span(_stamp("span", (("not", "a", "span"),)))
        with pytest.raises(WireFormatError):
            decode_span(_stamp("span", ({"name": "site.evaluate"},)))


# ----------------------------------------------------------------------
# The merged-trace contract (engines x backends)
# ----------------------------------------------------------------------
BACKENDS = ["inproc"] + (
    ["processes"] if process_backend_available() else []
)


class TestMergedTrace:
    @pytest.fixture(scope="class")
    def workload(self):
        data = generate_graph(220, alpha=1.15, num_labels=8, seed=37)
        pattern = sample_pattern_from_data(data, 5, seed=41)
        assert pattern is not None
        return data, pattern, bfs_partition(data, 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ["python", "kernel", "numpy", "auto"])
    def test_one_merged_trace_with_byte_identical_bus_log(
        self, workload, engine, backend
    ):
        data, pattern, assignment = workload
        with Cluster(
            data, assignment, 3, engine=engine, backend=backend
        ) as cluster:
            plain = cluster.run(pattern)
            collector().clear()
            previous = set_tracing(True)
            try:
                traced_report = cluster.run(pattern)
            finally:
                set_tracing(previous)

        # Tracing must not perturb the protocol observation.
        assert {sg.signature() for sg in traced_report.result} == {
            sg.signature() for sg in plain.result
        }
        assert traced_report.query_log == plain.query_log

        (root,) = collector().roots()
        assert root.name == "distributed.run"
        site_spans = [c for c in root.children if c.name == "site.evaluate"]
        assert sorted(s.attrs["site"] for s in site_spans) == [0, 1, 2]
        # ONE merged trace: the root's bus.log attribute IS the
        # per-query protocol log, byte for byte.
        assert root.attrs["bus.log"] == traced_report.query_log
        assert root.attrs["bus.messages"] == len(traced_report.query_log)
        for site_span in site_spans:
            # Both name the code the sites ran: the reference per-ball
            # step, whatever engine the cluster was given.
            assert site_span.attrs["engine"] == "python"
            assert site_span.attrs["engine"] == root.attrs["engine"]
            assert site_span.attrs["fetch.records"] >= 0
        report = QueryReport.from_span(root)
        assert report.bus_log == traced_report.query_log
        text = report.format()
        assert "distributed.run" in text and "bus traffic:" in text

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_filter_span_accounts_the_filter_traffic(self, workload, backend):
        from repro.core.dualsim import dual_simulation

        data, pattern, assignment = workload
        with Cluster(
            data, assignment, 3, engine="kernel", backend=backend
        ) as cluster:
            collector().clear()
            previous = set_tracing(True)
            try:
                reports = [cluster.run(pattern), cluster.run(pattern)]
            finally:
                set_tracing(previous)
        roots = collector().roots()
        # Still one merged root per query.
        assert [root.name for root in roots] == ["distributed.run"] * 2
        relation = dual_simulation(pattern, data)
        related = set().union(
            *(relation.matches_of_raw(u) for u in relation.pattern_nodes())
        )
        for root, report in zip(roots, reports):
            (span,) = [
                c for c in root.children if c.name == "coordinator.filter"
            ]
            filter_log = [e for e in report.query_log if e[2] == "filter"]
            assert span.attrs["filter.units"] == sum(e[3] for e in filter_log)
            assert span.attrs["filter.units"] > 0
            assert span.attrs["filter.messages"] == len(filter_log)
            assert span.attrs["filter.rounds"] >= 2
            assert span.attrs["filter.survivors"] == len(related)
            balls = [
                c.attrs["balls"] for c in root.children
                if c.name == "site.evaluate"
            ]
            assert sum(balls) == len(related)

    @pytest.mark.parametrize("engine", tuple(ENGINE_TABLE))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_stats_are_per_site(self, workload, backend, engine):
        data, pattern, assignment = workload
        with Cluster(
            data, assignment, 3, engine=engine, backend=backend
        ) as cluster:
            cluster.run(pattern)
            stats = cluster.worker_stats()
            owned = {
                site: worker.fragment.num_nodes
                for site, worker in cluster.workers.items()
            }
        assert stats == {
            site: {
                "site": site,
                # No site compiles an index, on any engine.
                "index_builds": 0,
                "queries_served": 1,
                "owned_nodes": owned[site],
            }
            for site in (0, 1, 2)
        }

    def test_cluster_metrics_snapshot_merges_sites(self, workload):
        if "processes" not in BACKENDS:
            pytest.skip("platform cannot host the process runtime")
        data, pattern, assignment = workload
        with Cluster(
            data, assignment, 3, engine="kernel", backend="processes"
        ) as cluster:
            cluster.run(pattern)
            snapshot = cluster.metrics_snapshot()
            own = get_registry().snapshot()["counters"]
        counters = snapshot["counters"]
        # One pattern decode per worker process: beyond what this process
        # decoded itself (earlier tests may have), only the shipped
        # per-site snapshots can contribute these.
        key = "wire.frames{kind=pattern,op=decode}"
        assert counters.get(key, 0) - own.get(key, 0) == 3
        assert any(key.startswith("bus.units{kind=") for key in counters)


class TestCollectorLifetimes:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_closed_cluster_is_freed(self, backend):
        """The bus collector must not keep a cluster (its workers,
        fragments and cumulative bus) alive after its last reference."""
        from repro.service import MatchService

        data = small_graph()
        pattern = pattern_for(data)
        cluster = Cluster(data, bfs_partition(data, 2), 2, backend=backend)
        with MatchService() as service:
            service.query_distributed(pattern, cluster)
        ref = weakref.ref(cluster)
        cluster.close()
        del cluster
        gc.collect()
        assert ref() is None

    def test_cache_metrics_count_each_live_cache_once(self):
        """``cache.*`` folds every live cache exactly once: one shared
        by two services counts once, and a dropped cache stops
        counting."""
        from repro.service import MatchService, ResultCache

        data = small_graph()
        pattern = pattern_for(data)
        gc.collect()
        before = get_registry().snapshot()["counters"]
        shared = ResultCache()
        with MatchService(cache=shared) as one, MatchService(
            cache=shared
        ) as two:
            one.query(pattern, data)
            two.query(pattern, data)
        during = get_registry().snapshot()["counters"]
        for name, served in (("stores", 1), ("hits", 1), ("misses", 1)):
            key = f"cache.{name}"
            assert during[key] == before[key] + served, key
        del one, two, shared
        gc.collect()
        after = get_registry().snapshot()["counters"]
        assert after["cache.stores"] == before["cache.stores"]

    def test_forked_workers_ship_only_their_own_samples(self):
        """A forked worker inherits the coordinator's collectors and the
        indexes and clusters they sample; its ``done`` frames must not
        ship those samples back to be counted once more per site."""
        if "processes" not in BACKENDS:
            pytest.skip("platform cannot host the process runtime")
        data = small_graph()
        pattern = pattern_for(data)
        match_plus(pattern, data, engine="kernel")  # a live GraphIndex
        assignment = bfs_partition(data, 2)
        with Cluster(data, assignment, 2, engine="kernel") as inproc:
            inproc.run(pattern)
            with Cluster(
                data, assignment, 2, engine="kernel", backend="processes"
            ) as cluster:
                cluster.run(pattern)
                merged = cluster.metrics_snapshot()["counters"]
                own = get_registry().snapshot()["counters"]
        for key in ("index.full_compiles", "bus.messages"):
            assert own[key] > 0, key
            assert merged[key] == own[key], key

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_distributed_window_counts_each_query_once(self, backend):
        """Each distributed query adds one sample to the service
        histograms of the cluster-merged view, on every backend.

        The inproc warm-up leaves samples in this process's registry
        before the cluster forks its workers, which must not ship
        those inherited samples back as their own.
        """
        from repro.service import MatchService

        data = small_graph()
        pattern = pattern_for(data)
        assignment = bfs_partition(data, 2)
        keys = (
            "service.query_seconds{algorithm=distributed}",
            "service.queue_wait_seconds",
        )
        with MatchService() as service:
            with Cluster(data, assignment, 2) as warm:
                service.query_distributed(pattern, warm)
            with Cluster(
                data, assignment, 2, engine="kernel", backend=backend
            ) as cluster:
                before = cluster.metrics_snapshot()["histograms"]
                for _ in range(3):
                    service.query_distributed(pattern, cluster, cached=False)
                after = cluster.metrics_snapshot()["histograms"]
        for key in keys:
            assert after[key]["count"] - before[key]["count"] == 3, key


# ----------------------------------------------------------------------
# Service stats thread-safety under submit storms (satellite 3)
# ----------------------------------------------------------------------
class TestServiceStatsThreadSafety:
    def _storm(self, service, patterns, data, threads=8, per_thread=25):
        barrier = threading.Barrier(threads)
        futures = []
        lock = threading.Lock()

        def submitter(seed):
            barrier.wait()
            local = []
            for i in range(per_thread):
                pattern = patterns[(seed + i) % len(patterns)]
                local.append(service.submit(pattern, data))
            with lock:
                futures.extend(local)

        workers = [
            threading.Thread(target=submitter, args=(t,))
            for t in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        for future in futures:
            future.result()
        return len(futures)

    def test_no_lost_increments_under_concurrent_submits(self):
        from repro.service import MatchService

        data = small_graph(n=150, seed=51)
        patterns = [
            pattern_for(data, size=4, seed=seed) for seed in (61, 67, 71, 73)
        ]
        with MatchService(max_workers=6) as service:
            total = self._storm(service, patterns, data)
            stats = service.stats
            assert stats.queries == total
            assert (
                stats.computed + stats.replayed == total
            ), "computed + replayed must account for every query"
            cache = stats.cache
            assert cache.hits + cache.misses >= total - stats.coalesced
            # The registry view folds the same counters; it must agree.
            counters = get_registry().snapshot()["counters"]
            assert counters["service.queries"] >= total
            assert counters["cache.hits"] >= cache.hits

    def test_storm_with_cache_disabled_computes_everything(self):
        from repro.service import MatchService

        data = small_graph(n=150, seed=51)
        patterns = [pattern_for(data, size=4, seed=seed) for seed in (61, 67)]
        with MatchService(max_workers=6, cache_size=0) as service:
            total = self._storm(
                service, patterns, data, threads=6, per_thread=10
            )
            assert service.stats.queries == total
            assert service.stats.computed == total
            assert service.stats.replayed == 0


# ----------------------------------------------------------------------
# Instrumented engines stay observation-identical under tracing
# ----------------------------------------------------------------------
class TestTracingDoesNotPerturb:
    def test_kernel_match_span_counts_filtered_balls(self, traced):
        """Plain ``match`` on the kernel runs the Match+ core: the traced
        run returns the untraced result under one ``kernel.match_plus``
        root, which scans one ball per node of the global dual
        relation."""
        from repro.core.dualsim import dual_simulation
        from repro.core.strong import match

        data = small_graph(seed=81)
        pattern = pattern_for(data, seed=83)
        traced_result = [
            sg.signature() for sg in match(pattern, data, engine="kernel")
        ]
        roots = collector().roots()
        set_tracing(False)
        plain_result = [
            sg.signature() for sg in match(pattern, data, engine="kernel")
        ]
        assert traced_result == plain_result
        assert [root.name for root in roots] == ["kernel.match_plus"]
        scanned = len(dual_simulation(pattern, data).data_nodes())
        assert roots[0].attrs["balls.scanned"] == scanned
        assert roots[0].attrs["balls.matched"] == len(traced_result)

    @pytest.mark.parametrize("engine", ["python", "kernel", "numpy"])
    def test_match_plus_identical_traced(self, engine, traced):
        data = small_graph(seed=81)
        pattern = pattern_for(data, seed=83)
        traced_result = {
            sg.signature() for sg in match_plus(pattern, data, engine=engine)
        }
        set_tracing(False)
        plain_result = {
            sg.signature() for sg in match_plus(pattern, data, engine=engine)
        }
        assert traced_result == plain_result
        if engine in ("kernel", "numpy"):
            roots = collector().roots()
            assert roots and roots[-1].name == f"{engine}.match_plus"
