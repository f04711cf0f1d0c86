"""The process-wide metrics registry: counters, gauges, histograms.

One dotted namespace unifies every layer's counters — the names the
rest of the system publishes under (see ROADMAP "Observability"):

================  =====================================================
``index.*``       compiled-index maintenance (``full_compiles``,
                  ``incremental_syncs``, ``deltas_applied``,
                  ``label_moves``)
``reach.*``       reachability-labeling kernel (``builds``, ``patches``,
                  ``drops``, ``probes``)
``cache.*``       result cache (``hits``, ``misses``, ``stores``,
                  ``invalidations``, ``retained``, ``evictions``)
``service.*``     query service (``queries``, ``computed``,
                  ``replayed``, ``coalesced``; histograms
                  ``service.query_seconds{algorithm=..}``,
                  ``service.queue_wait_seconds``)
``bus.*``         distributed bus traffic (``messages``,
                  ``units{kind=..}``, ``units{link=..}``)
``site.*``        per-site worker counters (``index_builds``,
                  ``queries_served``)
``wire.*``        runtime wire frames (``frames{kind=..,op=..}``)
================  =====================================================

Two publication styles coexist deliberately:

* **Live instruments** (:meth:`MetricsRegistry.counter` /
  :meth:`gauge` / :meth:`histogram`) for low-frequency events — one
  lock-guarded update per service query or wire frame.
* **Collectors** (:meth:`MetricsRegistry.register_collector`) for the
  hot paths: the existing ad-hoc stats objects (``IndexStats``,
  ``ServiceStats``/``CacheStats``, the message bus) keep their
  zero-overhead plain-int increments, and a registered callback
  *absorbs* them into the namespace at :meth:`snapshot` time.  The hot
  loops pay nothing; the registry still reports one unified view.

Snapshots are plain dicts (picklable — the process-backend workers ship
them to the coordinator in wire form), mergeable with
:func:`merge_snapshots`, and renderable as a Prometheus-style text
exposition via :func:`render_prometheus`.

Histograms use fixed log-scale buckets (base-2, 1µs … ~67s) so latency
percentiles are comparable across runs and mergeable across processes
without bucket renegotiation.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "HISTOGRAM_BUCKETS",
    "MetricsRegistry",
    "get_registry",
    "merge_snapshots",
    "render_prometheus",
    "subtract_snapshots",
]

#: Version stamp carried inside every snapshot (and over the wire).
METRICS_SCHEMA_VERSION = 1

#: Fixed log-scale histogram bucket upper bounds, in seconds: powers of
#: two from 1µs to 2^26µs (~67s).  Observations above the last bound
#: land in the implicit +Inf bucket.
HISTOGRAM_BUCKETS: Tuple[float, ...] = tuple(
    1e-6 * (2 ** i) for i in range(27)
)


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A settable point-in-time value (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed log-bucket latency histogram (thread-safe).

    ``counts[i]`` counts observations ``<= HISTOGRAM_BUCKETS[i]`` (and
    greater than the previous bound); ``counts[-1]`` is the +Inf bucket.
    """

    __slots__ = ("counts", "_sum", "_count", "_lock")

    def __init__(self) -> None:
        self.counts = [0] * (len(HISTOGRAM_BUCKETS) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(HISTOGRAM_BUCKETS, value)
        with self._lock:
            self.counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float:
        """Log-bucket-interpolated quantile ``q`` (0..1).

        Delegates to :meth:`HistogramSnapshot.percentile` over a locked
        copy of the buckets — exact to within one log-2 bucket, which is
        what SLO reporting needs (p50/p99 against a latency target), not
        exact order statistics.
        """
        return self.snapshot_view().percentile(q)

    def snapshot_view(self) -> "HistogramSnapshot":
        """A consistent immutable copy of this histogram's state."""
        with self._lock:
            return HistogramSnapshot(list(self.counts), self._sum, self._count)


class HistogramSnapshot:
    """One histogram's snapshot data, with the shared percentile math.

    Wraps the ``{"counts", "sum", "count"}`` dict a registry
    :meth:`MetricsRegistry.snapshot` (or :func:`merge_snapshots` /
    :func:`subtract_snapshots`) carries per histogram key.  This is the
    primitive the scenario harness's SLO report and the ``workload``
    CLI's latency summary both use.
    """

    __slots__ = ("counts", "sum", "count")

    def __init__(self, counts, sum: float = 0.0, count: int = 0) -> None:
        self.counts = list(counts)
        self.sum = sum
        self.count = count

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HistogramSnapshot":
        return cls(data["counts"], data.get("sum", 0.0), data.get("count", 0))

    @classmethod
    def from_snapshot(
        cls, snapshot: Dict[str, Any], name: str, **labels: Any
    ) -> Optional["HistogramSnapshot"]:
        """Pull ``name{labels}`` out of a registry snapshot (or None)."""
        key = _render_key(name, _label_items(labels))
        data = snapshot.get("histograms", {}).get(key)
        return None if data is None else cls.from_dict(data)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Quantile ``q`` (0..1) with log-bucket interpolation.

        The bucket containing rank ``q * count`` is found by a
        cumulative walk, then the answer is interpolated *inside* that
        bucket: linearly in the first bucket (whose lower edge is 0),
        geometrically (``lower * (upper/lower)**fraction``) in every
        other — the natural interpolation on a log-2 bucket grid.  The
        result therefore always lies within one bucket boundary of the
        exact order statistic.

        Edge behavior: an empty snapshot reports ``0.0``; a snapshot
        whose observations all share one bucket interpolates within that
        bucket (``q -> 0`` gives its lower edge, ``q = 1`` its upper);
        observations beyond the last bound (the +Inf bucket) report the
        last finite bound.
        """
        total = self.count
        if total <= 0:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(HISTOGRAM_BUCKETS):
                    return HISTOGRAM_BUCKETS[-1]
                upper = HISTOGRAM_BUCKETS[index]
                lower = HISTOGRAM_BUCKETS[index - 1] if index else 0.0
                fraction = (rank - previous) / bucket_count
                fraction = min(max(fraction, 0.0), 1.0)
                if lower <= 0.0:
                    return upper * fraction
                return lower * (upper / lower) ** fraction
        return HISTOGRAM_BUCKETS[-1]  # pragma: no cover - defensive


def _render_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """``name{k=v,...}`` with sorted labels — the snapshot dict key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _label_items(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """One process's metric namespace (instruments + collectors)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, tuple], Counter] = {}
        self._gauges: Dict[Tuple[str, tuple], Gauge] = {}
        self._histograms: Dict[Tuple[str, tuple], Histogram] = {}
        #: Weakly held collector *owners* mapped to their sample
        #: callbacks: a callback yields ``(name, labels_dict, value)``
        #: triples at snapshot time and dies with its owner.  A callback
        #: that references its owner (a bound method) keeps it alive
        #: forever, so per-object stats register one module-level
        #: function over a ``WeakSet`` of live objects instead.
        self._collectors: "weakref.WeakKeyDictionary[object, Callable]" = (
            weakref.WeakKeyDictionary()
        )

    # -- instruments ----------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_items(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter()
                self._counters[key] = instrument
            return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_items(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = Gauge()
                self._gauges[key] = instrument
            return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _label_items(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram()
                self._histograms[key] = instrument
            return instrument

    # -- collectors -----------------------------------------------------
    def register_collector(
        self,
        owner: object,
        sample: Callable[[], Iterable[Tuple[str, Dict[str, Any], float]]],
    ) -> None:
        """Absorb an existing stats object into the namespace.

        ``sample`` runs at :meth:`snapshot` time and yields
        ``(name, labels, value)`` triples; it must take whatever lock
        guards the stats it reads, so one snapshot is internally
        consistent.  The registration lives exactly as long as
        ``owner`` (held weakly; ``sample`` must not reference it).
        """
        self._collectors[owner] = sample

    # -- views ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """One consistent, picklable view of every metric.

        ``{"schema_version", "counters": {key: int}, "gauges":
        {key: float}, "histograms": {key: {"counts", "sum", "count"}}}``
        with collector samples folded into ``counters`` (summed when a
        collector key collides with a live counter or another
        collector's sample).
        """
        with self._lock:
            counters = {
                _render_key(*key): instrument.value
                for key, instrument in self._counters.items()
            }
            gauges = {
                _render_key(*key): instrument.value
                for key, instrument in self._gauges.items()
            }
            histograms = {}
            for key, instrument in self._histograms.items():
                with instrument._lock:
                    histograms[_render_key(*key)] = {
                        "counts": list(instrument.counts),
                        "sum": instrument._sum,
                        "count": instrument._count,
                    }
            samples = list(self._collectors.values())
        for sample in samples:
            for name, labels, value in sample():
                key = _render_key(name, _label_items(labels))
                counters[key] = counters.get(key, 0) + value
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Drop every instrument and every collector.

        A forked worker process calls this first: the instruments and
        the collectors' sampled objects it inherited are the parent's,
        and its snapshots must hold only what it records itself.
        """
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._collectors.clear()


def merge_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Sum snapshots (counters and histogram buckets add; gauges keep
    the last seen value) — how the coordinator folds the per-site
    snapshots the process-backend workers ship back into one view."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        gauges.update(snap.get("gauges", {}))
        for key, data in snap.get("histograms", {}).items():
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "counts": list(data["counts"]),
                    "sum": data["sum"],
                    "count": data["count"],
                }
            else:
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], data["counts"])
                ]
                merged["sum"] += data["sum"]
                merged["count"] += data["count"]
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def subtract_snapshots(
    after: Dict[str, Any], before: Dict[str, Any]
) -> Dict[str, Any]:
    """``after - before``: the metrics window between two snapshots.

    Counters and histogram buckets subtract key-wise (a key absent from
    ``before`` counts as zero); gauges keep ``after``'s point-in-time
    values.  This is how the scenario harness isolates one case's
    latency histograms and traffic counters out of the process-wide
    registry.  Values can go negative if a collector's owner (a service,
    a cluster) was garbage-collected between the snapshots — hold the
    owners alive across the window for an exact delta.
    """
    counters: Dict[str, float] = {}
    for key, value in after.get("counters", {}).items():
        counters[key] = value - before.get("counters", {}).get(key, 0)
    histograms: Dict[str, Dict[str, Any]] = {}
    before_hists = before.get("histograms", {})
    for key, data in after.get("histograms", {}).items():
        prior = before_hists.get(key)
        if prior is None:
            histograms[key] = {
                "counts": list(data["counts"]),
                "sum": data["sum"],
                "count": data["count"],
            }
        else:
            histograms[key] = {
                "counts": [
                    a - b for a, b in zip(data["counts"], prior["counts"])
                ],
                "sum": data["sum"] - prior["sum"],
                "count": data["count"] - prior["count"],
            }
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }


def _prometheus_name(key: str) -> Tuple[str, str]:
    """Split a snapshot key into a mangled metric name and label block."""
    if "{" in key:
        name, _, rest = key.partition("{")
        labels = rest.rstrip("}")
        rendered = ",".join(
            f'{part.partition("=")[0]}="{part.partition("=")[2]}"'
            for part in labels.split(",")
        )
        label_block = "{" + rendered + "}"
    else:
        name, label_block = key, ""
    return "repro_" + name.replace(".", "_").replace("-", "_"), label_block


def render_prometheus(snapshot: Optional[Dict[str, Any]] = None) -> str:
    """A Prometheus-style text exposition of ``snapshot``.

    Counters render as ``# TYPE <name> counter`` plus one sample per
    label set; histograms render cumulative ``_bucket{le=..}`` samples
    with ``_sum`` / ``_count``, Prometheus-classic shape.
    """
    if snapshot is None:
        snapshot = get_registry().snapshot()
    lines: List[str] = []
    typed: Dict[str, str] = {}

    def emit(kind: str, key: str, value: Any) -> List[str]:
        name, label_block = _prometheus_name(key)
        out = []
        if typed.get(name) is None:
            typed[name] = kind
            out.append(f"# TYPE {name} {kind}")
        out.append(f"{name}{label_block} {value}")
        return out

    for key in sorted(snapshot.get("counters", {})):
        lines.extend(emit("counter", key, snapshot["counters"][key]))
    for key in sorted(snapshot.get("gauges", {})):
        lines.extend(emit("gauge", key, snapshot["gauges"][key]))
    for key in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][key]
        name, label_block = _prometheus_name(key)
        if typed.get(name) is None:
            typed[name] = "histogram"
            lines.append(f"# TYPE {name} histogram")
        inner = label_block[1:-1] if label_block else ""
        cumulative = 0
        for bound, count in zip(HISTOGRAM_BUCKETS, data["counts"]):
            cumulative += count
            sep = "," if inner else ""
            lines.append(
                f'{name}_bucket{{{inner}{sep}le="{bound:.6g}"}} {cumulative}'
            )
        sep = "," if inner else ""
        lines.append(
            f'{name}_bucket{{{inner}{sep}le="+Inf"}} {data["count"]}'
        )
        lines.append(f"{name}_sum{label_block} {data['sum']}")
        lines.append(f"{name}_count{label_block} {data['count']}")
    return "\n".join(lines) + "\n"


#: The process-wide registry every layer publishes into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY
