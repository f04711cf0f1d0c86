"""The process-wide metrics registry: counters and histograms.

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
``wire.*``        runtime wire frames (``frames{kind=..,op=..}``)
================  =====================================================

Two publication styles coexist deliberately:

* **Live instruments** (:meth:`MetricsRegistry.counter` /
  :meth:`histogram`) for low-frequency events — one
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

Histograms use fixed log-scale buckets (base-2, 1µs … ~67s), so
snapshots merge across processes without bucket renegotiation.  They
are live instruments for ``--metrics-out`` expositions; the registry
derives no latency statistics from them (perfbench's caller-timed
order statistics are the repo's latency numbers).
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "HISTOGRAM_BUCKETS",
    "MetricsRegistry",
    "get_registry",
    "merge_snapshots",
    "render_prometheus",
]

#: Version stamp carried inside every snapshot (and over the wire).
METRICS_SCHEMA_VERSION = 2

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

        ``{"schema_version", "counters": {key: int}, "histograms":
        {key: {"counts", "sum", "count"}}}``
        with collector samples folded into ``counters`` (summed when a
        collector key collides with a live counter or another
        collector's sample).
        """
        with self._lock:
            counters = {
                _render_key(*key): instrument.value
                for key, instrument in self._counters.items()
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
            self._histograms.clear()
            self._collectors.clear()


def merge_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Sum snapshots (counters and histogram buckets add) — how the
    coordinator folds the per-site snapshots the process-backend
    workers ship back into one view."""
    counters: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
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
