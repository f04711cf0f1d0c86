"""Unified observability: structured tracing spans + a metrics registry.

The introspection substrate for every layer of the reproduction:

* :mod:`repro.obs.trace` — context-manager spans with monotonic
  timings, parent/child nesting and typed attributes, compiled to a
  zero-allocation no-op while tracing is disabled (the default).
* :mod:`repro.obs.metrics` — the process-wide registry (counters and
  log-bucket histograms) that absorbs the existing ad-hoc stats
  objects behind one dotted namespace and renders Prometheus-style
  text expositions.
* :mod:`repro.obs.report` — per-query :class:`QueryReport` phase
  breakdowns derived from finished spans.

Enable tracing programmatically (``set_tracing(True)``), per CLI run
(``--trace out.json``), or for a whole process tree via the
``REPRO_TRACE`` environment variable (inherited by forked site worker
processes, which additionally honor the per-query trace flag the
coordinator broadcasts).
"""

from repro.obs.metrics import (
    Counter,
    HISTOGRAM_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.report import PhaseRow, QueryReport
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    TraceCollector,
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

__all__ = [
    "Counter",
    "HISTOGRAM_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "PhaseRow",
    "QueryReport",
    "Span",
    "TraceCollector",
    "capture",
    "collector",
    "current_span",
    "export_traces_json",
    "get_registry",
    "merge_snapshots",
    "render_prometheus",
    "set_tracing",
    "span",
    "span_from_dict",
    "span_to_dict",
    "tracing_enabled",
]
