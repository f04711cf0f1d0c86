"""Structured tracing: context-manager spans with monotonic timings.

A *span* is one timed region of work —
``with span("kernel.match_plus"):`` — carrying a name, a start/end pair
from :func:`time.perf_counter`, a dict of typed attributes and a list
of child spans.  Spans nest through a per-thread stack: a span entered
while another is open on the same thread becomes its child; a span that
closes with an empty stack is a *root* and lands in the process-wide
:class:`TraceCollector`.

The whole API compiles to a no-op when tracing is disabled (the
default): :func:`span` / :func:`capture` return the one shared
:data:`NOOP_SPAN` singleton, whose ``__enter__`` / ``__exit__`` /
``set`` do nothing and allocate nothing.  The disabled cost of an
instrumented call site is therefore one module-global read plus one
``with`` protocol round on a slotted singleton — gated at ≤2% of the
smoke benchmark in ``benchmarks/bench_kernel.py``.

Cross-thread and cross-process assembly (the distributed merged trace)
uses *captured* spans: :func:`capture` times a region exactly like
:func:`span` but does **not** attach the finished span to the local
stack or collector — the caller grafts it explicitly with
:meth:`Span.adopt` (site subtrees under the coordinator's
``distributed.run`` span, shipped in wire form between processes via
:func:`span_to_dict` / :func:`span_from_dict`).

Timings are per-process monotonic clocks: durations are meaningful
everywhere, absolute ``start``/``end`` values only within the process
that produced them.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Any, Dict, List, Optional

from time import perf_counter

__all__ = [
    "NOOP_SPAN",
    "Span",
    "TraceCollector",
    "capture",
    "collector",
    "current_span",
    "export_traces_json",
    "set_tracing",
    "span",
    "span_from_dict",
    "span_to_dict",
    "tracing_enabled",
]

#: Version stamp of the JSON trace document written by
#: :func:`export_traces_json`.
TRACE_SCHEMA_VERSION = 1

#: Root spans the collector retains (oldest dropped first); bounds the
#: memory of long tracing-enabled runs (e.g. a whole differential suite
#: under ``REPRO_TRACE=1``) without a drain between queries.
DEFAULT_COLLECTOR_CAPACITY = 4096


class _NoopSpan:
    """The disabled path: one immortal, attribute-less, allocation-free
    stand-in returned by :func:`span` / :func:`capture` while tracing is
    off.  Every method is a no-op returning ``self`` so instrumented
    code never branches on the tracing state."""

    __slots__ = ()

    #: Discriminator instrumented code may branch on to skip attribute
    #: computation that only matters when a live span will record it.
    enabled = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def adopt(self, child: Optional["Span"]) -> "_NoopSpan":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<noop span>"


NOOP_SPAN = _NoopSpan()


class Span:
    """One live traced region (see the module docstring for semantics)."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    enabled = True

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        _thread_stack().append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        stack = _thread_stack()
        stack.pop()
        self._finish(stack)
        return False

    def _finish(self, stack: List["Span"]) -> None:
        if stack:
            stack[-1].children.append(self)
        else:
            _COLLECTOR.add(self)

    # -- recording ------------------------------------------------------
    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) typed attributes on this span."""
        self.attrs.update(attrs)
        return self

    def adopt(self, child: Optional["Span"]) -> "Span":
        """Graft an already-finished span (subtree) under this one.

        The cross-thread / cross-process assembly primitive: the child
        was timed elsewhere (a site worker, a pool thread) with
        :func:`capture` and is appended verbatim.  ``None`` children are
        ignored so callers can pass through absent site spans.
        """
        if child is not None:
            self.children.append(child)
        return self

    # -- introspection --------------------------------------------------
    @property
    def duration(self) -> float:
        """Wall-clock seconds between enter and exit."""
        return self.end - self.start

    def span_count(self) -> int:
        """Number of spans in this subtree, itself included."""
        return 1 + sum(child.span_count() for child in self.children)

    def find(self, name: str) -> List["Span"]:
        """Every span named ``name`` in this subtree, preorder."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"{len(self.children)} children)"
        )


class _CapturedSpan(Span):
    """A span timed normally but *detached* on exit (see :func:`capture`)."""

    __slots__ = ()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        _thread_stack().pop()
        # Deliberately not attached to the parent or the collector: the
        # caller owns the finished span and grafts it via Span.adopt.
        return False


class TraceCollector:
    """Process-wide sink for finished root spans (bounded, thread-safe)."""

    def __init__(self, capacity: int = DEFAULT_COLLECTOR_CAPACITY) -> None:
        self._roots: "deque[Span]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Roots discarded because the collector was full.
        self.dropped = 0

    def add(self, root: Span) -> None:
        with self._lock:
            if len(self._roots) == self._roots.maxlen:
                self.dropped += 1
            self._roots.append(root)

    def roots(self) -> List[Span]:
        """A snapshot of the retained root spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def drain(self) -> List[Span]:
        """Remove and return the retained roots (oldest first)."""
        with self._lock:
            drained = list(self._roots)
            self._roots.clear()
            return drained

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()
            self.dropped = 0


_COLLECTOR = TraceCollector()

_TLS = threading.local()

#: The one switch the hot path reads.  ``REPRO_TRACE`` in the
#: environment enables tracing at import so whole test suites (and
#: forked worker processes) run traced without code changes — the CI
#: "differential suite under tracing" job uses exactly this.
_ENABLED = bool(os.environ.get("REPRO_TRACE"))


def _thread_stack() -> List[Span]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def tracing_enabled() -> bool:
    """Whether :func:`span` currently returns live spans."""
    return _ENABLED


def set_tracing(enabled: bool) -> bool:
    """Flip the process-wide tracing switch; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def span(name: str):
    """A live :class:`Span` — or :data:`NOOP_SPAN` while tracing is off."""
    if not _ENABLED:
        return NOOP_SPAN
    return Span(name)


def capture(name: str):
    """Like :func:`span`, but the finished span detaches for grafting.

    Returns :data:`NOOP_SPAN` while tracing is off; a live captured span
    reports ``.enabled`` ``True``, which is the discriminator callers
    use to decide whether there is a subtree to ship/adopt.
    """
    if not _ENABLED:
        return NOOP_SPAN
    return _CapturedSpan(name)


def current_span():
    """The innermost open span on this thread, or :data:`NOOP_SPAN`."""
    stack = getattr(_TLS, "stack", None)
    if stack:
        return stack[-1]
    return NOOP_SPAN


def collector() -> TraceCollector:
    """The process-wide root-span collector."""
    return _COLLECTOR


# ----------------------------------------------------------------------
# Serialization: the plain-dict form the process wire ships
# ----------------------------------------------------------------------
def span_to_dict(span_obj: Span) -> Dict[str, Any]:
    """The plain-data form of a span subtree, as the process backend's
    wire ships it (:func:`repro.distributed.runtime.wire.encode_span`)."""
    return {
        "name": span_obj.name,
        "start": span_obj.start,
        "end": span_obj.end,
        "attrs": dict(span_obj.attrs),
        "children": [span_to_dict(child) for child in span_obj.children],
    }


def span_from_dict(payload: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` subtree from its plain-data form."""
    rebuilt = Span(payload["name"])
    rebuilt.start = payload["start"]
    rebuilt.end = payload["end"]
    rebuilt.attrs = dict(payload["attrs"])
    rebuilt.children = [
        span_from_dict(child) for child in payload["children"]
    ]
    return rebuilt


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of attribute values to JSON-safe data."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(
            value, (set, frozenset)
        ) else value
        return [_jsonable(v) for v in items]
    return repr(value)


def _json_span(span_obj: Span) -> Dict[str, Any]:
    return {
        "name": span_obj.name,
        "start": span_obj.start,
        "duration": span_obj.duration,
        "attrs": {k: _jsonable(v) for k, v in span_obj.attrs.items()},
        "children": [_json_span(child) for child in span_obj.children],
    }


def export_traces_json(
    roots: Optional[List[Span]] = None, path: Optional[str] = None
) -> str:
    """Serialize root spans (default: the collector's) as a JSON document.

    Returns the JSON text; writes it to ``path`` when given.  The
    document is ``{"schema_version", "dropped", "traces": [...]}`` with
    each trace a nested ``{name, start, duration, attrs, children}``
    object; non-JSON attribute values degrade to ``repr`` strings.
    """
    if roots is None:
        roots = _COLLECTOR.roots()
    document = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "dropped": _COLLECTOR.dropped,
        "traces": [_json_span(root) for root in roots],
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
