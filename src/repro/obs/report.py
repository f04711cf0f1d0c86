"""Per-query phase breakdowns derived from a finished trace.

:class:`QueryReport` flattens one root span into the view an operator
reads: total duration, one row per direct child phase (with its share
of the total and its key attributes), and the query's bus-traffic
attributes when the span carries them (``distributed.run`` spans do).
The CLI's ``--trace`` flag and ``examples/traced_query.py`` print it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.obs.trace import Span

__all__ = ["PhaseRow", "QueryReport"]

#: Span attributes surfaced inline on a phase row, in display order.
_PHASE_ATTRS = (
    "site",
    "engine",
    "balls",
    "partial",
    "fetch.round_trips",
    "fetch.records",
    "fetch.units",
    "filter.rounds",
    "filter.units",
    "filter.survivors",
    "balls.scanned",
    "balls.matched",
    "outcome",
    "deltas",
)


@dataclass
class PhaseRow:
    """One direct child phase of the reported span."""

    name: str
    duration: float
    fraction: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        details = ", ".join(
            f"{key}={self.attrs[key]}"
            for key in _PHASE_ATTRS
            if key in self.attrs
        )
        line = (
            f"  {self.name:<24} {self.duration * 1e3:9.3f} ms"
            f"  {self.fraction * 100:5.1f}%"
        )
        return f"{line}  [{details}]" if details else line


@dataclass
class QueryReport:
    """The phase breakdown of one traced query."""

    name: str
    duration: float
    phases: List[PhaseRow]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_span(cls, span: Span) -> "QueryReport":
        total = span.duration or 1e-12
        phases = [
            PhaseRow(
                child.name,
                child.duration,
                child.duration / total,
                dict(child.attrs),
            )
            for child in span.children
        ]
        return cls(span.name, span.duration, phases, dict(span.attrs))

    @property
    def bus_log(self) -> Tuple[Tuple[int, int, str, int], ...]:
        """The per-query bus charges the span carries (or ``()``)."""
        return tuple(tuple(entry) for entry in self.attrs.get("bus.log", ()))

    def bus_units_by_kind(self) -> Dict[str, int]:
        """Shipped units per message kind, from the span's bus log."""
        units: Dict[str, int] = {}
        for _, _, kind, amount in self.bus_log:
            units[kind] = units.get(kind, 0) + amount
        return units

    def format(self) -> str:
        """A readable multi-line breakdown (what ``--trace`` prints)."""
        lines = [f"{self.name}: {self.duration * 1e3:.3f} ms total"]
        lines.extend(row.format() for row in self.phases)
        by_kind = self.bus_units_by_kind()
        if by_kind:
            rendered = ", ".join(
                f"{kind}={units}" for kind, units in sorted(by_kind.items())
            )
            lines.append(
                f"  bus traffic: {len(self.bus_log)} messages ({rendered})"
            )
        return "\n".join(lines)
