"""A simulated cluster message bus with traffic accounting.

The paper's distributed claim (Section 4.3) is quantitative: strong
simulation can be evaluated with total data shipment bounded by the balls
around nodes with cross-fragment neighbors.  To *measure* that, the
simulated bus charges every message with a size in ``units`` — one unit
per node record (id + label + adjacency stub) and one per edge shipped —
and keeps per-link counters, so benchmarks can report both message counts
and shipped volume, and tests can assert the bound.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass
class Message:
    """One message on the bus (metadata only; payloads stay in memory)."""

    sender: int
    receiver: int
    kind: str
    units: int


class MessageBus:
    """Counts messages and shipped units between sites.

    ``site -1`` denotes the coordinator.  The bus does not route payloads
    (workers are in-process); it exists purely to account traffic exactly
    where a real deployment would pay it.
    """

    def __init__(self) -> None:
        self.messages: List[Message] = []
        self._units_by_link: Dict[Tuple[int, int], int] = defaultdict(int)
        self._units_by_kind: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def send(self, sender: int, receiver: int, kind: str, units: int) -> None:
        """Record one message of ``units`` size on the (sender, receiver) link.

        Thread-safe: a protocol run charges the bus on one thread while
        a metrics snapshot may read its totals on another.
        """
        message = Message(sender, receiver, kind, units)
        with self._lock:
            self.messages.append(message)
            self._units_by_link[(sender, receiver)] += units
            self._units_by_kind[kind] += units

    @property
    def total_messages(self) -> int:
        """Number of messages sent."""
        return len(self.messages)

    @property
    def total_units(self) -> int:
        """Total shipped volume in units."""
        return sum(m.units for m in self.messages)

    def units_by_kind(self) -> Dict[str, int]:
        """Shipped volume per message kind (e.g. 'query', 'fetch', 'result')."""
        return dict(self._units_by_kind)

    def units_by_link(self) -> Dict[Tuple[int, int], int]:
        """Shipped volume per directed ``(sender, receiver)`` link."""
        with self._lock:
            return dict(self._units_by_link)

    def units_between(self, sender: int, receiver: int) -> int:
        """Shipped volume on one directed link."""
        return self._units_by_link.get((sender, receiver), 0)

    def data_units(self) -> int:
        """Volume of *graph data* shipped between sites (excludes the
        query broadcast and the result collection, which the paper's
        bound does not count)."""
        return self._units_by_kind.get("fetch", 0)

    def __repr__(self) -> str:
        return (
            f"MessageBus({self.total_messages} messages, "
            f"{self.total_units} units)"
        )
