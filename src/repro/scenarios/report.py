"""Scenario case reports and the matrix payload.

:class:`ScenarioCaseReport` is the per-(engine, backend) observation a
:class:`~repro.scenarios.runner.ScenarioRunner` produces: the digest
halves (the correctness gate: the result half always, the traffic half
of distributed cases where pinned), cache behavior, execution counts,
and — for distributed cases — exact bus traffic and the trace
cross-check.  It carries no timings; perfbench (``perfbench/``) is the
one latency source.  :func:`matrix_payload` folds case reports into the
shared result envelope's payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "SCENARIO_SCHEMA_VERSION",
    "ScenarioCaseReport",
    "matrix_payload",
    "render_cases",
]

#: Version of the scenario payload layout inside the shared envelope.
SCENARIO_SCHEMA_VERSION = 2


@dataclass
class ScenarioCaseReport:
    """The observation of one scenario case (one engine/backend cell)."""

    scenario: str
    scale: str
    engine: str
    backend: Optional[str]
    #: The result half of the case digest (see
    #: :func:`~repro.scenarios.digest.digest_halves`).
    digest: str
    expected_digest: Optional[str]
    queries: int
    cache: Dict[str, float] = field(default_factory=dict)
    executed: Dict[str, int] = field(default_factory=dict)
    #: Distributed cases: exact per-query bus accounting.
    bus: Optional[Dict[str, Any]] = None
    #: Distributed cases: does the ``bus.log`` span attribute agree
    #: with the reports' ``query_log``?  ``None`` off the distributed
    #: path.
    bus_log_matches_trace: Optional[bool] = None
    #: Distributed cases: the traffic half of the case digest, and its
    #: pin (``None`` where none is pinned).
    traffic_digest: Optional[str] = None
    expected_traffic_digest: Optional[str] = None
    skipped: Optional[str] = None

    @property
    def case_key(self) -> str:
        backend = self.backend or "-"
        return f"{self.scenario}/{self.scale}/{self.engine}/{backend}"

    @property
    def digest_ok(self) -> Optional[bool]:
        """Both halves against their pins; ``None`` when no result
        digest is pinned for this (scenario, scale)."""
        if self.skipped is not None or self.expected_digest is None:
            return None
        if self.digest != self.expected_digest:
            return False
        return self.expected_traffic_digest in (None, self.traffic_digest)

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "scenario": self.scenario,
            "scale": self.scale,
            "engine": self.engine,
            "backend": self.backend,
            "digest": self.digest,
            "expected_digest": self.expected_digest,
            "digest_ok": self.digest_ok,
            "queries": self.queries,
            "cache": self.cache,
            "executed": self.executed,
        }
        if self.bus is not None:
            payload["bus"] = self.bus
            payload["bus_log_matches_trace"] = self.bus_log_matches_trace
            payload["traffic_digest"] = self.traffic_digest
            payload["expected_traffic_digest"] = (
                self.expected_traffic_digest
            )
        if self.skipped is not None:
            payload["skipped"] = self.skipped
        return payload


def matrix_payload(
    cases: List[ScenarioCaseReport], scale: str
) -> Dict[str, Any]:
    """The payload ``repro scenarios run`` hands to ``write_result``."""
    ran = [case for case in cases if case.skipped is None]
    gated = [case for case in ran if case.digest_ok is not None]
    return {
        "benchmark": "scenarios",
        "scenario_schema_version": SCENARIO_SCHEMA_VERSION,
        "scale": scale,
        "cases": [case.to_payload() for case in cases],
        "ok": all(case.digest_ok for case in gated),
        "ran": len(ran),
        "skipped": len(cases) - len(ran),
    }


def render_cases(cases: List[ScenarioCaseReport]) -> str:
    """The per-case table ``repro scenarios run`` prints."""
    lines = [f"{'case':<44} {'digest':<18} gate"]
    for case in cases:
        if case.skipped is not None:
            lines.append(
                f"{case.case_key:<44} {'-':<18} skip  ({case.skipped})"
            )
            continue
        gate = {True: "ok", False: "FAIL", None: "new"}[case.digest_ok]
        line = f"{case.case_key:<44} {case.digest:<18} {gate}"
        if case.traffic_digest is not None:
            line += f"  (traffic {case.traffic_digest})"
        lines.append(line)
    return "\n".join(lines)
