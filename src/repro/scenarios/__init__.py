"""Scenario harness: manifest-driven correctness fixtures.

Seeded workload fixtures that check the match set of every query on
every engine and backend against a pinned digest (in the spirit of
MADlib's reproducible library-of-workloads methodology).  Latency is
perfbench's job (``perfbench/``); scenario reports carry no timings.

* :mod:`repro.scenarios.manifest` — the declarative, seeded scenario
  matrix (:data:`SCENARIOS`) and the pinned digest halves
  (:data:`EXPECTED_DIGESTS` for results, :data:`EXPECTED_TRAFFIC_DIGESTS`
  for distributed traffic);
* :mod:`repro.scenarios.digest` — canonical, engine- and
  backend-independent observation digests;
* :mod:`repro.scenarios.runner` — deterministic replay through
  :class:`~repro.service.MatchService` / a
  :class:`~repro.distributed.Cluster`, with tracing on for the
  distributed bus-log cross-check;
* :mod:`repro.scenarios.report` — per-case reports and the result-file
  payload.

CLI surface: ``repro scenarios list | run``.
"""

from repro.scenarios.digest import (
    canonical_observation,
    digest_halves,
    digest_observations,
)
from repro.scenarios.manifest import (
    EXPECTED_DIGESTS,
    EXPECTED_TRAFFIC_DIGESTS,
    SCALES,
    SCENARIOS,
    ScenarioManifest,
    get_scenario,
    scenario_names,
)
from repro.scenarios.report import (
    SCENARIO_SCHEMA_VERSION,
    ScenarioCaseReport,
    matrix_payload,
    render_cases,
)
from repro.scenarios.runner import ScenarioRunner, run_matrix

__all__ = [
    "EXPECTED_DIGESTS",
    "EXPECTED_TRAFFIC_DIGESTS",
    "SCALES",
    "SCENARIOS",
    "SCENARIO_SCHEMA_VERSION",
    "ScenarioCaseReport",
    "ScenarioManifest",
    "ScenarioRunner",
    "canonical_observation",
    "digest_halves",
    "digest_observations",
    "get_scenario",
    "matrix_payload",
    "render_cases",
    "run_matrix",
    "scenario_names",
]
