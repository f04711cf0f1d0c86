"""Query service layer: concurrent matching over the execution engines.

The serving-oriented subsystem between the engines and the user (the
MADlib move of wrapping analytics kernels in a service layer), with
three pillars:

* :mod:`repro.service.fingerprint` — canonical forms and fingerprints
  for pattern graphs, so structurally identical queries share one cache
  entry;
* :mod:`repro.service.cache` — the delta-invalidated LRU result cache
  (:class:`ResultCache` / :class:`CacheStats`), subscribed to the
  :class:`~repro.core.digraph.GraphDelta` stream of each data graph or
  distributed cluster it holds entries for;
* :mod:`repro.service.executor` — :class:`MatchService`, the
  thread-pooled ``submit`` / ``submit_batch`` façade, plus the workload
  replay loop shared by the CLI, the experiments registry and the
  benchmark suite.

See the executor module docstring for the thread-safety contract and
``ROADMAP.md`` ("Query service") for the architecture overview.
"""

from repro.service.cache import (
    BALL_BASED_ALGORITHMS,
    CacheStats,
    ResultCache,
)
from repro.service.executor import (
    PATH_SERVICE_ALGORITHMS,
    SERVICE_ALGORITHMS,
    MatchService,
    Query,
    ServiceStats,
    WorkloadReport,
    replay_workload,
    skewed_stream,
)
from repro.service.fingerprint import (
    CanonicalPattern,
    canonical_form,
    pattern_fingerprint,
)

__all__ = [
    "BALL_BASED_ALGORITHMS",
    "CacheStats",
    "CanonicalPattern",
    "MatchService",
    "PATH_SERVICE_ALGORITHMS",
    "Query",
    "ResultCache",
    "SERVICE_ALGORITHMS",
    "ServiceStats",
    "WorkloadReport",
    "canonical_form",
    "pattern_fingerprint",
    "replay_workload",
    "skewed_stream",
]
