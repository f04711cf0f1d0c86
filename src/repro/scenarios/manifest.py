"""Declarative scenario manifests: the seeded workload matrix.

A :class:`ScenarioManifest` pins everything a run needs to be
reproducible — generator seed and dataset kind, pattern sample seeds,
the query/mutation stream shape, the engine/backend matrix and the
scale table — so ``repro scenarios run`` is a pure function of the
manifest.  The committed :data:`EXPECTED_DIGESTS` table pins the
result half of the observation digest per (scenario, scale), and
:data:`EXPECTED_TRAFFIC_DIGESTS` the traffic half of the distributed
scenario (see :func:`~repro.scenarios.digest.digest_halves`), so a
change that only moves protocol traffic re-pins the second table and
leaves the first alone.  Engines and backends are
deliberately *not* part of the key, because the engines'
output-identity contract makes the digest engine- and
backend-independent — a digest that differs across engines is a
correctness bug, which is exactly what the gate is for.

Scales: ``smoke`` runs in seconds (the digest-gated CI matrix); ``S``
and ``M`` pin larger fixtures for ``repro scenarios run --scale``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "EXPECTED_DIGESTS",
    "EXPECTED_TRAFFIC_DIGESTS",
    "SCALES",
    "SCENARIOS",
    "ScenarioManifest",
    "get_scenario",
    "scenario_names",
]

#: Recognized scale names, smallest first.
SCALES = ("smoke", "S", "M")


@dataclass(frozen=True)
class ScenarioManifest:
    """One declarative scenario (see the module docstring).

    ``kind`` picks the replay path: ``"service"`` streams
    :class:`~repro.service.Query` batches through a fresh
    :class:`~repro.service.MatchService`, ``"distributed"`` runs
    synchronous ``query_distributed`` calls against a fresh 4-site
    :class:`~repro.distributed.Cluster` per backend, ``"paths"``
    streams bounded/regular path queries through the service's
    uncached path algorithms.
    """

    name: str
    title: str
    kind: str = "service"  # "service" | "distributed" | "paths"
    dataset: str = "synthetic"  # "synthetic" | "amazon" | "youtube"
    scales: Mapping[str, int] = field(
        default_factory=lambda: {"smoke": 240, "S": 600, "M": 2500}
    )
    seed: int = 17
    num_labels: int = 20
    engines: Tuple[str, ...] = ("python", "kernel", "numpy")
    algorithms: Tuple[str, ...] = ("match-plus",)
    pattern_sizes: Tuple[int, ...] = (4, 6)
    pattern_seed: int = 301
    stream: str = "sequential"  # "sequential" | "skewed"
    rounds: int = 2
    #: Mutation batches interleaved between query segments (service
    #: kind) or between query rounds (distributed kind); 0 = read-only.
    mutation_segments: int = 0
    mutation_count: int = 0
    mutation_seed: int = 5
    #: Distributed-kind knobs.
    backends: Tuple[str, ...] = ()
    sites: int = 4
    partitioner: str = "bfs"
    #: Paths-kind knob: "bounded" | "regular".
    path_kind: Optional[str] = None
    workers: int = 4
    cache_size: int = 256

    def cases(self) -> Tuple[Tuple[str, Optional[str]], ...]:
        """The (engine, backend) matrix this scenario expands into."""
        if self.kind == "distributed":
            return tuple(
                (engine, backend)
                for engine in self.engines
                for backend in self.backends
            )
        return tuple((engine, None) for engine in self.engines)

    def scale_nodes(self, scale: str) -> int:
        if scale not in self.scales:
            raise KeyError(
                f"scenario {self.name!r} has no {scale!r} scale; "
                f"available: {tuple(self.scales)}"
            )
        return self.scales[scale]


#: The seeded matrix.  Every scenario carries a smoke scale (the
#: digest-gated CI set); heavier scales exist where the ISSUE's matrix
#: calls for them.
SCENARIOS: Tuple[ScenarioManifest, ...] = (
    ScenarioManifest(
        name="match-single",
        title="single-engine strong simulation (match) at S/M",
        algorithms=("match",),
        seed=17,
        pattern_seed=311,
    ),
    ScenarioManifest(
        name="match-plus-single",
        title="single-engine minimized strong simulation (match+) at S/M",
        algorithms=("match-plus",),
        seed=19,
        pattern_seed=313,
    ),
    ScenarioManifest(
        name="tenancy-mixed",
        title="mixed read/write tenancy: algorithm mix + interleaved edge "
              "insertions",
        algorithms=("match", "match-plus", "dual", "sim"),
        scales={"smoke": 220, "S": 600},
        seed=23,
        pattern_seed=317,
        rounds=2,
        mutation_segments=2,
        mutation_count=6,
        mutation_seed=7,
    ),
    ScenarioManifest(
        name="hot-key-skew",
        title="hot-key query skew: repetition-skewed stream through the "
              "result cache",
        algorithms=("match-plus",),
        scales={"smoke": 220, "S": 600},
        seed=29,
        pattern_seed=331,
        stream="skewed",
        rounds=3,
        pattern_sizes=(4, 5, 6),
    ),
    ScenarioManifest(
        name="distributed-4site",
        title="4-site distributed protocol per backend, with mid-stream "
              "updates",
        kind="distributed",
        engines=("kernel",),
        backends=("inproc", "processes"),
        scales={"smoke": 200, "S": 600},
        seed=31,
        pattern_seed=337,
        rounds=2,
        mutation_segments=1,
        mutation_count=2,
        mutation_seed=9,
        sites=4,
        pattern_sizes=(4, 5),
    ),
    ScenarioManifest(
        name="paths-bounded",
        title="bounded path matching (hop bounds) on python/kernel",
        kind="paths",
        path_kind="bounded",
        engines=("python", "kernel"),
        scales={"smoke": 220, "S": 600},
        seed=37,
        pattern_seed=347,
        pattern_sizes=(3, 4),
    ),
    ScenarioManifest(
        name="paths-regular",
        title="regular path matching (regex edge constraints) on "
              "python/kernel",
        kind="paths",
        path_kind="regular",
        engines=("python", "kernel"),
        scales={"smoke": 220, "S": 600},
        seed=41,
        pattern_seed=349,
        pattern_sizes=(3, 4),
    ),
)

_BY_NAME: Dict[str, ScenarioManifest] = {m.name: m for m in SCENARIOS}


def scenario_names() -> Tuple[str, ...]:
    return tuple(_BY_NAME)


def get_scenario(name: str) -> ScenarioManifest:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(_BY_NAME)}"
        ) from None


#: Pinned result digests per (scenario, scale) — filled by running
#: the matrix and committing what it prints (``repro scenarios run``
#: prints the digest per case).  A missing key means "record, don't
#: gate" (used while a new scenario or scale stabilizes); present keys
#: are enforced by ``repro scenarios run`` and the CI smoke gate.
EXPECTED_DIGESTS: Dict[Tuple[str, str], str] = {
    ("match-single", "smoke"): "bf84c07dbb6ca087",
    ("match-single", "S"): "76295dabf76d258f",
    ("match-single", "M"): "acfacdec5919857b",
    ("match-plus-single", "smoke"): "0431f9109527ba27",
    ("match-plus-single", "S"): "e4366869402773f6",
    ("match-plus-single", "M"): "b6d6f82f11fcb47f",
    ("tenancy-mixed", "smoke"): "b7bdda56dfb607ad",
    ("tenancy-mixed", "S"): "9af2c4c0d86e6e0a",
    ("hot-key-skew", "smoke"): "e6f809c7e1aa8aeb",
    ("hot-key-skew", "S"): "d39a35bbbfb747e3",
    ("distributed-4site", "smoke"): "7ebc15976c514b9e",
    ("distributed-4site", "S"): "87b34b76b2c62983",
    ("paths-bounded", "smoke"): "b9388d1b10f70ccf",
    ("paths-bounded", "S"): "f5d9e310075c677f",
    ("paths-regular", "smoke"): "202a916d42b17ebd",
    ("paths-regular", "S"): "cdb8d93de1a75836",
}

#: Pinned traffic halves (the sorted per-query bus logs) of the
#: distributed scenario, per scale; gated like :data:`EXPECTED_DIGESTS`.
EXPECTED_TRAFFIC_DIGESTS: Dict[Tuple[str, str], str] = {
    ("distributed-4site", "smoke"): "636fb91bd7319da7",
    ("distributed-4site", "S"): "98b14b6724d244de",
}
