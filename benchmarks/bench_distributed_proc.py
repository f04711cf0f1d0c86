"""Distributed runtime backends: serial in-process vs process-per-site.

The ``processes`` backend exists to evaluate sites off-GIL on real
cores, one OS process per site.  This benchmark times one warm cluster
per backend (``inproc`` | ``processes``) on the same bfs-partitioned
graph, asserting first that the full protocol observation is
**byte-identical** across backends (the runtime contract), then timing
repeated queries.  Every site runs the reference per-ball step whatever
the cluster's engine, so the engine is not a column.

Gate: on a full (non-smoke) small-scale run with at least as many CPUs
as sites, the process backend must beat the serial ``inproc`` backend
by ≥ 1.5x wall-clock at |V|≈2500 / 4 sites.  On a host with fewer
cores than sites the 4-way multi-core claim is not measurable — the
sites share the cores and processes add IPC — so the ratio is recorded
with an explanatory note instead (equivalence is still enforced).
``REPRO_KERNEL_BENCH_SMOKE=1`` shrinks sizes and records without
gating.

Emits ``benchmarks/results/bench_distributed_proc.txt`` and
machine-readable ``benchmarks/results/BENCH_proc.json``.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from repro.distributed import Cluster, bfs_partition, process_backend_available

from benchmarks.conftest import best_of, emit, emit_result
from tests.engines import cluster_observation

SITES = 4
PROC_OVER_INPROC_SMALL_SCALE_BAR = 1.5
BACKENDS = ("inproc", "processes")


def test_process_backend_beats_inproc(scale):
    if not process_backend_available():
        pytest.skip("platform cannot host the process backend")
    smoke = os.environ.get("REPRO_KERNEL_BENCH_SMOKE") == "1"
    reps = 2 if smoke else 3
    n = 600 if smoke else 2500
    cpus = os.cpu_count() or 1

    data = generate_graph(n, alpha=1.15, num_labels=scale["labels"], seed=37)
    pattern = sample_pattern_from_data(data, 6, seed=501)
    assert pattern is not None
    assignment = bfs_partition(data, SITES)

    observations = {}
    seconds = {}
    clusters = {
        backend: Cluster(data, assignment, SITES, backend=backend)
        for backend in BACKENDS
    }
    try:
        for backend, cluster in clusters.items():
            # Warm-up run doubles as the observation under test: worker
            # (process) bootstrap lands here, so the timed loop measures
            # steady-state serving.
            observations[backend] = cluster_observation(cluster.run(pattern))
            seconds[backend] = best_of(lambda c=cluster: c.run(pattern), reps)
    finally:
        for cluster in clusters.values():
            cluster.close()
    assert observations["processes"] == observations["inproc"], (
        "backend 'processes' observation diverged from 'inproc'"
    )
    speedup = round(seconds["inproc"] / max(seconds["processes"], 1e-9), 3)

    gated = not smoke and cpus >= SITES
    payload = {
        "benchmark": "bench_distributed_proc",
        "scale": os.environ.get("REPRO_BENCH_SCALE", "small"),
        "smoke": smoke,
        "workload": (
            f"bfs-partitioned synthetic |V|={n}, {SITES} sites, |Vq|=6, "
            f"warm clusters, best of {reps}"
        ),
        "n": n,
        "sites": SITES,
        "cpu_count": cpus,
        "inproc_s": round(seconds["inproc"], 6),
        "processes_s": round(seconds["processes"], 6),
        "proc_over_inproc_speedup": speedup,
        "equivalence": (
            "full protocol observation (results, per-site partials, bus "
            "accounting) asserted byte-identical across inproc/processes"
        ),
        "gate": (
            f">= {PROC_OVER_INPROC_SMALL_SCALE_BAR}x processes-over-inproc"
            if gated
            else (
                "recorded, not gated: "
                + (
                    "smoke mode"
                    if smoke
                    else f"host has {cpus} CPU(s) for {SITES} sites — "
                    "the site processes share the cores and add IPC; the "
                    "multi-core claim needs cores >= sites"
                )
            )
        ),
    }
    emit_result("BENCH_proc", payload)
    emit(
        "bench_distributed_proc",
        f"Distributed runtime backends (|V|={n}, {SITES} sites, "
        f"{cpus} CPU(s))\n"
        f"inproc {seconds['inproc']:.4f}s, processes "
        f"{seconds['processes']:.4f}s -> {speedup:.2f}x proc/inproc",
    )

    if gated and payload["scale"] == "small":
        assert speedup >= PROC_OVER_INPROC_SMALL_SCALE_BAR, (
            f"process backend speedup {speedup}x fell below "
            f"{PROC_OVER_INPROC_SMALL_SCALE_BAR}x over inproc at "
            f"|V|={n} / {SITES} sites on {cpus} CPUs"
        )
