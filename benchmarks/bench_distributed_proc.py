"""Distributed runtime backends: thread-per-site vs process-per-site.

PR 4 measured ``Cluster(parallel=True)`` at 0.99x over serial and had to
record rather than gate it: pure-Python site evaluation serializes on
the GIL at any core count.  The process backend is the payoff of that
architecture — one OS process per site evaluates off-GIL on real cores.
This benchmark times one warm cluster per backend (``inproc`` |
``threads`` | ``processes``) on the same bfs-partitioned graph, for both
site substrates (the ``python`` reference and the ``kernel``; the
``numpy`` engine runs the kernel at the sites, so it has no column of
its own), asserting first that the full protocol observation is
**byte-identical** across backends (the runtime contract), then timing
repeated queries.  The thread-over-inproc ratio is recorded per engine.

Gate: on a full (non-smoke) small-scale run with at least as many CPUs
as sites, the process backend must beat the thread backend by ≥ 1.5x
wall-clock on both engines at |V|≈2500 / 4 sites.  On a host with fewer
cores than sites the 4-way multi-core claim is not measurable — on one
CPU, processes pay IPC on top of the same serialized compute — so the
ratio is recorded with an explanatory note instead, exactly like PR 4's
thread-parallel section (equivalence is still enforced).
``REPRO_KERNEL_BENCH_SMOKE=1`` shrinks sizes and records without
gating.

Emits ``benchmarks/results/bench_distributed_proc.txt`` and
machine-readable ``benchmarks/results/BENCH_proc.json``.
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro.datasets import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from repro.distributed import Cluster, bfs_partition, process_backend_available

from benchmarks.conftest import best_of, emit, emit_result
from tests.engines import cluster_observation

SITES = 4
PROC_OVER_THREAD_SMALL_SCALE_BAR = 1.5
BACKENDS = ("inproc", "threads", "processes")


def test_process_backend_beats_threads(scale):
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

    lines: List[str] = [
        f"Distributed runtime backends (|V|={n}, {SITES} sites, "
        f"{cpus} CPU(s))"
    ]
    sections: Dict[str, Dict] = {}
    speedups: Dict[str, float] = {}
    for engine in ("python", "kernel"):
        observations = {}
        seconds = {}
        clusters = {
            backend: Cluster(
                data, assignment, SITES, engine=engine, backend=backend
            )
            for backend in BACKENDS
        }
        try:
            for backend, cluster in clusters.items():
                # Warm-up run doubles as the observation under test:
                # worker (process) bootstrap and index compilation land
                # here, so the timed loop measures steady-state serving.
                observations[backend] = cluster_observation(
                    cluster.run(pattern)
                )
                seconds[backend] = best_of(
                    lambda c=cluster: c.run(pattern), reps
                )
        finally:
            for cluster in clusters.values():
                cluster.close()
        for backend in BACKENDS[1:]:
            assert observations[backend] == observations["inproc"], (
                f"backend {backend!r} observation diverged on {engine!r}"
            )
        speedup = round(
            seconds["threads"] / max(seconds["processes"], 1e-9), 3
        )
        thread_scaling = round(
            seconds["inproc"] / max(seconds["threads"], 1e-9), 3
        )
        speedups[engine] = speedup
        sections[engine] = {
            "inproc_s": round(seconds["inproc"], 6),
            "threads_s": round(seconds["threads"], 6),
            "processes_s": round(seconds["processes"], 6),
            "proc_over_thread_speedup": speedup,
            "threads_over_inproc_speedup": thread_scaling,
        }
        lines.append(
            f"{engine}: inproc {seconds['inproc']:.4f}s, threads "
            f"{seconds['threads']:.4f}s, processes "
            f"{seconds['processes']:.4f}s -> {speedup:.2f}x proc/thread, "
            f"{thread_scaling:.2f}x thread/inproc"
        )

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
        "engines": sections,
        "equivalence": (
            "full protocol observation (results, per-site partials, bus "
            "accounting) asserted byte-identical across "
            "inproc/threads/processes on both engines"
        ),
        "gate": (
            f">= {PROC_OVER_THREAD_SMALL_SCALE_BAR}x processes-over-"
            "threads on both engines"
            if gated
            else (
                "recorded, not gated: "
                + (
                    "smoke mode"
                    if smoke
                    else f"host has {cpus} CPU(s) for {SITES} sites — "
                    "thread and process backends both (partly) serialize "
                    "their compute and processes add IPC; the multi-core "
                    "claim needs cores >= sites (cf. PR 4's "
                    "thread-parallel section)"
                )
            )
        ),
    }
    emit_result("BENCH_proc", payload)
    emit("bench_distributed_proc", "\n".join(lines))

    if gated and payload["scale"] == "small":
        for engine, speedup in speedups.items():
            assert speedup >= PROC_OVER_THREAD_SMALL_SCALE_BAR, (
                f"process backend speedup {speedup}x on {engine!r} fell "
                f"below {PROC_OVER_THREAD_SMALL_SCALE_BAR}x over threads "
                f"at |V|={n} / {SITES} sites on {cpus} CPUs"
            )
