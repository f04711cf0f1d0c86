"""Named experiment registry — regenerate any paper table/figure on demand.

Used by the ``python -m repro reproduce`` CLI subcommand (and available
programmatically).  Each entry renders the corresponding table/figure at
a caller-chosen scale; the benchmark suite under ``benchmarks/`` remains
the canonical, asserted reproduction — this registry is the interactive
view of the same harnesses.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.datasets import generate_amazon, generate_graph, generate_youtube
from repro.datasets.patterns import sample_pattern_from_data
from repro.experiments.performance import sweep_timing, time_update_workload
from repro.experiments.quality import sweep_data_sizes, sweep_pattern_sizes
from repro.experiments.tables import (
    render_closeness_figure,
    render_subgraph_count_figure,
    render_table,
    render_table3,
    render_timing_figure,
)

Renderer = Callable[[int], str]


def _datasets(scale: int):
    return {
        "Amazon": generate_amazon(scale, num_labels=20, seed=11),
        "YouTube": generate_youtube(max(200, scale // 2), num_labels=15, seed=13),
        "Synthetic": generate_graph(scale * 2, alpha=1.2, num_labels=20, seed=17),
    }


def _vq_values(scale: int) -> List[int]:
    return [2, 4, 6, 8, 10] if scale >= 500 else [2, 4, 6]


def fig7_closeness_vq(scale: int) -> str:
    """Figures 7(c)-(e): closeness vs |Vq|."""
    blocks = []
    for name, data in _datasets(scale).items():
        sweep = sweep_pattern_sizes(data, _vq_values(scale), seed=101)
        blocks.append(
            render_closeness_figure(f"closeness vs |Vq| ({name})", sweep)
        )
    return "\n\n".join(blocks)


def fig7_closeness_v(scale: int) -> str:
    """Figures 7(f)-(h): closeness vs |V| at |Vq| = 10."""
    sizes = [scale // 4, scale // 2, scale]
    blocks = []
    for name, generator in (
        ("Amazon", lambda n: generate_amazon(n, num_labels=20, seed=11)),
        ("YouTube", lambda n: generate_youtube(n, num_labels=15, seed=13)),
        ("Synthetic", lambda n: generate_graph(n, alpha=1.2, num_labels=20, seed=17)),
    ):
        sweep = sweep_data_sizes(generator, sizes, pattern_size=10, seed=201)
        blocks.append(
            render_closeness_figure(f"closeness vs |V| ({name})", sweep)
        )
    return "\n\n".join(blocks)


def fig7_subgraphs_vq(scale: int) -> str:
    """Figures 7(i)-(k): matched-subgraph counts vs |Vq|."""
    blocks = []
    for name, data in _datasets(scale).items():
        sweep = sweep_pattern_sizes(data, _vq_values(scale), seed=101)
        blocks.append(
            render_subgraph_count_figure(
                f"# matched subgraphs vs |Vq| ({name})", sweep
            )
        )
    return "\n\n".join(blocks)


def table3(scale: int) -> str:
    """Table 3: matched-subgraph size histogram."""
    from repro.core.matchplus import match_plus

    sizes_by_dataset: Dict[str, tuple] = {}
    for name, data in _datasets(scale).items():
        pattern = sample_pattern_from_data(data, 10, seed=301)
        if pattern is None:
            sizes_by_dataset[name] = ()
            continue
        result = match_plus(pattern, data)
        sizes_by_dataset[name] = tuple(sg.num_nodes for sg in result)
    return render_table3("Table 3: sizes of matched subgraphs", sizes_by_dataset)


def fig8_time_vq(scale: int) -> str:
    """Figure 8(a)-(c): time vs |Vq| (VF2 included at this small scale)."""
    data = generate_graph(scale * 2, alpha=1.2, num_labels=20, seed=19)

    def pair_for(vq, repeat):
        pattern = sample_pattern_from_data(data, int(vq), seed=401 + repeat)
        return (pattern, data) if pattern else None

    sweep = sweep_timing(
        "|Vq|", _vq_values(scale), pair_for, include_vf2=True,
        vf2_max_states=200_000,
    )
    return render_timing_figure("time (s) vs |Vq| (synthetic)", sweep)


def fig8_time_v(scale: int) -> str:
    """Figure 8(e)-(g): time vs |V|."""
    def pair_for(n, repeat):
        data = generate_graph(int(n), alpha=1.2, num_labels=20, seed=29)
        pattern = sample_pattern_from_data(data, 8, seed=441 + repeat)
        return (pattern, data) if pattern else None

    sizes = [scale // 2, scale, scale * 2]
    sweep = sweep_timing("|V|", sizes, pair_for, include_vf2=False)
    return render_timing_figure("time (s) vs |V| (synthetic)", sweep)


def incremental_updates(scale: int) -> str:
    """Index maintenance under requeries: amortized per-update latency.

    Times edge insertions each followed by a ``Match+`` requery, per
    index-maintenance strategy (incremental kernel index, recompile per
    query, reference engine).  It builds no
    :class:`~repro.core.incremental.IncrementalMatcher`; Section 6's
    incremental strong simulation is timed by
    ``benchmarks/bench_incremental.py``.
    """
    from repro.experiments.performance import (
        UPDATE_STRATEGIES,
        random_insertion_stream,
    )

    data = generate_graph(scale * 2, alpha=1.15, num_labels=20, seed=71)
    pattern = sample_pattern_from_data(data, 6, seed=611)
    if pattern is None:
        return "could not sample a pattern at this scale"
    run = time_update_workload(
        pattern, data, random_insertion_stream(data, 25, seed=5)
    )
    rows = {
        "total (s)": [
            round(run.seconds[name], 4) for name in UPDATE_STRATEGIES
        ],
        "amortized per update (ms)": [
            round(run.amortized_seconds[name] * 1e3, 3)
            for name in UPDATE_STRATEGIES
        ],
    }
    table = render_table(
        f"update workload: {run.num_updates} edge insertions + Match+ "
        f"requery each (|V|={run.data_size}, |Vq|={run.pattern_size})",
        "strategy",
        list(UPDATE_STRATEGIES),
        rows,
    )
    return (
        table
        + f"\nincremental-kernel full recompiles after priming: "
        f"{run.full_compiles}"
    )


def bounded_paths(scale: int) -> str:
    """Path matching: reference BFS vs the CSR kernel (PR 8)."""
    import time

    from repro.core.bounded import BoundedPattern, bounded_simulation
    from repro.core.kernel import get_index

    # 10 labels -> large per-label candidate sets, the regime where the
    # reference path's per-candidate BFS dominates.
    data = generate_graph(scale * 2, alpha=1.2, num_labels=10, seed=83)
    pattern = sample_pattern_from_data(data, 6, seed=811)
    if pattern is None:
        return "could not sample a pattern at this scale"
    cycle = (1, 2, 3, None)
    bounds = {
        edge: cycle[i % len(cycle)]
        for i, edge in enumerate(sorted(pattern.edges(), key=repr))
    }
    bp = BoundedPattern(pattern, bounds)

    timings = {}
    for engine in ("python", "kernel"):
        bounded_simulation(bp, data, engine=engine)  # warm-up / index build
        start = time.perf_counter()
        for _ in range(3):
            relation = bounded_simulation(bp, data, engine=engine)
        timings[engine] = (time.perf_counter() - start) / 3
        if engine == "python":
            reference_pairs = relation.pair_set()
        elif relation.pair_set() != reference_pairs:  # pragma: no cover
            return "kernel diverged from the reference — bug!"

    stats = get_index(data).stats
    rows = {
        "seconds/query": [round(timings[e], 4) for e in ("python", "kernel")],
        "speedup vs python": [
            "1.0x",
            f"{timings['python'] / max(timings['kernel'], 1e-9):.1f}x",
        ],
    }
    table = render_table(
        f"bounded matching (|V|={data.num_nodes}, |Vq|={pattern.num_nodes}, "
        f"mixed bounds {sorted(set(map(str, bounds.values())))}, warm index)",
        "engine",
        ["python", "kernel"],
        rows,
    )
    return (
        table
        + f"\n2-hop label builds: {stats.reach_builds} (witnesses are "
        "multi-source BFS over the CSR rows)"
    )


def distributed_backends(scale: int) -> str:
    """Runtime backends: wall-clock and traffic per backend (Sec. 4.3)."""
    import time

    from repro.distributed import (
        Cluster,
        bfs_partition,
        process_backend_available,
    )

    data = generate_graph(scale, alpha=1.15, num_labels=20, seed=37)
    pattern = sample_pattern_from_data(data, 6, seed=501)
    if pattern is None:
        return "could not sample a pattern at this scale"
    sites = 4
    assignment = bfs_partition(data, sites)
    backends = ["inproc"]
    if process_backend_available():
        backends.append("processes")
    rows = {"seconds": [], "fetch units": [], "subgraphs": []}
    reference = None
    for backend in backends:
        with Cluster(data, assignment, sites, backend=backend) as cluster:
            cluster.run(pattern)  # warm-up: worker bootstrap
            start = time.perf_counter()
            report = cluster.run(pattern)
            rows["seconds"].append(round(time.perf_counter() - start, 4))
        rows["fetch units"].append(report.data_shipment_units)
        signatures = {sg.signature() for sg in report.result}
        rows["subgraphs"].append(len(report.result))
        if reference is None:
            reference = signatures
        elif signatures != reference:  # pragma: no cover - contract break
            return f"backend {backend!r} diverged from inproc — bug!"
    return render_table(
        f"distributed runtime backends (|V|={data.num_nodes}, {sites} "
        f"sites, warm clusters; observations identical across backends)",
        "backend",
        backends,
        rows,
    )


def service_throughput(scale: int) -> str:
    """Query service: throughput and cache hit rate on a repeated stream."""
    from repro.service import MatchService, replay_workload, skewed_stream

    data = generate_graph(scale * 2, alpha=1.2, num_labels=20, seed=53)
    patterns = []
    for i, vq in enumerate((4, 6, 8)):
        pattern = sample_pattern_from_data(data, vq, seed=701 + i)
        if pattern is not None:
            patterns.append(pattern)
    if not patterns:
        return "could not sample patterns at this scale"
    stream = skewed_stream(patterns, data, rounds=3)

    rows = {"queries": [], "seconds": [], "throughput (q/s)": [],
            "cache hit rate": []}
    modes = ("cache off", "cache on")
    for mode in modes:
        cache_size = 0 if mode == "cache off" else 256
        with MatchService(max_workers=4, cache_size=cache_size) as svc:
            report, _ = replay_workload(svc, stream)
        rows["queries"].append(report.queries)
        rows["seconds"].append(round(report.seconds, 4))
        rows["throughput (q/s)"].append(round(report.throughput, 1))
        rows["cache hit rate"].append(
            f"{report.stats.cache.hit_rate:.0%}" if cache_size else "-"
        )
    return render_table(
        f"query service: {len(stream)} queries over {len(patterns)} "
        f"distinct patterns (|V|={data.num_nodes})",
        "mode",
        list(modes),
        rows,
    )


def distributed(scale: int) -> str:
    """Section 4.3: shipped units vs site count."""
    from repro.distributed import (
        bfs_partition,
        crossing_ball_bound,
        distributed_match,
        hash_partition,
    )

    data = generate_graph(scale, alpha=1.15, num_labels=20, seed=37)
    pattern = sample_pattern_from_data(data, 6, seed=501)
    if pattern is None:
        return "could not sample a pattern at this scale"
    site_counts = [2, 4]
    rows = {"hash": [], "bfs": [], "bound(bfs)": []}
    for k in site_counts:
        for name, partitioner in (("hash", hash_partition), ("bfs", bfs_partition)):
            assignment = partitioner(data, k)
            report = distributed_match(pattern, data, assignment, k)
            rows[name].append(report.data_shipment_units)
            if name == "bfs":
                rows["bound(bfs)"].append(
                    crossing_ball_bound(data, assignment, pattern.diameter)
                )
    return render_table(
        "distributed: shipped data units vs #sites", "#sites", site_counts, rows
    )


EXPERIMENTS: Dict[str, Renderer] = {
    "fig7-closeness-vq": fig7_closeness_vq,
    "fig7-closeness-v": fig7_closeness_v,
    "fig7-subgraphs-vq": fig7_subgraphs_vq,
    "table3": table3,
    "fig8-time-vq": fig8_time_vq,
    "fig8-time-v": fig8_time_v,
    "bounded-paths": bounded_paths,
    "incremental-updates": incremental_updates,
    "distributed": distributed,
    "distributed-backends": distributed_backends,
    "service-throughput": service_throughput,
}


def run_experiment(name: str, scale: int = 600) -> str:
    """Render one named experiment; raises KeyError for unknown names."""
    try:
        renderer = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    return renderer(scale)
