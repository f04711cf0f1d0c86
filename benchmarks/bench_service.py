"""Query service: cache-hit speedup, invalidation precision, replays.

Three sections, every timed pair also an equivalence check:

* **cache** — one pattern served cold (a full ``match_plus``) vs warm
  (the fingerprint hit replaying the cached canonical encoding), plus a
  relabel-permuted twin that must hit the same entry.  Gated: the warm
  hit path must be >= 10x faster than a cold ``match_plus`` at small
  scale.
* **invalidation** — a mutation stream against a warm cache: label-
  disjoint deltas must retain entries (hits keep flowing), overlapping
  deltas must recompute, and every answer is asserted against a direct
  engine call.
* **distributed_cache** — a warm hit in the cluster's result store
  (version-vector gated, replaying the full run observation) vs a
  cold protocol run.  Gated *including smoke mode*: the replay
  must be >= 5x faster than ``Cluster.run`` — it only decodes the
  stored encoding and re-plays the query's bus log, no site ever
  evaluates a ball.

Emits ``benchmarks/results/bench_service.txt`` and machine-readable
``benchmarks/results/BENCH_service.json``.  Set
``REPRO_KERNEL_BENCH_SMOKE=1`` for the CI smoke mode (small sizes, no
timing gates, equivalence still enforced).
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.core.matchplus import match_plus
from repro.datasets import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from repro.distributed import Cluster, bfs_partition
from repro.service import MatchService

from benchmarks.conftest import best_of, emit, emit_result
from tests.engines import canonical_result as _canonical
from tests.engines import distributed_observation, permuted_pattern

WARM_HIT_SMALL_SCALE_BAR = 10.0
DISTRIBUTED_WARM_HIT_BAR = 5.0
SITES = 4
TIMING_REPS = 5


def test_service_cache_and_distributed_replay(scale):
    smoke = os.environ.get("REPRO_KERNEL_BENCH_SMOKE") == "1"
    lines: List[str] = ["Query service benchmark"]

    # ------------------------------------------------------------------
    # Section 1: warm cache-hit path vs cold match_plus
    # ------------------------------------------------------------------
    n = 600 if smoke else 2500
    data = generate_graph(n, alpha=1.2, num_labels=scale["labels"], seed=61)
    pattern = sample_pattern_from_data(data, 8, seed=811)
    assert pattern is not None
    twin = permuted_pattern(pattern, 17)

    service = MatchService(max_workers=2)
    direct = match_plus(pattern, data)
    served_cold = service.query(pattern, data)
    assert _canonical(served_cold) == _canonical(direct)
    served_warm = service.query(pattern, data)
    assert service.stats.cache.hits >= 1, "second submission must hit"
    assert _canonical(served_warm) == _canonical(direct)
    served_twin = service.query(twin, data)
    assert service.stats.cache.hits >= 2, "isomorphic twin must hit"
    assert _canonical(served_twin) == _canonical(match_plus(twin, data))

    cold_s = best_of(lambda: match_plus(pattern, data), TIMING_REPS)
    warm_s = best_of(lambda: service.query(pattern, data), TIMING_REPS)
    hit_speedup = round(cold_s / warm_s, 3) if warm_s else None
    cache_section = {
        "workload": f"match_plus on synthetic |V|={n}, |Vq|=8",
        "n": n,
        "cold_match_plus_s": round(cold_s, 6),
        "warm_hit_s": round(warm_s, 6),
        "speedup": hit_speedup,
        "fingerprint_shared_with_permuted_twin": True,
    }
    lines.append(
        f"cache: cold match_plus {cold_s:.5f}s vs warm hit {warm_s:.5f}s "
        f"-> {hit_speedup:.1f}x (|V|={n})"
    )

    # ------------------------------------------------------------------
    # Section 2: delta-invalidation precision under a mutation stream
    # ------------------------------------------------------------------
    service.close()
    pattern_labels = set(pattern.label_set())
    spare_label = "bench-spare"
    for i in range(10):
        data.add_node(f"spare{i}", spare_label)
    inval_service = MatchService(max_workers=2)
    stats = inval_service.stats.cache
    inval_service.query(pattern, data, "dual")
    retained_mutations = 0
    for i in range(9):  # label-disjoint edges: the dual entry survives
        data.add_edge(f"spare{i}", f"spare{i + 1}")
        inval_service.query(pattern, data, "dual")
        retained_mutations += 1
    assert stats.hits == retained_mutations, (
        "label-disjoint mutations must keep the dual entry live"
    )
    assert stats.invalidations == 0
    # An overlapping mutation must recompute; the answer stays exact.
    # (add_node with a pattern label is deterministically overlapping —
    # relabeling an existing node could no-op if it already carries the
    # chosen label, which depends on hash order.)
    overlap_label = min(pattern_labels, key=repr)
    data.add_node("bench-overlap", overlap_label)
    inval_service.query(pattern, data, "dual")
    assert stats.invalidations == 1 and stats.misses == 2
    assert _canonical(inval_service.query(pattern, data)) == _canonical(
        match_plus(pattern, data)
    )
    invalidation_section = {
        "label_disjoint_mutations_retained": retained_mutations,
        "invalidations_on_overlap": 1,
        "hits": stats.hits,
        "misses": stats.misses,
    }
    inval_service.close()
    lines.append(
        f"invalidation: {retained_mutations} label-disjoint mutations kept "
        f"the entry live; overlap invalidated "
        f"{invalidation_section['invalidations_on_overlap']} entr(y/ies)"
    )

    # ------------------------------------------------------------------
    # Section 3: distributed result cache — warm replay vs protocol run
    # ------------------------------------------------------------------
    dist_n = 300 if smoke else 600
    dist_data = generate_graph(
        dist_n, alpha=1.15, num_labels=scale["labels"], seed=37
    )
    dist_pattern = sample_pattern_from_data(dist_data, 6, seed=501)
    assert dist_pattern is not None
    assignment = bfs_partition(dist_data, SITES)
    cache_cluster = Cluster(dist_data, assignment, SITES)
    dist_service = MatchService(max_workers=2)
    fresh = distributed_observation(cache_cluster.run(dist_pattern))
    first = dist_service.query_distributed(dist_pattern, cache_cluster)
    warm = dist_service.query_distributed(dist_pattern, cache_cluster)
    assert dist_service.stats.computed == 1
    assert dist_service.stats.replayed >= 1
    assert distributed_observation(first) == fresh, (
        "cached distributed run diverged from Cluster.run"
    )
    assert distributed_observation(warm) == fresh, (
        "warm replay diverged from Cluster.run"
    )
    cold_dist_s = best_of(lambda: cache_cluster.run(dist_pattern), 3)
    warm_dist_s = best_of(
        lambda: dist_service.query_distributed(dist_pattern, cache_cluster),
        TIMING_REPS,
    )
    dist_speedup = round(cold_dist_s / warm_dist_s, 3) if warm_dist_s else None
    distributed_cache_section = {
        "workload": (
            f"distributed match on bfs-partitioned synthetic "
            f"|V|={dist_n}, {SITES} sites, |Vq|=6"
        ),
        "n": dist_n,
        "sites": SITES,
        "store": "the cluster's coordinator-hosted ResultCache",
        "cold_run_s": round(cold_dist_s, 6),
        "warm_replay_s": round(warm_dist_s, 6),
        "speedup": dist_speedup,
        "version_vector": list(cache_cluster.version_vector()),
        "gate": (
            f"warm replay >= {DISTRIBUTED_WARM_HIT_BAR}x over a cold "
            f"protocol run, enforced in smoke mode too"
        ),
    }
    dist_service.close()
    lines.append(
        f"distributed cache: cold run {cold_dist_s:.5f}s vs warm replay "
        f"{warm_dist_s:.5f}s -> {dist_speedup:.1f}x "
        f"({SITES} sites, |V|={dist_n})"
    )
    assert dist_speedup >= DISTRIBUTED_WARM_HIT_BAR, (
        f"warm distributed replay speedup {dist_speedup} fell below "
        f"{DISTRIBUTED_WARM_HIT_BAR}x over a cold Cluster.run"
    )

    payload: Dict = {
        "benchmark": "bench_service",
        "scale": os.environ.get("REPRO_BENCH_SCALE", "small"),
        "smoke": smoke,
        "timing": f"best of {TIMING_REPS}",
        "cache": cache_section,
        "invalidation": invalidation_section,
        "distributed_cache": distributed_cache_section,
        "equivalence": (
            "service results identical to direct engine calls; warm "
            "distributed replays identical to fresh Cluster.run "
            "observations"
        ),
    }
    emit_result("BENCH_service", payload)
    emit("bench_service", "\n".join(lines))

    if not smoke and payload["scale"] == "small":
        assert hit_speedup >= WARM_HIT_SMALL_SCALE_BAR, (
            f"warm cache-hit speedup {hit_speedup} fell below "
            f"{WARM_HIT_SMALL_SCALE_BAR}x over a cold match_plus"
        )
