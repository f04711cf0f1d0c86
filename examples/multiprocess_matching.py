"""Multi-core distributed matching with the process runtime.

The Section 4.3 protocol is embarrassingly parallel across sites, but
Python threads serialize pure-Python site evaluation on the GIL.  The
process runtime (``Cluster(backend="processes")``) hosts one site
worker per OS process behind a pluggable transport: queries, updates
and partial results cross the process boundary in version-stamped wire
form, cross-site fetches are request/reply through the coordinator
(batched per BFS layer), and the full protocol observation — result
set, per-site partials, every traffic counter — is byte-identical to
the in-process backend.

This example walks through:

1. one query on a process-backed cluster, checked against the
   centralized result and against an in-process cluster's observation;
2. the warmth guarantee — each worker process compiles its per-site
   CSR index once and keeps it across queries *and* live updates;
3. serving distributed queries through ``MatchService`` while
   centralized queries keep flowing on the same pool.
"""

from repro.core.strong import match
from repro.datasets import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from repro.distributed import (
    Cluster,
    bfs_partition,
    process_backend_available,
)
from repro.service import MatchService

SITES = 4


def observation(report):
    """The comparable protocol output of one run."""
    return (
        {sg.signature() for sg in report.result},
        dict(report.per_site_subgraphs),
        report.bus.units_by_kind(),
    )


def main() -> None:
    if not process_backend_available():
        print("process backend unavailable on this platform; nothing to show")
        return

    data = generate_graph(400, alpha=1.15, num_labels=12, seed=37)
    pattern = sample_pattern_from_data(data, 5, seed=41)
    assert pattern is not None
    assignment = bfs_partition(data, SITES)
    print(f"data graph: |V|={data.num_nodes}, |E|={data.num_edges}, "
          f"{SITES} sites (bfs partition)")

    # ------------------------------------------------------------------
    # 1. One query, three ways: centralized, in-process, processes.
    # ------------------------------------------------------------------
    centralized = {sg.signature() for sg in match(pattern, data)}
    with Cluster(data, assignment, SITES) as inproc_cluster, Cluster(
        data, assignment, SITES, backend="processes"
    ) as proc_cluster:
        inproc_report = inproc_cluster.run(pattern)
        proc_report = proc_cluster.run(pattern)
        print("result identical to centralized:",
              {sg.signature() for sg in proc_report.result} == centralized)
        print("observation identical to in-process backend:",
              observation(proc_report) == observation(inproc_report))
        kinds = proc_report.bus.units_by_kind()
        print(f"traffic: fetch={kinds.get('fetch', 0)} units "
              f"(the Sec. 4.3 accounted shipment), "
              f"query={kinds.get('query', 0)}, "
              f"result={kinds.get('result', 0)}")

        # --------------------------------------------------------------
        # 2. Warm worker processes: compile once, survive updates.
        # --------------------------------------------------------------
        proc_cluster.run(pattern)  # second query: indexes stay warm
        builds = [
            stats["index_builds"]
            for stats in proc_cluster.worker_stats().values()
        ]
        print("site indexes compiled once per worker process:",
              all(b == 1 for b in builds))
        nodes = list(data.nodes())
        for i in range(6):  # a live insertion stream, routed site by site
            proc_cluster.add_node(f"new{i}", "l0")
            proc_cluster.add_edge(f"new{i}", nodes[i])
        proc_cluster.run(pattern)
        builds = [
            stats["index_builds"]
            for stats in proc_cluster.worker_stats().values()
        ]
        print("still compiled once after live updates:",
              all(b == 1 for b in builds))

        # --------------------------------------------------------------
        # 3. Distributed queries through the service layer.
        # --------------------------------------------------------------
        with MatchService(max_workers=3) as service:
            distributed_future = service.submit_distributed(
                pattern, proc_cluster
            )
            central_results = [
                service.query(pattern, data, "dual") for _ in range(3)
            ]
            report = distributed_future.result()
        print("service distributed result non-empty:", len(report.result) > 0)
        print(f"service also answered {len(central_results)} centralized "
              f"queries while the distributed run was in flight")


if __name__ == "__main__":
    main()
