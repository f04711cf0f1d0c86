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
2. warm worker processes — the same processes serve every query and
   live update of the cluster, patching their fragments in place, and
   still observe as a freshly built in-process cluster does;
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
    """The comparable protocol output of one run (its own traffic)."""
    return (
        {sg.signature() for sg in report.result},
        dict(report.per_site_subgraphs),
        report.units_by_kind(),
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
        kinds = proc_report.units_by_kind()
        listed = ", ".join(f"{kind}={units}" for kind, units in kinds.items())
        print(f"traffic: {len(proc_report.query_log)} messages, "
              f"{sum(kinds.values())} units ({listed}); fetch is the "
              f"Sec. 4.3 accounted shipment")

        # --------------------------------------------------------------
        # 2. Warm worker processes: they serve every query and update.
        # --------------------------------------------------------------
        second = proc_cluster.run(pattern)
        print("second query identical to the first:",
              observation(second) == observation(proc_report))
        updated = data.copy()
        nodes = list(data.nodes())
        for i in range(6):  # a live insertion stream, routed site by site
            for mirror in (proc_cluster, updated):
                mirror.add_node(f"new{i}", "l0")
                mirror.add_edge(f"new{i}", nodes[i])
        after = proc_cluster.run(pattern)
        with Cluster(
            updated, dict(proc_cluster.assignment), SITES
        ) as fresh_cluster:
            fresh_report = fresh_cluster.run(pattern)
        print("after live updates, identical to a fresh in-process cluster:",
              observation(after) == observation(fresh_report))
        served = [
            stats["queries_served"]
            for stats in proc_cluster.worker_stats().values()
        ]
        print("the same worker processes served every query:",
              served == [3] * SITES)

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
