"""One distributed query, fully traced: a merged coordinator+site view.

Tracing (``repro.obs``) is off by default and costs nothing that way;
flipping it on for a query makes the Section 4.3 protocol legible.  The
coordinator opens a ``distributed.run`` span, each site worker records
its own ``site.evaluate`` span — on the ``processes`` backend inside a
*different OS process*, shipped back over the wire with the partials —
and the coordinator grafts them all into ONE trace.  The per-site spans
carry the fetch traffic as attributes (round trips per BFS layer,
records, shipped units), and the root span carries the per-query bus
log itself, so the trace *is* the protocol observation.

This example runs one traced query on a process-backed cluster (falling
back to inproc where fork is unavailable), prints the merged per-site
phase breakdown, and cross-checks the trace's bus-traffic attributes
against the cluster report's query log — they are the same object of
record, byte for byte.  Pass a path argument to also write the full
JSON trace document there (CI exports its sample artifact this way)::

    python examples/traced_query.py [trace.json]
"""

import sys

from repro.datasets import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from repro.distributed import Cluster, bfs_partition, process_backend_available
from repro.obs import (
    QueryReport,
    collector,
    export_traces_json,
    get_registry,
    set_tracing,
)

SITES = 3


def main(out_path=None) -> None:
    backend = "processes" if process_backend_available() else "inproc"
    data = generate_graph(400, alpha=1.15, num_labels=12, seed=37)
    pattern = sample_pattern_from_data(data, 5, seed=41)
    assert pattern is not None
    assignment = bfs_partition(data, SITES)
    print(f"data graph: |V|={data.num_nodes}, |E|={data.num_edges}, "
          f"{SITES} sites, backend={backend}")

    collector().clear()
    previous = set_tracing(True)
    try:
        with Cluster(data, assignment, SITES, backend=backend) as cluster:
            report = cluster.run(pattern)
            snapshot = cluster.metrics_snapshot()
    finally:
        set_tracing(previous)

    root = collector().roots()[-1]
    assert root.name == "distributed.run"

    # The merged trace: coordinator phases + one site.evaluate per site,
    # each shipped back from its worker (process boundary included).
    print()
    print("merged per-site phase breakdown:")
    print(QueryReport.from_span(root).format())

    sites_in_trace = sorted(
        child.attrs["site"] for child in root.children
        if child.name == "site.evaluate"
    )
    print()
    print(f"site spans merged into one trace: {sites_in_trace}")

    # The root span's bus.log attribute IS the per-query bus log.
    identical = root.attrs["bus.log"] == report.query_log
    print(f"trace bus log identical to protocol log: {identical}")
    print(f"result: {len(report.result)} perfect subgraph(s), "
          f"{report.bus.total_units} units on the bus")

    # The merged metrics snapshot folds in each worker process's
    # registry next to the coordinator's bus counters.
    bus_units = {
        key: value for key, value in sorted(snapshot["counters"].items())
        if key.startswith("bus.units{kind=")
    }
    print(f"bus units by kind (metrics registry): {bus_units}")
    # A counter that can only originate *inside* each worker process:
    # every worker decoded the broadcast pattern frame exactly once, so
    # a merged value of SITES proves the per-site snapshots shipped.
    decodes = snapshot["counters"].get(
        "wire.frames{kind=pattern,op=decode}", 0
    )
    print(f"pattern frames decoded across workers: {decodes}")
    assert get_registry() is not None

    if out_path is not None:
        export_traces_json([root], out_path)
        print(f"trace JSON written to {out_path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
