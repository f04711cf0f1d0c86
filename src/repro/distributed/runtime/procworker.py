"""The worker-process side of the process-backed distributed runtime.

:func:`worker_main` is the entry point of one site's OS process.  It
rebuilds the site's :class:`~repro.distributed.fragment.Fragment` from
its wire form, hosts a :class:`_PipeSiteWorker` — a
:class:`~repro.distributed.worker.SiteWorker` whose cross-site fetches
go through the coordinator pipe instead of in-process peers — and then
serves commands until shut down.  The worker's compiled
``SiteGraphIndex`` lives in this process for its whole lifetime: it is
built on the first kernel query and stays warm across queries *and*
across ``apply_update`` deltas, exactly like an in-process site
(observable via the ``stats`` command's ``index_builds`` counter).

Protocol (one duplex pipe per site; the coordinator end lives in
:class:`~repro.distributed.runtime.transport.ProcessTransport`):

===============================  =====================================
coordinator -> worker             worker -> coordinator
===============================  =====================================
``("query", pattern, r)``         ``("filter", outbox, survivors)``:
                                  round 0 of the dual filter
``("filter", inbox)``             ``("filter", outbox, survivors)``:
                                  one later round
``("evaluate", trace)``           ``("fetch_many", nodes)`` * per BFS
                                  layer with unmaterialized remotes,
                                  then ``("done", partials, bus_log,
                                  span, metrics)``
``("update", deltas, owner)``     ``("ok",)``
``("forget", node)``              ``("ok",)``
``("stats",)``                    ``("stats", dict)``
``("shutdown",)``                 *(exits)*
===============================  =====================================

The engine is not part of any frame: it is an argument of
:func:`worker_main`, which the worker resolves once at start-up.
A query is one ``query`` frame (the only one carrying the pattern),
one ``filter`` frame per later round in which the site has mail (every
site gets round 1), and one ``evaluate`` frame once no site sends
anything.  Outboxes map a receiving site to its ``(node, pattern
nodes)`` entries; the coordinator routes and charges them.  Fetch
replies arrive as ``("records", ((owner_site, record), ...))`` in
request order; an ``("error", text)`` reply to any command aborts it.
Any exception in the worker is reported as ``("error", traceback)`` so
the coordinator can fail loud with the child's stack attached.  Fetch
requests are batched per ball-BFS layer (one pipe round trip for a
whole layer's missing records) but *accounted* per record: each record
appends one ``(owner, site, "fetch", units)`` entry to a per-query log
that ships back with the partials and is replayed onto the
coordinator's bus, so the protocol observation is byte-identical to the
in-process backend, which charges one bus message per record too.
"""

from __future__ import annotations

import traceback
from typing import List, Tuple

from repro.core.digraph import Node
from repro.distributed.network import MessageBus
from repro.distributed.worker import SiteWorker
from repro.distributed.runtime.wire import (
    decode_deltas,
    decode_fragment,
    decode_pattern,
    encode_bus_log,
    encode_metrics,
    encode_partials,
    encode_span,
)
from repro.exceptions import DistributedError
from repro.obs.metrics import get_registry as _obs_registry
from repro.obs.trace import set_tracing, tracing_enabled


class _PipeSiteWorker(SiteWorker):
    """A site worker whose remote fetches cross a process boundary.

    Only :meth:`_fetch_missing` differs from the in-process worker:
    instead of reading a peer's fragment directly, it round-trips one
    ``fetch_many`` request per batch over the coordinator pipe and logs
    the per-record charges locally.  Ball construction, the per-site
    engines, the warm index and the update path are all inherited
    unchanged — which is what keeps the backends observation-identical
    by construction rather than by reimplementation.
    """

    def __init__(self, fragment, engine: str, conn) -> None:
        # The inherited bus is a local stand-in: per-query charges are
        # logged in fetch_log and replayed coordinator-side instead.
        super().__init__(fragment, MessageBus(), engine=engine)
        self._conn = conn
        self.fetch_log: List[Tuple[int, int, str, int]] = []

    def _fetch_missing(self, nodes: List[Node]) -> None:
        self._conn.send(("fetch_many", tuple(nodes)))
        reply = self._conn.recv()
        if reply[0] != "records":
            raise DistributedError(
                f"fetch of {nodes!r} failed at the coordinator: {reply[1]}"
            )
        site_id = self.fragment.site_id
        self.fetch_round_trips += 1
        self.fetch_records += len(nodes)
        for node, (owner, record) in zip(nodes, reply[1]):
            # Same tariff as the in-process path: one bus message per
            # record, one unit for it plus one per incident edge.
            units = 1 + len(record[1]) + len(record[2])
            self.fetch_log.append((owner, site_id, "fetch", units))
            self.fetch_units += units
            self._remote_cache[node] = record


def worker_main(conn, wire_fragment, engine: str) -> None:
    """Run one site's worker process until shutdown or pipe loss."""
    # A forked worker inherits the coordinator's instruments and
    # collectors (with the indexes, services and clusters they sample);
    # every ``done`` frame ships this registry back to be merged, so it
    # must hold only what this worker records.
    _obs_registry().reset()
    try:
        fragment = decode_fragment(wire_fragment)
        worker = _PipeSiteWorker(fragment, engine, conn)
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # coordinator is gone; nothing left to serve
            command = message[0]
            try:
                if command == "query":
                    _, wire_pattern, radius = message
                    worker.fetch_log = []
                    outbox, survivors = worker.begin_query(
                        decode_pattern(wire_pattern), radius
                    )
                    conn.send(("filter", outbox, survivors))
                elif command == "filter":
                    outbox, survivors = worker.filter_round(message[1])
                    conn.send(("filter", outbox, survivors))
                elif command == "evaluate":
                    # Per-query tracing: the coordinator's flag turns the
                    # worker's tracing on for exactly this evaluation (a
                    # worker already enabled via REPRO_TRACE stays on).
                    previous = set_tracing(message[1] or tracing_enabled())
                    try:
                        partial = worker.match_local()
                    finally:
                        set_tracing(previous)
                    conn.send(
                        (
                            "done",
                            encode_partials(partial),
                            encode_bus_log(worker.fetch_log),
                            encode_span(worker.last_span),
                            encode_metrics(_obs_registry().snapshot()),
                        )
                    )
                elif command == "update":
                    _, wire_deltas, owner_of = message
                    for delta in decode_deltas(wire_deltas):
                        worker.apply_update(delta, owner_of)
                    conn.send(("ok",))
                elif command == "forget":
                    worker.forget_remote(message[1])
                    conn.send(("ok",))
                elif command == "stats":
                    conn.send(("stats", worker.runtime_stats()))
                elif command == "shutdown":
                    return
                else:
                    conn.send(("error", f"unknown command {command!r}"))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass
