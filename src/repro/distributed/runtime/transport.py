"""Pluggable transports: where a cluster's site workers actually live.

The Section 4.3 protocol is defined over *sites* exchanging messages; it
never says the sites must share an interpreter.  A
:class:`~repro.distributed.coordinator.Cluster` therefore delegates the
"host the workers, evaluate a query, route an update" mechanics to a
:class:`Transport`:

A query crosses a transport in three steps: :meth:`Transport.begin`
broadcasts it and returns every site's round 0 of the dual filter,
:meth:`Transport.filter_round` delivers each later round's mail and
returns the sites' answers, and :meth:`Transport.evaluate` has every
site match the balls of its surviving centers.  The coordinator routes
the filter payloads between sites and charges them itself, so the
transport only carries them.

* :class:`InProcTransport` — in-process workers, run serially in site
  order.  Workers charge the cluster's
  :class:`~repro.distributed.network.MessageBus` directly and
  cross-site fetches read the owning peer's fragment.  This is the
  reference every observation is compared against.
* :class:`ProcessTransport` — one OS process per site, talking over
  ``multiprocessing`` pipes.  Queries are *broadcast* in wire form
  (:mod:`repro.distributed.runtime.wire`) — the pattern crosses each
  pipe once per query — and each filter round is one request/reply per
  site with mail; updates are **batched** —
  deltas buffer per site and ship as one ``update`` frame per site at
  the next flush point (query, stats, forget, i.e. anything that could
  observe worker state), so an N-delta burst costs one pipe round trip
  per affected site instead of N request/reply acks.  Cross-site
  ``fetch`` is request/reply, answered by the coordinator from its
  mirror fragments (the same records the owning peer would serve — both
  are maintained by the same delta stream); per-site fetch charges ship
  back with the partials and are replayed onto the bus in site order.
  Site evaluation runs off-GIL on real cores.

Both transports yield byte-identical protocol observations — result
set, per-site partial counts, message count, units per kind and per
directed link — enforced by ``tests/test_runtime.py`` through the
``tests/engines.py`` harness.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
from typing import Dict, Iterable, List, Optional

from repro.core.digraph import Node
from repro.core.pattern import Pattern
from repro.core.result import PerfectSubgraph
from repro.distributed.network import MessageBus
from repro.distributed.runtime.procworker import worker_main
from repro.distributed.runtime.wire import (
    decode_bus_log,
    decode_metrics,
    decode_partials,
    decode_span,
    encode_deltas,
    encode_fragment,
    encode_pattern,
)
from repro.distributed.sitefilter import FilterEntry
from repro.distributed.worker import FilterReply, SiteWorker
from repro.exceptions import DistributedError
from repro.obs.trace import tracing_enabled

#: The cluster backends: ``inproc`` is the serial reference,
#: ``processes`` adds real multi-core parallelism.
BACKENDS = ("inproc", "processes")

#: Start methods the process backend can run on, in preference order:
#: ``fork`` reuses the warm parent interpreter (cheap, inherits the hash
#: seed), the others pay a fresh-interpreter bootstrap per site.
_START_METHODS = ("fork", "forkserver", "spawn")


def resolve_backend(backend: Optional[str]) -> str:
    """Validate ``backend``; ``None`` means ``inproc``."""
    if backend is None:
        return "inproc"
    if backend not in BACKENDS:
        raise DistributedError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def process_backend_available() -> bool:
    """True when this platform can host one worker process per site."""
    try:
        methods = multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms only
        return False
    return any(method in methods for method in _START_METHODS)


def _make_context():
    methods = multiprocessing.get_all_start_methods()
    for method in _START_METHODS:
        if method in methods:
            return multiprocessing.get_context(method)
    raise DistributedError(
        "the 'processes' backend needs fork/forkserver/spawn support, "
        "none of which this platform provides"
    )


#: The mail one site receives in one filter round: the entries of
#: every sender, in sender order.
Inbox = Iterable[FilterEntry]


class Transport:
    """Hosts a cluster's site workers and routes the protocol to them."""

    def begin(self, pattern: Pattern, radius: int) -> Dict[int, FilterReply]:
        """Broadcast one query: every site's round-0 filter reply, in
        site order (see :meth:`SiteWorker.begin_query`)."""
        raise NotImplementedError

    def filter_round(
        self, inboxes: Dict[int, Inbox]
    ) -> Dict[int, FilterReply]:
        """One dual-filter round on the sites in ``inboxes``: each
        applies its mail and answers (see :meth:`SiteWorker.filter_round`)."""
        raise NotImplementedError

    def evaluate(self) -> Dict[int, List[PerfectSubgraph]]:
        """Every site's partial Θ_i for the query :meth:`begin` started,
        in site order.

        Implementations must charge (or replay) each worker's ``fetch``
        traffic on the cluster bus exactly as the serial in-process path
        would, so the full observation stays backend-independent.
        """
        raise NotImplementedError

    def apply_update(self, site_id: int, delta, owner_of) -> None:
        """Apply one owned-fragment delta on ``site_id``'s worker."""
        raise NotImplementedError

    def forget_remote(self, node: Node) -> None:
        """Drop a cluster-wide removed node from every routing table."""
        raise NotImplementedError

    def worker_stats(self) -> Dict[int, Dict[str, object]]:
        """Per-site runtime counters (see ``SiteWorker.runtime_stats``)."""
        raise NotImplementedError

    def site_spans(self) -> Dict[int, object]:
        """The per-site ``site.evaluate`` trace subtrees of the last
        :meth:`evaluate`, by site — empty when tracing was off.  The
        coordinator grafts them under its ``distributed.run`` span."""
        return {}

    def site_metrics(self) -> Dict[int, Dict[str, object]]:
        """Per-site registry snapshots from the last :meth:`evaluate`.

        Only remote-hosted workers report here (their registries live in
        other processes); in-process workers publish straight into the
        coordinator's own registry, which `snapshot()` already covers.
        """
        return {}

    def close(self) -> None:
        """Release transport resources (idempotent)."""
        raise NotImplementedError


class InProcTransport(Transport):
    """Serial in-process sites: the reference backend.

    The workers share the cluster's bus and read peers' fragments
    directly; every step runs them one after another in site order.
    """

    def __init__(self, workers: Dict[int, SiteWorker]) -> None:
        self._workers = workers

    def begin(self, pattern, radius):
        return {
            site: worker.begin_query(pattern, radius)
            for site, worker in self._workers.items()
        }

    def filter_round(self, inboxes):
        return {
            site: self._workers[site].filter_round(inbox)
            for site, inbox in inboxes.items()
        }

    def evaluate(self):
        return {
            site: worker.match_local()
            for site, worker in self._workers.items()
        }

    def apply_update(self, site_id, delta, owner_of):
        self._workers[site_id].apply_update(delta, owner_of)

    def forget_remote(self, node):
        for worker in self._workers.values():
            worker.forget_remote(node)

    def worker_stats(self):
        return {
            site: worker.runtime_stats()
            for site, worker in self._workers.items()
        }

    def site_spans(self):
        return {
            site: worker.last_span
            for site, worker in self._workers.items()
            if worker.last_span is not None
        }

    def close(self):
        pass  # nothing to release: the workers live in this interpreter


class ProcessTransport(Transport):
    """One worker process per site behind request/reply pipes.

    Parameters
    ----------
    workers:
        The coordinator-side mirror workers.  They never evaluate
        queries; they are the fetch directory (every ``serve_node``
        answer comes from a mirror fragment, which the update path keeps
        in lockstep with the worker processes) and the introspection
        surface (``cluster.workers[site].fragment``).
    assignment:
        The cluster's *live* node-to-site dict (mutated in place by
        ``Cluster.apply_update``), consulted per fetch for ownership.
    bus:
        The cluster bus that per-site fetch logs are replayed onto.
    """

    def __init__(
        self,
        workers: Dict[int, SiteWorker],
        assignment: Dict[Node, int],
        bus: MessageBus,
    ) -> None:
        self._workers = workers
        self._assignment = assignment
        self._bus = bus
        self._conns: Dict[int, multiprocessing.connection.Connection] = {}
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        #: Per-site buffered deltas awaiting one batched ``update`` frame:
        #: ``site -> (deltas in arrival order, merged owner captures)``.
        self._pending_updates: Dict[int, tuple] = {}
        #: Observability payloads the workers shipped with the last
        #: query's ``done`` replies: traced span subtrees (only when the
        #: query ran traced) and registry snapshots (every query).
        self._last_site_spans: Dict[int, object] = {}
        self._last_site_metrics: Dict[int, Dict[str, object]] = {}
        self._closed = False
        context = _make_context()
        try:
            for site, worker in workers.items():
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=worker_main,
                    args=(child_end, encode_fragment(worker.fragment)),
                    name=f"repro-site-{site}",
                    daemon=True,
                )
                process.start()
                child_end.close()
                self._conns[site] = parent_end
                self._procs[site] = process
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _serve(self, node: Node):
        """Answer one fetch: ``(owner site, record)`` from the mirrors."""
        owner = self._assignment.get(node)
        if owner is None:
            raise DistributedError(f"no site owns node {node!r}")
        return owner, self._workers[owner].serve_node(node)

    def _fail(self, detail: str) -> "DistributedError":
        # A broken protocol exchange leaves workers in an unknown state;
        # tear the processes down before surfacing the error.
        self.close()
        return DistributedError(detail)

    def _recv(self, site: int):
        try:
            return self._conns[site].recv()
        except (EOFError, OSError) as exc:
            raise self._fail(
                f"site {site} worker process died mid-protocol: {exc}"
            ) from exc

    def _ack(self, site: int, command: str) -> None:
        reply = self._recv(site)
        if reply[0] != "ok":
            raise self._fail(
                f"site {site} failed to apply {command}:\n{reply[1]}"
            )

    def _guard_open(self) -> None:
        if self._closed:
            raise DistributedError(
                "this cluster's process transport has been closed"
            )

    def _flush_updates(self) -> None:
        """Ship the buffered deltas: one ``update`` frame per site.

        Frames go out to every site first (sorted order), then the acks
        drain in the same order — the pattern ``forget_remote`` already
        uses — so an N-delta burst costs one pipe round trip per
        *affected site*, not one per delta.  The buffer is detached
        before any send so a protocol failure (which closes the
        transport) cannot re-enter this flush.
        """
        pending, self._pending_updates = self._pending_updates, {}
        if not pending:
            return
        for site in sorted(pending):
            deltas, owners = pending[site]
            self._conns[site].send(
                ("update", encode_deltas(tuple(deltas)), owners)
            )
        for site in sorted(pending):
            deltas, _ = pending[site]
            self._ack(site, f"a batch of {len(deltas)} delta(s)")

    # ------------------------------------------------------------------
    def begin(self, pattern, radius):
        self._guard_open()
        self._flush_updates()
        wire_pattern = encode_pattern(pattern)
        for conn in self._conns.values():
            conn.send(("query", wire_pattern, radius))
        return self._filter_replies(self._conns)

    def filter_round(self, inboxes):
        for site, inbox in inboxes.items():
            self._conns[site].send(("filter", inbox))
        return self._filter_replies(inboxes)

    def _filter_replies(self, sites) -> Dict[int, FilterReply]:
        """Collect one ``filter`` reply from each of ``sites``."""
        replies: Dict[int, FilterReply] = {}
        for site in sites:
            reply = self._recv(site)
            if reply[0] != "filter":
                raise self._fail(
                    f"site {site} dual filter failed:\n{reply[1]}"
                )
            replies[site] = (reply[1], reply[2])
        return replies

    def evaluate(self):
        trace = tracing_enabled()
        for conn in self._conns.values():
            conn.send(("evaluate", trace))
        pending = {conn: site for site, conn in self._conns.items()}
        partials: Dict[int, List[PerfectSubgraph]] = {}
        logs: Dict[int, list] = {}
        self._last_site_spans = {}
        self._last_site_metrics = {}
        while pending:
            for conn in multiprocessing.connection.wait(list(pending)):
                site = pending[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError) as exc:
                    raise self._fail(
                        f"site {site} worker process died mid-query: {exc}"
                    ) from exc
                kind = message[0]
                if kind == "fetch_many":
                    try:
                        records = tuple(
                            self._serve(node) for node in message[1]
                        )
                    except Exception as exc:
                        conn.send(("error", str(exc)))
                    else:
                        conn.send(("records", records))
                elif kind == "done":
                    partials[site] = decode_partials(message[1])
                    logs[site] = decode_bus_log(message[2])
                    shipped_span = decode_span(message[3])
                    if shipped_span is not None:
                        self._last_site_spans[site] = shipped_span
                    self._last_site_metrics[site] = decode_metrics(message[4])
                    del pending[conn]
                else:
                    detail = message[1] if len(message) > 1 else kind
                    raise self._fail(f"site {site} query failed:\n{detail}")
        # Replay fetch accounting in site order: totals per link/kind are
        # order-independent, but a deterministic message list keeps runs
        # reproducible (the serial backend interleaves by site too).
        for site in sorted(logs):
            for sender, receiver, kind, units in logs[site]:
                self._bus.send(sender, receiver, kind, units)
        return {site: partials[site] for site in sorted(partials)}

    def apply_update(self, site_id, delta, owner_of):
        self._guard_open()
        # Mirror first: the coordinator serves fetches from these
        # fragments, so they must track the worker processes exactly —
        # and since the mirror runs the same ``SiteWorker.apply_update``
        # code, a malformed delta still fails loud here, synchronously,
        # even though the pipe write is deferred.
        self._workers[site_id].apply_update(delta, owner_of)
        # Buffer instead of round-tripping per delta: the frame goes out
        # with the site's next batch (flushed before anything that could
        # observe worker state).  Owner captures are taken *now*, per
        # delta, because ``owner_of`` is the cluster's live assignment;
        # merging is safe since a node's owner cannot change between
        # flush points (re-adding a removed node first passes through
        # ``forget_remote``, which flushes).
        deltas, owners = self._pending_updates.setdefault(site_id, ([], {}))
        deltas.append(delta)
        for node in (delta.source, delta.target):
            if node is not None:
                owners[node] = owner_of.get(node)

    def forget_remote(self, node):
        self._guard_open()
        self._flush_updates()
        for site, worker in self._workers.items():
            worker.forget_remote(node)
            self._conns[site].send(("forget", node))
        for site in self._conns:
            self._ack(site, "forget")

    def worker_stats(self):
        self._guard_open()
        self._flush_updates()
        stats: Dict[int, Dict[str, object]] = {}
        for site, conn in self._conns.items():
            conn.send(("stats",))
            reply = self._recv(site)
            if reply[0] != "stats":
                raise self._fail(f"site {site} stats failed:\n{reply[1]}")
            stats[site] = reply[1]
        return stats

    def site_spans(self):
        return dict(self._last_site_spans)

    def site_metrics(self):
        return dict(self._last_site_metrics)

    def close(self):
        if self._closed:
            return
        self._closed = True
        # Undelivered update batches are dropped, not flushed: nothing
        # can observe worker-process state after close (``_guard_open``
        # rejects every later command), and the mirrors — the only state
        # that survives — already applied every delta eagerly.
        self._pending_updates.clear()
        for conn in self._conns.values():
            try:
                conn.send(("shutdown",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        for process in self._procs.values():
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - hung worker only
                process.terminate()
                process.join(timeout=5)


def make_transport(
    backend: str,
    workers: Dict[int, SiteWorker],
    assignment: Dict[Node, int],
    bus: MessageBus,
) -> Transport:
    """Build the transport for a resolved backend name."""
    if backend == "processes":
        return ProcessTransport(workers, assignment, bus)
    return InProcTransport(workers)
