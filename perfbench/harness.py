"""Closed-loop load generator, order statistics and resource probes.

Everything here is workload-agnostic: a workload hands the loop a
deterministic operation stream (queries and write batches), a ``submit``
callable that returns a :class:`concurrent.futures.Future`, and an
``apply_write`` callable.  The loop keeps at most ``clients`` queries
in flight (a closed loop: a client sends its next query only after the
previous one returned), drains every in-flight query before a write
batch (the quiesced-boundary contract of the service), runs the first
query after a write alone, and times each query from the caller's side,
submit to result.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import resource
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Callable, Iterable, List, Optional, Tuple

QUERY = "q"
WRITE = "w"

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; below that it prints as ``n/a``.
MIN_BEYOND = 10


def percentile(samples: List[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-quantile, or ``None`` when unsupported.

    An exact order statistic (no interpolation): the value at 1-based
    rank ``ceil(q * n)`` of the sorted samples, reported only when
    ``n - rank >= MIN_BEYOND`` samples lie beyond it.  So a p50 needs 20
    samples and a p90 needs 100.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def samples_needed(q: float) -> int:
    """Smallest sample count for which :func:`percentile` answers."""
    n = 1
    while n - max(1, math.ceil(q * n)) < MIN_BEYOND:
        n += 1
    return n


@dataclass
class Window:
    """What one timed window observed."""

    #: Measured seconds, excluding the ``settle`` pauses.
    seconds: float = 0.0
    paused: float = 0.0
    executed: List[Tuple[str, object]] = field(default_factory=list)
    #: One entry per executed query, in submission order: what
    #: ``settle`` kept of its result, or ``None`` when the query raised.
    results: List[object] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    read_after_write_ms: List[float] = field(default_factory=list)
    queries: int = 0
    writes: int = 0
    failed_queries: int = 0
    failed_writes: int = 0

    @property
    def attempted(self) -> int:
        return self.queries + self.writes


def closed_loop(
    ops: Iterable[Tuple[str, object]],
    submit: Callable[[object], Future],
    apply_write: Callable[[object], None],
    *,
    seconds: float,
    clients: int,
    min_queries: int = 0,
    min_read_after_write: int = 0,
    max_ops: Optional[int] = None,
    settle: Callable[[object], object] = lambda result: result,
) -> Window:
    """Run ``ops`` for ``seconds`` (see the module docstring).

    The window closes at the first operation boundary after
    ``seconds``, but not before ``min_queries`` queries and
    ``min_read_after_write`` post-write queries have completed, so the
    percentiles the benchmark reports always have the samples they need.
    ``max_ops`` instead bounds the window by operation count (the traced
    run replays exactly the operations an untraced window executed).

    Results are handed to ``settle`` whenever the loop is quiesced (before
    each write and at the end), and only what it returns is kept, so the
    benchmark does not hold every result object in memory.  Those pauses
    are excluded from the window's time; no query is in flight during
    them.
    """
    window = Window()
    inflight = {}
    done_at = {}
    unsettled = {}

    def stamp(future: Future) -> None:
        done_at[future] = perf_counter()

    def reap(future: Future) -> None:
        slot, submitted, after_write = inflight.pop(future)
        # ``wait`` can return between the worker setting the result and
        # the worker running the done callback; the stamp lands at once.
        while future not in done_at:
            sleep(0)
        finished = done_at.pop(future)
        error = future.exception()
        if error is not None:
            window.failed_queries += 1
            window.errors.append(f"{type(error).__name__}: {error}")
            return
        unsettled[slot] = future.result()
        latency = (finished - submitted) * 1e3
        window.latencies_ms.append(latency)
        if after_write:
            window.read_after_write_ms.append(latency)

    def drain() -> None:
        while inflight:
            finished, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in finished:
                reap(future)
        started = perf_counter()
        for slot, result in unsettled.items():
            window.results[slot] = settle(result)
        unsettled.clear()
        window.paused += perf_counter() - started

    after_write = False
    started = perf_counter()
    deadline = started + seconds
    for op in ops:
        if max_ops is not None:
            if len(window.executed) >= max_ops:
                break
        elif (
            perf_counter() >= deadline + window.paused
            and window.queries >= min_queries
            and len(window.read_after_write_ms) >= min_read_after_write
        ):
            break
        kind, payload = op
        window.executed.append(op)
        if kind == WRITE:
            drain()
            window.writes += 1
            try:
                apply_write(payload)
            except Exception as exc:
                window.failed_writes += 1
                window.errors.append(f"write: {type(exc).__name__}: {exc}")
            after_write = True
            continue
        while len(inflight) >= clients:
            finished, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in finished:
                reap(future)
        slot = window.queries
        window.queries += 1
        window.results.append(None)
        submitted = perf_counter()
        try:
            future = submit(payload)
        except Exception as exc:
            future = Future()
            future.set_exception(exc)
        inflight[future] = (slot, submitted, after_write)
        future.add_done_callback(stamp)
        if after_write:
            # The first read after a write runs alone: its latency is
            # the write's cost, not contention with the other client,
            # and a lazy rebuild it triggers is not raced by a second
            # reader doing the same work.
            drain()
        after_write = False
    drain()
    window.seconds = perf_counter() - started - window.paused
    return window


def timed_setups(
    prepare: Callable[[], object],
    build: Callable[[object], object],
    close: Callable[[object], None],
    reps: int,
    alternate_cpus: bool = True,
):
    """Build ``reps`` times; the seconds of each build and the last one.

    ``prepare`` (untimed) hands each build fresh inputs, such as an
    uncompiled copy of the data graph.  Earlier builds are closed before
    the next starts, so one set of threads and worker processes is alive
    at a time.

    With ``alternate_cpus``, single-threaded builds take turns on each
    CPU this process may use.  On a 2-vCPU VM one vCPU ran such a build
    1.6x slower than the other, so a process's set-up time depended on
    where it landed; with as many
    builds on each CPU the median sits between the two and no longer
    does.  (A build that forks worker processes must not be pinned:
    the workers would inherit the pin.)
    """
    cpus = []
    if alternate_cpus and hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    seconds = []
    state = None
    # Objects alive now (inputs, the benchmark's own state) move to the
    # permanent generation, so collections during set-up scan only what
    # the build allocates.
    gc.collect()
    gc.freeze()
    for rep in range(reps):
        if state is not None:
            close(state)
            state = None
        fresh = prepare()
        gc.collect()
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
        try:
            started = perf_counter()
            state = build(fresh)
            seconds.append(perf_counter() - started)
        finally:
            if len(cpus) > 1:
                os.sched_setaffinity(0, cpus)
    return seconds, state


def _hwm_kib(pid: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live child processes.

    Reads ``VmHWM`` from ``/proc`` (pages shared with a forked child
    count in both); falls back to ``ru_maxrss`` for this process alone
    where ``/proc`` is unavailable.
    """
    own = _hwm_kib("self")
    if own is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    total = own
    for child in multiprocessing.active_children():
        total += _hwm_kib(str(child.pid)) or 0
    return total / 1024.0
