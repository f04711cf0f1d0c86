"""One site's half of the distributed dual filter (Match+ at the sites).

Centralized ``match_plus`` builds balls only around centers inside the
maximum dual-simulation relation of ``Q`` and ``G``.  A ball around any
other center holds no perfect subgraph: the ball's maximum dual
relation is itself a dual simulation of ``G``, so it lies inside the
global one.  The distributed protocol computes that relation by partial
evaluation over border nodes, as in Ma, Cao, Huai, Wo, "Distributed
Graph Pattern Matching" (WWW 2012) and Fan, Wang, Wu, Deng,
"Distributed Graph Simulation: Impossibility and Possibility" (PVLDB
2014), in rounds the coordinator routes:

* **Round 0** travels with the query.  Each site seeds ``sim(u)`` with
  the owned nodes labelled like ``u``.  It announces every *border*
  node (an owned node with a remote neighbour) that has a candidate,
  with its candidates, to each peer that owns a neighbour of it.
* Remote neighbours are *ghosts*.  Only their owner's messages change a
  ghost's candidates, and a ghost never announced matches nothing.
* **Round k ≥ 1**: each site applies what it received to its ghosts.
  It then refines its owned candidates with the worklist fixpoint of
  :func:`repro.core.dualsim.dual_simulation`; ghosts serve as witnesses
  but are never refined here.  Finally it sends the ``(node, pattern
  node)`` pairs its border nodes lost to the peers that see them.

The coordinator stops after the first round k ≥ 1 in which no site
sends anything.  Every ghost then equals its owner's sets and every
site is at a local fixpoint, so the owned sets together form a dual
simulation.  Every removal was justified against a superset of the
final sets, so it is the maximum one.  A site never collapses on an
empty local ``sim(u)``: other sites may hold candidates of ``u``.
Patterns are connected, so an empty global ``sim(u)`` empties every set
anyway, and the survivors are exactly this site's nodes of the
centralized ``dual_simulation(Q, G)``.

A payload is a tuple of ``(node, pattern nodes)`` entries and costs one
``filter`` unit per (data node, pattern node) pair.  The filter reads
only the fragment dicts (``labels``, ``succ``, ``pred``,
``remote_owner``), and it keeps nothing between queries.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Set, Tuple

from repro.core.digraph import Label, Node
from repro.core.pattern import Pattern
from repro.distributed.fragment import Fragment

#: One data node with the pattern nodes it announces or loses.
FilterEntry = Tuple[Node, Tuple[Node, ...]]

#: The entries one site sends another in one round.
FilterPayload = Tuple[FilterEntry, ...]

#: One site's sends of one round, by receiving site.
FilterOutbox = Dict[int, FilterPayload]


class SiteFilter:
    """One site's dual-filter state for one query (see module docstring)."""

    __slots__ = (
        "_fragment",
        "_pattern_succ",
        "_pattern_pred",
        "_by_label",
        "_owned",
        "_sim",
        "_readers",
        "_ghosts_seeded",
    )

    def __init__(self, fragment: Fragment, pattern: Pattern) -> None:
        self._fragment = fragment
        nodes = list(pattern.nodes())
        self._pattern_succ = {u: pattern.successors(u) for u in nodes}
        self._pattern_pred = {u: pattern.predecessors(u) for u in nodes}
        by_label: Dict[Label, List[Node]] = {}
        for u in nodes:
            by_label.setdefault(pattern.label(u), []).append(u)
        self._by_label = by_label
        #: Owned candidates per pattern node: what this site refines.
        self._owned: Dict[Node, Set[Node]] = {u: set() for u in nodes}
        #: Owned and ghost candidates per pattern node: the witnesses.
        self._sim: Dict[Node, Set[Node]] = {u: set() for u in nodes}
        #: Border candidate -> the peer sites owning a neighbour of it.
        self._readers: Dict[Node, Tuple[int, ...]] = {}
        self._ghosts_seeded = False
        labels = fragment.labels
        remote_owner = fragment.remote_owner
        for node, label in labels.items():
            candidates = by_label.get(label)
            if candidates is None:
                continue
            for u in candidates:
                self._owned[u].add(node)
                self._sim[u].add(node)
            peers = {
                remote_owner[neighbor]
                for adjacency in (fragment.succ[node], fragment.pred[node])
                for neighbor in adjacency
                if neighbor not in labels
            }
            if peers:
                self._readers[node] = tuple(sorted(peers))

    def announce(self) -> FilterOutbox:
        """Round 0: every border candidate with its label candidates."""
        labels = self._fragment.labels
        by_label = self._by_label
        return self._send(
            {node: by_label[labels[node]] for node in self._readers}
        )

    def refine(self, inbox: Iterable[FilterEntry]) -> FilterOutbox:
        """Round k ≥ 1: apply ``inbox`` to the ghosts, refine, send losses.

        The first inbox holds the peers' round-0 announcements and seeds
        the ghosts; every later one holds their removals.
        """
        sim = self._sim
        queue: Deque[Node] = deque()
        queued: Set[Node] = set()
        if not self._ghosts_seeded:
            self._ghosts_seeded = True
            for node, pattern_nodes in inbox:
                for u in pattern_nodes:
                    sim[u].add(node)
            queue.extend(sim)
            queued.update(sim)
        else:
            for node, pattern_nodes in inbox:
                for u in pattern_nodes:
                    sim[u].discard(node)
                    if u not in queued:
                        queue.append(u)
                        queued.add(u)
        owned = self._owned
        readers = self._readers
        succ = self._fragment.succ
        pred = self._fragment.pred
        lost: Dict[Node, List[Node]] = {}

        def shrink(u: Node, stale: List[Node]) -> None:
            owned[u].difference_update(stale)
            sim[u].difference_update(stale)
            for v in stale:
                if v in readers:
                    lost.setdefault(v, []).append(u)
            if u not in queued:
                queue.append(u)
                queued.add(u)

        while queue:
            w = queue.popleft()
            queued.discard(w)
            witnesses = sim[w]
            # Parents u of w: every owned v in sim(u) needs a child in
            # sim(w).
            for u in self._pattern_pred[w]:
                stale = [v for v in owned[u] if witnesses.isdisjoint(succ[v])]
                if stale:
                    shrink(u, stale)
            # Children u of w: every owned v in sim(u) needs a parent in
            # sim(w).
            for u in self._pattern_succ[w]:
                stale = [v for v in owned[u] if witnesses.isdisjoint(pred[v])]
                if stale:
                    shrink(u, stale)
        return self._send(lost)

    def survivors(self) -> Set[Node]:
        """The owned nodes still in some ``sim(u)``."""
        return set().union(*self._owned.values())

    def _send(self, entries: Dict[Node, Iterable[Node]]) -> FilterOutbox:
        """Address each ``node -> pattern nodes`` entry to its readers."""
        outbox: Dict[int, list] = {}
        readers = self._readers
        for node, pattern_nodes in entries.items():
            entry = (node, tuple(pattern_nodes))
            for site in readers[node]:
                outbox.setdefault(site, []).append(entry)
        return {site: tuple(payload) for site, payload in outbox.items()}
