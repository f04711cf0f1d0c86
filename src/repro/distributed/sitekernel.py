"""A fragment compiled to integer ids and CSR rows.  No site uses it.

Every site evaluates its balls on the reference per-ball step of
:class:`~repro.distributed.worker.SiteWorker`.  :class:`SiteGraphIndex`
stays, cut to its constructor, only because the frozen benchmark in
``perfbench/`` binds to it: ``layers.py`` imports it at module level and
times its construction, one per site, at distributed set-up
(``index.compile_ms``).  Delete it with the next change that may change
the benchmark.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.digraph import Label, Node
from repro.core.kernel import GrowableCSRIndex
from repro.distributed.fragment import Fragment


class SiteGraphIndex(GrowableCSRIndex):
    """One site's fragment compiled to integer ids + CSR rows.

    Owned nodes are interned first, in fragment insertion order, and
    flagged in :attr:`is_owned`; a remote neighbor gets a stub id with
    no label and empty rows.  Kept for the frozen benchmark's set-up
    timing only (see the module docstring).
    """

    __slots__ = ("materialized", "is_owned")

    def __init__(self, fragment: Fragment) -> None:
        super().__init__()
        self.materialized: List[bool] = []
        self.is_owned: List[bool] = []
        for node in fragment.labels:
            self.is_owned[self._intern(node)] = True
        labels = fragment.labels
        succ = fragment.succ
        pred = fragment.pred
        for node, i in list(self.index_of.items()):
            self._fill(i, labels[node], succ[node], pred[node])

    def _intern(self, node: Node) -> int:
        """The id of ``node``, assigning a fresh stub id on first sight."""
        i = self.index_of.get(node)
        if i is None:
            i = self._new_slot(node)
            self.materialized.append(False)
            self.is_owned.append(False)
        return i

    def _fill(
        self, i: int, label: Label, succ: Set[Node], pred: Set[Node]
    ) -> None:
        """Fill id ``i``'s label and rows from its full adjacency."""
        intern = self._intern
        fwd = [intern(target) for target in succ]
        und = fwd.copy()
        und.extend(intern(source) for source in pred if source not in succ)
        self.fwd_rows[i] = fwd
        self.rev_rows[i] = [intern(source) for source in pred]
        self.und_rows[i] = und
        self.labels[i] = label
        self.materialized[i] = True
