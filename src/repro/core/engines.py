"""The engine table: which implementation computes each cell on each engine.

The paper's algorithms run on three execution engines.  Every row of
:data:`ENGINE_TABLE` names, per *cell*, the function that computes it:

``match``
    algorithm ``Match`` (Fig. 3) —
    ``(pattern, data, centers=None, radius=None) -> MatchResult``;
``match_plus``
    the matching core of ``Match+`` (Sec. 4.2) with every optimization
    on, over the already minimized working pattern —
    ``(pattern, data, radius) -> MatchResult``.  Only the reference
    cell also takes the ablation toggles (``use_dual_filter``,
    ``use_pruning``, ``restrict_centers_by_label``);
    :func:`repro.core.matchplus.match_plus` sends every non-default
    toggle there.  The decision ``Q ≺_LD G``
    (:func:`repro.core.strong.matches_via_strong_simulation`) reads
    this cell too: ``Θ`` is not empty;
``dual`` / ``sim``
    the maximum dual / graph simulation relation —
    ``(pattern, data) -> MatchRelation``;

plus ``compiled``, read only by the distributed site workers.  They
keep exactly two implementations — the reference dicts and the compiled
kernel index — and ``compiled`` picks one.  The incremental classes of
:mod:`repro.core.incremental` keep one substrate and call the ``dual``
cell instead.

The rows:

* ``python`` — the reference code, transcribed from the paper's
  pseudocode; the ground truth the differential suites compare against.
* ``kernel`` — :mod:`repro.core.kernel`: the data graph compiled once to
  integer-id CSR rows, balls and counter fixpoints over flat buffers.
* ``numpy`` — the kernel row with one cell replaced: ``match_plus``
  runs the batched ball refinement of :mod:`repro.core.npkernel`, the
  one cell where the batched engine wins a reproducible measurement
  (perfbench's strong-heavy workload).  Every other cell measured
  slower on numpy than on the kernel, so the kernel computes it.

Every row computes the same output on every cell; ``tests/engines.py``
parametrizes the cross-engine differential harness from this table.
``"auto"`` names no row: :func:`engine_for` resolves it by graph size
alone (:func:`repro.core.kernel.resolve_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Optional

from repro.core.digraph import DiGraph
from repro.core.dualsim import dual_simulation
from repro.core.kernel import (
    dual_simulation_kernel,
    graph_simulation_kernel,
    kernel_match,
    kernel_match_plus,
    resolve_engine,
)
from repro.core.matchplus import match_plus_reference
from repro.core.npkernel import np_match_plus
from repro.core.simulation import simulation_fixpoint
from repro.core.strong import match_reference


@dataclass(frozen=True)
class Engine:
    """One row of the engine table (see the module docstring)."""

    match: Callable
    match_plus: Callable
    dual: Callable
    sim: Callable
    compiled: bool


#: The matching cells every row fills, in table order.
CELLS = tuple(f.name for f in fields(Engine) if f.name != "compiled")

_KERNEL = Engine(
    match=kernel_match,
    match_plus=kernel_match_plus,
    dual=dual_simulation_kernel,
    sim=graph_simulation_kernel,
    compiled=True,
)

#: Concrete engine name -> row; the reference row first.
ENGINE_TABLE: Dict[str, Engine] = {
    "python": Engine(
        match=match_reference,
        match_plus=match_plus_reference,
        dual=dual_simulation,
        sim=simulation_fixpoint,
        compiled=False,
    ),
    "kernel": _KERNEL,
    "numpy": replace(_KERNEL, match_plus=np_match_plus),
}


def engine_for(engine: str, data: Optional[DiGraph] = None) -> Engine:
    """The row ``engine`` resolves to on ``data``.

    ``"auto"`` follows :func:`repro.core.kernel.resolve_engine`, which
    also rejects unknown names and ``"numpy"`` without numpy installed.
    """
    return ENGINE_TABLE[resolve_engine(engine, data)]
