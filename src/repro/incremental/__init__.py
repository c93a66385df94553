"""Incremental scenario deltas: patch base distances, don't re-traverse.

The paper's workload is one base graph against a stream of small fault
sets, and most fault sets barely move the distance landscape: a fault
on (or near) the base shortest-path tree of a source orphans only the
subtree hanging below the faulted tree edge — every other vertex keeps
its base distance, because its selected root-path survives the faults
and edge removal can only *increase* distances.  This package turns
that observation into a fourth evaluation strategy alongside the
engine's row cache / touch filter / masked wave:

* :mod:`repro.incremental.affected` — :func:`affected_region` reads the
  orphaned-vertex count straight off the
  :class:`~repro.scenarios.engine.TreeFaultIndex` Euler-tour subtree
  intervals in ``O(|F| log |F|)`` (no materialisation needed to
  *decide*), and an explicit :class:`CostModel` chooses delta-patch vs
  full wave before any traversal work is spent.
* :mod:`repro.incremental.repair` — :func:`csr_bfs_repair` and
  :func:`csr_dijkstra_repair` re-settle only the orphaned region from
  its intact frontier over the engine's masked CSR snapshot, returning
  a patched distance vector (bit-identical to the full masked kernels)
  plus the changed-vertex set.

:class:`~repro.scenarios.engine.ScenarioEngine` consumes both through
:meth:`~repro.scenarios.engine.ScenarioEngine.try_delta` (on by
default; ``delta=False`` restores pure-wave behaviour), and the query
planner threads a ``"delta"`` provenance kind through
:class:`~repro.query.queries.Answer` so streams report how they were
served.  ``benchmarks/bench_incremental.py`` measures the delta path
against the full-wave engine on an adversarial tree-edge fault stream;
``examples/incremental_deltas.py`` is the guided tour.
"""

from repro.incremental.affected import AffectedRegion, CostModel, affected_region
from repro.incremental.repair import csr_bfs_repair, csr_dijkstra_repair

__all__ = [
    "AffectedRegion",
    "CostModel",
    "affected_region",
    "csr_bfs_repair",
    "csr_dijkstra_repair",
]
