"""Batched fault-scenario evaluation: one base graph, many fault sets.

The paper fixes a base graph and reasons about the family of survivor
graphs ``G \\ F`` — and so does every benchmark and application layer in
this library.  This package makes that workload shape a first-class
citizen:

* :mod:`repro.scenarios.enumerate` — deterministic scenario streams
  (all single faults, exhaustive ``|F| <= f`` subsets, seeded random
  samples, adversarial tree-edge faults, clustered regional
  failures);
* :mod:`repro.scenarios.engine` — :class:`~repro.scenarios.engine.ScenarioEngine`,
  which amortises shared state (CSR snapshot, base BFS vectors,
  selected trees and their subtree-interval indices) across the stream
  and evaluates replacement-path / restoration / preserver queries per
  scenario over flat arrays.

The engine is the kernel layer under the declarative query API —
:class:`repro.query.Session` is the entry point for query streams.
Quick start (see ``examples/batch_scenarios.py`` and
``examples/query_session.py`` for full tours)::

    from repro.graphs import generators
    from repro.query import DistanceQuery, Session
    from repro.scenarios import single_edge_faults

    graph = generators.torus(8, 8)
    session = Session(graph)
    answers = session.answer(
        [DistanceQuery(0, 27, f) for f in single_edge_faults(graph)]
    )

``benchmarks/bench_scenario_engine.py`` measures the engine against the
naive per-:class:`~repro.graphs.views.FaultView` loop it replaces.
"""

from repro.scenarios.engine import (
    CacheInfo,
    ScenarioEngine,
    TreeFaultIndex,
)
from repro.scenarios.enumerate import (
    FaultSet,
    all_fault_subsets,
    clustered_fault_sets,
    random_fault_sets,
    single_edge_faults,
    tree_edge_faults,
)

__all__ = [
    "CacheInfo",
    "ScenarioEngine",
    "TreeFaultIndex",
    "FaultSet",
    "all_fault_subsets",
    "clustered_fault_sets",
    "random_fault_sets",
    "single_edge_faults",
    "tree_edge_faults",
]
