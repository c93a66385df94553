"""Declarative query API: typed queries, a batching planner, a session.

The paper's workload is *one base graph, many fault sets, many
questions*.  This package is the single public entry point for the
"many questions" part: callers describe **what** they want as typed
query objects and a :class:`Planner` — not each caller — decides
**which** batched kernel serves which queries.

The query algebra
-----------------
Six frozen-dataclass query kinds, all carrying a fault set:

=========================  ============================================
:class:`DistanceQuery`     ``dist_{G \\ F}(s, t)`` → ``int``
:class:`PairQuery`         pair health → :class:`PairReport`
                           (base, replacement distance, stretch)
:class:`VectorQuery`       full vector from ``s`` in ``G \\ F`` →
                           read-only row
:class:`EccentricityQuery` ``max_v dist_{G \\ F}(s, v)`` → ``int``
:class:`ConnectivityQuery` is ``G \\ F`` connected? → ``bool``
:class:`RestorationQuery`  Figure-1 midpoint-scan instance (needs a
                           scheme) → ``(target, result | None)`` or
                           ``None``
=========================  ============================================

The preserver check (Definition 4) is not a query kind: it is one
batched sweep over a whole scenario stream, so
:func:`repro.preservers.preserver_violations` calls
:meth:`~repro.scenarios.engine.ScenarioEngine.preserver_violations`
directly.

The contract:

* **Canonical fault keys.**  ``faults`` is canonicalized at
  construction (edges sorted, set sorted, duplicates dropped): two
  queries asking the same question are equal, hashable, and share a
  planner group regardless of spelling.
* **Order.**  Answers align with the submitted stream, one typed
  :class:`Answer` per query, each tagged with :class:`Provenance`
  (``cache`` / ``filter`` / ``delta`` / ``wave``, plus the kernel and
  wave side).
* **Conventions.**  Distance values use the library-wide dense
  conventions: ``UNREACHABLE`` (-1) for cut-off pairs, read-only
  vectors shared with the engine caches.
* **Weightedness.**  A query may declare ``weighted=True/False``;
  ``None`` adapts to the session's engine.  A stream mixing both
  declarations — or contradicting the engine — raises
  :class:`~repro.exceptions.QueryError` before any kernel runs, never
  silently serving the wrong kernel.
* **Batching.**  The planner groups the stream by canonical fault
  set, answers what it can from the engine's row cache and touch
  filter (a pair answer is one slot of a cached row, never an entry
  of its own), patches wave starts whose orphaned region is small
  (the incremental-delta path, :mod:`repro.incremental`), and serves
  each group's remainder with one masked multi-source wave — waved
  from whichever side (sources or targets) costs fewer traversals,
  since distances are symmetric on an undirected graph (antisymmetric
  weighted snapshots never flip).

Entry points
------------
:class:`Session` owns the engine and the planner::

    from repro.graphs import generators
    from repro.query import DistanceQuery, EccentricityQuery, Session

    session = Session(generators.torus(8, 8))
    session.submit(
        DistanceQuery(0, 27, faults=[(0, 1)]),
        EccentricityQuery(0, faults=[(0, 1)]),
    )
    d, ecc = session.gather()       # typed Answers, submission order
    assert d.value >= 0 and ecc.provenance.source in ("cache", "wave")

The same dialect (:class:`SessionDialect`) is spoken by the sharded
:class:`~repro.fleet.session.FleetSession` and the socket
:class:`~repro.service.client.ServiceClient`; each implements only the
one transport seam, ``_execute(queries, scheme)``.

``examples/query_session.py`` is the guided tour;
``benchmarks/bench_query_planner.py`` measures the planner's grouped
waves against the same stream answered one query at a time.
"""

from repro.exceptions import QueryError
from repro.query.planner import Plan, PlanGroup, Planner
from repro.query.queries import (
    Answer,
    ConnectivityQuery,
    DistanceQuery,
    EccentricityQuery,
    PairQuery,
    PairReport,
    Provenance,
    Query,
    RestorationQuery,
    VectorQuery,
)
from repro.query.session import Session, SessionDialect, SessionStats

__all__ = [
    "Answer",
    "ConnectivityQuery",
    "DistanceQuery",
    "EccentricityQuery",
    "PairQuery",
    "PairReport",
    "Plan",
    "PlanGroup",
    "Planner",
    "Provenance",
    "Query",
    "QueryError",
    "RestorationQuery",
    "Session",
    "SessionDialect",
    "SessionStats",
    "VectorQuery",
]
