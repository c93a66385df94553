""":class:`FleetSession` — the session dialect, served by a sharded
fleet of engine workers.

A fleet session is a :class:`~repro.query.session.SessionDialect`, so
it speaks the exact submit/gather/answer dialect of the in-process
:class:`~repro.query.session.Session`; its transport seam shards each
stream over the workers of a
:class:`~repro.fleet.registry.WorkerRegistry` and executes the shards
in parallel processes, each holding one warm engine over the fleet's
graph.

Routing is one rule, in :meth:`FleetSession._execute`: a query goes to
the worker picked by :func:`fault_hash` of its canonical fault set.
Every query of one scenario lands on one worker, so the planner's
per-group wave sharing survives sharding, and a repeated scenario
always meets its cached rows — the affinity that makes the fleet's
LRUs behave like one big cache instead of ``N`` small ones.  Nothing
else picks a worker: reading reports never narrows the set it shards
over.

Reports merge: :meth:`cache_info` folds every worker's
:class:`~repro.scenarios.engine.CacheInfo` with
:meth:`~repro.scenarios.engine.CacheInfo.merge`, and :attr:`stats`
folds per-worker :class:`~repro.query.session.SessionStats` with
:meth:`~repro.query.session.SessionStats.merge` — so the fleet reads
like one big session whose cache is the sum of its workers' budgets.
"""

from __future__ import annotations

import threading
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.exceptions import FleetError
from repro.fleet.protocol import (
    ErrorReply,
    ExecuteReply,
    ExecuteRequest,
    InitRequest,
    ReportReply,
    raise_reply,
)
from repro.fleet.registry import WorkerRegistry
from repro.query.queries import Answer, Query
from repro.query.session import Session, SessionDialect, SessionStats
from repro.scenarios.engine import CacheInfo

__all__ = ["FleetSession", "fault_hash"]


def fault_hash(fault_key: Tuple[Any, ...]) -> int:
    """A process-stable hash of a canonical fault tuple.

    :func:`zlib.crc32` over the tuple's ``repr``: unlike ``hash()``,
    which is salted for strings, it routes a scenario to the same
    worker in every session of every run.
    """
    return zlib.crc32(repr(fault_key).encode("utf-8"))


class FleetSession(SessionDialect):
    """Shard typed query streams across persistent engine workers.

    Parameters
    ----------
    graph:
        The base graph every worker serves.
    workers:
        Fleet size (>= 1); ``workers=1`` is a valid degenerate fleet
        (one warm process, no sharding) useful for A/B runs.
    scheme:
        Default tiebreaking scheme (overridable per call; a per-call
        ``scheme=`` is pickled and shipped with the shard).
    memoize, delta:
        Engine construction knobs, per worker (see
        :class:`~repro.scenarios.engine.ScenarioEngine`).
    start_method:
        ``multiprocessing`` start method for the workers (``None`` =
        platform default, ``"spawn"`` exercises the full pickle seam).

    Example
    -------
    >>> from repro.graphs import generators
    >>> from repro.query import DistanceQuery
    >>> from repro.fleet import FleetSession
    >>> query = DistanceQuery(0, 15, faults=[(0, 1)])
    >>> with FleetSession(generators.grid(4, 4), workers=2) as fleet:
    ...     [a.value for a in fleet.submit(query).gather()]
    [6]
    """

    def __init__(self, graph: Any, *,
                 workers: int = 2,
                 scheme: Any = None,
                 memoize: int = 4096,
                 delta: bool = True,
                 start_method: Optional[str] = None) -> None:
        super().__init__(scheme)
        self.graph = graph
        self.registry = WorkerRegistry(
            InitRequest(graph=graph, memoize=memoize, delta=delta,
                        scheme=scheme),
            workers=workers, start_method=start_method)
        self._gathers = 0
        # Executes serialize on this lock: threads may share one
        # fleet session, and the registry's pipes are not thread-safe.
        self._gather_lock = threading.Lock()

    # ------------------------------------------------------------------
    # the transport seam
    # ------------------------------------------------------------------
    def _execute(self, queries: List[Query], scheme: Any) -> List[Answer]:
        """Shard one stream over the workers by fault-set hash;
        answers in order.

        Workers re-validate their own shards (unknown vertices, bad
        schemes).  Every shard's reply is collected — its spans
        ingested — before the first failing shard's error is raised.
        """
        if not queries:
            return []
        answers: List[Optional[Answer]] = [None] * len(queries)
        first_error: Optional[ErrorReply] = None
        with self._gather_lock:
            with _obs.span("fleet.gather", queries=len(queries)):
                self.registry.start()
                workers = self.registry.workers
                shards: Dict[str, List[int]] = {}
                for index, query in enumerate(queries):
                    worker = workers[fault_hash(query.fault_key)
                                     % len(workers)]
                    shards.setdefault(worker, []).append(index)
                # When tracing, every shard request carries the
                # caller's current context so worker-side spans
                # (worker.execute and the engine waves under it)
                # parent into one cross-process trace.
                trace = None
                if _obs.ENABLED:
                    ctx = _obs.current_context()
                    trace = ctx.to_dict() if ctx is not None else None
                replies = self.registry.dispatch({
                    worker: ExecuteRequest(
                        queries=tuple(queries[i] for i in local),
                        scheme=scheme,
                        trace=trace,
                    )
                    for worker, local in shards.items()
                })
                for worker, local in shards.items():
                    reply = replies[worker]
                    if isinstance(reply, ErrorReply):
                        if first_error is None:
                            first_error = reply
                        continue
                    if not isinstance(reply, ExecuteReply):
                        raise FleetError(
                            f"worker {worker} answered execute with "
                            f"{reply!r}"
                        )
                    if reply.spans:
                        _obs.ingest(reply.spans)
                    for i, answer in zip(local, reply.answers):
                        answers[i] = answer
                    if _obs.ENABLED:
                        _obs.observe("repro_fleet_shard_size",
                                     float(len(local)), worker=worker)
            self._gathers += 1
            if first_error is not None:
                raise_reply(first_error)
        return [a for a in answers if a is not None]

    # ------------------------------------------------------------------
    # merged reports
    # ------------------------------------------------------------------
    def worker_reports(self) -> Dict[str, ReportReply]:
        """Fresh per-worker report replies (:class:`CacheInfo` and
        :class:`SessionStats`)."""
        with self._gather_lock:
            return self.registry.reports()

    def cache_info(self) -> CacheInfo:
        """All workers' engine counters, folded with
        :meth:`CacheInfo.merge` — plus the serial-fallback session's
        counters when the fleet has degraded."""
        infos = [r.cache_info for r in self.worker_reports().values()]
        infos.extend(s.cache_info() for s in self._fallback_sessions())
        return CacheInfo.merge(infos)

    @property
    def stats(self) -> SessionStats:
        """All workers' session stats, folded with
        :meth:`SessionStats.merge`; ``by_worker`` shows the shard
        balance (including ``"serial"`` when the fleet has degraded)."""
        stats = [r.stats for r in self.worker_reports().values()]
        stats.extend(s.stats for s in self._fallback_sessions())
        return SessionStats.merge(stats)

    def _fallback_sessions(self) -> List[Session]:
        serial = self.registry._serial_session
        return [serial] if serial is not None else []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def gathers(self) -> int:
        """Fleet-level count of executed streams (one per non-empty
        gather or answer, each spanning all its shards)."""
        return self._gathers

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        self.registry.close()

    def __repr__(self) -> str:
        return (
            f"FleetSession(n={self.graph.n}, "
            f"workers={len(self.registry.workers)}, "
            f"gathers={self._gathers}, pending={len(self._pending)})"
        )
