""":class:`FleetSession` — the session dialect, served by a sharded
fleet of engine workers.

A fleet session is a :class:`~repro.query.session.SessionDialect`, so
it speaks the exact submit/gather/answer/answer_async dialect of the
in-process :class:`~repro.query.session.Session`; its transport seam
shards each stream with the :class:`~repro.fleet.router.Router` over
the workers of a :class:`~repro.fleet.registry.WorkerRegistry` and
executes the shards in parallel processes, each holding warm
per-tenant engines.  The router is the only code that picks a worker:
reading reports never narrows the set it shards over.  Reports merge:
:meth:`cache_info` folds every worker's
:class:`~repro.scenarios.engine.CacheInfo` with
:meth:`~repro.scenarios.engine.CacheInfo.merge`, and :attr:`stats`
folds per-worker :class:`~repro.query.session.SessionStats` with
:meth:`~repro.query.session.SessionStats.merge` — so the fleet reads
like one big session whose cache is the sum of its workers' budgets.

Multi-tenancy: pass ``graphs={"name": graph, ...}`` (optionally with
per-tenant ``budgets``) instead of a single ``graph``; every worker
hosts every tenant with its own eviction budget, and ``tenant=``
selects whose stream a call answers (default: the sole tenant).
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs as _obs
from repro.exceptions import FleetError, ReproError
from repro.fleet.protocol import (
    ErrorReply,
    ExecuteReply,
    ExecuteRequest,
    ReportReply,
    TenantSpec,
    raise_reply,
)
from repro.fleet.registry import WorkerRegistry
from repro.fleet.router import Router
from repro.query.queries import Answer, Query
from repro.query.session import DEFAULT_TENANT, SessionDialect, SessionStats
from repro.scenarios.engine import CacheInfo

__all__ = ["FleetSession"]


class FleetSession(SessionDialect):
    """Shard typed query streams across persistent engine workers.

    Parameters
    ----------
    graph:
        Single-tenant convenience: the base graph, hosted under the
        tenant name ``"default"``.  Mutually exclusive with ``graphs``.
    graphs:
        Multi-tenant form: ``{tenant_name: graph}``.
    budgets:
        Per-tenant LRU budget overrides, ``{tenant_name: entries}``;
        tenants not listed get ``memoize``.
    workers:
        Fleet size (>= 1); ``workers=1`` is a valid degenerate fleet
        (one warm process, no sharding) useful for A/B runs.
    scheme:
        Default tiebreaking scheme, applied to every tenant
        (single-tenant form only — multi-tenant fleets set schemes
        per tenant via restoration-free streams or per-call
        ``scheme=``, which is pickled and shipped with the shard).
    memoize, delta:
        Engine construction knobs, per worker per tenant (see
        :class:`~repro.scenarios.engine.ScenarioEngine`).
    start_method:
        ``multiprocessing`` start method for the workers (``None`` =
        platform default, ``"spawn"`` exercises the full pickle seam).
    warm_sources:
        Base-vector origins each worker computes at init: a sequence
        (applied to every tenant) or ``{tenant_name: sequence}``.

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

    def __init__(self, graph: Any = None, *,
                 graphs: Optional[Mapping[str, Any]] = None,
                 budgets: Optional[Mapping[str, int]] = None,
                 workers: int = 2,
                 scheme: Any = None,
                 memoize: int = 4096,
                 delta: bool = True,
                 start_method: Optional[str] = None,
                 warm_sources: Union[Sequence[int],
                                     Mapping[str, Sequence[int]]] = ()
                 ) -> None:
        if (graph is None) == (graphs is None):
            raise FleetError(
                "FleetSession takes a graph or graphs={...}, "
                "exactly one of the two"
            )
        if graphs is None:
            graphs = {DEFAULT_TENANT: graph}
        budgets = dict(budgets or {})
        unknown = set(budgets) - set(graphs)
        if unknown:
            raise FleetError(
                f"budgets name tenants that have no graph: "
                f"{sorted(unknown)}"
            )
        specs: List[TenantSpec] = []
        self._routers: Dict[str, Router] = {}
        self._graphs: Dict[str, Any] = dict(graphs)
        for name, tenant_graph in graphs.items():
            if isinstance(warm_sources, Mapping):
                warm: Tuple[int, ...] = tuple(
                    warm_sources.get(name, ()))
            else:
                warm = tuple(warm_sources)
            specs.append(TenantSpec(
                name=name, graph=tenant_graph,
                memoize=budgets.get(name, memoize), delta=delta,
                scheme=scheme, warm_sources=warm,
            ))
            self._routers[name] = Router(
                n=int(getattr(tenant_graph, "n", 0) or 0))
        super().__init__(scheme)
        self.tenants = tuple(self._graphs)
        self.registry = WorkerRegistry(specs, workers=workers,
                                       start_method=start_method)
        self._gathers = 0
        # Executes serialize on this lock: answer_async runs on the
        # session's worker thread, and the registry's pipes are not
        # thread-safe.
        self._gather_lock = threading.Lock()

    @property
    def graph(self) -> Any:
        """The sole tenant's graph (single-tenant convenience);
        multi-tenant fleets raise — name the tenant via
        :meth:`tenant_graph`."""
        if len(self._graphs) != 1:
            raise FleetError(
                f"fleet hosts {len(self._graphs)} tenants "
                f"({sorted(self._graphs)}); use tenant_graph(name)"
            )
        return next(iter(self._graphs.values()))

    def tenant_graph(self, tenant: str) -> Any:
        return self._graphs[self._tenant(tenant)]

    def _tenant_error(self, message: str) -> ReproError:
        return FleetError(message)

    # ------------------------------------------------------------------
    # the transport seam
    # ------------------------------------------------------------------
    def _execute(self, queries: List[Query], scheme: Any,
                 tenant: str) -> List[Answer]:
        """Shard one tenant's stream over the workers; answers in order.

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
                shards = self._routers[tenant].shard(
                    queries, self.registry.workers)
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
                        tenant=tenant,
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
                                     float(len(local)), worker=worker,
                                     tenant=tenant)
            self._gathers += 1
            if first_error is not None:
                raise_reply(first_error)
        return [a for a in answers if a is not None]

    # ------------------------------------------------------------------
    # merged reports
    # ------------------------------------------------------------------
    def worker_reports(self) -> Dict[str, ReportReply]:
        """Fresh per-worker report replies (per-tenant
        :class:`CacheInfo` and :class:`SessionStats`)."""
        with self._gather_lock:
            return self.registry.reports()

    def cache_info(self) -> CacheInfo:
        """All workers' engine counters, folded with
        :meth:`CacheInfo.merge` — plus the serial-fallback sessions'
        counters when the fleet has degraded."""
        infos: List[CacheInfo] = []
        for report in self.worker_reports().values():
            infos.extend(info for _, info in report.cache_infos)
        infos.extend(
            s.cache_info() for s in self._fallback_sessions()
        )
        return CacheInfo.merge(infos)

    @property
    def stats(self) -> SessionStats:
        """All workers' session stats, folded with
        :meth:`SessionStats.merge`; ``by_worker`` shows the shard
        balance (including ``"serial"`` when the fleet has degraded)."""
        stats: List[SessionStats] = []
        for report in self.worker_reports().values():
            stats.extend(st for _, st in report.stats)
        stats.extend(s.stats for s in self._fallback_sessions())
        return SessionStats.merge(stats)

    def _fallback_sessions(self) -> List[Any]:
        serial = self.registry._serial_sessions
        return list(serial.values()) if serial else []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def gathers(self) -> int:
        """Fleet-level count of executed streams (one per tenant per
        gather, each spanning all its shards)."""
        return self._gathers

    def close(self) -> None:
        """Release the async worker thread, then shut the workers down
        (idempotent)."""
        super().close()
        self.registry.close()

    def __repr__(self) -> str:
        return (
            f"FleetSession(tenants={list(self._graphs)}, "
            f"workers={len(self.registry.workers)}, "
            f"gathers={self._gathers}, pending={len(self._pending)})"
        )
