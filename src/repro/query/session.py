"""The session dialect, and :class:`Session`, its in-process transport.

:class:`SessionDialect` is the library's one query surface; every way
of asking the declarative API a question speaks it:

* **streaming** — :meth:`~SessionDialect.submit` queues typed queries,
  :meth:`~SessionDialect.gather` answers everything queued, in
  submission order;
* **one-shot** — :meth:`~SessionDialect.answer` and
  :meth:`~SessionDialect.answer_one` answer directly (the queue is
  untouched).

Every call blocks until its answers are back, and one session may be
shared by threads.  An :mod:`asyncio` caller keeps its loop free by
awaiting ``loop.run_in_executor(None, session.answer, queries)``.

The dialect is implemented once, here, over a single transport seam,
``_execute(queries, scheme) -> answers`` (the shape of the service
coalescer's ``AnswerFn``).  A transport implements only that
seam, ``cache_info`` and its own extras:

* :class:`Session` — plan and execute in process;
* :class:`~repro.fleet.session.FleetSession` — shard across warm
  worker processes;
* :class:`~repro.service.client.ServiceClient` — one socket round
  trip to a :class:`~repro.service.server.ScenarioServer`, which
  coalesces concurrent clients' queries into shared waves.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, TypeVar

from repro import obs as _obs
from repro.exceptions import GraphError, QueryError
from repro.query.planner import Planner
from repro.query.queries import Answer, Query, check_stream
from repro.scenarios.engine import CacheInfo, ScenarioEngine

__all__ = ["Session", "SessionDialect", "SessionStats"]

_S = TypeVar("_S", bound="SessionDialect")


@dataclass
class SessionStats:
    """Running totals of what a session has served, by provenance.

    ``by_backend`` splits the kernel-served answers (``wave`` and
    ``delta``) by which kernel backend (:mod:`repro.backends`) ran
    them — e.g. ``{"pyloops": 12, "vectorized": 340}``.  ``by_worker``
    splits answers by the fleet worker (:mod:`repro.fleet`) whose
    engine produced them; a plain in-process session leaves it empty.
    """

    answers: int = 0
    gathers: int = 0
    waves: int = 0
    cache: int = 0
    filter: int = 0
    delta: int = 0
    wave: int = 0
    by_backend: Dict[str, int] = field(default_factory=dict)
    by_worker: Dict[str, int] = field(default_factory=dict)

    def record_answers(self, answers: Iterable[Answer],
                       waves: int = 0) -> None:
        """Book one gather's worth of answers.

        ``waves`` is the batch's kernel-call count: a
        :class:`Session` passes its plan's, while
        :class:`~repro.service.client.ServiceClient`, which never sees
        the plan that produced its answers, leaves it 0.
        """
        self.gathers += 1
        self.waves += waves
        for a in answers:
            self.answers += 1
            kind = a.provenance.source
            if kind == "cache":
                self.cache += 1
            elif kind == "filter":
                self.filter += 1
            elif kind == "delta":
                self.delta += 1
            else:
                self.wave += 1
            served_by = a.provenance.backend
            if served_by is not None:
                self.by_backend[served_by] = (
                    self.by_backend.get(served_by, 0) + 1)
            worker = a.provenance.worker
            if worker is not None:
                self.by_worker[worker] = (
                    self.by_worker.get(worker, 0) + 1)
        if _obs.ENABLED:
            _obs.inc("repro_session_gathers_total")
            _obs.inc("repro_session_waves_total", waves)

    @classmethod
    def merge(cls, stats: Iterable["SessionStats"]) -> "SessionStats":
        """Aggregate many sessions' totals into one fresh snapshot.

        Counters sum; the ``by_backend`` / ``by_worker`` tallies merge
        by name.  This is how a :class:`~repro.fleet.session.FleetSession`
        folds its per-worker session stats into one report, and it is
        equally useful for aggregating independent sessions (e.g. one
        per thread) into a deployment-wide view.
        """
        merged = cls()
        for st in stats:
            merged.answers += st.answers
            merged.gathers += st.gathers
            merged.waves += st.waves
            merged.cache += st.cache
            merged.filter += st.filter
            merged.delta += st.delta
            merged.wave += st.wave
            for name, count in st.by_backend.items():
                merged.by_backend[name] = (
                    merged.by_backend.get(name, 0) + count)
            for name, count in st.by_worker.items():
                merged.by_worker[name] = (
                    merged.by_worker.get(name, 0) + count)
        return merged


class SessionDialect(abc.ABC):
    """The submit/gather/answer dialect, over one transport seam.

    A transport implements :meth:`_execute` and :meth:`cache_info`;
    staging, the stream check and the lifecycle live here, once.
    """

    def __init__(self, scheme: Any = None) -> None:
        self.scheme = scheme
        self._pending: List[Query] = []

    # ------------------------------------------------------------------
    # the transport seam
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _execute(self, queries: List[Query], scheme: Any) -> List[Answer]:
        """Answer one checked stream, in order.

        ``scheme`` is the caller's (``None`` when not given).
        """

    @abc.abstractmethod
    def cache_info(self) -> CacheInfo:
        """The serving engines' cache counters (frozen snapshot)."""

    # ------------------------------------------------------------------
    # the dialect
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Queries submitted but not yet gathered."""
        return len(self._pending)

    def submit(self: _S, *queries: Any) -> _S:
        """Queue queries (each argument a :class:`Query` or an iterable
        of them) for the next :meth:`gather`.  Returns ``self`` so
        submits chain.

        All-or-nothing: arguments are staged before the queue is
        touched, so an iterable that raises mid-way leaves nothing
        half-submitted for the next gather to mis-answer.
        """
        staged: List[Query] = []
        for q in queries:
            if isinstance(q, Query):
                staged.append(q)
                continue
            try:
                items = iter(q)
            except TypeError:
                raise QueryError(
                    f"submit() takes queries or iterables of "
                    f"queries, got {q!r}"
                ) from None
            # Errors raised while *consuming* the iterable (a buggy
            # generator body) propagate unchanged — they are the
            # caller's bug, not a submit() usage error.
            staged.extend(items)
        self._pending.extend(staged)
        return self

    def gather(self, scheme: Any = None) -> List[Answer]:
        """Answer everything queued as one stream, in submission order.

        The queue is drained even when a query fails, so one malformed
        stream cannot poison the next gather.  An empty queue calls no
        transport.
        """
        batch, self._pending = self._pending, []
        if not batch:
            return []
        return self.answer(batch, scheme)

    def answer(self, queries: Iterable[Query],
               scheme: Any = None) -> List[Answer]:
        """One-shot: answer ``queries`` (the queue is untouched)."""
        stream = list(queries)
        check_stream(stream)
        return self._execute(stream, scheme)

    def answer_one(self, query: Query, scheme: Any = None) -> Answer:
        """Convenience: answer a single query."""
        return self.answer([query], scheme)[0]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release what the transport holds (idempotent).

        An in-process :class:`Session` holds nothing to release, so
        this is a no-op here; a fleet shuts its workers down and a
        service client closes its socket.
        """

    def __enter__(self: _S) -> _S:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Session(SessionDialect):
    """The dialect served in process: one engine, one planner.

    Parameters
    ----------
    graph:
        The base graph (anything :class:`ScenarioEngine` accepts).
        Omit it when adopting an existing ``engine``.
    engine:
        An existing engine to adopt instead of building one — a
        consumer already holding a warm engine pays nothing extra.
    scheme:
        Default tiebreaking scheme for
        :class:`~repro.query.queries.RestorationQuery` streams
        (overridable per :meth:`answer` call).
    memoize:
        LRU capacity for a freshly built engine (see
        :class:`ScenarioEngine`).
    delta:
        Incremental-delta strategy for a freshly built engine (see
        :class:`ScenarioEngine`; ignored when adopting an ``engine``,
        whose own setting governs).

    Example
    -------
    >>> from repro.graphs import generators
    >>> from repro.query import DistanceQuery, Session
    >>> session = Session(generators.grid(4, 4))
    >>> query = DistanceQuery(0, 15, faults=[(0, 1)])
    >>> [a.value for a in session.submit(query).gather()]  # submit chains
    [6]
    """

    def __init__(self, graph=None, *, engine: Optional[ScenarioEngine] = None,
                 scheme=None, memoize: int = 4096, delta: bool = True):
        if engine is None:
            if graph is None:
                raise QueryError("Session needs a graph or an engine")
            engine = ScenarioEngine(graph, memoize=memoize, delta=delta)
        elif graph is not None and engine.graph is not graph:
            raise QueryError(
                "engine was built over a different graph; pass one or "
                "the other, not a mismatched pair"
            )
        super().__init__(scheme)
        self.engine = engine
        self.planner = Planner(engine)
        self.stats = SessionStats()
        # Executes serialize on this lock: the engine's LRU and the
        # session counters are not thread-safe, and threads may share
        # one session.
        self._gather_lock = threading.Lock()

    @classmethod
    def adopt(cls, graph, engine: Optional[ScenarioEngine] = None,
              session: Optional["Session"] = None) -> "Session":
        """Resolve the consumer idiom "optional engine or session".

        The one implementation of the adoption contract shared by
        ``SourcewiseDSO``, ``restoration_success_rate``,
        ``subset_replacement_paths``, ``BaseSet`` and the weighted
        restoration functions (``weighted_restoration_lemma_holds``,
        ``restore_via_middle_edge``): reuse a passed session, wrap a
        passed engine, or build fresh — raising
        :class:`~repro.exceptions.GraphError` (the pre-PR-4 contract
        of those consumers) when the passed component was built over a
        different graph, or when both are passed and disagree.
        """
        if session is not None:
            if session.graph is not graph:
                raise GraphError(
                    "session was built over a different graph"
                )
            if engine is not None and engine is not session.engine:
                raise GraphError(
                    "pass engine or session, not a disagreeing pair"
                )
            return session
        if engine is not None:
            if engine.graph is not graph:
                raise GraphError(
                    "engine was built over a different graph"
                )
            return cls(engine=engine)
        return cls(graph)

    @property
    def graph(self):
        return self.engine.graph

    def _execute(self, queries: List[Query], scheme: Any) -> List[Answer]:
        plan = self.planner.plan(queries)
        with self._gather_lock:
            answers = self.planner.execute(
                plan, scheme=scheme if scheme is not None else self.scheme
            )
            self.stats.record_answers(answers, waves=plan.waves)
        return answers

    def cache_info(self) -> CacheInfo:
        """The engine's cache counters (frozen snapshot)."""
        return self.engine.cache_info()

    def __repr__(self) -> str:
        st = self.stats
        return (
            f"Session(n={self.engine.csr.n}, m={self.engine.csr.m}, "
            f"weighted={self.engine.weighted}, answers={st.answers} "
            f"({st.cache}c/{st.filter}f/{st.delta}d/{st.wave}w in "
            f"{st.waves} waves), "
            f"pending={len(self._pending)})"
        )
