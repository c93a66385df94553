"""The fleet worker: one process, one warm session per tenant.

A worker is a long-lived child process running :func:`worker_main` —
it builds one :class:`~repro.query.session.Session` per
:class:`~repro.fleet.protocol.TenantSpec` at init (paying graph CSR
construction and warm-start base vectors exactly once) and then
serves requests off its pipe until shutdown.  Keeping the process
alive across requests is the whole point: the engines' LRU memos
survive between shards, so the fleet's aggregate cache is the *sum*
of the workers' budgets — the resource-pooling idiom the fleet exists
for.

The request dispatch itself lives in :func:`serve_request`, a plain
function over a ``{tenant: Session}`` dict with no process machinery
in it.  The registry's in-process serial fallback calls the very same
function, so a degraded fleet answers with identical semantics (and
identical ``worker``-stamped provenance) to a healthy one.
"""

from __future__ import annotations

import dataclasses
import traceback
from typing import Any, Dict, List, Tuple

from repro import obs as _obs
from repro.fleet.protocol import (
    ErrorReply,
    ExecuteReply,
    ExecuteRequest,
    InitRequest,
    PongReply,
    ReadyReply,
    Reply,
    ReportReply,
    ReportRequest,
    Request,
    ShutdownRequest,
    TenantSpec,
)
from repro.query.queries import Answer
from repro.query.session import Session

__all__ = ["build_sessions", "serve_request", "worker_main"]


def build_sessions(tenants: Tuple[TenantSpec, ...]
                   ) -> Dict[str, Session]:
    """Build one warm session per tenant spec.

    Each tenant gets its own engine with its own ``memoize`` budget —
    per-tenant eviction isolation — and its ``warm_sources`` base
    vectors are computed eagerly so the first real query finds them
    cached.
    """
    sessions: Dict[str, Session] = {}
    for spec in tenants:
        session = Session(spec.graph, scheme=spec.scheme,
                          memoize=spec.memoize, delta=spec.delta)
        for source in spec.warm_sources:
            session.engine.base_distances(source)
        sessions[spec.name] = session
    return sessions


def _stamp(answers: List[Answer], worker: str) -> Tuple[Answer, ...]:
    """Return the answers with ``provenance.worker`` set to ``worker``."""
    return tuple(
        dataclasses.replace(
            a, provenance=dataclasses.replace(a.provenance, worker=worker)
        )
        for a in answers
    )


def _serve_execute(worker: str, sessions: Dict[str, Session],
                   request: ExecuteRequest) -> ExecuteReply:
    """Answer one shard, tracing it when the request carries a context.

    A traced request turns recording on in this process (sticky — the
    parent flipped its own switch, and a worker cannot be asked to
    forget mid-stream without losing the engine-side wave spans), and
    the shard runs under a ``worker.execute`` span parented to the
    carried context.  The worker's finished spans ride home on the
    reply, leaving its buffer drained.
    """
    ctx = _obs.TraceContext.from_dict(request.trace)
    traced = ctx is not None
    if traced and not _obs.ENABLED:
        _obs.enable()
    session = sessions[request.tenant]
    with _obs.activate(ctx):
        with _obs.span("worker.execute", worker=worker,
                       tenant=request.tenant,
                       queries=len(request.queries)):
            answers = session.answer(list(request.queries),
                                     scheme=request.scheme)
    # The session recorded its stats before the worker stamp existed
    # on the answers, so the by_worker tally is booked here — the one
    # place that knows the worker's name.
    if answers:
        session.stats.by_worker[worker] = (
            session.stats.by_worker.get(worker, 0) + len(answers))
    if _obs.ENABLED:
        _obs.inc("repro_worker_answers_total", len(answers),
                 worker=worker, tenant=request.tenant)
    spans: Tuple[Any, ...] = (
        tuple(_obs.take_spans()) if traced else ())
    return ExecuteReply(worker=worker, answers=_stamp(answers, worker),
                        spans=spans)


def serve_request(worker: str, sessions: Dict[str, Session],
                  request: Request) -> Reply:
    """Serve one request against the tenant sessions (pure dispatch).

    Raises whatever the underlying session raises —
    :func:`worker_main` flattens exceptions into
    :class:`~repro.fleet.protocol.ErrorReply` at the process boundary,
    while the registry's serial fallback lets them propagate directly
    (it *is* the parent process).  An unknown tenant raises
    :class:`~repro.exceptions.FleetError` by way of the caller-side
    validation in :class:`~repro.fleet.session.FleetSession`, so here
    it is an invariant violation and raised as ``KeyError``.
    """
    if isinstance(request, ShutdownRequest):
        return PongReply(worker=worker)
    if isinstance(request, ReportRequest):
        return ReportReply(
            worker=worker,
            cache_infos=tuple(
                (name, s.cache_info())
                for name, s in sorted(sessions.items())
            ),
            stats=tuple(
                (name, s.stats) for name, s in sorted(sessions.items())
            ),
        )
    if isinstance(request, ExecuteRequest):
        return _serve_execute(worker, sessions, request)
    raise TypeError(f"unhandled fleet request: {request!r}")


def worker_main(worker: str, conn: Any) -> None:
    """The child-process loop: recv a request, send exactly one reply.

    The first message must be an
    :class:`~repro.fleet.protocol.InitRequest`; everything after is
    served by :func:`serve_request`.  Exceptions never tear the
    channel — they are flattened into
    :class:`~repro.fleet.protocol.ErrorReply` and the loop keeps
    going, so one poisonous query stream cannot take the worker's warm
    caches down with it.  The loop ends on
    :class:`~repro.fleet.protocol.ShutdownRequest` (after replying) or
    a closed pipe.
    """
    sessions: Dict[str, Session] = {}
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            try:
                if isinstance(request, InitRequest):
                    sessions = build_sessions(request.tenants)
                    reply: Reply = ReadyReply(
                        worker=worker, tenants=tuple(sorted(sessions))
                    )
                else:
                    reply = serve_request(worker, sessions, request)
            except BaseException as exc:  # noqa: BLE001 — boundary
                reply = ErrorReply(worker=worker,
                                   exc_type=type(exc).__name__,
                                   message=str(exc),
                                   traceback=traceback.format_exc())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
            if isinstance(request, ShutdownRequest):
                break
    finally:
        conn.close()
