"""The fleet worker: one process, one warm session.

A worker is a long-lived child process running :func:`worker_main` —
it builds one :class:`~repro.query.session.Session` from its
:class:`~repro.fleet.protocol.InitRequest` (paying graph CSR
construction exactly once) and then serves requests off its pipe
until shutdown.  Keeping the process alive across requests is the
whole point: each engine's LRU survives between shards, so the
fleet's aggregate cache is the *sum* of the workers' budgets — the
resource-pooling idiom the fleet exists for.

The request dispatch itself lives in :func:`serve_request`, a plain
function over one ``Session`` with no process machinery in it.  The
registry's in-process serial fallback calls the very same function,
so a degraded fleet answers with identical semantics (and identical
``worker``-stamped provenance) to a healthy one.
"""

from __future__ import annotations

import dataclasses
import traceback
from typing import Any, List, Optional, Tuple

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
)
from repro.query.queries import Answer
from repro.query.session import Session

__all__ = ["build_session", "serve_request", "worker_main"]


def build_session(init: InitRequest) -> Session:
    """The session a worker (or the serial fallback) serves."""
    return Session(init.graph, scheme=init.scheme,
                   memoize=init.memoize, delta=init.delta)


def _stamp(answers: List[Answer], worker: str) -> Tuple[Answer, ...]:
    """Return the answers with ``provenance.worker`` set to ``worker``."""
    return tuple(
        dataclasses.replace(
            a, provenance=dataclasses.replace(a.provenance, worker=worker)
        )
        for a in answers
    )


def _serve_execute(worker: str, session: Session,
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
    with _obs.activate(ctx):
        with _obs.span("worker.execute", worker=worker,
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
                 worker=worker)
    spans: Tuple[Any, ...] = (
        tuple(_obs.take_spans()) if traced else ())
    return ExecuteReply(worker=worker, answers=_stamp(answers, worker),
                        spans=spans)


def serve_request(worker: str, session: Session,
                  request: Request) -> Reply:
    """Serve one request against the session (pure dispatch).

    Raises whatever the underlying session raises —
    :func:`worker_main` flattens exceptions into
    :class:`~repro.fleet.protocol.ErrorReply` at the process boundary,
    while the registry's serial fallback lets them propagate directly
    (it *is* the parent process).
    """
    if isinstance(request, ShutdownRequest):
        return PongReply(worker=worker)
    if isinstance(request, ReportRequest):
        return ReportReply(worker=worker,
                           cache_info=session.cache_info(),
                           stats=session.stats)
    if isinstance(request, ExecuteRequest):
        return _serve_execute(worker, session, request)
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
    session: Optional[Session] = None
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            try:
                if isinstance(request, InitRequest):
                    session = build_session(request)
                    reply: Reply = ReadyReply(worker=worker)
                else:
                    assert session is not None, "init comes first"
                    reply = serve_request(worker, session, request)
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
