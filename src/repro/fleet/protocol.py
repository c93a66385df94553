"""The fleet wire protocol: pickle-clean messages, nothing else.

Everything that crosses a worker boundary is a frozen dataclass
defined here, built only from values that round-trip through
:mod:`pickle` under the ``spawn`` start method — plain containers,
typed queries/answers (:mod:`repro.query.queries`), graphs, and the
frozen :class:`~repro.scenarios.engine.CacheInfo` /
:class:`~repro.query.session.SessionStats` reports.  That contract is
what lets the same protocol serve processes today and machines by a
serialised transport later (the seam named in ROADMAP item 2), and it
is pinned by the spawn-safety suite in ``tests/test_fleet.py``.

One request, one reply, in order: a worker serves messages strictly
sequentially, so the parent-side registry pairs each reply with its
request without a correlation id.  Worker-side failures never
tear the channel — they come back as an :class:`ErrorReply` carrying
the exception type name and traceback text (exception *objects* are
not reliably picklable), and :func:`raise_reply` re-raises the
closest :mod:`repro.exceptions` type on the parent side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.exceptions import FleetError

__all__ = [
    "Request",
    "InitRequest",
    "ExecuteRequest",
    "ReportRequest",
    "ShutdownRequest",
    "Reply",
    "ReadyReply",
    "ExecuteReply",
    "ReportReply",
    "PongReply",
    "ErrorReply",
    "raise_reply",
]


@dataclass(frozen=True)
class Request:
    """Base marker for parent → worker messages."""


@dataclass(frozen=True)
class InitRequest(Request):
    """First message on a fresh channel: build the worker's session.

    ``graph``, ``memoize`` and ``delta`` are the engine's construction
    arguments (see :class:`~repro.scenarios.engine.ScenarioEngine`), so
    ``memoize`` is each worker's own LRU budget.  ``scheme`` rides
    along for restoration queries and must itself be picklable
    (schemes over the graph are).

    Sent over the connection rather than passed as process arguments,
    so the graph crosses the pickle seam under *every* start method —
    ``fork`` included — and one that would not survive ``spawn``
    fails loudly everywhere.
    """

    graph: Any
    memoize: int = 4096
    delta: bool = True
    scheme: Any = None


@dataclass(frozen=True)
class ExecuteRequest(Request):
    """Answer a shard of typed queries.

    ``trace`` is an optional observability context
    (:class:`~repro.obs.trace.TraceContext`, or its ``to_dict`` form)
    carried across the process boundary so worker-side spans parent to
    the caller's trace.  It defaults to ``None`` — untraced requests
    pickle byte-compatibly with the pre-obs protocol — and workers
    treat anything malformed as "untraced", never as an error.
    """

    queries: Tuple[Any, ...]
    scheme: Any = None
    trace: Any = None


@dataclass(frozen=True)
class ReportRequest(Request):
    """Ask for the worker's cache/stats snapshots."""


@dataclass(frozen=True)
class ShutdownRequest(Request):
    """Orderly exit; the worker replies once, then leaves its loop."""


@dataclass(frozen=True)
class Reply:
    """Base of worker → parent messages; every reply names its worker."""

    worker: str


@dataclass(frozen=True)
class ReadyReply(Reply):
    """Answer to :class:`InitRequest`: the worker's session is built."""


@dataclass(frozen=True)
class ExecuteReply(Reply):
    """Answers plus (for traced requests) the worker's finished span
    records — plain dicts, drained from the worker's buffer so the
    parent can :func:`repro.obs.ingest` them into one export."""

    answers: Tuple[Any, ...]
    spans: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class ReportReply(Reply):
    """The worker session's :class:`~repro.scenarios.engine.CacheInfo`
    and :class:`~repro.query.session.SessionStats`."""

    cache_info: Any
    stats: Any


@dataclass(frozen=True)
class PongReply(Reply):
    """Answer to :class:`ShutdownRequest`."""


@dataclass(frozen=True)
class ErrorReply(Reply):
    """A worker-side exception, flattened to picklable text."""

    exc_type: str
    message: str
    traceback: str = ""


def raise_reply(reply: Reply) -> Reply:
    """Pass a normal reply through; re-raise an :class:`ErrorReply`.

    The worker-side exception type is resolved by name against
    :mod:`repro.exceptions`, so a :class:`~repro.exceptions.QueryError`
    raised by a worker's planner surfaces as a ``QueryError`` on the
    parent side (the validation contract callers already handle);
    anything unresolvable becomes a :class:`FleetError` carrying the
    original type name and traceback text.
    """
    if not isinstance(reply, ErrorReply):
        return reply
    import repro.exceptions as _exc

    exc_class = getattr(_exc, reply.exc_type, None)
    if isinstance(exc_class, type) and issubclass(exc_class,
                                                  _exc.ReproError):
        raise exc_class(reply.message)
    raise FleetError(
        f"worker {reply.worker} failed with {reply.exc_type}: "
        f"{reply.message}\n{reply.traceback}"
    )
