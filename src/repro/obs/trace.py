"""The tracing plane: spans, parent/child links, portable contexts.

A :class:`Span` is one timed operation; finished spans are recorded
into a bounded process-wide buffer (owned by :mod:`repro.obs`) as
plain dicts, so they pickle across the fleet's worker pipes and JSON
across the service's frames without custom reducers.

A :class:`TraceContext` is the portable half of a span — ``(trace_id,
span_id)`` — small enough to ride as an optional field on
``fleet.protocol.ExecuteRequest`` and as a ``"trace"`` slot in the
service's JSON control dicts.  The *current* context lives in a
:mod:`contextvars` variable, so each thread, and each task or
callback on the service's event loop, sees its own; process
boundaries re-activate it explicitly from the carried context.
"""

from __future__ import annotations

import os
import random
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

__all__ = ["Span", "TraceContext", "current_context", "new_id",
           "now", "reset_current", "set_current"]

# Ids only need to be unique, not unpredictable: one urandom syscall
# seeds a PRNG at import so per-span id generation stays nanoseconds
# (two ids per root span lands inside the enabled-overhead budget).
# CPython's getrandbits is GIL-atomic, so cross-thread use is safe.
_ids = random.Random(os.urandom(16))

if hasattr(os, "register_at_fork"):  # fork-started fleet workers must
    # not replay the parent's id stream — reseed each child.
    os.register_at_fork(
        after_in_child=lambda: _ids.seed(os.urandom(16)))


# One (wall, monotonic) anchor per process.  Span stamps read the
# monotonic clock against it, so a stepped wall clock can neither
# shorten nor stretch a duration, while records keep epoch seconds
# that line up across the fleet's processes.  Forked workers inherit
# the anchor, which stays valid: the monotonic clock is system-wide.
_ANCHOR_WALL = time.time()
_ANCHOR_PERF = time.perf_counter()


def now() -> float:
    """Epoch seconds for a span stamp, advanced by the monotonic clock."""
    return _ANCHOR_WALL + (time.perf_counter() - _ANCHOR_PERF)


def new_id() -> str:
    """A fresh 64-bit hex id (trace or span)."""
    return f"{_ids.getrandbits(64):016x}"


@dataclass(frozen=True)
class TraceContext:
    """The portable link to a live span: ``(trace_id, span_id)``.

    Frozen, picklable, and JSON-able via :meth:`to_dict` /
    :meth:`from_dict` — the shape that crosses fleet pipes and
    service frames.
    """

    trace_id: str
    span_id: str

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: Any) -> Optional["TraceContext"]:
        """Rebuild from a wire dict; ``None`` on anything malformed.

        Lenient by design: a peer speaking a newer obs dialect must
        degrade to "untraced", never to a protocol error.
        """
        if isinstance(data, TraceContext):
            return data
        if not isinstance(data, Mapping):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if isinstance(trace_id, str) and isinstance(span_id, str):
            return cls(trace_id=trace_id, span_id=span_id)
        return None


_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_obs_context", default=None)


def current_context() -> Optional[TraceContext]:
    """The context spans created *now* would be parented to."""
    return _CURRENT.get()


def set_current(ctx: Optional[TraceContext]) -> Any:
    """Install ``ctx`` as current; returns the reset token."""
    return _CURRENT.set(ctx)


def reset_current(token: Any) -> None:
    """Undo a :func:`set_current` (tokens restore in reverse order)."""
    _CURRENT.reset(token)


class Span:
    """One timed operation with a parent link and flat attributes."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start",
                 "attrs", "_ended")

    def __init__(self, name: str,
                 parent: Optional[TraceContext] = None,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.trace_id = parent.trace_id if parent else new_id()
        self.span_id = new_id()
        self.parent_id = parent.span_id if parent else None
        self.start = now()
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self._ended = False

    def context(self) -> TraceContext:
        """The portable handle children (local or remote) parent to."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_record(self, end: float) -> Dict[str, Any]:
        return {
            "kind": "span",
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": end,
            "attrs": dict(self.attrs),
        }
