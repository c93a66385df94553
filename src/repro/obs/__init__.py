"""Unified observability: metrics, tracing, export — off by default.

One plane under the whole stack (kernel dispatch → engine → planner →
fleet → service): instrumented seams record counters, gauges and
fixed-bucket histograms into one process-wide
:class:`~repro.obs.metrics.MetricsRegistry`, and wrap the operations a
query flows through in parent-linked :class:`~repro.obs.trace.Span`
records that cross process boundaries via
:class:`~repro.obs.trace.TraceContext` (an optional field on the fleet
pickle protocol, a ``"trace"`` slot in service frames).

**The overhead contract.**  Observability is *disabled by default* and
the disabled path at every seam is::

    if _obs.ENABLED:
        ...record...

— one module-attribute load and one branch, no object creation, so the
hot loops the PR 1–5 speedups live in stay hot
(``benchmarks/bench_obs.py`` holds the ≤ 1% disabled / ≤ 5% enabled
guard).  Instrumentation lives at the *wave seams* (one call per
batched wave, per repair, per flush), never inside the ``csr_*``
kernel inner loops — reprolint rule OB401 enforces that mechanically.

Usage::

    from repro import obs

    obs.enable()
    ... run workload ...
    print(obs.render_prometheus())       # scrape text
    obs.write_jsonl(open("run.jsonl", "w"))  # spans + metrics dump

Everything here is stdlib-only and import-light: this package sits at
the *bottom* of the layer DAG (rank 1, beside ``exceptions``) so every
other layer may instrument through it at module level.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import (IO, Any, Deque, Dict, Iterable, Iterator, List,
                    Optional)

from repro.obs import export as _export
from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, SIZE_BUCKETS,
                               TIME_BUCKETS)
from repro.obs.trace import (Span, TraceContext, current_context, now,
                             reset_current, set_current)

__all__ = [
    "Counter", "ENABLED", "Gauge", "Histogram", "MetricsRegistry",
    "MetricsServer", "SIZE_BUCKETS", "Span", "TIME_BUCKETS",
    "TraceContext", "activate", "current_context", "disable",
    "emit_span", "enable", "enabled", "inc", "ingest", "observe",
    "registry", "render_prometheus", "reset", "set_gauge",
    "snapshot", "span", "span_records", "start_span", "take_spans",
    "write_jsonl",
]

#: The global switch.  Instrumented seams read this as a module
#: attribute (``if _obs.ENABLED:``) so flipping it takes effect
#: process-wide immediately; they must NOT ``from repro.obs import
#: ENABLED`` (that would freeze the value at import time).
ENABLED: bool = False

#: Finished spans, newest last, bounded so an always-on process cannot
#: grow without bound (drain with :func:`take_spans`).
_SPAN_LIMIT = 16384

_registry = MetricsRegistry()
_spans: Deque[Dict[str, Any]] = deque(maxlen=_SPAN_LIMIT)

MetricsServer = _export.MetricsServer


# ---------------------------------------------------------------------------
# the switch
# ---------------------------------------------------------------------------
def enable() -> None:
    """Turn recording on, process-wide.  Idempotent."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn recording off (already-recorded data stays).  Idempotent."""
    global ENABLED
    ENABLED = False


def enabled() -> bool:
    return ENABLED


def reset() -> None:
    """Disable and drop all recorded metrics and spans (tests)."""
    disable()
    _registry.clear()
    _spans.clear()


def registry() -> MetricsRegistry:
    """The process-wide instrument table."""
    return _registry


# ---------------------------------------------------------------------------
# metric helpers — callers guard with ``if _obs.ENABLED:``; these
# re-check so an unguarded call while disabled is a cheap no-op, not
# a recording.
# ---------------------------------------------------------------------------
def inc(name: str, amount: float = 1.0, **labels: Any) -> None:
    """Bump a counter."""
    if ENABLED:
        _registry.counter(name, **labels).inc(amount)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge level."""
    if ENABLED:
        _registry.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record one histogram observation (bucket ladder chosen by name;
    see :meth:`MetricsRegistry.histogram`)."""
    if ENABLED:
        _registry.histogram(name, **labels).observe(value)


# ---------------------------------------------------------------------------
# span helpers
# ---------------------------------------------------------------------------
def start_span(name: str, parent: Optional[TraceContext] = None,
               **attrs: Any) -> Span:
    """Begin a span (parent defaults to the current context).

    The caller must finish it with :func:`finish_span` (or use the
    :func:`span` context manager, which also makes it current).
    """
    if parent is None:
        parent = current_context()
    return Span(name, parent=parent, attrs=attrs)


def finish_span(span_obj: Span) -> None:
    """End a span now and record it (once)."""
    if span_obj._ended:
        return
    span_obj._ended = True
    _spans.append(span_obj.to_record(now()))


def emit_span(name: str, seconds: float,
              parent: Optional[TraceContext] = None,
              **attrs: Any) -> None:
    """Record a completed span of the given duration, ending now.

    The one-call form for seams that already timed themselves (the
    engine's wave/repair sites): no context manager, no currency
    change, just a parent-linked record.
    """
    if not ENABLED:
        return
    span_obj = start_span(name, parent=parent, **attrs)
    end = now()
    span_obj.start = end - seconds
    span_obj._ended = True
    _spans.append(span_obj.to_record(end))


@contextmanager
def span(name: str, parent: Optional[TraceContext] = None,
         **attrs: Any) -> Iterator[Optional[Span]]:
    """A span over a block, installed as the current context.

    Yields ``None`` (and records nothing) while disabled, so callers
    may use it unguarded outside hot seams.
    """
    if not ENABLED:
        yield None
        return
    span_obj = start_span(name, parent=parent, **attrs)
    token = set_current(span_obj.context())
    try:
        yield span_obj
    finally:
        reset_current(token)
        finish_span(span_obj)


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[None]:
    """Make a carried context current for a block (process-boundary
    re-entry: a worker serving a traced request, a server handling a
    traced frame)."""
    token = set_current(ctx)
    try:
        yield
    finally:
        reset_current(token)


# ---------------------------------------------------------------------------
# the read side
# ---------------------------------------------------------------------------
def span_records() -> List[Dict[str, Any]]:
    """Finished spans recorded so far (oldest first), without draining."""
    return list(_spans)


def take_spans() -> List[Dict[str, Any]]:
    """Drain and return the finished-span buffer."""
    out = list(_spans)
    _spans.clear()
    return out


def ingest(records: Iterable[Dict[str, Any]]) -> int:
    """Adopt span records produced elsewhere (a fleet worker's reply,
    a service peer's stats payload) into this process's buffer."""
    count = 0
    for record in records:
        if isinstance(record, dict):
            _spans.append(record)
            count += 1
    return count


def snapshot() -> List[Dict[str, Any]]:
    """Every metric as a plain JSON-ready record."""
    return _registry.snapshot()


def render_prometheus() -> str:
    """The registry in Prometheus text exposition format."""
    return _export.render_prometheus(_registry.snapshot())


def write_jsonl(stream: IO[str]) -> int:
    """Dump metrics then spans as JSON-lines; returns lines written."""
    return _export.write_jsonl(stream, _registry.snapshot(),
                               span_records())
