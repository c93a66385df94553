"""Cross-client wave coalescing: group-commit batches over one backend.

The service's reason to exist: the paper's workload is *many queries
against many fault sets over one base graph*, and concurrent clients
asking about the same failure should cost one masked wave, not N.
The :class:`Coalescer` makes that happen without touching the
planner.  It batches by group commit: the first ticket admitted to
an idle coalescer schedules one flush for the end of the current
event-loop turn, so every request whose frame the server read in the
same poll rides the same batch (a batch also flushes at once on
reaching ``max_batch`` queries).  The batch is answered right there,
on the event loop's thread: while it runs the loop reads no frames,
so requests that arrive meanwhile wait in their sockets, and the
next poll reads them together into the next batch.  No timer and no
thread is involved: a lone client waits one loop turn, never for
company that is not coming.  The batch goes to the shared backend
session — whose planner already groups by canonical fault set, so
queries from different clients sharing a fault set ride one wave —
and the answers are demultiplexed back to each :class:`Ticket` in
submission order: the coalescer calls each ticket's ``reply`` once,
before ``flush`` returns, so a reply leaves in the batch that
answered it.

Each answer's :class:`~repro.query.queries.Provenance` is stamped
with ``coalesced``: how many tickets in its batch group asked about
its canonical fault set.  A lone ticket reads 1 however many queries
it holds; a value above 1 is the service paying one wave for several
clients.

Isolation: one client's malformed stream must not poison a merged
batch.  When a batch of several tickets fails with a
:class:`~repro.exceptions.ReproError`, every ticket is re-answered
alone, so exactly the guilty tickets see the error and the innocent
ones still get answers (they lose this batch's coalescing, nothing
else); a lone ticket gets its error back at once.
"""

from __future__ import annotations

import asyncio
import pickle
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Union

from repro import obs as _obs
from repro.exceptions import ReproError
from repro.obs.trace import TraceContext
from repro.query.queries import Answer, Query

__all__ = ["Coalescer", "Ticket"]

#: A blocking backend call: (queries, scheme) -> answers.  It runs on
#: the event loop's thread, which serves nothing else until it returns.
AnswerFn = Callable[[List[Query], Any], List[Answer]]

#: A ticket's reply: called with its answers or with the exception
#: that failed it.
ReplyFn = Callable[[Union[List[Answer], Exception]], None]


@dataclass
class Ticket:
    """One connection's admitted sub-batch, awaiting its answers.

    The coalescer calls ``reply`` exactly once, before the ``flush``
    that answered the ticket returns, with the ticket's answers or
    with the exception that failed it.

    ``trace`` is the requesting client's observability context (a
    :class:`~repro.obs.trace.TraceContext` wire dict, or ``None``
    when untraced) — the coalescer's shared wave span parents to the
    first traced ticket in its batch and records every batch-mate's
    trace id, so one wave shows up in each client's trace.
    """

    queries: List[Query]
    scheme: Any
    reply: ReplyFn = field(repr=False)
    trace: Any = None


def _ticket_counts(tickets: List[Ticket]) -> "Counter[Any]":
    """How many of ``tickets`` ask about each canonical fault set."""
    return Counter(key for t in tickets
                   for key in {q.fault_key for q in t.queries})


def _stamp(answers: List[Answer],
           counts: "Counter[Any]") -> List[Answer]:
    """Return answers with ``provenance.coalesced`` set from counts."""
    return [
        replace(a, provenance=replace(
            a.provenance, coalesced=counts[a.query.fault_key]))
        for a in answers
    ]


class Coalescer:
    """Admit tickets into group-commit batches over one backend.

    Parameters
    ----------
    answer_fn:
        The blocking backend call ``(queries, scheme) -> answers``.
        It runs on the event loop's thread, one batch at a time — the
        backend session serializes gathers anyway — so the loop serves
        nothing else while a batch runs, and the backend is never
        entered from two threads.
    max_batch:
        Cap on one batch: flush as soon as the pending tickets hold
        this many queries (counting queries, not tickets — admission
        control upstream bounds both).

    All entry points must be called on the owning event loop.
    """

    def __init__(self, answer_fn: AnswerFn, *,
                 max_batch: int = 64) -> None:
        self._answer_fn = answer_fn
        self.max_batch = max(1, int(max_batch))
        self._pending: List[Ticket] = []
        self._pending_queries = 0
        #: An end-of-turn idle flush is scheduled and has not run.
        self._idle_scheduled = False
        #: Micro-batches flushed so far.
        self.batches = 0
        #: Queries answered through flushed batches.
        self.flushed_queries = 0
        #: Queries whose fault set another ticket in their batch also
        #: asked about (i.e. answers stamped ``coalesced > 1``).
        self.coalesced_queries = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, ticket: Ticket) -> None:
        """Admit one ticket.

        The pending tickets flush at once when they hold ``max_batch``
        queries, and their batch is answered before this returns.
        Otherwise, the first ticket an idle coalescer admits schedules
        one flush for the end of this loop turn, so tickets admitted
        in the same turn ride its batch.
        """
        self._pending.append(ticket)
        self._pending_queries += len(ticket.queries)
        if self._pending_queries >= self.max_batch:
            self.flush("size")
        elif not self._idle_scheduled:
            self._idle_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_idle)

    def _flush_idle(self) -> None:
        """The end-of-turn flush :meth:`submit` scheduled."""
        self._idle_scheduled = False
        self.flush("idle")

    def flush(self, reason: str) -> None:
        """Answer the pending tickets as one batch, on this thread
        (no-op when none wait); ``reason`` is ``size``, ``idle`` or
        ``drain``."""
        batch, self._pending = self._pending, []
        queries = self._pending_queries
        self._pending_queries = 0
        if not batch:
            return
        self.batches += 1
        if _obs.ENABLED:
            _obs.inc("repro_coalescer_flushes_total", reason=reason)
            _obs.observe("repro_coalescer_batch_size", float(queries))
        self._run_batch(batch)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run_batch(self, batch: List[Ticket]) -> None:
        """Group one flushed batch, answer each group, demultiplex.

        Groups split by scheme: two different schemes cannot share a
        restoration pass.  Scheme equality is byte equality of its
        pickle — the form it crossed the wire in — so two clients
        sending the same scheme coalesce.
        """
        groups: Dict[Optional[bytes], List[Ticket]] = {}
        for ticket in batch:
            scheme_key = (None if ticket.scheme is None else
                          pickle.dumps(ticket.scheme,
                                       protocol=pickle.HIGHEST_PROTOCOL))
            groups.setdefault(scheme_key, []).append(ticket)
        for tickets in groups.values():
            self._run_group(tickets)

    def _run_group(self, tickets: List[Ticket]) -> None:
        queries = [q for t in tickets for q in t.queries]
        scheme = tickets[0].scheme
        counts = _ticket_counts(tickets)
        # One shared wave span for the whole merged group: parented to
        # the first traced ticket, carrying every batch-mate's trace
        # id — the record that several clients paid one wave.
        wave_span: Any = None
        ctx: Optional[TraceContext] = None
        if _obs.ENABLED:
            parents = [c for c in (TraceContext.from_dict(t.trace)
                                   for t in tickets) if c is not None]
            wave_span = _obs.start_span(
                "coalescer.wave",
                parent=parents[0] if parents else None,
                tickets=len(tickets),
                queries=len(queries),
                traces=sorted({p.trace_id for p in parents}),
            )
            ctx = wave_span.context()
        try:
            self._answer_group(tickets, queries, scheme, counts, ctx)
        finally:
            if wave_span is not None:
                _obs.finish_span(wave_span)

    def _answer_group(self, tickets: List[Ticket], queries: List[Query],
                      scheme: Any, counts: "Counter[Any]",
                      ctx: Optional[TraceContext]) -> None:
        try:
            answers = self._call(queries, scheme, ctx)
        except Exception as exc:
            if isinstance(exc, ReproError) and len(tickets) > 1:
                # A merged batch failed: isolate the guilty ticket(s)
                # by re-answering each alone, so one client's
                # malformed stream cannot fail its batch-mates.
                self._retry_alone(tickets, ctx)
                return
            # A lone ticket's own error, or a backend bug.
            for ticket in tickets:
                ticket.reply(exc)
            return
        self.flushed_queries += len(queries)
        self.coalesced_queries += sum(
            1 for q in queries if counts[q.fault_key] > 1)
        answers = _stamp(answers, counts)
        cursor = 0
        for ticket in tickets:
            chunk = answers[cursor:cursor + len(ticket.queries)]
            cursor += len(ticket.queries)
            ticket.reply(chunk)

    def _retry_alone(self, tickets: List[Ticket],
                     ctx: Optional[TraceContext]) -> None:
        for ticket in tickets:
            try:
                answers = self._call(ticket.queries, ticket.scheme, ctx)
            except Exception as exc:
                ticket.reply(exc)
                continue
            self.flushed_queries += len(ticket.queries)
            ticket.reply(_stamp(answers, _ticket_counts([ticket])))

    def _call(self, queries: List[Query], scheme: Any,
              ctx: Optional[TraceContext]) -> List[Answer]:
        # Backend spans (planner.execute, fleet.gather, engine waves)
        # parent under the coalescer's shared wave span.
        with _obs.activate(ctx):
            return self._answer_fn(queries, scheme)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """JSON-able snapshot of the coalescing counters."""
        return {
            "batches": self.batches,
            "flushed_queries": self.flushed_queries,
            "coalesced_queries": self.coalesced_queries,
        }
