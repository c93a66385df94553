"""Tests for the coalescer's group commit (repro.service.coalescer).

The :class:`Coalescer` is driven directly on an event loop.  Its
backend is a fake that answers through a real ``Session`` and can
submit tickets while it answers a call — the tickets a server reads
in the poll after a batch, since the loop reads no frames while one
runs — so every ordering below is forced by the test: no thread, no
timer, no sleep.

The contract pinned here: every batch is answered on the event
loop's thread, and each of its tickets gets exactly one reply before
the ``flush`` that took it returns; tickets admitted to an idle
coalescer go to the backend as one batch at the end of the
event-loop turn that admitted them (flush reason ``idle``), never
later and never from inside ``submit``; tickets admitted while a
batch runs ride one next batch; ``max_batch`` caps a batch (reason
``size``); ``flush("drain")`` answers everything admitted at once
(reason ``drain``); only a merged batch that fails is re-answered
ticket by ticket; and ``coalesced`` counts the tickets that asked
about an answer's fault set, not the queries.  Every scenario also
fails if its event loop reports an unhandled error.
"""

import asyncio
import threading

import pytest

from repro.exceptions import QueryError
from repro.graphs import generators
from repro.query import DistanceQuery, Session, VectorQuery
from repro.service import Coalescer, Ticket

#: Seconds: the bound on every wait that should end at once.
WAIT = 10.0

#: A fault set of the 3x3 grid the fake backend answers over.
F = ((0, 1),)


class _Backend:
    """A fake ``answer_fn`` over a real session.

    Records every call's queries and the thread it ran on.  ``during``
    maps a call's number (1-based) to a function run while that call
    answers; ``errors`` maps a call's number to an exception that
    call raises instead of answering.
    """

    def __init__(self):
        self.session = Session(generators.grid(3, 3))
        self.calls = []
        self.threads = []
        self.during = {}
        self.errors = {}

    def __call__(self, queries, scheme):
        self.calls.append(list(queries))
        self.threads.append(threading.get_ident())
        number = len(self.calls)
        if number in self.during:
            self.during[number]()
        if number in self.errors:
            raise self.errors[number]
        return self.session.answer(queries, scheme)


class _Recording(Coalescer):
    """A coalescer recording the reason of every flush that hands a
    batch to the backend — the seam every hand-off must cross — and
    checking that each ticket of the batch got exactly one reply
    before the flush returned."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reasons = []

    def flush(self, reason):
        batch = list(self._pending)
        if batch:
            self.reasons.append(reason)
        super().flush(reason)
        assert [len(t.reply.outcomes) for t in batch] == [1] * len(batch)


class _Reply:
    """A ticket's reply callable that keeps every outcome it gets."""

    def __init__(self):
        self.outcomes = []

    def __call__(self, outcome):
        self.outcomes.append(outcome)


def _ticket(*queries):
    return Ticket(queries=list(queries), scheme=None, reply=_Reply())


def _result(ticket):
    """The ticket's one reply: its answers, or its error raised."""
    (outcome,) = ticket.reply.outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


async def _answered(ticket):
    """Yield to the loop until the ticket has its reply; then
    :func:`_result`."""
    while not ticket.reply.outcomes:
        await asyncio.sleep(0)
    return _result(ticket)


def _run(scenario, **kwargs):
    """Run ``scenario(coalescer, backend)`` on a fresh event loop,
    bounded by WAIT; fail if the loop reports an unhandled error (an
    exception escaping an idle flush lands there, not in the test)."""
    backend = _Backend()
    errors = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        coalescer = _Recording(backend, **kwargs)
        await asyncio.wait_for(scenario(coalescer, backend), WAIT)

    asyncio.run(main())
    assert errors == []


def test_lone_ticket_goes_to_the_backend_within_one_loop_turn():
    async def scenario(coalescer, backend):
        ticket = _ticket(DistanceQuery(0, 8))
        coalescer.submit(ticket)
        # not inside submit: the rest of this loop turn may add company
        assert coalescer.reasons == []
        await asyncio.sleep(0)
        # ...and no later than the end of it, with no timer
        assert coalescer.reasons == ["idle"]
        (answer,) = _result(ticket)
        assert answer.value == 4
        assert answer.provenance.coalesced == 1

    _run(scenario)


def test_backend_runs_on_the_event_loop_thread():
    async def scenario(coalescer, backend):
        loop_thread = threading.get_ident()
        lone = _ticket(DistanceQuery(0, 8))
        coalescer.submit(lone)
        await _answered(lone)
        backlog = [_ticket(DistanceQuery(0, t)) for t in (1, 2)]
        for ticket in backlog:
            coalescer.submit(ticket)  # the second flushes for size
        coalescer.submit(_ticket(DistanceQuery(0, 3)))
        coalescer.flush("drain")
        assert coalescer.reasons == ["idle", "size", "drain"]
        assert backend.threads == [loop_thread] * 3

    _run(scenario, max_batch=2)


def test_tickets_admitted_in_one_turn_ride_one_batch():
    async def scenario(coalescer, backend):
        a, b = _ticket(VectorQuery(2, F)), _ticket(VectorQuery(3, F))
        coalescer.submit(a)
        coalescer.submit(b)
        got_a, got_b = await _answered(a), _result(b)
        assert coalescer.reasons == ["idle"]
        assert backend.calls == [a.queries + b.queries]
        for (answer,) in (got_a, got_b):
            assert answer.provenance.coalesced == 2

    _run(scenario)


def test_coalesced_counts_tickets_not_queries():
    G = ((1, 2),)

    async def scenario(coalescer, backend):
        lone = _ticket(VectorQuery(0, F), VectorQuery(1, F),
                       DistanceQuery(0, 8, F))
        coalescer.submit(lone)
        answers = await _answered(lone)
        # one ticket's own queries on F are not company
        assert [a.provenance.coalesced for a in answers] == [1, 1, 1]
        assert coalescer.counters()["coalesced_queries"] == 0

        # two tickets on different fault sets share a batch
        two_on_f = _ticket(VectorQuery(2, F), VectorQuery(3, F))
        one_on_g = _ticket(VectorQuery(4, G))

        def arrive():
            coalescer.submit(two_on_f)
            coalescer.submit(one_on_g)

        backend.during[2] = arrive
        coalescer.submit(_ticket(DistanceQuery(0, 1)))
        got_f, got_g = await _answered(two_on_f), _result(one_on_g)
        assert backend.calls[2] == two_on_f.queries + one_on_g.queries
        assert [a.provenance.coalesced for a in got_f + got_g] == [
            1, 1, 1]
        assert coalescer.counters() == {
            "batches": 3, "flushed_queries": 7, "coalesced_queries": 0,
        }

    _run(scenario)


def test_tickets_admitted_in_flight_ride_one_next_batch():
    async def scenario(coalescer, backend):
        first = _ticket(DistanceQuery(0, 1))
        a, b = _ticket(VectorQuery(2, F)), _ticket(VectorQuery(3, F))
        reasons_then = []

        def arrive():
            coalescer.submit(a)
            coalescer.submit(b)
            reasons_then.append(list(coalescer.reasons))

        backend.during[1] = arrive
        coalescer.submit(first)
        got_a, got_b = await _answered(a), _result(b)
        assert reasons_then == [["idle"]]  # both wait behind first
        assert coalescer.reasons == ["idle", "idle"]
        assert _result(first)[0].value == 1
        assert backend.calls == [first.queries, a.queries + b.queries]
        for (answer,) in (got_a, got_b):
            assert answer.provenance.coalesced == 2
        assert coalescer.counters() == {
            "batches": 2, "flushed_queries": 3, "coalesced_queries": 2,
        }

    _run(scenario)


def test_max_batch_splits_a_backlog():
    async def scenario(coalescer, backend):
        backlog = [_ticket(DistanceQuery(0, t)) for t in range(2, 7)]
        for ticket in backlog:
            coalescer.submit(ticket)
        # every second ticket fills a batch, answered inside submit;
        # the fifth waits for the end of the turn
        assert coalescer.reasons == ["size", "size"]
        assert [len(t.reply.outcomes) for t in backlog] == [
            1, 1, 1, 1, 0]
        await _answered(backlog[-1])
        assert coalescer.reasons == ["size", "size", "idle"]
        assert [len(call) for call in backend.calls] == [2, 2, 1]

    _run(scenario, max_batch=2)


def test_ticket_submitted_from_an_answers_continuation_is_answered():
    """A ticket submitted from an answer's continuation — inside that
    ticket's reply, while the flush that took its batch is still
    demultiplexing it — must still be flushed, in a batch of its
    own."""
    async def scenario(coalescer, backend):
        second = _ticket(DistanceQuery(0, 2))

        class ReplyThenSubmit(_Reply):
            def __call__(self, outcome):
                super().__call__(outcome)
                coalescer.submit(second)

        first = _ticket(DistanceQuery(0, 1))
        first.reply = ReplyThenSubmit()
        coalescer.submit(first)
        (answer,) = await _answered(second)
        assert answer.value == 2
        assert _result(first)[0].value == 1
        assert coalescer.reasons == ["idle", "idle"]
        assert backend.calls == [first.queries, second.queries]

    _run(scenario)


def test_backend_bug_fails_its_batch_and_the_next_ticket_is_answered():
    async def scenario(coalescer, backend):
        backend.errors[2] = RuntimeError("backend bug")
        a, b = _ticket(DistanceQuery(0, 2)), _ticket(DistanceQuery(0, 3))

        def arrive():
            coalescer.submit(a)
            coalescer.submit(b)

        backend.during[1] = arrive
        coalescer.submit(_ticket(DistanceQuery(0, 1)))
        for ticket in (a, b):
            with pytest.raises(RuntimeError, match="backend bug"):
                await _answered(ticket)
        after = _ticket(DistanceQuery(0, 4))
        coalescer.submit(after)
        (answer,) = await _answered(after)
        assert answer.value == 2
        # a backend bug is not retried ticket by ticket
        assert [len(call) for call in backend.calls] == [1, 2, 1]

    _run(scenario)


def test_drain_answers_pending_tickets_at_once():
    async def scenario(coalescer, backend):
        a, b = _ticket(DistanceQuery(0, 1)), _ticket(DistanceQuery(0, 2))
        coalescer.submit(a)
        coalescer.submit(b)
        coalescer.flush("drain")
        # answered before flush returns: no batch is left running
        assert _result(a)[0].value == 1
        assert _result(b)[0].value == 2
        await asyncio.sleep(0)
        # the idle flush submit scheduled finds nothing left to do
        assert coalescer.reasons == ["drain"]
        assert backend.calls == [a.queries + b.queries]

    _run(scenario)


def test_only_a_merged_failure_is_reanswered_ticket_by_ticket():
    async def scenario(coalescer, backend):
        lone = _ticket(DistanceQuery(0, 10 ** 6))
        coalescer.submit(lone)
        with pytest.raises(QueryError):
            await _answered(lone)
        assert backend.calls == [lone.queries]  # its error, once

        good = _ticket(DistanceQuery(0, 2))
        bad = _ticket(DistanceQuery(0, 10 ** 6))

        def arrive():
            coalescer.submit(good)
            coalescer.submit(bad)

        backend.during[2] = arrive
        coalescer.submit(_ticket(DistanceQuery(0, 1)))
        (answer,) = await _answered(good)
        assert answer.value == 2
        with pytest.raises(QueryError):
            _result(bad)
        assert backend.calls[2:] == [good.queries + bad.queries,
                                     good.queries, bad.queries]

    _run(scenario)
