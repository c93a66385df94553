"""Tests for the coalescer's group commit (repro.service.coalescer).

The :class:`Coalescer` is driven directly on an event loop.  Its
backend is a fake that answers through a real ``Session`` and can be
held at a gate (a ``threading.Event``), so every ordering below is
forced by the test: no timer, no sleep.

The contract pinned here: tickets admitted to an idle coalescer go
to the backend as one batch at the end of the event-loop turn that
admitted them (flush reason ``idle``), never later and never from
inside ``submit``; tickets admitted while a batch runs ride one batch
flushed when it finishes; ``max_batch`` caps a batch (reason
``size``); ``drain()`` answers everything admitted (reason
``drain``); only a merged batch that fails is re-answered ticket by
ticket; and ``coalesced`` counts the tickets that asked about an
answer's fault set, not the queries.
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

    Records every call's queries.  After :meth:`hold`, a call sets
    ``entered`` and blocks until ``gate`` is set; ``errors`` maps a
    call's number (1-based) to an exception that call raises instead
    of answering.
    """

    def __init__(self):
        self.session = Session(generators.grid(3, 3))
        self.calls = []
        self.errors = {}
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.gate.set()

    def __call__(self, queries, scheme, tenant):
        self.calls.append(list(queries))
        number = len(self.calls)
        self.entered.set()
        if not self.gate.wait(WAIT):
            raise TimeoutError("the test never opened the gate")
        if number in self.errors:
            raise self.errors[number]
        return self.session.answer(queries, scheme, tenant=tenant)

    def hold(self):
        """Hold the calls that start from now on at the gate."""
        self.entered.clear()
        self.gate.clear()

    async def wait_entered(self):
        """Wait, off the loop, until a call is held at the gate."""
        assert await asyncio.to_thread(self.entered.wait, WAIT)


class _Recording(Coalescer):
    """A coalescer recording the reason of every flush that hands a
    batch to the backend — the seam every hand-off must cross."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reasons = []

    def flush(self, reason):
        if self._pending:
            self.reasons.append(reason)
        super().flush(reason)


def _ticket(*queries):
    return Ticket(queries=list(queries), scheme=None, tenant="default",
                  future=asyncio.get_running_loop().create_future())


def _run(scenario, **kwargs):
    """Run ``scenario(coalescer, backend)`` on a fresh event loop,
    bounded by WAIT; the coalescer is drained and closed after."""
    backend = _Backend()

    async def main():
        coalescer = _Recording(backend, **kwargs)
        try:
            await asyncio.wait_for(scenario(coalescer, backend), WAIT)
        finally:
            backend.gate.set()
            await coalescer.drain()
            coalescer.close()

    asyncio.run(main())


def test_lone_ticket_goes_to_the_backend_within_one_loop_turn():
    async def scenario(coalescer, backend):
        ticket = _ticket(DistanceQuery(0, 8))
        coalescer.submit(ticket)
        # not inside submit: the rest of this loop turn may add company
        assert coalescer.reasons == []
        await asyncio.sleep(0)
        # ...and no later than the end of it, with no timer
        assert coalescer.reasons == ["idle"]
        (answer,) = await ticket.future
        assert answer.value == 4
        assert answer.provenance.coalesced == 1

    _run(scenario)


def test_tickets_admitted_in_one_turn_ride_one_batch():
    async def scenario(coalescer, backend):
        a, b = _ticket(VectorQuery(2, F)), _ticket(VectorQuery(3, F))
        coalescer.submit(a)
        coalescer.submit(b)
        got_a, got_b = await asyncio.gather(a.future, b.future)
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
        answers = await lone.future
        # one ticket's own queries on F are not company
        assert [a.provenance.coalesced for a in answers] == [1, 1, 1]
        assert coalescer.counters()["coalesced_queries"] == 0

        # two tickets on different fault sets share a batch
        backend.hold()
        coalescer.submit(_ticket(DistanceQuery(0, 1)))
        await backend.wait_entered()
        two_on_f = _ticket(VectorQuery(2, F), VectorQuery(3, F))
        one_on_g = _ticket(VectorQuery(4, G))
        coalescer.submit(two_on_f)
        coalescer.submit(one_on_g)
        backend.gate.set()
        got_f, got_g = await asyncio.gather(two_on_f.future,
                                            one_on_g.future)
        assert backend.calls[2] == two_on_f.queries + one_on_g.queries
        assert [a.provenance.coalesced for a in got_f + got_g] == [
            1, 1, 1]
        assert coalescer.counters() == {
            "batches": 3, "flushed_queries": 7, "coalesced_queries": 0,
        }

    _run(scenario)


def test_tickets_admitted_in_flight_ride_one_next_batch():
    async def scenario(coalescer, backend):
        backend.hold()
        first = _ticket(DistanceQuery(0, 1))
        coalescer.submit(first)
        await backend.wait_entered()
        a, b = _ticket(VectorQuery(2, F)), _ticket(VectorQuery(3, F))
        coalescer.submit(a)
        coalescer.submit(b)
        assert coalescer.reasons == ["idle"]  # both wait behind first
        backend.gate.set()
        got_a, got_b = await asyncio.gather(a.future, b.future)
        assert coalescer.reasons == ["idle", "idle"]
        assert backend.calls == [first.queries, a.queries + b.queries]
        for (answer,) in (got_a, got_b):
            assert answer.provenance.coalesced == 2
        assert coalescer.counters() == {
            "batches": 2, "flushed_queries": 3, "coalesced_queries": 2,
        }

    _run(scenario)


def test_max_batch_splits_a_backlog():
    async def scenario(coalescer, backend):
        backend.hold()
        coalescer.submit(_ticket(DistanceQuery(0, 1)))
        await backend.wait_entered()
        backlog = [_ticket(DistanceQuery(0, t)) for t in range(2, 7)]
        for ticket in backlog:
            coalescer.submit(ticket)
        # every second ticket fills a batch; the fifth waits
        assert coalescer.reasons == ["idle", "size", "size"]
        backend.gate.set()
        await asyncio.gather(*(t.future for t in backlog))
        assert coalescer.reasons == ["idle", "size", "size", "idle"]
        assert [len(call) for call in backend.calls] == [1, 2, 2, 1]

    _run(scenario, max_batch=2)


def test_ticket_submitted_from_an_answers_continuation_is_answered():
    """The next request of a client that just got its answer arrives
    while the finished batch's task is still registered: the
    coalescer must count it idle, or the ticket is never flushed."""
    async def scenario(coalescer, backend):
        first = _ticket(DistanceQuery(0, 1))
        coalescer.submit(first)
        await first.future
        second = _ticket(DistanceQuery(0, 2))
        coalescer.submit(second)
        (answer,) = await second.future
        assert answer.value == 2
        assert coalescer.reasons == ["idle", "idle"]

    _run(scenario)


def test_backend_bug_fails_its_batch_and_the_next_ticket_is_answered():
    async def scenario(coalescer, backend):
        backend.errors[2] = RuntimeError("backend bug")
        backend.hold()
        coalescer.submit(_ticket(DistanceQuery(0, 1)))
        await backend.wait_entered()
        a, b = _ticket(DistanceQuery(0, 2)), _ticket(DistanceQuery(0, 3))
        coalescer.submit(a)
        coalescer.submit(b)
        backend.gate.set()
        for ticket in (a, b):
            with pytest.raises(RuntimeError, match="backend bug"):
                await ticket.future
        after = _ticket(DistanceQuery(0, 4))
        coalescer.submit(after)
        (answer,) = await after.future
        assert answer.value == 2
        # a backend bug is not retried ticket by ticket
        assert [len(call) for call in backend.calls] == [1, 2, 1]

    _run(scenario)


def test_drain_answers_pending_and_in_flight_tickets():
    async def scenario(coalescer, backend):
        backend.hold()
        running = _ticket(DistanceQuery(0, 1))
        coalescer.submit(running)
        await backend.wait_entered()
        pending = _ticket(DistanceQuery(0, 2))
        coalescer.submit(pending)

        async def open_gate():
            backend.gate.set()

        # gather starts drain() first, so its flush hands the pending
        # ticket over while the running batch still holds the gate
        await asyncio.gather(coalescer.drain(), open_gate())
        assert coalescer.reasons == ["idle", "drain"]
        assert running.future.result()[0].value == 1
        assert pending.future.result()[0].value == 2

    _run(scenario)


def test_only_a_merged_failure_is_reanswered_ticket_by_ticket():
    async def scenario(coalescer, backend):
        lone = _ticket(DistanceQuery(0, 10 ** 6))
        coalescer.submit(lone)
        with pytest.raises(QueryError):
            await lone.future
        assert backend.calls == [lone.queries]  # its error, once

        backend.hold()
        coalescer.submit(_ticket(DistanceQuery(0, 1)))
        await backend.wait_entered()
        good = _ticket(DistanceQuery(0, 2))
        bad = _ticket(DistanceQuery(0, 10 ** 6))
        coalescer.submit(good)
        coalescer.submit(bad)
        backend.gate.set()
        (answer,) = await good.future
        assert answer.value == 2
        with pytest.raises(QueryError):
            await bad.future
        assert backend.calls[2:] == [good.queries + bad.queries,
                                     good.queries, bad.queries]

    _run(scenario)
