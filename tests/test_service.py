"""Tests for the scenario service (repro.service).

Covers the framed protocol (version handshake, frame limits, typed
error replies), the coalescer contract (two clients' queries on one
fault set ride one wave when the server reads both in one poll, or
when both arrive while another request's batch holds the server's
event loop — pinned via CacheInfo and the ``coalesced`` provenance),
admission-control backpressure, ticket isolation (one client's
malformed stream cannot poison batch-mates), pipelined requests on
one connection, oversized replies, disconnect resilience and
graceful drain.  Every test fails if a server's event loop reports an
unhandled error.
"""

import pickle
import socket
import struct
import threading

import pytest

from repro import obs
from repro.exceptions import QueryError, ServiceError
from repro.graphs import generators
from repro.query import DistanceQuery, Session, VectorQuery
from repro.service import BackgroundServer, ServiceClient
from repro.service import protocol


@pytest.fixture(autouse=True)
def loop_errors(monkeypatch):
    """Fail the test if a server's event loop reports an unhandled
    error: every :class:`BackgroundServer` started here records each
    context its loop's exception handler receives (an exception no
    task or callback handled, which otherwise only logs)."""
    errors = []
    start = BackgroundServer.__init__

    def init(self, *args, **kwargs):
        start(self, *args, **kwargs)
        # Queued ahead of every callback of a connection made later.
        self._loop.call_soon_threadsafe(
            self._loop.set_exception_handler,
            lambda loop, context: errors.append(context))

    monkeypatch.setattr(BackgroundServer, "__init__", init)
    yield errors
    assert errors == []


class _GatedSession(Session):
    """A backend whose answers can be held: while ``gate`` is clear,
    each answer sets ``entered`` and waits for the gate to open."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.gate.set()

    def answer(self, queries, *args, **kwargs):
        self.entered.set()
        if not self.gate.wait(30):
            raise TimeoutError("the test never opened the gate")
        return super().answer(queries, *args, **kwargs)


def _wave_calls(info):
    return sum(count for _, count in info.wave_backends)


#: Set when a :class:`_PickledHello` is unpickled.
_UNPICKLED = threading.Event()


def _unpickled_hello():
    _UNPICKLED.set()
    return {"type": "hello", "version": protocol.PROTOCOL_VERSION,
            "client": "pickled"}


def _frame(codec, payload):
    """A raw frame: length header, codec byte, payload."""
    return struct.pack(">IB", len(payload), ord(codec)) + payload


class _PickledHello:
    """Unpickles by calling a module-level function: proof of decode."""

    def __reduce__(self):
        return _unpickled_hello, ()


@pytest.fixture()
def served(er_medium):
    """A coalescing server over one shared delta-free, gated session.

    ``delta=False`` so vector queries are served by waves and the
    wave-count assertions are exact.  The gate stays open unless a
    test holds a request in the backend (:class:`_HeldRequest`).
    """
    backend = _GatedSession(er_medium, delta=False)
    with BackgroundServer(backend) as server:
        yield server, backend


def _connect(server, **kwargs):
    return ServiceClient(*server.address, **kwargs)


def _raw_connect(server, name):
    """A bare socket past the handshake, for writing frames by hand."""
    sock = socket.create_connection(server.address, timeout=30)
    protocol.send_message(sock, {
        "type": "hello", "version": protocol.PROTOCOL_VERSION,
        "client": name,
    })
    assert protocol.recv_message(sock)["type"] == "welcome"
    return sock


class _HeldRequest:
    """A third client's request held in the backend.

    The server answers each batch on its event loop, so a held
    request holds the loop the way a long wave does: the server reads
    no frames until it is released.  Requests written meanwhile wait
    in their sockets, and the first poll after the release reads them
    together into one batch.  The held request is a fault-free pair,
    which the touch filter answers without a wave, from its own
    client; the clients it holds back must connect before it is held.
    """

    def __init__(self, server):
        self._backend = server.server.backend
        self._backend.entered.clear()
        self._backend.gate.clear()
        self._client = _connect(server, client="holder")
        self._thread = threading.Thread(
            target=self._client.answer, args=([DistanceQuery(0, 1)],))
        self._thread.start()
        assert self._backend.entered.wait(30)

    def release_after(self, *calls):
        """Run one call per thread; once each has written its request
        frame (each sends one), release the held request, so the
        server reads them in one poll.  Returns results in call
        order, re-raising the first failure."""
        results = [None] * len(calls)
        errors = []
        written = threading.Semaphore(0)
        send = protocol.send_message

        def send_and_signal(sock, message,
                            max_frame=protocol.DEFAULT_MAX_FRAME):
            send(sock, message, max_frame)
            written.release()

        def run(i, call):
            try:
                results[i] = call()
            except BaseException as exc:  # noqa: BLE001 — re-raised
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i, call))
                   for i, call in enumerate(calls)]
        protocol.send_message = send_and_signal
        try:
            for t in threads:
                t.start()
            for _ in calls:
                assert written.acquire(timeout=30), "request not written"
        finally:
            protocol.send_message = send
            self._backend.gate.set()
        for t in threads + [self._thread]:
            t.join(30)
            assert not t.is_alive()
        self._client.close()
        if errors:
            raise errors[0]
        return results


class TestProtocol:
    def test_version_mismatch_is_refused(self, served):
        server, _ = served
        sock = socket.create_connection(server.address)
        try:
            protocol.send_message(sock, {
                "type": "hello", "version": 999, "client": "relic",
            })
            reply = protocol.recv_message(sock)
        finally:
            sock.close()
        assert reply["type"] == "error" and reply["code"] == "version"
        with pytest.raises(ServiceError) as info:
            protocol.raise_error_reply(reply)
        assert info.value.code == "version"

    def test_client_constructor_surfaces_version_error(self, served,
                                                       monkeypatch):
        server, _ = served
        real = protocol.send_message

        def skewed_hello(sock, message,
                         max_frame=protocol.DEFAULT_MAX_FRAME):
            if message.get("type") == "hello":
                message = dict(message, version=999)
            return real(sock, message, max_frame)

        monkeypatch.setattr(protocol, "send_message", skewed_hello)
        # A mismatched client must raise at connect, not hang.
        with pytest.raises(ServiceError) as info:
            _connect(server)
        assert info.value.code == "version"

    def test_pickled_hello_is_refused_before_decoding(self, served):
        """No byte from a peer that has not passed the handshake
        reaches pickle.loads: a pickle-coded hello is refused with a
        protocol error, and the function its pickle names never
        runs."""
        server, _ = served
        _UNPICKLED.clear()
        payload = pickle.dumps(_PickledHello())
        sock = socket.create_connection(server.address, timeout=30)
        try:
            sock.sendall(struct.pack(">IB", len(payload), ord("P"))
                         + payload)
            reply = protocol.recv_message(sock)
        finally:
            sock.close()
        assert reply["type"] == "error" and reply["code"] == "protocol"
        assert not _UNPICKLED.is_set()

    def test_oversized_reply_is_a_typed_frame_error(self):
        """A reply bigger than ``max_frame`` goes back as a ``frame``
        error instead of leaving the client waiting, is not booked as
        answered, and the connection serves its next request."""
        graph = generators.grid(20, 20)
        with BackgroundServer(Session(graph), max_frame=4000) as server:
            with _connect(server, timeout=5) as client:
                with pytest.raises(ServiceError) as info:
                    client.answer([VectorQuery(s, ((0, 1),))
                                   for s in range(3)])
                assert info.value.code == "frame"
                (answer,) = client.answer(
                    [DistanceQuery(0, graph.n - 1)])
                assert answer.value == 38
            server.drain(timeout=30)
            counters = server.server.counters()
        assert counters["answered"] == 1
        assert counters["inflight"] == 0

    @pytest.mark.parametrize("handshake, frame", [
        (False, _frame("J", b"{not json")),
        (True, _frame("P", b"not a pickle")),
        (True, struct.pack(">IB", protocol.DEFAULT_MAX_FRAME + 1,
                           ord("P"))),
        (False, _frame("J", b"[1, 2]")),
    ], ids=["undecodable-hello", "undecodable-pickle",
            "oversized-header", "json-list"])
    def test_malformed_frame_gets_a_typed_frame_error(self, served,
                                                      handshake, frame):
        """A frame the server cannot decode is answered with a typed
        ``frame`` error, then the connection closes; the server keeps
        serving."""
        server, _ = served
        sock = (_raw_connect(server, "fuzz") if handshake else
                socket.create_connection(server.address, timeout=30))
        try:
            sock.sendall(frame)
            reply = protocol.recv_message(sock)
            assert sock.recv(1) == b""  # then EOF
        finally:
            sock.close()
        assert reply["type"] == "error" and reply["code"] == "frame"
        with _connect(server) as client:
            assert len(client.answer([DistanceQuery(0, 1)])) == 1

    def test_frame_limit_enforced_before_send(self):
        big = {"type": "blob", "payload": "x" * 4096}
        with pytest.raises(ServiceError) as info:
            protocol.encode_message(big, max_frame=64)
        assert info.value.code == "frame"

    def test_error_reply_reraises_typed_exceptions(self):
        reply = {"type": "error", "code": "query",
                 "exc_type": "QueryError", "message": "bad vertex"}
        with pytest.raises(QueryError, match="bad vertex"):
            protocol.raise_error_reply(reply)
        reply = {"type": "error", "code": "admission",
                 "message": "back off"}
        with pytest.raises(ServiceError, match="back off") as info:
            protocol.raise_error_reply(reply)
        assert info.value.code == "admission"


class TestRoundTrip:
    def test_answers_match_in_process_session(self, served, er_medium):
        server, _ = served
        e = next(iter(er_medium.edges()))
        queries = [DistanceQuery(0, er_medium.n - 1, (e,)),
                   VectorQuery(1, (e,))]
        with _connect(server, client="rt") as client:
            assert client.server == "scenario-service"
            answers = client.answer(queries)
            assert client.stats.answers == 2
        reference = Session(er_medium, delta=False).answer(queries)
        assert [a.value for a in answers] == [
            a.value for a in reference]
        # provenance objects survive the wire intact
        assert answers[1].provenance.kernel == (
            reference[1].provenance.kernel)

    def test_submit_gather_dialect(self, served):
        server, _ = served
        with _connect(server) as client:
            client.submit(DistanceQuery(0, 5))
            client.submit([VectorQuery(1)])
            assert client.pending == 2
            answers = client.gather()
            assert client.pending == 0
            assert len(answers) == 2

    def test_closed_client_raises_typed(self, served):
        server, _ = served
        client = _connect(server)
        client.close()
        client.close()  # idempotent
        with pytest.raises(ServiceError) as info:
            client.answer([DistanceQuery(0, 1)])
        assert info.value.code == "closed"

    def test_a_broken_round_trip_closes_the_client(self, er_medium):
        """A request refused before any byte is written leaves the
        client open.  A request that times out leaves its reply in
        flight, so the client closes: that call raises ``timeout``
        and every later call ``closed``, never a stale reply."""
        backend = _GatedSession(er_medium)
        with BackgroundServer(backend, max_frame=4000) as server:
            client = _connect(server, timeout=0.3)
            try:
                with pytest.raises(ServiceError) as info:
                    client.answer([VectorQuery(s) for s in range(200)])
                assert info.value.code == "frame"
                assert len(client.answer([DistanceQuery(0, 1)])) == 1
                backend.gate.clear()
                with pytest.raises(ServiceError) as info:
                    client.answer([DistanceQuery(0, 2)])
                assert info.value.code == "timeout"
            finally:
                backend.gate.set()
            for _ in range(3):
                with pytest.raises(ServiceError) as info:
                    client.answer([DistanceQuery(0, 3)])
                assert info.value.code == "closed"
            client.close()


class TestCoalescing:
    def test_two_clients_ride_one_wave(self, served, er_medium):
        server, backend = served
        e = next(iter(er_medium.edges()))
        waves_before = _wave_calls(backend.cache_info())
        with _connect(server, client="a") as a, \
                _connect(server, client="b") as b:
            got_a, got_b = _HeldRequest(server).release_after(
                lambda: a.answer([VectorQuery(0, (e,))]),
                lambda: b.answer([VectorQuery(1, (e,))]),
            )
            info = a.cache_info()
        # one micro-batch, one fault-set group, ONE masked wave for
        # both clients — the coalescing contract
        assert _wave_calls(info) - waves_before == 1
        for (answer,) in (got_a, got_b):
            assert answer.waved
            assert answer.provenance.wave_size == 2
            assert answer.provenance.coalesced == 2
        counters = server.server.counters()
        assert counters["batches"] == 2  # the held request's, then one
        assert counters["coalesced_queries"] == 2
        # and the answers are the session's answers
        reference = Session(er_medium, delta=False)
        assert got_a[0].value == reference.answer_one(
            VectorQuery(0, (e,))).value
        assert got_b[0].value == reference.answer_one(
            VectorQuery(1, (e,))).value

    def test_requests_read_in_one_poll_ride_one_wave(self, served,
                                                    er_medium):
        """No request is held in flight here: the server's loop is
        frozen while both frames are written, so its next poll reads
        them together, and the idle flush at the end of that turn
        takes both."""
        server, backend = served
        e = next(iter(er_medium.edges()))
        socks = [_raw_connect(server, name) for name in ("a", "b")]
        try:
            waves_before = _wave_calls(backend.cache_info())
            frozen, thawed = threading.Event(), threading.Event()

            def freeze():
                frozen.set()
                thawed.wait(30)

            server._loop.call_soon_threadsafe(freeze)
            try:
                assert frozen.wait(30)
                for source, sock in enumerate(socks):
                    protocol.send_message(sock, {
                        "type": "answer", "id": 1,
                        "queries": [VectorQuery(source, (e,))],
                    })
            finally:
                thawed.set()
            replies = [protocol.recv_message(sock) for sock in socks]
        finally:
            for sock in socks:
                sock.close()
        assert _wave_calls(backend.cache_info()) - waves_before == 1
        reference = Session(er_medium, delta=False)
        for source, reply in enumerate(replies):
            (answer,) = reply["answers"]
            assert answer.provenance.coalesced == 2
            assert answer.value == reference.answer_one(
                VectorQuery(source, (e,))).value

    def test_malformed_ticket_cannot_poison_batch_mates(self, served,
                                                        er_medium):
        server, _ = served
        e = next(iter(er_medium.edges()))

        with _connect(server, client="good") as good, \
                _connect(server, client="bad") as bad:
            def innocent():
                return good.answer([VectorQuery(0, (e,))])

            def guilty():
                with pytest.raises(QueryError):
                    bad.answer([DistanceQuery(0, 10 ** 6, (e,))])
                return "raised"

            got, raised = _HeldRequest(server).release_after(
                innocent, guilty)
        assert raised == "raised"
        assert got[0].value is not None  # innocent answer survived
        # ...a merged batch's: the held request's, then the two
        assert server.server.counters()["batches"] == 2


class TestPipelining:
    def test_pipelined_requests_are_answered_in_id_order(self):
        """One connection writes K requests without reading a reply.
        Another client is served meanwhile; then the K replies arrive
        in id order, each the in-process session's answer, and none
        is left in flight."""
        k = 200
        graph = generators.grid(30, 30)
        faults = ((0, 1),)
        with BackgroundServer(Session(graph)) as server:
            sock = _raw_connect(server, "pipeline")
            try:
                for i in range(k):
                    protocol.send_message(sock, {
                        "type": "answer", "id": i,
                        "queries": [VectorQuery(i, faults)],
                    })
                with _connect(server, client="other") as other:
                    (answer,) = other.answer(
                        [DistanceQuery(0, graph.n - 1)])
                assert answer.value == 58
                replies = [protocol.recv_message(sock)
                           for _ in range(k)]
                # a stats request is read after the last reply is
                # booked out of flight
                protocol.send_message(sock, {"type": "stats", "id": k})
                stats = protocol.recv_message(sock)
            finally:
                sock.close()
        assert [r["id"] for r in replies] == list(range(k))
        reference = Session(graph).answer(
            [VectorQuery(i, faults) for i in range(k)])
        assert [list(r["answers"][0].value) for r in replies] == [
            list(a.value) for a in reference]
        assert stats["server"]["inflight"] == 0


class TestTracing:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_two_clients_two_roots_one_shared_wave_span(self, served,
                                                        er_medium):
        """The coalescing trace topology: each client gets its own
        root trace, the shared wave appears exactly once, parented to
        one of them and cross-linking the other via its ``traces``
        attribute."""
        server, _ = served
        e = next(iter(er_medium.edges()))
        with _connect(server, client="a") as a, \
                _connect(server, client="b") as b:
            held = _HeldRequest(server)  # sent untraced: recording is off
            obs.enable()
            held.release_after(
                lambda: a.answer([VectorQuery(0, (e,))]),
                lambda: b.answer([VectorQuery(1, (e,))]),
            )
        # the server closes each service.request span just after
        # writing its reply; a drain, run on the server's loop, puts
        # that before the records are read
        server.drain(timeout=30)
        records = obs.span_records()
        roots = [r for r in records if r["name"] == "client.request"]
        assert len(roots) == 2
        root_traces = {r["trace_id"] for r in roots}
        assert len(root_traces) == 2  # distinct traces per client
        served_spans = [r for r in records
                        if r["name"] == "service.request"]
        assert len(served_spans) == 2
        root_ids = {r["span_id"]: r["trace_id"] for r in roots}
        for record in served_spans:
            # each server-side span continues its client's trace
            assert root_ids[record["parent_id"]] == record["trace_id"]
        wave, = [r for r in records if r["name"] == "coalescer.wave"]
        assert wave["attrs"]["tickets"] == 2
        assert wave["attrs"]["queries"] == 2
        # ONE wave span for both clients, parented into one trace and
        # naming every participating trace — the cross-client link
        assert wave["parent_id"] in {r["span_id"]
                                     for r in served_spans}
        assert set(wave["attrs"]["traces"]) == root_traces
        # downstream execution chains under the shared wave span
        plans = [r for r in records if r["name"] == "planner.execute"]
        assert any(p["parent_id"] == wave["span_id"] and
                   p["trace_id"] == wave["trace_id"] for p in plans)

    def test_traced_frame_enables_obs_on_the_server(self, served):
        """A traced client wakes a cold server's recorder (sticky
        enable), so operators can trace a live service on demand."""
        server, _ = served
        assert not obs.ENABLED
        with obs.span("off"):  # no-op while disabled
            pass
        obs.enable()  # client side on; server shares the process here
        with _connect(server, client="probe") as client:
            client.answer([DistanceQuery(0, 1)])
        server.drain(timeout=30)  # the span closes after the reply
        names = {r["name"] for r in obs.span_records()}
        assert {"client.request", "service.request"} <= names

    def test_stats_reply_carries_obs_payload(self, served):
        obs.enable()
        server, _ = served
        with _connect(server, client="s") as client:
            client.answer([DistanceQuery(0, 1)])
            stats = client.server_stats()
        payload = stats["obs"]
        assert payload["enabled"] is True
        names = {r["name"] for r in payload["metrics"]}
        assert "repro_service_answers_total" in names
        assert any(s["name"] == "coalescer.wave"
                   for s in payload["spans"])

    def test_untraced_service_records_nothing(self, served):
        server, _ = served
        with _connect(server, client="quiet") as client:
            client.answer([DistanceQuery(0, 1)])
        assert obs.span_records() == []
        assert obs.snapshot() == []


class TestAdmissionControl:
    def test_overweight_request_is_refused(self, er_medium):
        backend = Session(er_medium)
        with BackgroundServer(backend,
                              max_inflight_client=3) as server:
            with _connect(server) as client:
                assert client.limits["max_inflight_client"] == 3
                with pytest.raises(ServiceError) as info:
                    client.answer([DistanceQuery(0, i)
                                   for i in range(1, 6)])
                assert info.value.code == "admission"
                # refusal queued nothing: a within-budget request
                # on the same connection is served normally
                answers = client.answer([DistanceQuery(0, 1)])
                assert len(answers) == 1
            # the server books a request out of flight just after
            # writing its reply; a drain puts that before the read
            server.drain(timeout=30)
            counters = server.server.counters()
        assert counters["rejected"] == 1
        assert counters["inflight"] == 0


class TestResilience:
    def test_disconnect_mid_stream_leaves_server_serving(self, served):
        server, _ = served
        rude = _connect(server, client="rude")
        rude.answer([DistanceQuery(0, 1)])
        rude._sock.close()  # vanish without a goodbye
        with _connect(server, client="polite") as polite:
            answers = polite.answer([DistanceQuery(0, 2)])
        assert len(answers) == 1

    def test_graceful_drain_finishes_then_refuses(self, served):
        server, _ = served
        client = _connect(server)
        answers = client.answer([DistanceQuery(0, 1),
                                 DistanceQuery(0, 2)])
        assert len(answers) == 2
        server.drain(timeout=30)
        # drained server refuses further work with a typed error
        # ("draining" in the drain window, "closed" once connections
        # are torn down — either way, typed, never a hang)
        with pytest.raises(ServiceError):
            client.answer([DistanceQuery(0, 3)])
        client.close()


class TestServedFleet:
    def test_fleet_backend_over_the_wire(self, grid4):
        from repro.fleet import FleetSession

        fleet = FleetSession(grid4, workers=2)
        try:
            with BackgroundServer(fleet) as server:
                with _connect(server) as client:
                    answers = client.answer(
                        [DistanceQuery(0, 15, [(0, 1)]),
                         DistanceQuery(0, 15, [(1, 2)])])
            assert [a.value for a in answers] == [6, 6]
            # per-worker attribution survives service + fleet hops
            assert any(a.provenance.worker for a in answers)
        finally:
            fleet.close()
