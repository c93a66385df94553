""":class:`ScenarioServer` — the asyncio network front over one backend.

A long-lived ``asyncio.start_server`` accepting the framed protocol
of :mod:`repro.service.protocol` from many concurrent clients, all
answered through **one** shared backend — an in-process
:class:`~repro.query.session.Session` or a sharded
:class:`~repro.fleet.session.FleetSession` — with every connection's
queries admitted into the :class:`~repro.service.coalescer.Coalescer`
so concurrent clients querying the same fault set ride one masked
wave.

Everything runs on one event loop, backend calls included: the
coalescer answers each batch on the loop's thread, so the backend is
never entered from two threads at once, and each ticket's reply frame
is written inside the batch that answers it.  While a batch runs, the
server reads no frames — requests that arrive meanwhile wait in their
sockets, and the next poll reads them together into the next batch.
A ``stats`` request, an admission refusal, a new connection or a
drain likewise waits for the batch to end, which bounds the wait by
one batch.  (``repro serve --metrics-port`` is served by a thread of
its own and is unaffected.)  A connection is read only once its
writer has drained, so a client that stops reading its replies stops
being read.

Admission control is weight-based and deterministic: a request of
``k`` queries is refused (typed ``admission`` error reply, nothing
queued) when it would push the sending client above
``max_inflight_client`` or the server above ``max_inflight`` — typed
backpressure instead of unbounded queues.  A request leaves flight
when its reply is written; a reply too big for ``max_frame`` is
replaced by a typed ``frame`` error, and a frame the server cannot
read (undecodable, too big, or not a typed message) is answered with
one before the connection closes.  Shutdown is a graceful
:meth:`ScenarioServer.drain`: stop accepting, refuse new requests
with a ``draining`` error, flush the coalescer, which answers
everything in flight, let each connection's writer drain, then close.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro import obs as _obs
from repro.exceptions import ReproError, ServiceError
from repro.query.queries import Answer, Query
from repro.query.session import SessionDialect
from repro.scenarios.engine import CacheInfo
from repro.service import protocol
from repro.service.coalescer import Coalescer, Ticket
from repro.service.protocol import Message

__all__ = ["ScenarioServer"]


class _Connection:
    """Per-connection server state: identity, writer, in-flight weight."""

    def __init__(self, name: str,
                 writer: asyncio.StreamWriter) -> None:
        self.name = name
        self.writer = writer
        self.inflight = 0


class ScenarioServer:
    """Serve one shared session backend to many socket clients.

    Parameters
    ----------
    backend:
        A :class:`~repro.query.session.Session` or
        :class:`~repro.fleet.session.FleetSession` — any
        :class:`~repro.query.session.SessionDialect`: the server calls
        its ``answer(queries, scheme)`` and ``cache_info()``.  The
        server owns its use, not its lifetime — callers close their
        own backend.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`address` after :meth:`start`).
    max_batch:
        The coalescer's cap on queries per batch.
    max_inflight, max_inflight_client:
        Admission-control weights: queries in flight globally and per
        connection.
    max_frame:
        Per-frame byte limit, both directions.
    name:
        Server name echoed in the ``welcome`` message.
    """

    def __init__(self, backend: SessionDialect, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_batch: int = 64,
                 max_inflight: int = 1024,
                 max_inflight_client: int = 256,
                 max_frame: int = protocol.DEFAULT_MAX_FRAME,
                 name: str = "scenario-service") -> None:
        self.backend = backend
        self.name = name
        self._host = host
        self._port = port
        self.max_inflight = int(max_inflight)
        self.max_inflight_client = int(max_inflight_client)
        self.max_frame = int(max_frame)
        self.coalescer = Coalescer(self._backend_answer,
                                   max_batch=max_batch)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[_Connection] = set()
        self._inflight = 0
        self._draining = False
        self._answered = 0
        self._rejected = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not started", code="state")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish what's admitted.

        New connections and new requests get ``draining`` errors from
        the moment this is called; everything already admitted is
        flushed through the coalescer, which writes its replies, and
        each connection's writer drains before the listener and the
        client connections close.  Idempotent.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        self.coalescer.flush("drain")
        for conn in list(self._connections):
            try:
                await conn.writer.drain()
            except ConnectionError:
                pass
            conn.writer.close()
        if self._server is not None:
            await self._server.wait_closed()

    async def close(self) -> None:
        """Drain, then make double-closes harmless."""
        await self.drain()
        self._server = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        conn: Optional[_Connection] = None
        try:
            conn = await self._handshake(reader, writer)
            if conn is None:
                return
            self._connections.add(conn)
            while True:
                # Replies are written without waiting; a client that
                # stops reading them stops being read here.
                await writer.drain()
                message = protocol.decode_payload(
                    *await protocol.read_frame(reader, self.max_frame))
                if not self._dispatch(conn, message):
                    break
        except ServiceError as exc:
            # A malformed frame: the peer reads why, then the close.
            self._refuse(writer, None, exc.code, str(exc))
        except (asyncio.IncompleteReadError, ConnectionError):
            # Disconnect mid-stream: the connection dies, the server
            # lives.  Tickets already in flight complete against the
            # backend; their replies hit the closed-writer guard in
            # _send and are dropped.
            pass
        finally:
            if conn is not None:
                self._connections.discard(conn)
            writer.close()

    async def _handshake(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter
                         ) -> Optional[_Connection]:
        # Only a JSON hello is decoded: no byte from a peer that has
        # not passed the handshake reaches pickle.loads.
        codec, payload = await protocol.read_frame(reader, self.max_frame)
        if codec != protocol.CODEC_JSON:
            self._refuse(writer, None, "protocol",
                         "the hello must be a JSON frame")
            return None
        hello = protocol.decode_payload(codec, payload)
        if hello.get("type") != "hello":
            self._refuse(writer, None, "protocol",
                         f"expected hello, got {hello.get('type')!r}")
            return None
        if hello.get("version") != protocol.PROTOCOL_VERSION:
            self._refuse(writer, None, "version", (
                f"server speaks protocol {protocol.PROTOCOL_VERSION}, "
                f"client offered {hello.get('version')!r}"))
            return None
        if self._draining:
            self._refuse(writer, None, "draining", "server is draining")
            return None
        self._send(writer, {
            "type": "welcome",
            "version": protocol.PROTOCOL_VERSION,
            "server": self.name,
            "limits": {
                "max_inflight": self.max_inflight,
                "max_inflight_client": self.max_inflight_client,
                "max_frame": self.max_frame,
            },
        })
        peer = writer.get_extra_info("peername")
        return _Connection(str(hello.get("client") or peer or "client"),
                           writer)

    def _dispatch(self, conn: _Connection, message: Message) -> bool:
        """Serve one request; return False to end the connection."""
        kind = message.get("type")
        mid = message.get("id")
        if kind == "answer":
            self._handle_answer(conn, message)
            return True
        if kind == "stats":
            self._send(conn.writer, {
                "type": "stats", "id": mid,
                "cache": self.cache_info(),
                "server": self.counters(),
                "obs": {
                    "enabled": _obs.ENABLED,
                    "metrics": _obs.snapshot(),
                    "spans": _obs.span_records(),
                },
            })
            return True
        if kind == "goodbye":
            self._send(conn.writer, {"type": "bye", "id": mid})
            return False
        self._refuse(conn.writer, mid, "protocol",
                     f"unknown message type {kind!r}")
        return True

    # ------------------------------------------------------------------
    # the answer path
    # ------------------------------------------------------------------
    def _handle_answer(self, conn: _Connection,
                       message: Message) -> None:
        mid = message.get("id")
        refusal = self._admission_refusal(conn, message)
        if refusal is not None:
            self._rejected += 1
            code, text = refusal
            if _obs.ENABLED:
                _obs.inc("repro_admission_refusals_total", code=code)
            self._refuse(conn.writer, mid, code, text)
            return
        queries = list(message["queries"])
        weight = len(queries)
        conn.inflight += weight
        self._inflight += weight
        # A traced request (a "trace" slot in the frame) turns
        # recording on server-side — sticky, like a fleet worker —
        # and runs under a service.request span linking the client's
        # root to the coalescer's shared wave span.
        ctx = _obs.TraceContext.from_dict(message.get("trace"))
        if ctx is not None and not _obs.ENABLED:
            _obs.enable()
        span_obj = None
        if _obs.ENABLED:
            span_obj = _obs.start_span(
                "service.request", parent=ctx,
                client=conn.name, queries=weight)
        self.coalescer.submit(Ticket(
            queries=queries, scheme=message.get("scheme"),
            reply=partial(self._reply, conn, mid, weight, span_obj),
            trace=(span_obj.context().to_dict()
                   if span_obj is not None else None)))

    def _admission_refusal(self, conn: _Connection, message: Message
                           ) -> Optional[Tuple[str, str]]:
        """The reason to refuse this request, or None to admit it."""
        if self._draining:
            return "draining", "server is draining"
        queries = message.get("queries")
        if not isinstance(queries, (list, tuple)) or not all(
                isinstance(q, Query) for q in queries):
            return "protocol", "answer request carries no typed queries"
        weight = len(queries)
        if conn.inflight + weight > self.max_inflight_client:
            return "admission", (
                f"client {conn.name!r} would hold "
                f"{conn.inflight + weight} queries in flight "
                f"(limit {self.max_inflight_client}); back off and "
                f"retry")
        if self._inflight + weight > self.max_inflight:
            return "admission", (
                f"server would hold {self._inflight + weight} "
                f"queries in flight (limit {self.max_inflight}); "
                f"back off and retry")
        return None

    def _reply(self, conn: _Connection, mid: Any, weight: int,
               span_obj: Optional[Any],
               outcome: Union[List[Answer], Exception]) -> None:
        """A ticket's reply: write its frame now and book the request
        out of flight."""
        if isinstance(outcome, Exception):
            self._send(conn.writer, {
                "type": "error", "id": mid,
                "code": (getattr(outcome, "code", "query")
                         if isinstance(outcome, ReproError)
                         else "internal"),
                "exc_type": type(outcome).__name__,
                "message": str(outcome),
            })
        elif self._send(conn.writer, {
                "type": "answers", "id": mid, "answers": outcome}):
            self._answered += len(outcome)
            if _obs.ENABLED:
                _obs.inc("repro_service_answers_total", len(outcome),
                         client=conn.name)
        if span_obj is not None:
            _obs.finish_span(span_obj)
        conn.inflight -= weight
        self._inflight -= weight

    def _backend_answer(self, queries: List[Query],
                        scheme: Any) -> List[Answer]:
        """The blocking backend call; it runs on the event loop's
        thread, which reads no frames until it returns."""
        return self.backend.answer(queries, scheme)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """The shared backend's cache counters."""
        return self.backend.cache_info()

    def counters(self) -> Dict[str, int]:
        """JSON-able server counters (answers, rejections, batches)."""
        counters = dict(self.coalescer.counters())
        counters.update(
            answered=self._answered,
            rejected=self._rejected,
            connections=len(self._connections),
            inflight=self._inflight,
        )
        return counters

    def _send(self, writer: asyncio.StreamWriter,
              message: Message) -> bool:
        """Write one frame now, without waiting for it to drain.

        A message too big for ``max_frame`` goes as a typed ``frame``
        error in its place, and the call returns False; a closed
        connection drops the write.
        """
        sent = True
        try:
            frame = protocol.encode_message(message, self.max_frame)
        except ServiceError as exc:
            sent = False
            frame = protocol.encode_message({
                "type": "error", "id": message.get("id"),
                "code": exc.code, "message": str(exc),
            }, self.max_frame)
        if not writer.is_closing():
            writer.write(frame)
        return sent

    def _refuse(self, writer: asyncio.StreamWriter, mid: Any,
                code: str, text: str) -> None:
        """Write a typed ``error`` reply to request ``mid``."""
        self._send(writer, {"type": "error", "id": mid, "code": code,
                            "message": text})

    def __repr__(self) -> str:
        state = ("draining" if self._draining
                 else "serving" if self._server is not None
                 else "stopped")
        return (
            f"ScenarioServer({self.name!r}, {state}, "
            f"connections={len(self._connections)}, "
            f"inflight={self._inflight}, "
            f"batches={self.coalescer.batches})"
        )
