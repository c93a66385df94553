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
never entered from two threads at once.  While a batch runs, the
server reads no frames — requests that arrive meanwhile wait in their
sockets, and the next poll reads them together into the next batch.
A ``stats`` request, an admission refusal, a new connection or a
drain likewise waits for the batch to end, which bounds the wait by
one batch.  (``repro serve --metrics-port`` is served by a thread of
its own and is unaffected.)

Admission control is weight-based and deterministic: a request of
``k`` queries is refused (typed ``admission`` error reply, nothing
queued) when it would push the sending client above
``max_inflight_client`` or the server above ``max_inflight`` — typed
backpressure instead of unbounded queues.  Shutdown is a graceful
:meth:`ScenarioServer.drain`: stop accepting, refuse new requests
with a ``draining`` error, flush the coalescer, answer everything
in flight, then close.  Tenant graph changes are announced by
:meth:`ScenarioServer.bump_epoch` — an ``epoch`` push to subscribed
clients, the listen-channel idiom — so clients holding derived state
know to re-derive.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import obs as _obs
from repro.exceptions import ReproError, ServiceError
from repro.query.queries import Answer, Query
from repro.query.session import DEFAULT_TENANT, SessionDialect, SessionStats
from repro.scenarios.engine import CacheInfo
from repro.service import protocol
from repro.service.coalescer import Coalescer, Ticket
from repro.service.protocol import Message

__all__ = ["ScenarioServer"]


class _Connection:
    """Per-connection server state: identity, ledger, in-flight weight."""

    def __init__(self, name: str,
                 writer: asyncio.StreamWriter) -> None:
        self.name = name
        self.writer = writer
        self.stats = SessionStats()
        self.inflight = 0
        self.subscribed = False
        self.write_lock = asyncio.Lock()


class ScenarioServer:
    """Serve one shared session backend to many socket clients.

    Parameters
    ----------
    backend:
        A :class:`~repro.query.session.Session` or
        :class:`~repro.fleet.session.FleetSession` — any
        :class:`~repro.query.session.SessionDialect`: the server
        serves its :attr:`tenants` and calls ``answer(queries,
        scheme, tenant=...)`` and ``cache_info()``.  The server owns
        its use, not its lifetime — callers close their own backend.
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
        self.tenants: Tuple[str, ...] = tuple(backend.tenants)
        self.coalescer = Coalescer(self._backend_answer,
                                   max_batch=max_batch)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[_Connection] = set()
        self._finish_tasks: Set["asyncio.Task[None]"] = set()
        self._inflight = 0
        self._draining = False
        self._epochs: Dict[str, int] = {t: 0 for t in self.tenants}
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
        flushed through the coalescer and answered before the
        listener and the client connections close.  Idempotent.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        self.coalescer.flush("drain")
        while self._finish_tasks:
            await asyncio.gather(*list(self._finish_tasks),
                                 return_exceptions=True)
        for conn in list(self._connections):
            conn.writer.close()
        if self._server is not None:
            await self._server.wait_closed()

    async def close(self) -> None:
        """Drain, then make double-closes harmless."""
        await self.drain()
        self._server = None

    # ------------------------------------------------------------------
    # epoch pushes
    # ------------------------------------------------------------------
    def bump_epoch(self, tenant: str = DEFAULT_TENANT) -> int:
        """Announce a tenant graph change to subscribed clients.

        Increments the tenant's epoch and pushes
        ``{"type": "epoch", "tenant": ..., "epoch": ...}`` to every
        subscriber — the invalidation signal for clients holding
        state derived from answers (the server's own engine caches
        are the backend owner's concern).  Returns the new epoch.
        Must be called on the server's event loop.
        """
        if tenant not in self._epochs:
            raise ServiceError(f"unknown tenant {tenant!r}",
                               code="tenant")
        self._epochs[tenant] += 1
        epoch = self._epochs[tenant]
        push = {"type": "epoch", "tenant": tenant, "epoch": epoch}
        for conn in list(self._connections):
            if conn.subscribed:
                task = asyncio.get_running_loop().create_task(
                    self._send(conn, push))
                self._finish_tasks.add(task)
                task.add_done_callback(self._finish_tasks.discard)
        return epoch

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
                message = await protocol.read_message(
                    reader, self.max_frame)
                if not await self._dispatch(conn, message):
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                ServiceError):
            # Disconnect mid-stream (or a garbled frame): the
            # connection dies, the server lives.  Tickets already in
            # flight complete against the backend; their replies hit
            # the closed-writer guard in _send and are dropped.
            pass
        finally:
            if conn is not None:
                self._connections.discard(conn)
            writer.close()

    async def _handshake(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter
                         ) -> Optional[_Connection]:
        hello = await protocol.read_message(reader, self.max_frame)
        peer = writer.get_extra_info("peername")
        name = str(hello.get("client") or peer or "client")
        conn = _Connection(name, writer)
        if hello.get("type") != "hello":
            await self._send(conn, {
                "type": "error", "code": "protocol",
                "message": f"expected hello, got "
                           f"{hello.get('type')!r}",
            })
            return None
        if hello.get("version") != protocol.PROTOCOL_VERSION:
            await self._send(conn, {
                "type": "error", "code": "version",
                "message": (
                    f"server speaks protocol "
                    f"{protocol.PROTOCOL_VERSION}, client offered "
                    f"{hello.get('version')!r}"),
            })
            return None
        if self._draining:
            await self._send(conn, {
                "type": "error", "code": "draining",
                "message": "server is draining",
            })
            return None
        await self._send(conn, {
            "type": "welcome",
            "version": protocol.PROTOCOL_VERSION,
            "server": self.name,
            "tenants": list(self.tenants),
            "limits": {
                "max_inflight": self.max_inflight,
                "max_inflight_client": self.max_inflight_client,
                "max_frame": self.max_frame,
            },
        })
        return conn

    async def _dispatch(self, conn: _Connection,
                        message: Message) -> bool:
        """Serve one request; return False to end the connection."""
        kind = message.get("type")
        mid = message.get("id")
        if kind == "answer":
            self._handle_answer(conn, message)
            return True
        if kind == "stats":
            await self._send(conn, {
                "type": "stats", "id": mid,
                "client": conn.stats,
                "cache": self.cache_info(),
                "server": self.counters(),
                "obs": {
                    "enabled": _obs.ENABLED,
                    "metrics": _obs.snapshot(),
                    "spans": _obs.span_records(),
                },
            })
            return True
        if kind == "subscribe":
            conn.subscribed = True
            await self._send(conn, {
                "type": "subscribed", "id": mid,
                "epochs": dict(self._epochs),
            })
            return True
        if kind == "goodbye":
            await self._send(conn, {"type": "bye", "id": mid})
            return False
        await self._send(conn, {
            "type": "error", "id": mid, "code": "protocol",
            "message": f"unknown message type {kind!r}",
        })
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
            task = asyncio.get_running_loop().create_task(
                self._send(conn, {
                    "type": "error", "id": mid,
                    "code": code, "message": text,
                }))
            self._finish_tasks.add(task)
            task.add_done_callback(self._finish_tasks.discard)
            return
        queries = list(message["queries"])
        tenant = str(message.get("tenant") or self.tenants[0])
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
                client=conn.name, tenant=tenant, queries=weight)
        future: "asyncio.Future[List[Answer]]" = (
            asyncio.get_running_loop().create_future())
        ticket = Ticket(queries=queries,
                        scheme=message.get("scheme"),
                        tenant=tenant, future=future,
                        trace=(span_obj.context().to_dict()
                               if span_obj is not None else None))
        self.coalescer.submit(ticket)
        task = asyncio.get_running_loop().create_task(
            self._finish(conn, mid, ticket, span_obj))
        self._finish_tasks.add(task)
        task.add_done_callback(self._finish_tasks.discard)

    def _admission_refusal(self, conn: _Connection, message: Message
                           ) -> Optional[Tuple[str, str]]:
        """The reason to refuse this request, or None to admit it."""
        if self._draining:
            return "draining", "server is draining"
        queries = message.get("queries")
        if not isinstance(queries, (list, tuple)) or not all(
                isinstance(q, Query) for q in queries):
            return "protocol", "answer request carries no typed queries"
        tenant = message.get("tenant")
        if tenant is not None and tenant not in self.tenants:
            return "tenant", (
                f"unknown tenant {tenant!r}; server hosts "
                f"{list(self.tenants)}")
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

    async def _finish(self, conn: _Connection, mid: Any,
                      ticket: Ticket,
                      span_obj: Optional[Any] = None) -> None:
        weight = len(ticket.queries)
        try:
            answers = await ticket.future
        except ReproError as exc:
            await self._send(conn, {
                "type": "error", "id": mid,
                "code": getattr(exc, "code", "query"),
                "exc_type": type(exc).__name__,
                "message": str(exc),
            })
        except Exception as exc:  # noqa: BLE001 — connection boundary
            await self._send(conn, {
                "type": "error", "id": mid, "code": "internal",
                "exc_type": type(exc).__name__,
                "message": str(exc),
            })
        else:
            conn.stats.record_answers(answers)
            self._answered += len(answers)
            if _obs.ENABLED:
                _obs.inc("repro_service_answers_total", len(answers),
                         client=conn.name)
            await self._send(conn, {
                "type": "answers", "id": mid, "answers": answers,
            })
        finally:
            if span_obj is not None:
                _obs.finish_span(span_obj)
            conn.inflight -= weight
            self._inflight -= weight

    def _backend_answer(self, queries: List[Query], scheme: Any,
                        tenant: str) -> List[Answer]:
        """The blocking backend call; it runs on the event loop's
        thread, which reads no frames until it returns."""
        return self.backend.answer(queries, scheme, tenant=tenant)

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

    async def _send(self, conn: _Connection,
                    message: Message) -> None:
        """Write one frame; a dead connection drops the write."""
        async with conn.write_lock:
            if conn.writer.is_closing():
                return
            try:
                conn.writer.write(
                    protocol.encode_message(message, self.max_frame))
                await conn.writer.drain()
            except (ConnectionError, RuntimeError):
                conn.writer.close()

    def __repr__(self) -> str:
        state = ("draining" if self._draining
                 else "serving" if self._server is not None
                 else "stopped")
        return (
            f"ScenarioServer(tenants={list(self.tenants)}, "
            f"{state}, connections={len(self._connections)}, "
            f"inflight={self._inflight}, "
            f"batches={self.coalescer.batches})"
        )
