""":class:`ServiceClient` — the session dialect, spoken over a socket.

A :class:`~repro.query.session.SessionDialect` whose transport seam is
one request/reply round trip to a
:class:`~repro.service.server.ScenarioServer`, so it speaks the exact
submit/gather/answer/answer_one dialect of
:class:`~repro.query.session.Session`: code written against a session
runs against a served backend by swapping the constructor.  The
server coalesces concurrent clients' queries into shared waves.

The client keeps a client-side
:class:`~repro.query.session.SessionStats` ledger (fed by
:meth:`~repro.query.session.SessionStats.record_answers`), reads
exactly one reply per request, and re-raises typed error replies
through
:func:`~repro.service.protocol.raise_error_reply` — so a malformed
stream surfaces as the same
:class:`~repro.exceptions.QueryError` an in-process session raises,
and backpressure surfaces as
:class:`~repro.exceptions.ServiceError` with a machine-readable
``code`` (``admission``, ``draining``, ``version``, ``frame``, ...).
A round trip that breaks off — a socket timeout, a dead connection,
an undecodable reply — closes the client, which raises ``timeout`` or
``closed``; every later call raises ``closed``.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Any, Dict, List, Optional

from repro import obs as _obs
from repro.exceptions import ServiceError
from repro.query.queries import Answer, Query
from repro.query.session import SessionDialect, SessionStats
from repro.scenarios.engine import CacheInfo
from repro.service import protocol
from repro.service.protocol import Message

__all__ = ["ServiceClient"]


class ServiceClient(SessionDialect):
    """Blocking client for a :class:`~repro.service.server.ScenarioServer`.

    Parameters
    ----------
    host, port:
        The server's bound address.
    client:
        Name sent in the handshake; shows up in server-side admission
        messages.  Defaults to ``host:port`` of the local socket.
    scheme:
        Default restoration scheme, like ``Session(scheme=...)`` —
        pickled to the server with each request that needs it.
    timeout:
        Socket timeout in seconds (``None`` = block forever; waves on
        big graphs can be slow, so the default is patient).
    """

    def __init__(self, host: str, port: int, *,
                 client: Optional[str] = None,
                 scheme: Any = None,
                 timeout: Optional[float] = None) -> None:
        super().__init__(scheme)
        self.stats = SessionStats()
        self._ids = itertools.count(1)
        # One request/reply dialog on the socket at a time: threads
        # may share one client.
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = socket.create_connection(
            (host, port), timeout)
        name = client or "{}:{}".format(
            *self._sock.getsockname()[:2])
        self.name = name
        try:
            protocol.send_message(self._sock, {
                "type": "hello",
                "version": protocol.PROTOCOL_VERSION,
                "client": name,
            })
            welcome = protocol.recv_message(self._sock)
        except Exception:
            self._sock.close()
            self._sock = None
            raise
        if welcome.get("type") == "error":
            self._sock.close()
            self._sock = None
            protocol.raise_error_reply(welcome)
        self.server = str(welcome.get("server", ""))
        self.limits: Dict[str, int] = dict(welcome.get("limits", {}))
        self.max_frame = int(
            self.limits.get("max_frame", protocol.DEFAULT_MAX_FRAME))

    # ------------------------------------------------------------------
    # the transport seam
    # ------------------------------------------------------------------
    def _execute(self, queries: List[Query], scheme: Any) -> List[Answer]:
        message: Message = {
            "type": "answer",
            "id": next(self._ids),
            "queries": queries,
            "scheme": scheme if scheme is not None else self.scheme,
        }
        # When tracing, the request rides under a client-side root
        # span whose context crosses the wire in the "trace" slot —
        # the first link of the socket → coalescer → wave chain.
        with _obs.span("client.request", client=self.name,
                       queries=len(queries)) as span_obj:
            if span_obj is not None:
                message["trace"] = span_obj.context().to_dict()
            reply = self._request(message)
        answers = list(reply["answers"])
        with self._lock:  # the ledger's counters are not thread-safe
            self.stats.record_answers(answers)
        return answers

    # ------------------------------------------------------------------
    # service extras
    # ------------------------------------------------------------------
    def server_stats(self) -> Message:
        """The server's report: backend :class:`CacheInfo`
        (``"cache"``), JSON server counters (``"server"``: batches,
        coalesced queries, rejections...) and its observability
        payload (``"obs"``)."""
        return self._request({"type": "stats", "id": next(self._ids)})

    def cache_info(self) -> CacheInfo:
        """The shared backend's cache counters (server-side view)."""
        info = self.server_stats()["cache"]
        assert isinstance(info, CacheInfo)
        return info

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _request(self, message: Message) -> Message:
        """One request/reply dialog: send, then read exactly one reply.

        A request too big for ``max_frame`` is refused before any byte
        is written, so the client stays open.
        """
        with self._lock:
            sock = self._require_sock()
            try:
                protocol.send_message(sock, message, self.max_frame)
            except OSError as exc:
                raise self._break_off(sock, exc) from exc
            try:
                reply = protocol.recv_message(sock, self.max_frame)
            except (OSError, ServiceError) as exc:
                raise self._break_off(sock, exc) from exc
        if reply.get("type") == "error":
            protocol.raise_error_reply(reply)
        if reply.get("id") != message["id"]:
            raise ServiceError(
                f"reply {reply.get('id')!r} does not answer "
                f"request {message['id']!r}", code="protocol",
            )
        return reply

    def _require_sock(self) -> socket.socket:
        if self._sock is None:
            raise ServiceError("client is closed", code="closed")
        return self._sock

    def _break_off(self, sock: socket.socket,
                   cause: Exception) -> ServiceError:
        """Close a socket whose dialog broke off mid-way: its next
        reply would answer the wrong request."""
        self._sock = None
        sock.close()
        code = "timeout" if isinstance(cause, socket.timeout) else "closed"
        return ServiceError(f"request failed, client closed: {cause}",
                            code=code)

    def close(self) -> None:
        """Say goodbye and release the socket (idempotent)."""
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            protocol.send_message(sock, {"type": "goodbye",
                                         "id": next(self._ids)})
        except Exception:
            pass
        finally:
            sock.close()

    def __repr__(self) -> str:
        st = self.stats
        state = "closed" if self._sock is None else "connected"
        return (
            f"ServiceClient(name={self.name!r}, server="
            f"{self.server!r}, {state}, answers={st.answers} "
            f"({st.cache}c/{st.filter}f/{st.delta}d/{st.wave}w), "
            f"pending={len(self._pending)})"
        )
