""":class:`BackgroundServer` — a scenario server on its own thread.

The server is asyncio; most of this library's consumers (tests,
benchmarks, synchronous scripts) are not.  ``BackgroundServer`` runs
a :class:`~repro.service.server.ScenarioServer` on a daemon thread
with a private event loop, exposes the bound address, and forwards
:meth:`drain` through ``run_coroutine_threadsafe`` — so synchronous
code gets a served backend in three lines::

    with BackgroundServer(Session(graph)) as server:
        with ServiceClient(*server.address) as client:
            answers = client.answer(queries)

The wrapped backend's lifetime stays the caller's: closing the
background server stops serving but does not close the session or
fleet behind it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Optional, Tuple

from repro.exceptions import ServiceError
from repro.service.server import ScenarioServer

__all__ = ["BackgroundServer"]


class BackgroundServer:
    """Run a :class:`ScenarioServer` on a daemon thread.

    Constructor keyword arguments are forwarded verbatim to
    :class:`ScenarioServer`; the server is started before the
    constructor returns (or the startup exception is re-raised here).
    """

    def __init__(self, backend: Any, **kwargs: Any) -> None:
        self.server = ScenarioServer(backend, **kwargs)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind errors to caller
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The server's bound ``(host, port)``."""
        return self.server.address

    def drain(self, timeout: Optional[float] = None) -> None:
        """Gracefully drain the server (see
        :meth:`ScenarioServer.drain`), blocking until done."""
        asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop).result(timeout)

    def close(self) -> None:
        """Drain, stop the loop, join the thread (idempotent)."""
        if not self._thread.is_alive():
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self.server.close(), self._loop).result()
        except ServiceError:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"BackgroundServer({self.server!r})"
