"""Worker lifecycle and degradation for the engine fleet.

The :class:`WorkerRegistry` owns a set of persistent worker processes
(:mod:`repro.fleet.worker`) and is the only module that touches
:mod:`multiprocessing` directly.  It does two jobs:

* **lifecycle** — lazy start, orderly shutdown, and respawn of
  workers that die mid-request;
* **degradation** — when a respawned worker fails again (or a request
  cannot cross the pickle seam at all), the shard is served by an
  in-process serial fallback running the *same*
  :func:`~repro.fleet.worker.serve_request` dispatch, so callers see
  identical answers, just slower.  Degradation is counted
  (:attr:`WorkerRegistry.respawns`,
  :attr:`WorkerRegistry.serial_fallbacks`) and warned about, never
  raised.

Which worker serves which query is not the registry's call:
:class:`~repro.fleet.session.FleetSession` shards every stream over
:attr:`WorkerRegistry.workers`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Dict, Mapping, Optional, Tuple

from repro import obs as _obs
from repro.exceptions import FleetError
from repro.fleet.protocol import (
    InitRequest,
    ReadyReply,
    Reply,
    ReportReply,
    ReportRequest,
    Request,
    ShutdownRequest,
    raise_reply,
)
from repro.fleet.worker import build_session, serve_request, worker_main
from repro.query.session import Session

__all__ = ["WorkerRegistry"]

#: Exceptions that mean "this message cannot cross the pickle seam" —
#: respawning will not help, the shard goes straight to the serial
#: fallback.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)

#: Exceptions that mean "the channel to this worker is gone" — the
#: worker is respawned and the request retried once.
_CHANNEL_ERRORS = (EOFError, BrokenPipeError, ConnectionError, OSError)


class _WorkerHandle:
    """Parent-side state for one worker process (internal)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.process: Optional[BaseProcess] = None
        self.conn: Optional[Connection] = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerRegistry:
    """Owns the fleet's worker processes.

    Parameters
    ----------
    init:
        The :class:`~repro.fleet.protocol.InitRequest` every worker
        builds its session from.  Every worker serves the same graph
        (full replication): routing then only has to pick a worker,
        and any worker can absorb any shard when a peer dies.
    workers:
        Fleet size (>= 1).  Worker names are ``"w0" .. "w{N-1}"``.
    start_method:
        ``multiprocessing`` start method (``None`` = platform
        default).  ``"spawn"`` exercises the full pickle seam; the
        protocol is spawn-safe by contract either way.
    """

    def __init__(self, init: InitRequest, *,
                 workers: int = 2,
                 start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise FleetError(f"a fleet needs at least one worker, "
                             f"got workers={workers}")
        self.init = init
        self._ctx = multiprocessing.get_context(start_method)
        self._handles: Dict[str, _WorkerHandle] = {
            f"w{i}": _WorkerHandle(f"w{i}") for i in range(workers)
        }
        self._serial_session: Optional[Session] = None
        self._started = False
        self._closed = False
        self.respawns = 0
        self.serial_fallbacks = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def workers(self) -> Tuple[str, ...]:
        """Worker names, in routing order."""
        return tuple(self._handles)

    def start(self) -> None:
        """Start (once) every worker and wait for their ready replies.

        Init messages go out to all workers before any reply is
        awaited, so graph construction runs in the workers
        concurrently.
        """
        if self._started:
            return
        if self._closed:
            raise FleetError("registry is closed")
        for handle in self._handles.values():
            self._launch(handle, self.init)
        for handle in self._handles.values():
            self._confirm_ready(handle)
        self._started = True

    def _launch(self, handle: _WorkerHandle, init: InitRequest) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main, args=(handle.name, child_conn),
            name=f"repro-fleet-{handle.name}", daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        parent_conn.send(init)

    def _confirm_ready(self, handle: _WorkerHandle) -> None:
        assert handle.conn is not None
        try:
            raw = handle.conn.recv()
        except _CHANNEL_ERRORS as exc:
            # A worker that cannot even init is a deployment problem
            # (unimportable __main__ under spawn, unpicklable graph,
            # resource limits) — respawning would loop, so it
            # raises instead of degrading.
            raise FleetError(
                f"worker {handle.name} died during init "
                f"({type(exc).__name__}: {exc}); the fleet cannot "
                f"start in this environment"
            ) from exc
        reply = raise_reply(raw)
        if not isinstance(reply, ReadyReply):
            raise FleetError(
                f"worker {handle.name} answered init with {reply!r}"
            )

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker's process (warm caches are lost)."""
        self.respawns += 1
        if _obs.ENABLED:
            _obs.inc("repro_fleet_respawns_total", worker=handle.name)
        warnings.warn(
            f"fleet worker {handle.name} died; respawning "
            f"(warm caches lost)",
            RuntimeWarning, stacklevel=4,
        )
        self._reap(handle)
        self._launch(handle, self.init)
        self._confirm_ready(handle)

    def _reap(self, handle: _WorkerHandle) -> None:
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=5)
            handle.process = None

    def close(self) -> None:
        """Orderly shutdown: ask nicely, then reap."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            if handle.conn is not None and handle.alive:
                try:
                    handle.conn.send(ShutdownRequest())
                    if handle.conn.poll(1.0):
                        handle.conn.recv()
                except (*_CHANNEL_ERRORS, *_PICKLE_ERRORS):
                    pass
        for handle in self._handles.values():
            self._reap(handle)

    def __enter__(self) -> "WorkerRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # interpreter teardown — nothing to do
            pass

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def reports(self) -> Dict[str, ReportReply]:
        """Fresh cache/stats snapshots from every worker."""
        replies = self.dispatch(
            {name: ReportRequest() for name in self._handles}
        )
        reports: Dict[str, ReportReply] = {}
        for name, reply in replies.items():
            checked = raise_reply(reply)
            if not isinstance(checked, ReportReply):
                raise FleetError(
                    f"worker {name} answered report with {checked!r}"
                )
            reports[name] = checked
        return reports

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def dispatch(self, assignments: Mapping[str, Request]
                 ) -> Dict[str, Reply]:
        """Send every assignment, then collect every reply.

        The send-all-then-recv-all shape is the fleet's concurrency:
        all workers crunch their shards simultaneously while the
        parent blocks on the first reply.  A worker that dies (or a
        message that cannot be pickled) is recovered per
        :meth:`_recover` — callers always get one reply per
        assignment, possibly an
        :class:`~repro.fleet.protocol.ErrorReply`.
        """
        self.start()
        in_error: Dict[str, BaseException] = {}
        for name, request in assignments.items():
            handle = self._handle(name)
            if handle.conn is None:
                in_error[name] = EOFError("worker channel closed")
                continue
            try:
                handle.conn.send(request)
            except (*_CHANNEL_ERRORS, *_PICKLE_ERRORS) as exc:
                in_error[name] = exc
        replies: Dict[str, Reply] = {}
        for name, request in assignments.items():
            handle = self._handle(name)
            failure = in_error.get(name)
            reply: Optional[Reply] = None
            if failure is None:
                assert handle.conn is not None
                try:
                    reply = handle.conn.recv()
                except _CHANNEL_ERRORS as exc:
                    failure = exc
            if reply is None:
                assert failure is not None
                reply = self._recover(handle, request, failure)
            replies[name] = reply
        return replies

    def _recover(self, handle: _WorkerHandle, request: Request,
                 failure: BaseException) -> Reply:
        """A request failed in transit: respawn and retry, else serve
        serially in-process.

        Pickle failures skip the respawn (a fresh process cannot make
        an unpicklable message picklable) and go straight to the
        serial fallback.
        """
        if not isinstance(failure, _PICKLE_ERRORS):
            try:
                self._respawn(handle)
                assert handle.conn is not None
                handle.conn.send(request)
                return handle.conn.recv()  # type: ignore[no-any-return]
            except (*_CHANNEL_ERRORS, *_PICKLE_ERRORS):
                pass
        self.serial_fallbacks += 1
        if _obs.ENABLED:
            _obs.inc("repro_fleet_serial_fallbacks_total",
                     worker=handle.name)
        warnings.warn(
            f"fleet worker {handle.name} unrecoverable "
            f"({type(failure).__name__}: {failure}); serving its "
            f"shard with the in-process serial fallback",
            RuntimeWarning, stacklevel=4,
        )
        return serve_request("serial", self._serial(), request)

    def _serial(self) -> Session:
        """The lazily built in-process fallback session."""
        if self._serial_session is None:
            self._serial_session = build_session(self.init)
        return self._serial_session

    def _handle(self, worker: str) -> _WorkerHandle:
        try:
            return self._handles[worker]
        except KeyError:
            raise FleetError(f"unknown worker {worker!r}; fleet has "
                             f"{sorted(self._handles)}") from None
