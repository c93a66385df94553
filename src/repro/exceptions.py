"""Exception hierarchy for the ``repro`` library.

Every error raised by this package derives from :class:`ReproError`, so a
caller can catch the whole family with a single ``except`` clause.  The
subclasses partition errors by subsystem:

* :class:`GraphError` — malformed graphs, unknown vertices or edges.
* :class:`DisconnectedError` — a path was requested between vertices that
  are not connected (possibly after removing a fault set).
* :class:`TiebreakingError` — an antisymmetric tiebreaking weight function
  failed validation (e.g. a tie survived the perturbation).
* :class:`RestorationError` — restoration-by-concatenation could not
  produce a valid replacement path (this indicates a non-restorable
  scheme, never a bug in a scheme built from a valid ATW function).
* :class:`CongestError` — a distributed algorithm violated the CONGEST
  model contract enforced by the simulator (message too large, message
  sent to a non-neighbour, ...).
* :class:`LabelingError` — a fault-tolerant distance label failed to
  decode or a query referenced a vertex outside the labeled graph.
* :class:`QueryError` — a declarative query stream was malformed
  (mixed weightedness, unknown vertices, a query kind the session
  cannot serve); raised by :mod:`repro.query` before any kernel runs.
* :class:`BackendError` — the kernel-backend seam was misconfigured
  (an unknown backend name, or the vectorized backend requested while
  numpy is absent); raised by :mod:`repro.backends`.
* :class:`FleetError` — the engine fleet (:mod:`repro.fleet`) was
  misconfigured or lost a worker it could not replace (zero workers,
  a worker that dies during init, a reply that does not match its
  request).
* :class:`ServiceError` — the scenario service (:mod:`repro.service`)
  refused or could not serve a request (protocol version mismatch,
  admission-control backpressure, a draining server, a malformed
  frame).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """A graph operation received invalid input (unknown vertex, ...)."""


class DisconnectedError(GraphError):
    """No path exists between the requested endpoints.

    Attributes
    ----------
    source, target:
        The endpoints of the failed query.
    faults:
        The fault set (tuple of edges) active for the query, possibly
        empty.
    """

    def __init__(self, source, target, faults=()):
        self.source = source
        self.target = target
        self.faults = tuple(faults)
        message = f"no path from {source!r} to {target!r}"
        if self.faults:
            message += f" avoiding faults {sorted(self.faults)!r}"
        super().__init__(message)


class TiebreakingError(ReproError):
    """An antisymmetric tiebreaking weight function failed validation."""


class RestorationError(ReproError):
    """Restoration-by-concatenation failed to find a replacement path."""


class CongestError(ReproError):
    """A distributed algorithm violated the CONGEST model contract."""


class LabelingError(ReproError):
    """A distance label could not be encoded, decoded, or queried."""


class QueryError(ReproError):
    """A declarative query stream (:mod:`repro.query`) was malformed.

    Raised during planning — before any kernel runs — so a bad stream
    (mixed weighted/unweighted queries, an unknown vertex, a
    restoration query without a scheme) never silently gets served by
    the wrong kernel.
    """


class FleetError(ReproError):
    """The engine fleet (:mod:`repro.fleet`) hit an unservable state.

    Raised for configuration errors (zero workers, a worker that
    cannot start) and for protocol violations (a worker reply that
    does not answer the request sent).  Worker *failures* are not
    fleet errors: a dead worker is respawned, and if that fails its
    shard is served by the in-process serial fallback — degradation
    is counted, not raised.
    """


class ServiceError(ReproError):
    """The scenario service (:mod:`repro.service`) refused a request.

    Raised client-side when the server rejects a request by typed
    reply instead of serving it: protocol version mismatch at the
    handshake, admission-control backpressure (the client or the
    server as a whole has too many queries in flight), a draining
    server, or a frame that violates the wire protocol (oversized,
    unknown codec).  Admission rejections are *load signals*, not
    bugs: a client is expected to back off and retry.  A request
    whose round trip breaks off (code ``timeout`` or ``closed``)
    closes the client.
    """

    def __init__(self, message: str, code: str = "service"):
        super().__init__(message)
        self.code = code


class BackendError(ReproError):
    """The kernel-backend seam (:mod:`repro.backends`) was misconfigured.

    Raised when :func:`~repro.backends.dispatch.set_backend` is given
    an unknown backend name, or when the vectorized backend is
    *forced* while numpy is unavailable.  The ``auto`` mode never
    raises — it silently falls back to the pure-Python loops when
    numpy is absent.
    """
