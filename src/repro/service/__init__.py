"""Scenario service: a network front over one shared session backend.

The paper's workload — many queries against many fault sets over one
base graph — is exactly the shape a shared service amortises:
individual clients are bursty, the aggregate is smooth, and
concurrent clients asking about the *same failure* should cost one
masked wave, not one each.  This package is that front:

* :mod:`~repro.service.protocol` — the framed, versioned JSON/pickle
  wire format (one dict-with-``type`` message per length-prefixed
  frame, handshake-enforced :data:`~repro.service.protocol.PROTOCOL_VERSION`).
* :class:`~repro.service.coalescer.Coalescer` — group-commit batches
  (an idle coalescer flushes at the end of the loop turn that
  admitted a request, so requests read in one poll share a batch; a
  batch runs on the event loop, so requests that arrive while it
  runs wait in their sockets and share the next) that merge every
  connection's queries into one backend gather, where the planner's
  canonical fault-set grouping turns cross-client duplicates into
  shared waves; each answer's ``coalesced`` counts the requests
  (tickets) in its batch that asked about its fault set.
* :class:`~repro.service.server.ScenarioServer` — the asyncio server:
  admission control (per-client and global in-flight weights, typed
  ``admission`` backpressure replies), each reply written by the batch
  that answers it, graceful drain.
* :class:`~repro.service.client.ServiceClient` — the session dialect
  (submit/gather/answer/answer_one, stats, cache_info) over the wire.
* :class:`~repro.service.background.BackgroundServer` — the server on
  a daemon thread, for synchronous callers and tests.

The backend is any session: an in-process
:class:`~repro.query.session.Session` or a sharded
:class:`~repro.fleet.session.FleetSession` — the service is the seam
that later turns fleet workers into socket-connected machines.

CLI: ``repro serve`` runs a server; ``repro query --connect
HOST:PORT`` drives the standard query stream through it.

Example
-------
>>> from repro.graphs import generators
>>> from repro.query import DistanceQuery, Session
>>> from repro.service import BackgroundServer, ServiceClient
>>> with BackgroundServer(Session(generators.grid(4, 4))) as server:
...     with ServiceClient(*server.address) as client:
...         client.answer_one(DistanceQuery(0, 15, [(0, 1)])).value
6
"""

from repro.exceptions import ServiceError
from repro.service.background import BackgroundServer
from repro.service.client import ServiceClient
from repro.service.coalescer import Coalescer, Ticket
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import ScenarioServer

__all__ = [
    "BackgroundServer",
    "Coalescer",
    "PROTOCOL_VERSION",
    "ScenarioServer",
    "ServiceClient",
    "ServiceError",
    "Ticket",
]
