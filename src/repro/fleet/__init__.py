"""The engine fleet: multi-process scenario execution with
cache-affine routing.

One in-process :class:`~repro.query.session.Session` is bounded by
one LRU budget and one interpreter.  The fleet layer pools both: a
:class:`~repro.fleet.session.FleetSession` shards query streams over
a registry of persistent worker processes, each holding one warm
engine over the same graph, so the deployment's effective cache is
the *sum* of the workers' budgets and shards execute concurrently.
The moving parts, bottom up:

* :mod:`repro.fleet.protocol` — the pickle-clean message vocabulary
  (spawn-safe by contract);
* :mod:`repro.fleet.worker` — the child-process loop, one warm
  session;
* :mod:`repro.fleet.registry` — worker lifecycle, respawn and
  in-process serial fallback;
* :mod:`repro.fleet.session` — the ``Session``-shaped facade: it
  shards each stream cache-affinely, by a stable hash of each query's
  canonical fault set (:func:`~repro.fleet.session.fault_hash`), and
  merges :class:`~repro.scenarios.engine.CacheInfo` /
  :class:`~repro.query.session.SessionStats` reports.

Import from here::

    from repro.fleet import FleetSession

The root :mod:`repro` package deliberately does not re-export the
fleet: importing it pulls in :mod:`multiprocessing`, which consumers
of the plain in-process API never need.
"""

from repro.fleet.registry import WorkerRegistry
from repro.fleet.session import FleetSession, fault_hash

__all__ = [
    "FleetSession",
    "WorkerRegistry",
    "fault_hash",
]
