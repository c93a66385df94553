"""Shard a query stream across fleet workers, cache-affinely.

The router is the fleet's one routing decision point:
:class:`~repro.fleet.session.FleetSession` hands every stream and
the registry's workers to :meth:`Router.shard`, and nothing else
picks a worker.  Routing decides how much of the engine's wave
sharing survives sharding, so the rule is built around the planner's
grouping key and chosen per batch:

* **by fault set** — shard by a stable hash of each query's canonical
  fault set.  Every query of one scenario lands on one worker, so the
  planner's per-group wave sharing (one wave serves many targets, one
  vector answers connectivity for free) is preserved *and* repeated
  scenarios always rendezvous with their cached vectors — the
  affinity that makes the fleet's aggregate LRU behave like one big
  cache instead of ``N`` small ones.
* **by source range** — when the batch has fewer distinct fault sets
  than there are workers and every query carries a source.  For
  vector-heavy streams (many sources under few fault sets)
  fault-hashing would idle most of the fleet; per-source waves are
  independent work, so splitting the source range splits the work
  evenly at no sharing cost.

Hashing is :func:`zlib.crc32` over the canonical fault tuple's
``repr`` — stable across processes and interpreter runs (unlike
``hash()``, which is salted for strings), so a scenario routes to the
same worker in every session of every run.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Sequence, Tuple

from repro.exceptions import FleetError
from repro.query.queries import Query

__all__ = ["Router", "fault_hash"]


def fault_hash(fault_key: Tuple[Any, ...]) -> int:
    """A process-stable hash of a canonical fault tuple."""
    return zlib.crc32(repr(fault_key).encode("utf-8"))


class Router:
    """Assign each query of a batch to one of the fleet's workers.

    The router is pure parent-side policy: it never talks to a
    worker, it only maps ``(query, workers)`` to a worker name.
    """

    def __init__(self, *, n: int = 0) -> None:
        #: Vertex count of the routed graph — the denominator of the
        #: source-range partition.
        self.n = n

    def resolve(self, queries: Sequence[Query],
                workers: Sequence[str]) -> str:
        """The rule this batch shards by: ``"source"`` or ``"faults"``."""
        if not queries or self.n <= 0:
            return "faults"
        if any(getattr(q, "source", None) is None for q in queries):
            return "faults"
        distinct_faults = len({q.fault_key for q in queries})
        return "source" if distinct_faults < len(workers) else "faults"

    def shard(self, queries: Sequence[Query],
              workers: Sequence[str]) -> Dict[str, List[int]]:
        """Partition ``queries`` (by index) over ``workers``.

        Returns only non-empty shards, keyed by worker name, each a
        list of indices into ``queries`` in original order — the
        caller reassembles answers into submission order from these
        indices.
        """
        if not workers:
            raise FleetError("cannot shard over zero workers")
        by_source = self.resolve(queries, workers) == "source"
        width = len(workers)
        shards: Dict[str, List[int]] = {}
        for index, query in enumerate(queries):
            if by_source:
                source: int = getattr(query, "source")
                slot = min(width - 1, source * width // self.n)
            else:
                slot = fault_hash(query.fault_key) % width
            shards.setdefault(workers[slot], []).append(index)
        return shards
