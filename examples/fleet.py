#!/usr/bin/env python3
"""The sharded engine fleet: one Session surface, many processes.

A :class:`~repro.fleet.FleetSession` speaks the exact
submit/gather/answer dialect of the in-process
:class:`~repro.query.Session`, but behind the facade each batch is
sharded by canonical fault set across long-lived worker processes,
each holding one warm engine over the graph.  This tour walks the two
things the fleet adds on top of the planner:

1. **Sharding with affinity** — queries about the same fault set
   always land on the same worker, so its LRU keeps that scenario's
   distance vectors warm across gathers.
2. **Merged reports** — ``cache_info()`` and ``stats`` fold every
   worker's counters with ``CacheInfo.merge`` / ``SessionStats.merge``,
   so the fleet reads like one big session whose cache is the sum of
   its workers' budgets.

Run:  PYTHONPATH=src python examples/fleet.py
"""

from repro.fleet import FleetSession
from repro.graphs import generators
from repro.query import ConnectivityQuery, DistanceQuery, EccentricityQuery
from repro.scenarios import random_fault_sets


def monitoring_stream(graph, num_faults, seed):
    """A mixed stream per fault set: an eccentricity probe (needs a
    full distance vector), a monitored pair, a connectivity check."""
    faults_list = random_fault_sets(graph, 2, num_faults, seed=seed)
    stream = []
    for k, faults in enumerate(faults_list):
        stream.append(EccentricityQuery(k % graph.n, faults))
        stream.append(DistanceQuery(0, graph.n - 1, faults))
        stream.append(ConnectivityQuery(faults))
    return stream


def main() -> None:
    # A production-ish sparse ER network, served by four workers, each
    # with its own 512-row LRU budget.
    graph = generators.connected_erdos_renyi(500, 5.0 / 500, seed=7)
    fleet = FleetSession(graph, workers=4, memoize=512, delta=False)
    print(f"fleet: {fleet!r}")

    # --- 1. sharded gathers with fault-set affinity ------------------
    # Submit a mixed stream, gather once.  The fleet shards it by
    # canonical fault set: every query about a given scenario lands on
    # the same worker.
    stream = monitoring_stream(graph, 24, seed=3)
    answers = fleet.submit(stream).gather()
    print(f"\ngather #1: {len(answers)} answers")
    st = fleet.stats
    shares = ", ".join(f"{w}={c}" for w, c in sorted(st.by_worker.items()))
    print(f"worker shares: {shares}")

    # Warm caches: replay the stream.  Same scenarios, same workers
    # (affinity): every distance vector the first gather computed is
    # still resident, so the replay is answered from the pooled LRUs
    # instead of re-running BFS waves.
    before = fleet.cache_info()
    fleet.answer(stream)
    after = fleet.cache_info()
    print(f"\nreplay: vector hits {before.vector_hits} -> "
          f"{after.vector_hits}, misses {before.vector_misses} -> "
          f"{after.vector_misses} (warm shards, no new waves)")

    # --- 2. merged reports -------------------------------------------
    # cache_info() == CacheInfo.merge(per-worker reports).
    info = fleet.cache_info()
    print(f"\nmerged cache_info: {info.vector_hits} hits / "
          f"{info.vector_misses} misses across "
          f"{len(fleet.registry.workers)} workers")
    print(f"degradations: respawns={fleet.registry.respawns} "
          f"serial_fallbacks={fleet.registry.serial_fallbacks}")

    fleet.close()


if __name__ == "__main__":
    main()
