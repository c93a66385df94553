#!/usr/bin/env python3
"""The sharded engine fleet: one Session surface, many processes.

A :class:`~repro.fleet.FleetSession` speaks the exact
submit/gather/answer dialect of the in-process
:class:`~repro.query.Session`, but behind the facade each batch is
sharded by canonical fault set across long-lived worker processes,
each holding warm engines.  This tour walks the three things the
fleet adds on top of the planner:

1. **Sharding with affinity** — queries about the same fault set
   always land on the same worker, so its LRU keeps that scenario's
   distance vectors warm across gathers.
2. **Multi-tenancy with budget isolation** — two tenant graphs live
   side by side in every worker, each with its own eviction budget;
   a noisy tenant cannot evict a quiet tenant's vectors.
3. **Merged reports** — ``cache_info()`` and ``stats`` fold every
   worker's counters with ``CacheInfo.merge`` / ``SessionStats.merge``,
   so the fleet reads like one big session whose cache is the sum of
   its workers' budgets.

Run:  PYTHONPATH=src python examples/fleet.py
"""

from repro.fleet import FleetSession
from repro.graphs import generators
from repro.query import (
    ConnectivityQuery,
    DistanceQuery,
    EccentricityQuery,
    PairQuery,
)
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
    # Two tenants: a production-ish sparse ER network and a smaller
    # grid testbed.  The fleet hosts both in every worker; "prod"
    # gets a roomy LRU budget, "lab" a deliberately tight one.
    prod = generators.connected_erdos_renyi(500, 5.0 / 500, seed=7)
    lab = generators.grid(8, 8)
    fleet = FleetSession(
        graphs={"prod": prod, "lab": lab},
        budgets={"prod": 512, "lab": 16},
        workers=4,
        delta=False,
    )
    print(f"fleet: {fleet!r}")
    print(f"tenants: prod n={prod.n} (budget 512/worker), "
          f"lab n={lab.n} (budget 16/worker)")

    # --- 1. sharded gathers with fault-set affinity ------------------
    # Submit interleaved streams for both tenants, gather once.  The
    # router shards each tenant's sub-batch by canonical fault set:
    # every query about a given scenario lands on the same worker.
    prod_stream = monitoring_stream(prod, 24, seed=3)
    lab_stream = [
        PairQuery(0, lab.n - 1, [(0, 1), (1, 2)]),
        DistanceQuery(0, lab.n - 1, [(0, 8)]),
    ]
    fleet.submit(prod_stream, tenant="prod")
    fleet.submit(lab_stream, tenant="lab")
    answers = fleet.gather()
    print(f"\ngather #1: {len(answers)} answers across 2 tenants")
    st = fleet.stats
    shares = ", ".join(f"{w}={c}" for w, c in sorted(st.by_worker.items()))
    print(f"worker shares: {shares}")

    # --- 2. warm caches: replay the prod stream ----------------------
    # Same scenarios, same workers (affinity): every distance vector
    # the first gather computed is still resident, so the replay is
    # answered from the pooled LRUs instead of re-running BFS waves.
    before = fleet.cache_info()
    fleet.answer(prod_stream, tenant="prod")
    after = fleet.cache_info()
    print(f"\nreplay: vector hits {before.vector_hits} -> "
          f"{after.vector_hits}, misses {before.vector_misses} -> "
          f"{after.vector_misses} (warm shards, no new waves)")

    # --- 3. budget isolation under tenant pressure -------------------
    # Hammer the tight "lab" budget with more scenarios than it can
    # hold.  Its own LRU churns, but "prod" vectors are untouched:
    # eviction budgets are per tenant, not per worker.
    fleet.answer(monitoring_stream(lab, 40, seed=9), tenant="lab")
    pressed = fleet.cache_info()
    fleet.answer(prod_stream, tenant="prod")
    final = fleet.cache_info()
    print(f"lab pressure: prod replay still warm "
          f"(hits {pressed.vector_hits} -> {final.vector_hits}, "
          f"misses unchanged: {final.vector_misses == pressed.vector_misses})")

    # --- merged reports ----------------------------------------------
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
