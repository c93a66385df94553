"""FLEET — capacity-pooled throughput of the sharded engine fleet.

One experiment, the PR-8 acceptance bar: a **mixed** monitoring
stream (two ``EccentricityQuery`` probes + a ``DistanceQuery`` pair +
a ``ConnectivityQuery`` per fault set, ~5k queries total) is replayed
for several passes — the monitoring pattern: the same scenario
working set, revisited — through a :class:`repro.fleet.FleetSession`
at 1 worker and at 4 workers, **same per-worker LRU budget**.

This host is single-core, so the ≥3x bar cannot come from CPU
parallelism — and that is the point.  The fleet's win is *capacity
pooling* (the resource-pool idiom of the MAAS-pod / C-POD lineage):
the working set of distance vectors overflows one worker's LRU budget
(cyclic replay against an LRU that is even one entry too small hits
0%), but the fleet's fault-set affinity splits it across four
workers whose *aggregate* budget holds it — so every pass after the
first is served from warm caches instead of re-running BFS waves.
The 1-worker column pays the full wave cost every pass; the 4-worker
column pays it once.

Answers are asserted equal to a plain in-process
:class:`~repro.query.Session` before any timing is trusted, and the
merged :class:`~repro.scenarios.engine.CacheInfo` is asserted equal,
componentwise, to the sum of the per-worker reports.  ``delta=False``
on every side: the PR-5 delta path would patch most two-edge
scenarios and measure the repair kernels instead of the cache pool
(bench_incremental.py covers those).

Acceptance target: **>= 3x** throughput at 4 workers vs 1 worker.

Run standalone (CI smoke: ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]

Results are persisted human-readable (``results/fleet.txt``),
machine-readable (``results/fleet.json``), and aggregated into the
top-level ``BENCH_SUMMARY.json`` (history entries carry a ``workers``
param so the trajectory separates scaling runs from baselines).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.fleet import FleetSession
from repro.graphs import generators
from repro.query import (
    ConnectivityQuery,
    DistanceQuery,
    EccentricityQuery,
    Session,
)
from repro.scenarios import CacheInfo, random_fault_sets

try:
    from _harness import emit, emit_json
except ImportError:  # running standalone, not under benchmarks/conftest
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from _harness import emit, emit_json


def build_stream(graph, num_faults: int, seed: int):
    """A mixed monitoring stream: per two-edge fault set, two
    eccentricity probes from random sources (each needs a full
    distance vector — no filter shortcut), one monitored pair, and a
    connectivity check (answered from whichever vector its group
    already computed)."""
    rng = random.Random(seed)
    stream = []
    for faults in random_fault_sets(graph, 2, num_faults, seed=seed + 1):
        s1, s2 = rng.sample(range(graph.n), 2)
        stream.append(EccentricityQuery(s1, faults))
        stream.append(EccentricityQuery(s2, faults))
        stream.append(DistanceQuery(rng.randrange(graph.n),
                                    rng.randrange(graph.n), faults))
        stream.append(ConnectivityQuery(faults))
    return stream


def run_fleet(graph, stream, passes: int, workers: int, memoize: int):
    """Replay the stream ``passes`` times through a fresh fleet.

    Timed from construction through the last pass — worker startup
    (engine builds, four of them at 4 workers) is part of the price
    of scaling out, so it is inside the clock, not outside it.
    """
    t0 = time.perf_counter()
    with FleetSession(graph, workers=workers, memoize=memoize,
                      delta=False) as fleet:
        answers = []
        for _ in range(passes):
            answers = fleet.answer(stream)
        seconds = time.perf_counter() - t0
        reports = fleet.worker_reports()
        per_worker = [rep.cache_info for rep in reports.values()]
        merged = fleet.cache_info()
        stats = fleet.stats
        respawns = fleet.registry.respawns
        fallbacks = fleet.registry.serial_fallbacks
    # the merged report must be exactly the componentwise sum of the
    # per-worker reports — the CacheInfo.merge contract, checked on
    # live fleets, not just unit fixtures
    if merged != CacheInfo.merge(per_worker):
        raise AssertionError("merged CacheInfo diverges from the "
                             "per-worker reports")
    for name in merged.keys():
        if name == "wave_backends":
            continue
        if merged[name] != sum(info[name] for info in per_worker):
            raise AssertionError(
                f"merged CacheInfo[{name}] is not the sum of the "
                f"per-worker reports")
    return {
        "answers": answers,
        "seconds": seconds,
        "cache_info": merged,
        "stats": stats,
        "respawns": respawns,
        "serial_fallbacks": fallbacks,
    }


def run_experiment(quick: bool, seed: int):
    if quick:
        n, num_faults, passes, memoize, fleet_sizes = 200, 40, 2, 70, (1, 2)
    else:
        n, num_faults, passes, memoize, fleet_sizes = \
            3000, 160, 8, 220, (1, 4)
    graph = generators.connected_erdos_renyi(n, 4.0 / n, seed=seed)
    stream = build_stream(graph, num_faults, seed + 1)

    reference = [a.value for a in
                 Session(graph, delta=False).answer(stream)]

    rows = []
    runs = {}
    for workers in fleet_sizes:
        run = run_fleet(graph, stream, passes, workers, memoize)
        if [a.value for a in run["answers"]] != reference:
            raise AssertionError(
                f"fleet({workers}) answers diverge from the "
                f"single-session run")
        runs[workers] = run
        info = run["cache_info"]
        rows.append({
            "workers": workers, "n": graph.n, "m": graph.m,
            "queries": len(stream) * passes,
            "seconds": run["seconds"],
            "vector_hits": info.vector_hits,
            "vector_misses": info.vector_misses,
            "speedup": runs[fleet_sizes[0]]["seconds"] / run["seconds"],
        })

    lo, hi = fleet_sizes
    speedup = runs[lo]["seconds"] / runs[hi]["seconds"]
    payload = {
        "bench": "fleet",
        "params": {"quick": quick, "seed": seed, "n": graph.n,
                   "fault_sets": num_faults, "passes": passes,
                   "memoize": memoize, "workers": hi,
                   "queries": len(stream) * passes},
        "rows": rows,
        "speedup": speedup,
        "single_worker": {
            "cache_info": dict(runs[lo]["cache_info"]),
            "by_worker": runs[lo]["stats"].by_worker,
        },
        "fleet": {
            "cache_info": dict(runs[hi]["cache_info"]),
            "by_worker": runs[hi]["stats"].by_worker,
            "respawns": runs[hi]["respawns"],
            "serial_fallbacks": runs[hi]["serial_fallbacks"],
        },
    }
    return rows, payload, speedup, runs, (lo, hi), len(stream) * passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (CI): tiny graph, 1 -> 2 "
                             "workers, no speedup assertion")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows, payload, speedup, runs, (lo, hi), n_queries = run_experiment(
        args.quick, args.seed
    )
    emit(
        "fleet", rows,
        "FLEET: capacity-pooled throughput, sharded workers vs one "
        "worker (mixed eccentricity/pair/connectivity replay)",
        notes=(
            f"speedup: {speedup:.1f}x at {hi} workers on {n_queries} "
            f"mixed queries (target >= 3x on the full run); single "
            f"core — the win is the pooled LRU capacity, not CPU "
            f"parallelism; answers asserted equal to the in-process "
            f"session; merged CacheInfo asserted equal to the sum of "
            f"per-worker reports"
        ),
        quick=args.quick,
    )
    emit_json("fleet", payload)
    failed = []
    if not args.quick:
        if speedup < 3.0:
            failed.append(f"expected >= 3x, measured {speedup:.2f}x")
        if runs[hi]["cache_info"].vector_hits == 0:
            failed.append("the fleet's pooled caches served no "
                          "revisit — capacity pooling is not working")
        if runs[lo]["cache_info"].vector_hits > 0:
            failed.append("the single worker's LRU held the working "
                          "set — the budgets no longer isolate the "
                          "pooling effect")
    if runs[hi]["respawns"] or runs[hi]["serial_fallbacks"]:
        failed.append("the fleet degraded (respawn/serial fallback) "
                      "during a clean benchmark run")
    for line in failed:
        print(f"FAIL: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
