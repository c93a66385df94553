"""SERVICE — cross-client wave coalescing of the scenario service.

One experiment, the PR-9 acceptance bar: **N concurrent clients
monitoring the same failures**.  Each round, every client asks about
the *same* two-edge fault set (its own eccentricity probes and a
monitored pair — the shared-working-set shape of a monitoring
deployment: one incident, many watchers).  The stream is driven two
ways:

* **independent** — N in-process :class:`~repro.query.Session`\\ s,
  one per client thread, each paying its own masked wave per round
  (today's idiom: every consumer builds its own engine);
* **service** — N :class:`~repro.service.ServiceClient`\\ s over one
  :class:`~repro.service.BackgroundServer` sharing a single backend
  session.  Each round, the requests the server reads in the first
  arrival's poll share its batch, which runs on the server's event
  loop; the requests that arrive while it runs wait in their sockets
  and share the next one.  The planner's fault-set grouping turns
  each batch's probes into **one** wave.  The server shares this
  process, and its interpreter lock, with the client threads, so its
  batch boundaries are not those of a server in a process of its own
  (servebench runs that one).

Every service answer is asserted equal to the in-process session's
answer before any timing is trusted, and the coalesced wave count
(the backend's :class:`~repro.scenarios.engine.CacheInfo` batched-wave
tally) is asserted **strictly below** the per-client sum of the
independent sessions' merged tallies — the coalescing contract,
checked in quick mode too.  ``delta=False`` on every side so the
measurement is waves, not the PR-5 repair kernels.

Acceptance target (full run): **>= 2x** aggregate throughput for 8
coalescing clients vs 8 independent sessions, plus client-side
p50/p95 request latency for both modes.

Run standalone (CI smoke: ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]

Results are persisted human-readable (``results/service.txt``),
machine-readable (``results/service.json``), and aggregated into the
top-level ``BENCH_SUMMARY.json`` (history entries carry a ``clients``
param so the trajectory separates fan-in runs from baselines).
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
import time

from repro.graphs import generators
from repro.query import (
    ConnectivityQuery,
    DistanceQuery,
    EccentricityQuery,
    Session,
)
from repro.scenarios import CacheInfo, random_fault_sets
from repro.service import BackgroundServer, ServiceClient

try:
    from _harness import emit, emit_json
except ImportError:  # running standalone, not under benchmarks/conftest
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from _harness import emit, emit_json


def build_rounds(graph, clients: int, num_rounds: int, seed: int):
    """Per-round, per-client query chunks over shared fault sets.

    Round ``r`` is one incident: a single two-edge fault set that
    every client queries — each client from its own probe sources
    (two eccentricities, which need full vectors and therefore a
    wave, plus a monitored pair and a connectivity ride-along).
    Returns ``rounds[r][c]`` -> list of queries.
    """
    rng = random.Random(seed)
    rounds = []
    for faults in random_fault_sets(graph, 2, num_rounds,
                                    seed=seed + 1):
        per_client = []
        for _ in range(clients):
            s1, s2 = rng.sample(range(graph.n), 2)
            per_client.append([
                EccentricityQuery(s1, faults),
                EccentricityQuery(s2, faults),
                DistanceQuery(rng.randrange(graph.n),
                              rng.randrange(graph.n), faults),
                ConnectivityQuery(faults),
            ])
        rounds.append(per_client)
    return rounds


def _drive(clients, rounds):
    """Drive every client through its rounds on concurrent threads.

    A barrier per round keeps the N clients in lockstep — the
    concurrent-incident shape the service coalesces — and each
    ``answer`` call's wall time is recorded for the latency
    percentiles.  Returns (answers[c], latencies_seconds).
    """
    n = len(clients)
    barrier = threading.Barrier(n)
    answers = [[] for _ in range(n)]
    latencies = [[] for _ in range(n)]
    errors = []

    def run(c: int) -> None:
        try:
            for per_client in rounds:
                barrier.wait()
                t0 = time.perf_counter()
                answers[c].extend(clients[c].answer(per_client[c]))
                latencies[c].append(time.perf_counter() - t0)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=run, args=(c,))
               for c in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return answers, [x for per in latencies for x in per]


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _wave_calls(info: CacheInfo) -> int:
    """Batched kernel calls recorded by an engine's counters."""
    return sum(count for _, count in info.wave_backends)


def run_independent(graph, rounds, clients: int):
    """N independent sessions, timed from construction."""
    t0 = time.perf_counter()
    sessions = [Session(graph, delta=False) for _ in range(clients)]
    answers, latencies = _drive(sessions, rounds)
    seconds = time.perf_counter() - t0
    merged = CacheInfo.merge(s.cache_info() for s in sessions)
    return {
        "answers": answers,
        "latencies": latencies,
        "seconds": seconds,
        "wave_calls": _wave_calls(merged),
        "cache_info": merged,
    }


def run_service(graph, rounds, clients: int):
    """N socket clients over one coalescing server, timed end to end.

    Server and client construction are inside the clock — connection
    setup is part of the price of the shared front, exactly as worker
    startup is inside the fleet bench's clock.
    """
    t0 = time.perf_counter()
    backend = Session(graph, delta=False)
    with BackgroundServer(backend) as server:
        host, port = server.address
        handles = [ServiceClient(host, port, client=f"bench-{c}")
                   for c in range(clients)]
        try:
            answers, latencies = _drive(handles, rounds)
        finally:
            for handle in handles:
                handle.close()
        counters = server.server.counters()
    seconds = time.perf_counter() - t0
    info = backend.cache_info()
    return {
        "answers": answers,
        "latencies": latencies,
        "seconds": seconds,
        "wave_calls": _wave_calls(info),
        "cache_info": info,
        "counters": counters,
    }


def run_experiment(quick: bool, seed: int):
    if quick:
        n, num_rounds, clients = 200, 10, 3
    else:
        # Large enough that a masked wave dwarfs one socket round
        # trip — the regime the service is for; on toy graphs the
        # wire tax wins and you should just build a local Session.
        n, num_rounds, clients = 14000, 20, 8
    graph = generators.connected_erdos_renyi(n, 4.0 / n, seed=seed)
    rounds = build_rounds(graph, clients, num_rounds, seed + 1)
    total_queries = sum(len(chunk) for per in rounds for chunk in per)

    # the ground truth every mode must reproduce
    reference_session = Session(graph, delta=False)
    reference = [
        [a.value for a in reference_session.answer(per[c])]
        for per in rounds for c in range(clients)
    ]

    runs = {}
    rows = []
    for mode, runner in (("independent", run_independent),
                         ("service", run_service)):
        run = runner(graph, rounds, clients)
        got = [
            [a.value for a in run["answers"][c]
             [r * 4:(r + 1) * 4]]
            for r in range(len(rounds)) for c in range(clients)
        ]
        if got != reference:
            raise AssertionError(
                f"{mode} answers diverge from the in-process session")
        runs[mode] = run
        rows.append({
            "mode": mode, "clients": clients, "n": graph.n,
            "queries": total_queries,
            "seconds": run["seconds"],
            "throughput_qps": total_queries / run["seconds"],
            "wave_calls": run["wave_calls"],
            "p50_ms": _percentile(run["latencies"], 0.50) * 1e3,
            "p95_ms": _percentile(run["latencies"], 0.95) * 1e3,
        })

    speedup = runs["independent"]["seconds"] / runs["service"]["seconds"]
    coalesced = runs["service"]["counters"]["coalesced_queries"]
    payload = {
        "bench": "service",
        "params": {"quick": quick, "seed": seed, "n": graph.n,
                   "rounds": num_rounds, "clients": clients,
                   "queries": total_queries},
        "rows": rows,
        "speedup": speedup,
        "service": {
            "counters": runs["service"]["counters"],
            "wave_calls": runs["service"]["wave_calls"],
        },
        "independent": {
            "wave_calls": runs["independent"]["wave_calls"],
        },
    }
    return rows, payload, speedup, runs, coalesced, total_queries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (CI): tiny graph, 3 "
                             "clients, no speedup assertion")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows, payload, speedup, runs, coalesced, total = run_experiment(
        args.quick, args.seed
    )
    clients = payload["params"]["clients"]
    emit(
        "service", rows,
        "SERVICE: cross-client wave coalescing, N socket clients over "
        "one server vs N independent sessions (shared-incident "
        "monitoring replay)",
        notes=(
            f"speedup: {speedup:.1f}x aggregate for {clients} "
            f"coalescing clients on {total} queries (target >= 2x on "
            f"the full run); waves {runs['service']['wave_calls']} "
            f"coalesced vs {runs['independent']['wave_calls']} "
            f"independent; answers asserted equal to the in-process "
            f"session"
        ),
        quick=args.quick,
    )
    emit_json("service", payload)
    failed = []
    if runs["service"]["wave_calls"] >= runs["independent"]["wave_calls"]:
        failed.append(
            f"coalesced wave count "
            f"({runs['service']['wave_calls']}) is not strictly "
            f"below the per-client sum "
            f"({runs['independent']['wave_calls']}) — coalescing is "
            f"not merging concurrent clients")
    if coalesced == 0:
        failed.append("no query rode a shared wave — the coalescer "
                      "never merged concurrent requests")
    if not args.quick and speedup < 2.0:
        failed.append(f"expected >= 2x, measured {speedup:.2f}x")
    for line in failed:
        print(f"FAIL: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
