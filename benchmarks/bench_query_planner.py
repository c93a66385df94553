"""QUERY — the batching planner vs one query at a time.

One experiment, the PR-4 acceptance bar: a **mixed** declarative
stream (``DistanceQuery`` pairs + ``VectorQuery`` +
``EccentricityQuery`` probes, many queries sharing each fault set) is
answered two ways:

* **per-query baseline** — each query answered on its own by
  ``Session.answer_one`` on a fresh session: every cache layer (the
  row cache, the touch filter) is active, but nothing groups *across*
  queries, so each uncached pair pays a full single-source wave.
  Older ``query_planner`` entries in the ``BENCH_SUMMARY.json``
  history timed per-call engine methods whose pair path stopped its
  traversal at the target; their speedups do not compare with this
  baseline's.
* **planner** — the same stream through a
  :class:`repro.query.Session`: the planner groups by canonical fault
  set, answers what the caches/filter can, and serves each group's
  remainder with one masked multi-source wave — waved from the
  *target* side here, because the monitored workload is skewed (many
  sources, few targets), so the cheapest wave starts from the targets.

Answers are asserted equal before any timing is trusted, and the
stream is built so every pair's fault provably touches the pair (the
touch filter cannot shortcut either side): the measured gap is
batching, not filtering.  Acceptance target: **>= 2x** on a ~5k-query
stream, with at least one group planned target-side.

Run standalone (CI smoke: ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_query_planner.py [--quick]

Results are persisted human-readable (``results/query_planner.txt``),
machine-readable (``results/query_planner.json``), and aggregated into
the top-level ``BENCH_SUMMARY.json``.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.analysis.experiments import timed
from repro.graphs import generators
from repro.query import (
    DistanceQuery,
    EccentricityQuery,
    Session,
    VectorQuery,
)
from repro.spt.bfs import bfs_distances

try:
    from _harness import emit, emit_json
except ImportError:  # running standalone, not under benchmarks/conftest
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from _harness import emit, emit_json


def build_stream(graph, num_faults: int, num_sources: int,
                 num_targets: int, pairs_per_fault: int, seed: int):
    """A mixed query stream shaped like a monitoring deployment.

    Many monitored sources, few monitored targets (the skew that makes
    target-side waving pay), fault scenarios of **two** *core* links
    each — the edges lying on the most monitored shortest paths, found
    by scoring each edge with the exact arithmetic of the engine's
    touch filter — and per fault set a couple of vector/eccentricity
    probes from the target set.  Every emitted pair query's fault set
    touches the pair, so neither path can shortcut it.
    """
    rng = random.Random(seed)
    vertices = rng.sample(range(graph.n), num_sources + num_targets)
    sources = vertices[:num_sources]
    targets = vertices[num_sources:]
    dist = {v: bfs_distances(graph, v) for v in vertices}

    def touched_pairs(e):
        u, v = e
        out = []
        for s in sources:
            ds_u, ds_v = dist[s][u], dist[s][v]
            for t in targets:
                base = dist[s][t]
                if base < 0:
                    continue
                dt_u, dt_v = dist[t][u], dist[t][v]
                if ((ds_u >= 0 and dt_v >= 0 and ds_u + 1 + dt_v == base)
                        or (ds_v >= 0 and dt_u >= 0
                            and ds_v + 1 + dt_u == base)):
                    out.append((s, t))
        return out

    touched = {e: touched_pairs(e) for e in sorted(graph.edges())}
    core = sorted(touched, key=lambda e: (-len(touched[e]), e))
    core = [e for e in core if touched[e]][:max(4, num_faults // 3)]
    fault_sets = set()
    while len(fault_sets) < num_faults and len(core) >= 2:
        pair = tuple(sorted(rng.sample(core, 2)))
        fault_sets.add(pair)
        if len(fault_sets) >= len(core) * (len(core) - 1) // 2:
            break
    stream = []
    for faults in sorted(fault_sets):
        pairs = sorted(set(touched[faults[0]]) | set(touched[faults[1]]))
        for s, t in rng.sample(pairs, min(pairs_per_fault, len(pairs))):
            stream.append(DistanceQuery(s, t, faults))
        stream.append(VectorQuery(targets[0], faults))
        stream.append(EccentricityQuery(targets[-1], faults))
    rng.shuffle(stream)  # interleave fault sets like real traffic
    return stream


def per_query_loop(session: Session, stream):
    """The baseline: one ``answer_one`` per query, nothing grouped."""
    return [session.answer_one(q).value for q in stream]


def run_experiment(quick: bool, seed: int):
    if quick:
        n, num_faults, num_sources, num_targets, per_fault = \
            150, 10, 8, 3, 12
    else:
        n, num_faults, num_sources, num_targets, per_fault = \
            600, 60, 100, 10, 84
    graph = generators.connected_erdos_renyi(n, 4.0 / n, seed=seed)
    stream = build_stream(graph, num_faults, num_sources, num_targets,
                          per_fault, seed + 1)

    # delta=False on BOTH sides: this bench isolates the grouping
    # advantage (planner waves vs one query at a time); the PR-5
    # delta path would patch most scenarios on either side and
    # measure the repair kernels instead (bench_incremental.py covers
    # those).
    loop_session = Session(graph, delta=False)
    loop, loop_s = timed(per_query_loop, loop_session, stream)

    session = Session(graph, delta=False)
    plan = session.planner.plan(stream)
    target_side_groups = sum(1 for g in plan.groups if g.side == "target")
    answers, plan_s = timed(session.answer, stream)
    planned = [a.value for a in answers]

    if planned != loop:
        raise AssertionError(
            "planner answers diverge from the per-query answers"
        )

    speedup = loop_s / plan_s
    rows = [
        {"strategy": "Session.answer_one per query", "n": graph.n,
         "m": graph.m, "queries": len(stream), "seconds": loop_s,
         "speedup": 1.0},
        {"strategy": "Session planner (grouped waves)", "n": graph.n,
         "m": graph.m, "queries": len(stream), "seconds": plan_s,
         "speedup": speedup},
    ]
    payload = {
        "bench": "query_planner",
        "params": {"quick": quick, "seed": seed, "n": graph.n,
                   "fault_sets": num_faults, "sources": num_sources,
                   "targets": num_targets},
        "rows": rows,
        "queries": len(stream),
        "groups": len(plan.groups),
        "target_side_groups": target_side_groups,
        "speedup": speedup,
        "session_stats": vars(session.stats),
        "cache_info": dict(session.cache_info()),
    }
    return rows, payload, speedup, target_side_groups, len(stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (CI): tiny graph, no "
                             "speedup assertion")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows, payload, speedup, target_groups, n_queries = run_experiment(
        args.quick, args.seed
    )
    emit(
        "query_planner", rows,
        "QUERY: batching planner vs one query at a time "
        "(mixed pair/vector/eccentricity stream)",
        notes=(
            f"speedup: {speedup:.1f}x on {n_queries} mixed queries "
            f"(target >= 2x); {target_groups} groups waved from the "
            f"target side; answers asserted equal to the per-query "
            f"answers"
        ),
        quick=args.quick,
    )
    emit_json("query_planner", payload)
    failed = []
    if not args.quick and speedup < 2.0:
        failed.append(f"expected >= 2x, measured {speedup:.2f}x")
    if not args.quick and target_groups == 0:
        failed.append("no group was planned target-side on a skewed "
                      "monitored workload")
    for line in failed:
        print(f"FAIL: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
