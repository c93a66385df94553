"""WSCEN — weighted scenario engine vs the naive per-scenario Dijkstra loop.

The weighted analogue of ``bench_scenario_engine``: one base
:class:`~repro.weighted.graph.WeightedGraph`, a stream of fault sets,
a replacement-distance query per scenario.  The naive loop builds a
fresh ``WeightedView`` and reruns the reference dict-and-heap Dijkstra
(one Python ``weight(u, v)`` call per arc) per scenario; the engine,
driven through a :class:`~repro.query.session.Session` with typed
:class:`~repro.query.queries.DistanceQuery` objects, amortises the
weight-carrying CSR snapshot, base weighted distance
vectors, the weighted touch filter and the row cache across the
stream, and traverses flat arrays when it must traverse at all.

Acceptance target: >= 10x on 1000 single-fault scenarios against an
n >= 500 weighted graph, with bit-identical results (also enforced by
the hypothesis cross-checks in ``tests/test_weighted_fastpaths.py``).

Run standalone (CI smoke: ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_weighted_engine.py [--quick]

Results are persisted both human-readable (``results/weighted_engine.txt``)
and machine-readable (``results/weighted_engine.json``).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.experiments import timed
from repro.query import DistanceQuery, Session
from repro.scenarios import ScenarioEngine, random_fault_sets
from repro.spt.bfs import UNREACHABLE
from repro.spt.dijkstra import dijkstra_reference
from repro.spt.fastpaths import csr_weighted_distance
from repro.weighted import WeightedGraph

try:
    from _harness import emit, emit_json
except ImportError:  # running standalone, not under benchmarks/conftest
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from _harness import emit, emit_json


def naive_scenario_loop(wg, s, t, scenarios):
    """The baseline the engine replaces: fresh view + reference Dijkstra."""
    out = []
    for faults in scenarios:
        view = wg.without(faults)
        dist, _ = dijkstra_reference(view, s, view.arc_weight)
        out.append(dist.get(t, UNREACHABLE))
    return out


def flat_scenario_loop(engine, s, t, scenarios):
    """Flat kernel alone: masked array Dijkstra per scenario, no filter."""
    out = []
    for faults in scenarios:
        mask = engine.csr.without(faults)._as_csr()[1]
        out.append(csr_weighted_distance(engine.csr, mask, s, t))
    return out


def session_scenario_stream(session, s, t, scenarios):
    """The engine through the typed query API: one gather."""
    return [a.value for a in
            session.answer(DistanceQuery(s, t, f) for f in scenarios)]


def run_experiment(n: int = 600, num_scenarios: int = 1000,
                   seed: int = 0):
    """Time the three strategies on one stream; return (rows, speedups)."""
    wg = WeightedGraph.random(n, 4.0 / n, max_weight=20, seed=seed)
    scenarios = random_fault_sets(wg, 1, num_scenarios, seed=seed + 1)
    s = 0
    probe = ScenarioEngine(wg)
    dist0 = probe.base_distances(s)
    t = max(range(wg.n), key=dist0.__getitem__)  # farthest target

    naive, naive_s = timed(naive_scenario_loop, wg, s, t, scenarios)

    engine = ScenarioEngine(wg)
    flat, flat_s = timed(flat_scenario_loop, engine, s, t, scenarios)

    session = Session(wg)  # fresh caches: pay base Dijkstra inside
    batched, engine_s = timed(
        session_scenario_stream, session, s, t, scenarios
    )

    if batched != naive or flat != naive:
        raise AssertionError(
            "weighted scenario engine results diverge from the naive loop"
        )

    rows = [
        {"strategy": "naive WeightedView loop", "n": wg.n, "m": wg.m,
         "scenarios": len(scenarios), "seconds": naive_s, "speedup": 1.0},
        {"strategy": "flat masked Dijkstra", "n": wg.n, "m": wg.m,
         "scenarios": len(scenarios), "seconds": flat_s,
         "speedup": naive_s / flat_s},
        {"strategy": "Session (typed queries)", "n": wg.n, "m": wg.m,
         "scenarios": len(scenarios), "seconds": engine_s,
         "speedup": naive_s / engine_s},
    ]
    payload = {
        "bench": "weighted_engine",
        "params": {"n": wg.n, "m": wg.m, "scenarios": len(scenarios),
                   "seed": seed},
        "rows": rows,
        "speedup": naive_s / engine_s,
        "cache_info": dict(session.cache_info()),  # CacheInfo -> JSON
    }
    return rows, payload, naive_s / engine_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (CI): 150 vertices, "
                             "120 scenarios, no speedup assertion")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.quick:
        rows, payload, speedup = run_experiment(
            n=150, num_scenarios=120, seed=args.seed
        )
    else:
        rows, payload, speedup = run_experiment(seed=args.seed)
    payload["params"]["quick"] = args.quick
    emit(
        "weighted_engine", rows,
        "WSCEN: weighted scenario engine vs naive per-scenario Dijkstra",
        notes=f"measured end-to-end speedup: {speedup:.1f}x "
              f"(target: >= 10x, identical outputs enforced)",
        quick=args.quick,
    )
    emit_json("weighted_engine", payload)
    if not args.quick and speedup < 10.0:
        print(f"FAIL: expected >= 10x, measured {speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
