"""SCEN — batched fault-scenario engine vs the naive per-FaultView loop.

The paper's workload shape: one base graph, a stream of fault sets F,
a replacement-distance query per scenario.  The naive loop builds a
:class:`~repro.graphs.views.FaultView` and reruns a reference BFS per
scenario; a :class:`~repro.query.session.Session` answering the stream
as typed :class:`~repro.query.queries.DistanceQuery` objects lets its
:class:`~repro.scenarios.engine.ScenarioEngine` amortise the CSR
snapshot, base distance vectors and the shortest-path touch filter
across the stream.  Acceptance target: >= 3x on 1000
single-fault scenarios against a 2000-vertex graph, with bit-identical
results.

Run standalone (CI smoke: ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_scenario_engine.py [--quick]

or under pytest-benchmark like the other benches.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.experiments import timed
from repro.graphs import generators
from repro.query import DistanceQuery, Session
from repro.scenarios import ScenarioEngine, random_fault_sets
from repro.spt.bfs import bfs_distances
from repro.spt.fastpaths import csr_bfs_distances

try:
    from _harness import emit, emit_json
except ImportError:  # running standalone, not under benchmarks/conftest
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from _harness import emit, emit_json


def naive_scenario_loop(graph, s, t, scenarios):
    """The baseline the engine replaces: fresh FaultView + reference BFS."""
    return [bfs_distances(graph.without(f), s)[t] for f in scenarios]


def csr_scenario_loop(engine, s, t, scenarios):
    """CSR fast path alone: masked array BFS per scenario, no filtering."""
    out = []
    for faults in scenarios:
        mask = engine.csr.without(faults)._as_csr()[1]
        out.append(csr_bfs_distances(engine.csr, mask, s)[t])
    return out


def session_scenario_stream(session, s, t, scenarios):
    """The engine through the typed query API: one gather."""
    return [a.value for a in
            session.answer(DistanceQuery(s, t, f) for f in scenarios)]


def run_experiment(n: int = 2000, num_scenarios: int = 1000,
                   seed: int = 0):
    """Time the three strategies on one stream; return (rows, speedups)."""
    graph = generators.connected_erdos_renyi(n, 4.0 / n, seed=seed)
    scenarios = random_fault_sets(graph, 1, num_scenarios, seed=seed + 1)
    s = 0
    dist0 = bfs_distances(graph, s)
    t = max(graph.vertices(), key=lambda v: dist0[v])  # farthest target

    naive, naive_s = timed(naive_scenario_loop, graph, s, t, scenarios)

    engine = ScenarioEngine(graph)
    csr_only, csr_s = timed(csr_scenario_loop, engine, s, t, scenarios)

    session = Session(graph)  # fresh caches: pay base BFS inside
    batched, engine_s = timed(
        session_scenario_stream, session, s, t, scenarios
    )

    if batched != naive or csr_only != naive:
        raise AssertionError(
            "scenario engine results diverge from the naive loop"
        )

    rows = [
        {"strategy": "naive FaultView loop", "n": graph.n, "m": graph.m,
         "scenarios": len(scenarios), "seconds": naive_s, "speedup": 1.0},
        {"strategy": "CSR masked BFS", "n": graph.n, "m": graph.m,
         "scenarios": len(scenarios), "seconds": csr_s,
         "speedup": naive_s / csr_s},
        {"strategy": "Session (typed queries)", "n": graph.n, "m": graph.m,
         "scenarios": len(scenarios), "seconds": engine_s,
         "speedup": naive_s / engine_s},
    ]
    return rows, naive_s / engine_s


def test_scenario_engine_speedup(benchmark):
    """Benchmark one batched query; assert the >= 3x acceptance target."""
    rows, speedup = run_experiment()

    graph = generators.connected_erdos_renyi(400, 0.01, seed=2)
    session = Session(graph)
    scenarios = random_fault_sets(graph, 1, 100, seed=3)
    benchmark(session_scenario_stream, session, 0, graph.n - 1, scenarios)

    emit(
        "scenario_engine", rows,
        "SCEN: batched scenario engine vs naive per-FaultView loop",
        notes=(
            "identical outputs enforced; engine amortises the CSR "
            "snapshot, base BFS vectors and the shortest-path touch "
            "filter across the scenario stream.  Target: >= 3x."
        ),
    )
    assert speedup >= 3.0, f"expected >= 3x, measured {speedup:.2f}x"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (CI): 300 vertices, "
                             "100 scenarios, no speedup assertion")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.quick:
        rows, speedup = run_experiment(n=300, num_scenarios=100,
                                       seed=args.seed)
    else:
        rows, speedup = run_experiment(seed=args.seed)
    emit(
        "scenario_engine", rows,
        "SCEN: batched scenario engine vs naive per-FaultView loop",
        notes=f"measured end-to-end speedup: {speedup:.1f}x",
        quick=args.quick,
    )
    emit_json("scenario_engine", {
        "bench": "scenario_engine",
        "params": {"quick": args.quick, "seed": args.seed},
        "rows": rows,
        "speedup": speedup,
    })
    if not args.quick and speedup < 3.0:
        print(f"FAIL: expected >= 3x, measured {speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
