"""DELTA — incremental patching vs full masked waves.

The PR-5 acceptance experiment: an **adversarial tree-edge fault
stream** (every fault is an edge of the source's base shortest-path
tree, so every scenario *must* move distances — the touch filter can
never shortcut it, and the vector cache never repeats) is answered
two ways through the same :class:`~repro.query.session.Session`
surface:

* **full-wave engine** — ``delta=False``: every scenario pays one
  masked multi-source traversal of the whole snapshot (the PR 1–4
  state of the art for this stream);
* **delta engine** — ``delta=True``: the orphaned region of each
  fault is read off the base tree's subtree intervals, small regions
  are re-settled from their intact frontier by the repair kernels
  (:mod:`repro.incremental.repair`), and only the large ones fall
  back to a wave.

Answers are asserted equal element-for-element before any timing is
trusted, and the delta session must actually report ``"delta"``
provenance.  A second experiment feeds clustered multi-edge regional
failures (:func:`~repro.scenarios.enumerate.clustered_fault_sets`)
through the same pair of engines.  Acceptance target: **>= 3x** on the
tree-edge stream.

Run standalone (CI smoke: ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--quick]

Results are persisted human-readable (``results/incremental.txt``),
machine-readable (``results/incremental.json``), and folded into the
top-level ``BENCH_SUMMARY.json`` (including its per-run history).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.experiments import timed
from repro.graphs import generators
from repro.graphs.base import canonical_edge
from repro.query import Session, VectorQuery
from repro.scenarios import clustered_fault_sets
from repro.spt.bfs import bfs_tree

try:
    from _harness import emit, emit_json
except ImportError:  # running standalone, not under benchmarks/conftest
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from _harness import emit, emit_json


def tree_edge_stream(graph, source: int):
    """One ``VectorQuery`` per base-tree edge — every fault forces a
    reroute of the subtree hanging below it."""
    parent = bfs_tree(graph, source)
    edges = sorted(
        canonical_edge(v, p) for v, p in parent.items() if p is not None
    )
    return [VectorQuery(source, (e,)) for e in edges]


def run_stream(session: Session, stream):
    answers, seconds = timed(session.answer, stream)
    return [a.value for a in answers], answers, seconds


def run_experiment(quick: bool, seed: int):
    n = 200 if quick else 1500
    graph = generators.connected_erdos_renyi(n, 4.0 / n, seed=seed)
    source = 0
    stream = tree_edge_stream(graph, source)

    full_session = Session(graph, delta=False)
    full_values, _, full_s = run_stream(full_session, stream)

    delta_session = Session(graph)
    delta_values, delta_answers, delta_s = run_stream(delta_session, stream)

    if delta_values != full_values:
        raise AssertionError(
            "delta-patched vectors diverge from the full-wave path"
        )
    patched = sum(1 for a in delta_answers if a.patched)
    if patched == 0:
        raise AssertionError(
            "no query reported 'delta' provenance on a tree-edge stream"
        )
    speedup = full_s / delta_s
    info = delta_session.engine.cache_info()

    # Clustered regional failures: multi-edge fault sets inside one
    # BFS ball, the delta path's realistic adversary.
    regions = clustered_fault_sets(graph, 3, len(stream) // 2,
                                   radius=2, seed=seed + 1)
    cluster_stream = [VectorQuery(source, F) for F in regions]
    cfull_values, _, cfull_s = run_stream(Session(graph, delta=False),
                                          cluster_stream)
    cdelta_session = Session(graph)
    cdelta_values, _, cdelta_s = run_stream(cdelta_session, cluster_stream)
    if cdelta_values != cfull_values:
        raise AssertionError(
            "clustered-fault delta vectors diverge from the full-wave path"
        )
    cluster_speedup = cfull_s / cdelta_s

    rows = [
        {"stream": "tree-edge faults", "strategy": "full masked waves",
         "n": graph.n, "m": graph.m, "scenarios": len(stream),
         "seconds": full_s, "speedup": 1.0},
        {"stream": "tree-edge faults", "strategy": "delta patching",
         "n": graph.n, "m": graph.m, "scenarios": len(stream),
         "seconds": delta_s, "speedup": speedup},
        {"stream": "clustered faults (f=3)",
         "strategy": "full masked waves", "n": graph.n, "m": graph.m,
         "scenarios": len(cluster_stream), "seconds": cfull_s,
         "speedup": 1.0},
        {"stream": "clustered faults (f=3)", "strategy": "delta patching",
         "n": graph.n, "m": graph.m, "scenarios": len(cluster_stream),
         "seconds": cdelta_s, "speedup": cluster_speedup},
    ]
    payload = {
        "bench": "incremental",
        "params": {"quick": quick, "seed": seed, "n": graph.n,
                   "m": graph.m, "source": source,
                   "tree_edges": len(stream),
                   "clustered_scenarios": len(cluster_stream)},
        "rows": rows,
        "speedup": speedup,
        "cluster_speedup": cluster_speedup,
        "delta_answers": patched,
        "delta_hits": info.delta_hits,
        "delta_fallbacks": info.delta_fallbacks,
        "session_stats": vars(delta_session.stats),
        "cache_info": dict(info),
    }
    return rows, payload, speedup, cluster_speedup, patched, len(stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (CI): tiny graph, no "
                             "speedup assertion")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows, payload, speedup, cluster_speedup, patched, scenarios = \
        run_experiment(args.quick, args.seed)
    emit(
        "incremental", rows,
        "DELTA: incremental patching vs full masked waves "
        "(adversarial tree-edge + clustered fault streams)",
        notes=(
            f"speedup: {speedup:.1f}x on {scenarios} tree-edge "
            f"scenarios (target >= 3x), {cluster_speedup:.1f}x on the "
            f"clustered stream; {patched}/{scenarios} answers served "
            f"with 'delta' provenance; answers asserted equal to the "
            f"full-wave path"
        ),
        quick=args.quick,
    )
    emit_json("incremental", payload)
    failed = []
    if not args.quick and speedup < 3.0:
        failed.append(f"expected >= 3x, measured {speedup:.2f}x")
    for line in failed:
        print(f"FAIL: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
