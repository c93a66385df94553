"""BATCH — multi-source kernels + cross-pair grouping vs per-source loops.

Two experiments, one per amortisation axis of the batched layer:

* **many-source** (APSP-style): distance vectors from every vertex of a
  faulted snapshot.  The baseline re-runs the per-source
  ``csr_bfs_distances`` kernel once per source; the batched kernel
  (:func:`repro.spt.batched.csr_bfs_distances_many`) advances all
  sources one level per sweep over the arc array via bit-packed
  frontiers.  Both sides are timed warm, after one untimed call whose
  time is reported as ``first_call_s``.  Acceptance target: **>= 5x**,
  asserted on quick runs too.
* **pair stream** (replacement-path traffic): ``(s, t, F)`` queries
  where many pairs share each fault set.  The baseline is a per-query
  loop, ``Session.answer_one`` on each
  :class:`~repro.query.queries.DistanceQuery`: every cache layer (the
  row cache, the touch filter) is on, but nothing is grouped across
  queries.  The batched path (one ``Session.answer`` over the whole
  stream) plans it by canonical fault set so each mask setup and each
  traversal wave serves every pair sharing that ``F``, caching the
  per-``(source, F)`` vectors it computes.  Acceptance target:
  **>= 3x**, asserted on full runs only: it was set for the full-run
  sizes.  Older ``batched_sources`` entries in the
  ``BENCH_SUMMARY.json`` history timed a per-pair engine method that
  cached no rows; their pair-stream speedups do not compare with this
  baseline's.

Both experiments assert results equal to the reference loops before any
timing is trusted.  The pair stream is built from selected-tree edges,
so every query's fault actually lies on the queried pair's shortest
path — the touch filter cannot shortcut either side, and the measured
gap is traversal batching, not filtering.

Run standalone (CI smoke: ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_batched_sources.py [--quick]

Results are persisted human-readable (``results/batched_sources.txt``),
machine-readable (``results/batched_sources.json``), and aggregated
into the top-level ``BENCH_SUMMARY.json``.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.analysis.experiments import timed
from repro.graphs import generators
from repro.query import DistanceQuery, Session
from repro.spt.batched import csr_bfs_distances_many
from repro.spt.bfs import bfs_distances
from repro.spt.fastpaths import csr_bfs_distances

try:
    from _harness import emit, emit_json
except ImportError:  # running standalone, not under benchmarks/conftest
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from _harness import emit, emit_json


# ----------------------------------------------------------------------
# experiment 1: many sources, one (faulted) snapshot
# ----------------------------------------------------------------------
def per_source_loop(csr, mask, sources):
    """The baseline the batch kernel replaces."""
    return [csr_bfs_distances(csr, mask, s) for s in sources]


def warm_timed(fn, *args):
    """``(result, warm seconds, first-call seconds)``.

    The first call is timed apart: it pays one-time process costs
    (numpy's lazy submodule imports, the snapshot's ndarray mirror)
    that no later call pays, so the warm call is the one compared.
    """
    _, first_s = timed(fn, *args)
    result, seconds = timed(fn, *args)
    return result, seconds, first_s


def run_many_sources(n: int, seed: int):
    # Average degree 8: the per-source baseline's cost scales with the
    # arc count while the batched wave's bit extraction is fixed per
    # (source, vertex) discovery, so this is the density regime APSP
    # workloads actually run batched kernels in.
    graph = generators.connected_erdos_renyi(n, 8.0 / n, seed=seed)
    csr = graph.csr()
    faults = random.Random(seed + 1).sample(sorted(graph.edges()), 3)
    mask = csr.without(faults)._as_csr()[1]
    sources = list(graph.vertices())

    loop, loop_s, loop_first = warm_timed(per_source_loop, csr, mask,
                                          sources)
    wave, wave_s, wave_first = warm_timed(csr_bfs_distances_many, csr,
                                          mask, sources)
    if wave != loop:
        raise AssertionError("batched kernel diverges from per-source loop")

    speedup = loop_s / wave_s
    rows = [
        {"strategy": "per-source csr_bfs_distances", "n": graph.n,
         "m": graph.m, "sources": len(sources), "seconds": loop_s,
         "speedup": 1.0, "first_call_s": loop_first},
        {"strategy": "csr_bfs_distances_many (bit-packed)", "n": graph.n,
         "m": graph.m, "sources": len(sources), "seconds": wave_s,
         "speedup": speedup, "first_call_s": wave_first},
    ]
    return rows, speedup


# ----------------------------------------------------------------------
# experiment 2: pair stream sharing fault sets across pairs
# ----------------------------------------------------------------------
def build_pair_stream(graph, num_faults: int, num_sources: int,
                      num_targets: int, pairs_per_fault: int, seed: int):
    """``(s, t, (e,))`` queries whose fault provably touches the pair.

    The workload shape of a monitoring deployment: a bounded set of
    monitored sources and targets, and fault scenarios on the *core*
    links — the edges lying on the most monitored shortest paths, found
    by scoring each edge with the exact arithmetic the engine's touch
    filter uses (``d_s(u) + 1 + d_t(v) == d_s(t)``).  Every emitted
    query's fault therefore touches its pair, so neither the per-pair
    baseline nor the batched path can shortcut it: the measured gap is
    traversal sharing, not filtering.
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

    scored = sorted(
        ((len(touched_pairs(e)), e) for e in sorted(graph.edges())),
        key=lambda item: (-item[0], item[1]),
    )
    stream = []
    for count, e in scored[:num_faults]:
        if count == 0:
            break
        pairs = touched_pairs(e)
        for s, t in rng.sample(pairs, min(pairs_per_fault, len(pairs))):
            stream.append((s, t, (e,)))
    rng.shuffle(stream)  # interleave fault sets like real traffic
    return stream


def per_query_loop(session, stream):
    """The baseline: one ``answer_one`` per query (row cache + touch
    filter active, no cross-query grouping)."""
    return [session.answer_one(DistanceQuery(s, t, f)).value
            for s, t, f in stream]


def session_pair_stream(session, stream):
    """The batched path: the whole stream as typed queries, one gather."""
    return [a.value for a in session.answer(
        DistanceQuery(s, t, f) for s, t, f in stream)]


def run_pair_stream(n: int, num_faults: int, num_sources: int,
                    num_targets: int, pairs_per_fault: int, seed: int):
    graph = generators.connected_erdos_renyi(n, 4.0 / n, seed=seed)
    stream = build_pair_stream(graph, num_faults, num_sources,
                               num_targets, pairs_per_fault, seed + 1)

    reference = [
        bfs_distances(graph.without(f), s)[t] for s, t, f in stream
    ]
    # delta=False on BOTH sides: this experiment isolates the
    # cross-pair wave sharing of the planner's groups; the PR-5 delta
    # path would patch most single-fault scenarios on either side and
    # measure the repair kernels instead (bench_incremental.py
    # covers those).
    loop_session = Session(graph, delta=False)
    loop, loop_s = timed(per_query_loop, loop_session, stream)

    batch_session = Session(graph, delta=False)
    batched, batch_s = timed(session_pair_stream, batch_session, stream)

    if loop != reference or batched != reference:
        raise AssertionError("pair-stream results diverge from reference")

    speedup = loop_s / batch_s
    rows = [
        {"strategy": "Session.answer_one per query", "n": graph.n,
         "m": graph.m, "queries": len(stream), "seconds": loop_s,
         "speedup": 1.0},
        {"strategy": "Session (grouped by F)", "n": graph.n,
         "m": graph.m, "queries": len(stream), "seconds": batch_s,
         "speedup": speedup},
    ]
    return rows, speedup, batch_session.cache_info()


# ----------------------------------------------------------------------
def run_experiment(quick: bool, seed: int):
    if quick:
        many_rows, many_speedup = run_many_sources(n=150, seed=seed)
        pair_rows, pair_speedup, cache = run_pair_stream(
            n=150, num_faults=10, num_sources=4, num_targets=10,
            pairs_per_fault=10, seed=seed,
        )
    else:
        many_rows, many_speedup = run_many_sources(n=1200, seed=seed)
        pair_rows, pair_speedup, cache = run_pair_stream(
            n=800, num_faults=40, num_sources=24, num_targets=48,
            pairs_per_fault=120, seed=seed,
        )
    rows = many_rows + pair_rows
    payload = {
        "bench": "batched_sources",
        "params": {"quick": quick, "seed": seed},
        "rows": rows,
        "many_source_speedup": many_speedup,
        "pair_stream_speedup": pair_speedup,
        "speedup": many_speedup,
        "cache_info": dict(cache),  # CacheInfo -> plain dict for JSON
    }
    return rows, payload, many_speedup, pair_speedup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (CI): tiny graphs, only "
                             "the many-source bar asserted")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows, payload, many_speedup, pair_speedup = run_experiment(
        args.quick, args.seed
    )
    emit(
        "batched_sources", rows,
        "BATCH: multi-source kernels + cross-pair grouping vs "
        "per-source loops",
        notes=(
            f"many-source speedup: {many_speedup:.1f}x (target >= 5x); "
            f"pair-stream speedup: {pair_speedup:.1f}x (target >= 3x); "
            f"identical outputs enforced against the reference loops"
        ),
        quick=args.quick,
    )
    emit_json("batched_sources", payload)
    failed = []
    if many_speedup < 5.0:
        failed.append(f"many-source: expected >= 5x, "
                      f"measured {many_speedup:.2f}x")
    if not args.quick and pair_speedup < 3.0:
        failed.append(f"pair-stream: expected >= 3x, "
                      f"measured {pair_speedup:.2f}x")
    for line in failed:
        print(f"FAIL: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
