#!/usr/bin/env python3
"""Batched multi-source queries: one traversal wave, many sources.

PR 1 batched the *scenarios* (one base graph, many fault sets) and
PR 2 the *weights*; this tour shows the third rung of the CSR ladder:
batching the *sources*.  Two workload shapes:

* **APSP on a faulted snapshot** — distance vectors from every vertex
  of ``G \\ F`` in one bit-packed multi-source BFS wave
  (one Python int per vertex carries one frontier bit per source).
* **a replacement-path pair stream** — ``DistanceQuery`` objects where
  many pairs share each fault set, served through a
  :class:`~repro.query.session.Session` (PR 4): the planner groups the
  stream by canonical fault set, each group pays one masked wave, and
  the per-``(source, F)`` vectors it computes stay cached for later
  queries (the engine's LRU caches rows only: a later pair reads its
  answer off a cached row).  Eccentricity and connectivity questions
  alone keep no row: their waves are reduced in the kernel, and the
  LRU counters show the cache untouched.

Run:  PYTHONPATH=src python examples/batched_sources.py
"""

from repro.analysis.experiments import format_table, timed
from repro.graphs import generators
from repro.query import (
    ConnectivityQuery, DistanceQuery, EccentricityQuery, Session,
)
from repro.scenarios import random_fault_sets
from repro.spt.apsp import all_pairs_bfs_distances, diameter
from repro.spt.bfs import bfs_distances
from repro.spt.fastpaths import csr_bfs_distances


def main() -> None:
    graph = generators.connected_erdos_renyi(400, 6.0 / 400, seed=11)
    print(f"network: sparse ER, n={graph.n}, m={graph.m}, "
          f"diameter={diameter(graph)}")

    # --- APSP on a faulted snapshot: one batched call ----------------
    faults = random_fault_sets(graph, 3, 1, seed=1)[0]
    view = graph.csr().without(faults)
    csr, mask = view._as_csr()
    sources = list(graph.vertices())

    loop, loop_s = timed(
        lambda: [csr_bfs_distances(csr, mask, s) for s in sources]
    )
    # all_pairs_bfs_distances dispatches onto the bit-packed batch
    # kernel whenever the graph (or view) exposes a CSR fast path.
    wave, wave_s = timed(all_pairs_bfs_distances, view)
    assert [wave[s] for s in sources] == loop
    print(
        f"\nAPSP over G \\ F ({len(faults)} faults, {len(sources)} "
        f"sources):\n"
        f"  per-source loop  {loop_s * 1e3:7.1f} ms\n"
        f"  one batched wave {wave_s * 1e3:7.1f} ms   "
        f"({loop_s / wave_s:.1f}x)"
    )

    # --- a pair stream sharing fault sets across pairs ---------------
    # The stream goes in as typed queries through a Session; the
    # planner groups it by fault set so each wave serves every pair.
    session = Session(graph)
    engine = session.engine
    monitored = [(s, t) for s in (0, 7, 19, 42) for t in (377, 398, 251)]
    # Adversarial scenarios: faults on the selected shortest-path tree
    # of a monitored source actually reroute traffic, unlike random
    # edges (which mostly miss every monitored path).
    from repro.spt.bfs import bfs_tree

    tree_edges = sorted(
        (min(v, p), max(v, p))
        for v, p in bfs_tree(graph, 0).items() if p is not None
    )
    scenarios = [(e,) for e in tree_edges[:30]]
    scenarios += random_fault_sets(graph, 2, 10, seed=3)
    stream = [
        DistanceQuery(s, t, f) for f in scenarios for (s, t) in monitored
    ]
    print(f"\npair stream: {len(stream)} queries "
          f"({len(scenarios)} fault sets x {len(monitored)} monitored "
          f"pairs)")

    results, secs = timed(session.answer, stream)
    degraded = sum(
        1 for r in results
        if r.value != engine.base_distances(r.query.source)[r.query.target]
    )
    print(f"  served in {secs * 1e3:.1f} ms; {degraded} queries see a "
          f"degraded route")
    info = engine.cache_info()  # a frozen CacheInfo dataclass since PR 4
    print(f"  row LRU: {info.size} rows "
          f"(vector cache {info.vector_hits}h/"
          f"{info.vector_misses}m)")
    print(f"  engine: {engine!r}")

    # Re-running the same stream is almost free: every (s, t, F) is
    # a slot of a cached row or a touch-filter verdict now, so the
    # replay runs no wave at all.
    waves = session.stats.waves
    replay, resecs = timed(session.answer, stream)
    assert session.stats.waves == waves
    after = engine.cache_info()
    print(f"  replay: {resecs * 1e3:.1f} ms "
          f"({secs / max(resecs, 1e-9):.0f}x faster, no new wave; "
          f"{after.vector_hits - info.vector_hits} vector-cache hits, "
          f"{sum(r.provenance.source == 'filter' for r in replay)} "
          f"touch-filter answers)")

    # --- incident questions: scalars, not rows ------------------------
    # Eccentricity and connectivity under fresh fault sets read no row
    # slot, so the planner runs each group's wave in its reduction
    # mode: one eccentricity per source, no row built, none cached.
    incidents = random_fault_sets(graph, 2, 20, seed=5)
    watch = (0, 7, 19, 42)
    questions = []
    for f in incidents:
        questions += [EccentricityQuery(s, f) for s in watch]
        questions.append(ConnectivityQuery(f))
    before = engine.cache_info()
    answers = session.answer(questions)
    after = engine.cache_info()
    assert after.size == before.size
    for a in answers:
        if isinstance(a.query, EccentricityQuery):
            dist = bfs_distances(graph.without(a.query.faults),
                                 a.query.source)
            assert a.value == (-1 if -1 in dist else max(dist))
    cut = sum(a.value is False for a in answers)
    print(f"\nincident questions: {len(questions)} eccentricity/"
          f"connectivity queries over {len(incidents)} fresh fault "
          f"sets ({cut} disconnect the network)")
    print(f"  row LRU: {before.size} rows before, {after.size} after "
          f"(vector cache {after.vector_hits - before.vector_hits}h/"
          f"{after.vector_misses - before.vector_misses}m): scalar-only "
          f"groups leave it as they found it")

    # --- worst degradations ------------------------------------------
    rows = [
        {
            "pair": f"({r.query.source}, {r.query.target})",
            "faults": str(list(r.query.faults)),
            "dist": r.value,
            "base": engine.base_distances(r.query.source)[r.query.target],
        }
        for r in results
        if r.value != engine.base_distances(r.query.source)[r.query.target]
    ]
    for row in rows:
        row["stretch"] = (row["dist"] - row["base"]
                          if row["dist"] >= 0 else "cut")
    rows.sort(key=lambda r: -(r["stretch"]
                              if r["stretch"] != "cut" else 10**9))
    print()
    print(format_table(rows[:8], title="worst-degraded monitored pairs"))


if __name__ == "__main__":
    main()
