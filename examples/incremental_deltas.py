#!/usr/bin/env python3
"""Incremental deltas: patch base distances, don't re-traverse.

PR 1 batched the *scenarios*, PR 2 the *weights*, PR 3 the *sources*,
PR 4 made the stream *declarative* — this tour shows the fifth rung:
not traversing at all.  A fault set near the base shortest-path tree
orphans only the subtree below the faulted tree edges; everyone else
keeps their base distance (their selected root-path survives, and
removing edges can only push distances up).  So the engine:

1. reads the orphan count off the tree's Euler-tour subtree
   intervals in O(|F| log |F|) — without touching a single vertex;
2. asks an explicit cost model whether re-settling that region beats
   a full masked wave;
3. patches the base vector from the region's intact frontier
   (bit-identical to the full kernel), or falls back to the wave.

Run:  PYTHONPATH=src python examples/incremental_deltas.py
"""

from repro.analysis.experiments import timed
from repro.graphs import generators
from repro.incremental import affected_region
from repro.incremental.repair import csr_bfs_repair
from repro.query import Session, VectorQuery
from repro.scenarios import ScenarioEngine, clustered_fault_sets
from repro.spt.fastpaths import csr_bfs_distances, csr_bfs_tree


def main() -> None:
    graph = generators.connected_erdos_renyi(600, 4.0 / 600, seed=5)
    print(f"network: sparse ER, n={graph.n}, m={graph.m}")

    # --- the affected region of a fault set --------------------------
    engine = ScenarioEngine(graph)
    source = 0
    index = engine.base_tree_index(source)
    # the index is built over this deterministic BFS tree
    csr = graph.csr()
    tree_edges = sorted(
        (min(v, p), max(v, p))
        for v, p in csr_bfs_tree(csr, None, source).items()
        if p is not None)
    hops = engine.base_distances(source)
    # a deep tree edge orphans a small subtree; one near the root
    # orphans a huge one — the cost model tells them apart for the
    # price of interval arithmetic
    deep = max(tree_edges, key=lambda e: min(hops[e[0]], hops[e[1]]))
    shallow = next(e for e in tree_edges if source in e)
    for label, edge in (("deep tree edge", deep),
                        ("root-adjacent edge", shallow)):
        region = affected_region(index, graph.n, source, (edge,),
                                 engine.delta_policy)
        verdict = "patch" if region.patch else "full wave"
        print(f"  fault {edge} ({label}): {region.estimate} orphans "
              f"-> {verdict}")

    # --- a repair is bit-identical to the full kernel ----------------
    base = csr_bfs_distances(csr, None, source)
    mask = csr.without([deep])._as_csr()[1]
    orphans = index.orphaned_vertices([deep])
    patched, changed = csr_bfs_repair(csr, mask, base, orphans)
    assert patched == csr_bfs_distances(csr, mask, source)
    print(f"\nrepair of fault {deep}: {len(orphans)} orphans re-settled, "
          f"{len(changed)} distances actually changed, "
          f"vector bit-identical to a fresh masked BFS")

    # --- the adversarial stream, through the Session -----------------
    # Every fault is a tree edge, so every scenario must move
    # distances: the touch filter never fires, and before PR 5 each
    # scenario paid a full masked wave.
    stream = [VectorQuery(source, (e,)) for e in tree_edges]
    full, full_s = timed(Session(graph, delta=False).answer, stream)
    session = Session(graph)
    fast, fast_s = timed(session.answer, stream)
    assert [a.value for a in fast] == [a.value for a in full]
    patched_n = sum(1 for a in fast if a.patched)
    print(f"\n{len(stream)} adversarial tree-edge scenarios:\n"
          f"  full masked waves {full_s * 1e3:7.1f} ms\n"
          f"  delta patching    {fast_s * 1e3:7.1f} ms   "
          f"({full_s / fast_s:.1f}x)\n"
          f"  provenance: {patched_n} delta / "
          f"{sum(1 for a in fast if a.waved)} wave "
          f"(fallbacks near the root)")
    info = session.cache_info()
    print(f"  engine counters: delta {info.delta_hits}h/"
          f"{info.delta_fallbacks}f; {session!r}")

    # --- clustered regional failures ---------------------------------
    # Correlated faults inside one BFS ball: several edges fail
    # together, but they orphan one coherent region — still a patch.
    regions = clustered_fault_sets(graph, 3, 200, radius=2, seed=9)
    cstream = [VectorQuery(source, F) for F in regions]
    cfull, cfull_s = timed(Session(graph, delta=False).answer, cstream)
    csession = Session(graph)
    cfast, cfast_s = timed(csession.answer, cstream)
    assert [a.value for a in cfast] == [a.value for a in cfull]
    print(f"\n{len(cstream)} clustered 3-edge regional failures:\n"
          f"  full masked waves {cfull_s * 1e3:7.1f} ms\n"
          f"  delta patching    {cfast_s * 1e3:7.1f} ms   "
          f"({cfull_s / cfast_s:.1f}x)")


if __name__ == "__main__":
    main()
