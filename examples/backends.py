#!/usr/bin/env python3
"""Kernel backends: the same kernels, two engines, one contract.

PR 5 stopped re-traversing; this tour shows the sixth rung: serving
the traversals that *do* run from interchangeable kernel backends.
Every kernel call — single-source waves, the bit-packed multi-source
batches, delta repairs — goes through the dispatch seam in
``repro.backends``:

1. ``pyloops`` is the pure-Python reference; it is always available
   and *is* the behavioural contract.
2. ``vectorized`` serves the same eight kernels from numpy — arrays
   instead of dicts, one ``np.bitwise_or.reduceat`` per BFS level
   instead of one loop iteration per arc — and must return
   bit-identical results.
3. ``auto`` (the default) picks per call: the work of the call
   (arcs x batch width) is compared against the kernel's entry in
   ``THRESHOLDS``, one read-only table measured by
   ``benchmarks/bench_backends.py``, so tiny graphs keep loop pricing
   and big batches get the arrays.  No numpy?  Everything silently
   stays on the loops.

Which backend served each answer is visible end to end: engine
counters, per-answer provenance, session stats.

Run:  PYTHONPATH=src python examples/backends.py
"""

from repro.analysis.experiments import timed
from repro.backends import THRESHOLDS, backend_for, numpy_or_none, set_backend
from repro.graphs import generators
from repro.query import Session, VectorQuery
from repro.spt.batched import csr_bfs_distances_many


def main() -> None:
    graph = generators.gnm(3000, 12000, seed=42)
    csr = graph.csr()
    print(f"network: sparse gnm, n={graph.n}, m={graph.m}")
    has_numpy = numpy_or_none() is not None
    print(f"numpy available: {has_numpy} "
          f"(set REPRO_NO_NUMPY=1 to watch every step fall back)\n")

    # --- one batched wave, both engines ------------------------------
    sources = list(range(0, 96))
    previous = set_backend("pyloops")
    loop_rows, loop_s = timed(csr_bfs_distances_many, csr, None, sources)
    if has_numpy:
        set_backend("vectorized")
        # warm once: the first vectorized call on a snapshot builds its
        # ndarray mirror, which is setup cost, not kernel cost
        csr_bfs_distances_many(csr, None, sources[:2])
        vec_rows, vec_s = timed(csr_bfs_distances_many, csr, None, sources)
        assert vec_rows == loop_rows
        print(f"{len(sources)}-source batched wave:\n"
              f"  pyloops    {loop_s * 1e3:7.1f} ms\n"
              f"  vectorized {vec_s * 1e3:7.1f} ms   "
              f"({loop_s / vec_s:.1f}x, bit-identical)")
    else:
        print(f"{len(sources)}-source batched wave: pyloops "
              f"{loop_s * 1e3:.1f} ms (vectorized unavailable)")
    set_backend(previous)

    # --- auto dispatch reads one measured work table ----------------
    # Work = arcs x batch width.  A wave on a tiny snapshot is cheap
    # enough that ndarray overhead would dominate, so auto keeps it on
    # the loops; the same wave here crosses the threshold.
    threshold = THRESHOLDS["csr_bfs_distances_many"]
    print(f"THRESHOLDS['csr_bfs_distances_many'] = {threshold:,} "
          f"(the work at which auto prefers vectorized)")
    tiny = generators.gnm(200, 800, seed=7).csr()
    for label, snap, batch in (("tiny snapshot ", tiny, 1),
                               ("this snapshot ", csr, 96)):
        chosen = backend_for("csr_bfs_distances_many", snap, batch=batch)
        work = len(snap.indices) * batch
        print(f"  auto, {label} batch={batch:3d}: work {work:>9,} vs "
              f"threshold {threshold:>7,} -> {chosen.name}")

    # --- provenance: who served what ---------------------------------
    session = Session(graph)
    faults = [tuple(sorted(graph.edges())[:2]), ()]
    stream = [VectorQuery(s, F) for F in faults for s in (0, 1, 2)]
    answers = session.answer(stream)
    for a in answers[:3]:
        p = a.provenance
        print(f"  {p.source:6s} answer via {p.kernel or '-'} "
              f"[{p.backend or 'no kernel run'}]")
    stats = session.stats
    info = session.cache_info()
    print(f"  session stats by backend: {dict(stats.by_backend)}\n"
          f"  engine wave tally:        {dict(info.wave_backends)}")


if __name__ == "__main__":
    main()
