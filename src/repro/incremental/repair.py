"""Repair kernels: re-settle an orphaned region from its intact frontier.

Both kernels take the base distance vector of a source, the orphaned
vertex set of a fault set ``F`` (see
:func:`repro.incremental.affected.affected_region`), and the engine's
arc mask with ``F`` zeroed — and return a **patched** dense distance
vector plus the vertices whose distance actually changed.  The hop
kernel's patched row is an ``array('i')``, like every hop row; the
weighted kernel's is a list.  The contract, enforced by the
hypothesis cross-checks in
``tests/test_incremental.py``, is bit-identical output to running the
full masked kernel (:func:`~repro.spt.fastpaths.csr_bfs_distances` /
:func:`~repro.spt.fastpaths.csr_weighted_distances`) from scratch:
intact vertices keep their base distance (their selected root-path
survives ``F`` and removal cannot shorten anything), orphans are
re-settled in ``O(vol(orphans) log)`` instead of ``O(n + m)``.

The repair is a two-phase contraction of the standard traversals:

1. **seed** — every surviving arc from an intact vertex ``u`` into an
   orphan ``v`` proposes ``d(u) + w(u, v)``; the intact endpoint's
   distance is already final, so these proposals are exact path
   lengths.  (A shortest path may leave the orphaned region and
   re-enter it — each re-entry is just another intact→orphan arc, so
   the seeds cover it.)
2. **settle** — a traversal restricted to the orphaned region: a
   bucketed multi-source BFS with level offsets on the unweighted
   path, a heap-based Dijkstra on the weighted one.  Orphans no seed
   or propagation reaches stay ``UNREACHABLE`` — the disconnecting
   case needs no special handling.

The weighted kernel reads propagation weights straight off the flat
arc array (settling ``v`` relaxes ``v``'s own row, the correct
direction), and looks seed weights up by reverse arc position — so
antisymmetric snapshots (the tiebreaking perturbations) repair
exactly, not just symmetric edge weights.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backends.api import HopRow
from repro.backends.dispatch import kernel_impl
from repro.graphs.csr import CSRGraph
from repro.spt.fastpaths import UNREACHABLE, flat_weights

__all__ = ["csr_bfs_repair", "csr_dijkstra_repair"]


def csr_bfs_repair(csr: CSRGraph, mask: Optional[bytearray],
                   base: Sequence[int], orphans: Iterable[int]
                   ) -> Tuple[HopRow, List[int]]:
    """Patch hop distances for ``orphans``; ``(patched, changed)``.

    ``patched`` is a fresh ``array('i')`` row, bit-identical to
    ``csr_bfs_distances(csr, mask, source)`` for the source ``base``
    was computed from; ``changed`` lists (sorted) the orphans whose
    distance differs from the base — orphans with an equally short
    surviving detour are *not* changed, only re-verified.

    Dispatching wrapper: the orphan set is materialised once (its
    size feeds the measured dispatch table) and the call served by
    the chosen kernel backend (:mod:`repro.backends`).
    """
    orph = list(orphans)
    impl = kernel_impl("csr_bfs_repair", csr, len(orph))
    return impl(csr, mask, base, orph)


def csr_bfs_repair_loops(csr: CSRGraph, mask: Optional[bytearray],
                         base: Sequence[int], orphans: Iterable[int]
                         ) -> Tuple[HopRow, List[int]]:
    """The bucketed loop implementation (the ``pyloops`` backend).

    Patches an ``array('i')`` copy of ``base`` in place: copying an
    array row is a memcpy, and the loop writes only the orphans.
    """
    indptr, indices = csr.indptr, csr.indices
    aff = set(orphans)
    patched = array("i", base)
    unreachable = UNREACHABLE
    for v in aff:
        patched[v] = unreachable
    # Seed: best surviving intact->orphan entry per orphan, bucketed
    # by the (exact) distance it proposes.
    buckets: Dict[int, List[int]] = {}
    levels: List[int] = []
    push, pop = heapq.heappush, heapq.heappop
    for v in aff:
        best = -1
        for i in range(indptr[v], indptr[v + 1]):
            if mask is not None and not mask[i]:
                continue
            u = indices[i]
            if u in aff:
                continue
            du = patched[u]
            if du >= 0 and (best < 0 or du + 1 < best):
                best = du + 1
        if best >= 0:
            bucket = buckets.get(best)
            if bucket is None:
                buckets[best] = bucket = []
                push(levels, best)
            bucket.append(v)
    # Settle: multi-source BFS with level offsets, restricted to the
    # orphaned region.  Processing level L only ever creates level
    # L + 1, and the heap interleaves those with later seed levels, so
    # levels are settled in ascending order — each orphan's first
    # assignment is its true distance.
    buckets_pop = buckets.pop
    buckets_get = buckets.get
    while levels:
        depth = pop(levels)
        queue = buckets_pop(depth, ())
        nxt_depth = depth + 1
        for v in queue:
            if patched[v] >= 0:
                continue
            patched[v] = depth
            for i in range(indptr[v], indptr[v + 1]):
                if mask is not None and not mask[i]:
                    continue
                w = indices[i]
                if w in aff and patched[w] < 0:
                    bucket = buckets_get(nxt_depth)
                    if bucket is None:
                        buckets[nxt_depth] = bucket = []
                        push(levels, nxt_depth)
                    bucket.append(w)
    changed = sorted(v for v in aff if patched[v] != base[v])
    return patched, changed


def csr_dijkstra_repair(csr: CSRGraph, mask: Optional[bytearray],
                        base: List[int], orphans: Iterable[int]
                        ) -> Tuple[List[int], List[int]]:
    """Patch weighted distances for ``orphans``; ``(patched, changed)``.

    The weighted sibling of :func:`csr_bfs_repair`: bit-identical to
    ``csr_weighted_distances(csr, mask, source)`` (and to the dense
    rendering of ``csr_dijkstra_flat``'s distance map).  The snapshot
    must carry a flat ``weights`` array; antisymmetric arrays repair
    exactly (seed arcs are read in the intact->orphan direction via
    the reverse arc position).

    Dispatching wrapper over the kernel backend seam, like
    :func:`csr_bfs_repair`.
    """
    orph = list(orphans)
    impl = kernel_impl("csr_dijkstra_repair", csr, len(orph))
    return impl(csr, mask, base, orph)


def csr_dijkstra_repair_loops(csr: CSRGraph, mask: Optional[bytearray],
                              base: List[int], orphans: Iterable[int]
                              ) -> Tuple[List[int], List[int]]:
    """The heap-based loop implementation (the ``pyloops`` backend)."""
    weights = flat_weights(csr)
    indptr, indices = csr.indptr, csr.indices
    arc_positions = csr.arc_positions
    aff = set(orphans)
    patched = list(base)
    unreachable = UNREACHABLE
    for v in aff:
        patched[v] = unreachable
    tentative: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    for v in aff:
        best: Optional[int] = None
        for i in range(indptr[v], indptr[v + 1]):
            if mask is not None and not mask[i]:
                continue
            u = indices[i]
            if u in aff:
                continue
            du = patched[u]
            if du < 0:
                continue
            # Scanning v's row yields the arc (v, u); the seed needs
            # w(u, v) — look the reverse arc up so antisymmetric
            # snapshots repair exactly.
            pos = arc_positions(u, v)
            if pos is None:  # pragma: no cover - (v, u) is a scanned arc
                continue
            cand = du + weights[pos[0] if u < v else pos[1]]
            if best is None or cand < best:
                best = cand
        if best is not None:
            tentative[v] = best
            push(heap, (best, v))
    tentative_get = tentative.get
    while heap:
        d, v = pop(heap)
        if patched[v] >= 0:
            continue
        patched[v] = d
        for i in range(indptr[v], indptr[v + 1]):
            if mask is not None and not mask[i]:
                continue
            w = indices[i]
            if w not in aff or patched[w] >= 0:
                continue
            cand = d + weights[i]
            known = tentative_get(w)
            if known is None or cand < known:
                tentative[w] = cand
                push(heap, (cand, w))
    changed = sorted(v for v in aff if patched[v] != base[v])
    return patched, changed
