"""Batched multi-source traversal kernels over CSR snapshots.

The third rung of the CSR performance ladder (PR 1 unweighted, PR 2
weighted): the library's dominant workloads — APSP sweeps, DSO
preprocessing, replacement-path pair streams — ask for distance vectors
from *many* sources over the *same* (possibly masked) snapshot.  The
per-source kernels in :mod:`repro.spt.fastpaths` re-pay Python-level
frontier overhead per source; the kernels here amortise it across the
whole batch:

* :func:`csr_bfs_distances_many` — level-synchronous BFS with
  **bit-packed frontiers**: one Python int per vertex holds one bit per
  source, so a single sweep over the arc array advances *every* source
  one level (word-parallel ``|=`` across the batch).  A vertex is
  re-expanded only at depths where some source newly discovers it, so
  on low-diameter graphs the arc array is swept ~``diameter`` times
  total instead of once per source.
* :func:`csr_weighted_distances_many` — the weighted analogue cannot
  share frontiers (heap orders differ per source), so it amortises the
  other per-source costs instead: the masked snapshot, the dense
  ``dist``/``tentative`` scratch arrays (reset via a touched-list, not
  reallocated), and the heap list are shared across the batch, and
  duplicate sources are traversed once.
* :func:`csr_dijkstra_flat_many` — same amortisation for the
  ``(dist, parent)``-producing flat Dijkstra, the kernel behind batched
  selected-tree construction (e.g. the two trees per pair in
  Algorithm 1's candidate sweep).

Correctness contract, enforced by the hypothesis cross-checks in
``tests/test_batched_sources.py``: every kernel is **bit-identical**
to mapping its per-source sibling over the batch — for every graph,
every arc mask, and every ragged source batch (empty, singleton, all
vertices, duplicates).
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.backends.api import HopRow
from repro.backends.dispatch import kernel_impl
from repro.graphs.csr import CSRGraph
from repro.spt.fastpaths import UNREACHABLE, _check_source, flat_weights

__all__ = [
    "csr_bfs_distances_many",
    "csr_weighted_distances_many",
    "csr_dijkstra_flat_many",
]


def csr_bfs_distances_many(csr: CSRGraph, mask: Optional[bytearray],
                           sources: Iterable[int]) -> List[HopRow]:
    """Hop-distance rows (``array('i')``) for a batch of sources in one
    BFS wave.

    Dispatching wrapper: the batch is materialised once (its width
    feeds the measured dispatch table) and served by whichever
    kernel backend (:mod:`repro.backends`) wins at this work size —
    the bit-packed loops below or the vectorized 2-D frontier matrix
    — with bit-identical results either way.
    """
    src = list(sources)
    impl = kernel_impl("csr_bfs_distances_many", csr, len(src))
    return impl(csr, mask, src)


def csr_weighted_distances_many(csr: CSRGraph, mask: Optional[bytearray],
                                sources: Iterable[int]) -> List[List[int]]:
    """Dense weighted distance vectors for a batch of sources.

    Dispatching wrapper over the kernel backend seam; see
    :func:`csr_weighted_distances_many_loops` for the loop semantics
    every backend is pinned to.
    """
    src = list(sources)
    impl = kernel_impl("csr_weighted_distances_many", csr, len(src))
    return impl(csr, mask, src)


def csr_dijkstra_flat_many(csr: CSRGraph, mask: Optional[bytearray],
                           sources: Iterable[int]
                           ) -> List[Tuple[Dict[int, int],
                                           Dict[int, Optional[int]]]]:
    """Batched :func:`repro.spt.fastpaths.csr_dijkstra_flat`.

    Dispatching wrapper over the kernel backend seam; see
    :func:`csr_dijkstra_flat_many_loops` for the loop semantics every
    backend is pinned to.
    """
    src = list(sources)
    impl = kernel_impl("csr_dijkstra_flat_many", csr, len(src))
    return impl(csr, mask, src)

# Bit offsets set in each byte value: the row-write loop decodes a wide
# discovery mask byte-by-byte through this table instead of peeling one
# bit at a time with big-int arithmetic (a discovery mask is n_sources
# bits; peeling costs O(words) *per bit*, the table costs O(bytes) per
# mask plus O(1) per set bit).
_BYTE_BITS = tuple(
    tuple(j for j in range(8) if b >> j & 1) for b in range(256)
)

# A sparse arc mask (a scenario zeroes <= 2|F| positions) is cheaper to
# handle as an exception list than by testing every arc: below this
# many zeroed positions the BFS wave sweeps rows with the unmasked fast
# loop and falls back to the masked loop only for the few rows that
# actually contain a blocked arc.
_SPARSE_MASK_ZEROS = 32


def _blocked_rows(indptr: List[int],
                  mask: bytearray) -> Optional[frozenset]:
    """Rows containing a zeroed arc, or None when the mask is dense.

    The scan runs at C speed (``bytearray.index``) and each hit maps
    back to its row with one bisection on ``indptr``.
    """
    zeros: List[int] = []
    append = zeros.append
    find = mask.index
    limit = _SPARSE_MASK_ZEROS
    start = 0
    while True:
        # The ValueError protocol is what makes bytearray.index usable as
        # a C-speed scan-for-next-zero; the loop runs at most limit+1
        # times, so the per-iteration setup cost never compounds.
        try:  # reprolint: disable=hot-try-in-loop
            pos = find(0, start)
        except ValueError:
            break
        append(pos)
        if len(zeros) > limit:
            return None
        start = pos + 1
    return frozenset(bisect_right(indptr, pos) - 1 for pos in zeros)


def csr_bfs_distances_many_loops(csr: CSRGraph, mask: Optional[bytearray],
                                 sources: Iterable[int]) -> List[HopRow]:
    """The bit-packed loop implementation (the ``pyloops`` backend).

    Returns one dense ``array('i')`` row per source, aligned with the
    input order (duplicates included), each bit-identical to
    ``csr_bfs_distances(csr, mask, source)``.  Rows are built as lists
    and converted once at return.

    The frontier of source ``j`` is bit ``j`` of a per-vertex Python
    int, so the level loop advances all sources at once: each arc
    ``(u, v)`` swept ORs ``frontier[u]`` into a gather word for ``v``,
    and the bits of ``gather[v] & ~seen[v]`` are exactly the sources
    discovering ``v`` at the current depth.  Arbitrary-precision ints
    make the batch width unbounded; the OR is word-parallel across
    ~64 sources per machine word.
    """
    sources = list(sources)
    check = _check_source
    for s in sources:
        check(csr, s)
    if not sources:
        return []
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    dists = [[UNREACHABLE] * n for _ in sources]
    nbytes = (len(sources) + 7) >> 3
    byte_bits = _BYTE_BITS
    # Rows grouped by byte of the discovery mask, so the write loop
    # indexes a chunk by a 0..7 offset instead of computing base + off.
    chunks = [dists[i:i + 8] for i in range(0, len(sources), 8)]
    frontier = [0] * n
    seen = [0] * n
    gather = [0] * n
    active: List[int] = []
    for j, s in enumerate(sources):
        dists[j][s] = 0
        if not frontier[s]:
            active.append(s)
        bit = 1 << j
        frontier[s] |= bit
        seen[s] |= bit
    # Sparse masks (the scenario case: <= 2|F| zeroed arcs) degrade to
    # an exception set of rows, so almost every row still takes the
    # unmasked fast sweep.
    blocked = None if mask is None else _blocked_rows(indptr, mask)
    depth = 0
    while active:
        depth += 1
        touched: List[int] = []
        if mask is None:
            for u in active:
                fu = frontier[u]
                for v in indices[indptr[u]:indptr[u + 1]]:
                    if not gather[v]:
                        touched.append(v)
                    gather[v] |= fu
        elif blocked is not None:
            for u in active:
                fu = frontier[u]
                if u in blocked:
                    lo, hi = indptr[u], indptr[u + 1]
                    for v, ok in zip(indices[lo:hi], mask[lo:hi]):
                        if ok:
                            if not gather[v]:
                                touched.append(v)
                            gather[v] |= fu
                else:
                    for v in indices[indptr[u]:indptr[u + 1]]:
                        if not gather[v]:
                            touched.append(v)
                        gather[v] |= fu
        else:
            for u in active:
                fu = frontier[u]
                lo, hi = indptr[u], indptr[u + 1]
                for v, ok in zip(indices[lo:hi], mask[lo:hi]):
                    if ok:
                        if not gather[v]:
                            touched.append(v)
                        gather[v] |= fu
        for u in active:
            frontier[u] = 0
        active = []
        for v in touched:
            fresh = gather[v] & ~seen[v]
            gather[v] = 0
            if fresh:
                seen[v] |= fresh
                frontier[v] = fresh
                active.append(v)
                if fresh.bit_length() > 64:
                    # Wide mask: one byte-table scan writes every row.
                    bi = 0
                    for byte in fresh.to_bytes(nbytes, "little"):
                        if byte:
                            chunk = chunks[bi]
                            for off in byte_bits[byte]:
                                chunk[off][v] = depth
                        bi += 1
                else:
                    # Narrow mask: peel the set bits directly.
                    while fresh:
                        low = fresh & -fresh
                        dists[low.bit_length() - 1][v] = depth
                        fresh ^= low
    return [array("i", row) for row in dists]


def csr_weighted_distances_many_loops(csr: CSRGraph,
                                      mask: Optional[bytearray],
                                      sources: Iterable[int]
                                      ) -> List[List[int]]:
    """The scratch-reusing loop implementation (``pyloops`` backend).

    One vector per source, aligned with the input order, each
    bit-identical to ``csr_weighted_distances(csr, mask, source)``.

    Dijkstra frontiers cannot be bit-packed (each source settles in its
    own weight order), so the batch win is amortisation: the dense
    ``dist``/``tentative`` scratch arrays are allocated once and reset
    via a touched-list between sources, the heap list is reused, and a
    source appearing twice is traversed once (its second row is a
    copy).  Callers holding one arc mask for the whole batch — the
    scenario engine's ``source_vectors`` — amortise the O(|F|) mask
    setup across every source as well.
    """
    sources = list(sources)
    check = _check_source
    for s in sources:
        check(csr, s)
    if not sources:
        return []
    weights = flat_weights(csr)
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    dist: List[int] = [UNREACHABLE] * n
    tentative: List[Optional[int]] = [None] * n
    heap: List[Tuple[int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    heap_append = heap.append
    dist_copy = dist.copy
    unreachable = UNREACHABLE
    rows: Dict[int, List[int]] = {}
    for s in sources:
        if s in rows:
            continue
        touched = [s]
        tentative[s] = 0
        heap_append((0, s))
        if mask is None:
            while heap:
                d, u = pop(heap)
                if dist[u] >= 0:
                    continue
                dist[u] = d
                for i in range(indptr[u], indptr[u + 1]):
                    v = indices[i]
                    if dist[v] >= 0:
                        continue
                    candidate = d + weights[i]
                    known = tentative[v]
                    if known is None or candidate < known:
                        if known is None:
                            touched.append(v)
                        tentative[v] = candidate
                        push(heap, (candidate, v))
        else:
            while heap:
                d, u = pop(heap)
                if dist[u] >= 0:
                    continue
                dist[u] = d
                for i in range(indptr[u], indptr[u + 1]):
                    if not mask[i]:
                        continue
                    v = indices[i]
                    if dist[v] >= 0:
                        continue
                    candidate = d + weights[i]
                    known = tentative[v]
                    if known is None or candidate < known:
                        if known is None:
                            touched.append(v)
                        tentative[v] = candidate
                        push(heap, (candidate, v))
        rows[s] = dist_copy()
        for v in touched:
            dist[v] = unreachable
            tentative[v] = None
    emitted: Set[int] = set()
    out: List[List[int]] = []
    emit = out.append
    seen = emitted.add
    for s in sources:
        emit(rows[s] if s not in emitted else list(rows[s]))
        seen(s)
    return out


def csr_dijkstra_flat_many_loops(csr: CSRGraph, mask: Optional[bytearray],
                                 sources: Iterable[int]
                                 ) -> List[Tuple[Dict[int, int],
                                                 Dict[int, Optional[int]]]]:
    """The scratch-reusing loop implementation (``pyloops`` backend).

    One ``(dist, parent)`` pair per source, aligned with the input
    order and bit-identical to the per-source kernel (no ``targets``
    early exit — batch consumers want full trees).  The ``settled`` /
    ``tentative`` / ``tentative_parent`` scratch arrays and the heap
    are shared across the batch and reset via a touched-list; duplicate
    sources are traversed once and returned as dict copies.
    """
    sources = list(sources)
    check = _check_source
    for s in sources:
        check(csr, s)
    if not sources:
        return []
    weights = flat_weights(csr)
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    settled = [False] * n
    tentative: List[Optional[int]] = [None] * n
    tentative_parent: List[Optional[int]] = [None] * n
    heap: List[Tuple[int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    heap_append = heap.append
    done: Dict[int, Tuple[Dict[int, int], Dict[int, Optional[int]]]] = {}
    for s in sources:
        if s in done:
            continue
        dist: Dict[int, int] = {}
        parent: Dict[int, Optional[int]] = {}
        touched = [s]
        tentative[s] = 0
        heap_append((0, s))
        while heap:
            d, u = pop(heap)
            if settled[u]:
                continue
            settled[u] = True
            dist[u] = d
            parent[u] = tentative_parent[u]
            for i in range(indptr[u], indptr[u + 1]):
                if mask is not None and not mask[i]:
                    continue
                v = indices[i]
                if settled[v]:
                    continue
                candidate = d + weights[i]
                known = tentative[v]
                if known is None or candidate < known:
                    if known is None:
                        touched.append(v)
                    tentative[v] = candidate
                    tentative_parent[v] = u
                    push(heap, (candidate, v))
        done[s] = (dist, parent)
        for v in touched:
            settled[v] = False
            tentative[v] = None
            tentative_parent[v] = None
    emitted: Set[int] = set()
    out: List[Tuple[Dict[int, int], Dict[int, Optional[int]]]] = []
    emit = out.append
    seen = emitted.add
    for s in sources:
        dist, parent = done[s]
        emit((dist, parent) if s not in emitted
             else (dict(dist), dict(parent)))
        seen(s)
    return out
