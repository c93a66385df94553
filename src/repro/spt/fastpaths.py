"""Array-based BFS/Dijkstra inner loops over CSR snapshots.

These are the traversal kernels behind the batched fault-scenario
engine: the public entry points in :mod:`repro.spt.bfs` and
:mod:`repro.spt.dijkstra` dispatch here whenever the input graph
exposes a CSR fast path (see :func:`repro.graphs.csr.as_csr`), and fall
back to the generic ``GraphLike`` reference loops otherwise.

Correctness contract, enforced by the randomized cross-check tests:

* ``bfs_distances`` / ``hop_distance`` / ``bfs_layers`` — identical
  output to the reference for every graph and fault set (hop distances
  are independent of traversal order).
* ``bfs_tree`` — identical parent maps: CSR rows are stored sorted, so
  the level-synchronous loop below discovers vertices in exactly the
  FIFO + ``sorted_neighbors`` order of the reference.
* ``dijkstra`` — identical distance maps always; identical parent maps
  whenever the weight function yields unique shortest paths (the only
  regime the tiebreaking layer uses).  Under non-unique weights the
  parent choice may legitimately differ, as it already does between
  ``Graph`` and ``FaultView`` traversal orders.
* ``csr_dijkstra_flat`` and the weighted-vector kernels — same contract
  as ``dijkstra``, but arc weights come from the snapshot's flat
  ``weights`` array (see :class:`repro.graphs.csr.CSRGraph`) instead of
  a per-arc Python callable.  This is the weighted analogue of the BFS
  fast path: zero interpreter frames per arc, positivity validated once
  at snapshot construction.

All loops index plain Python lists of machine ints; the arc mask (a
``bytearray`` with one flag per directed arc) is consulted inline, so a
fault scenario costs O(|F|) setup and zero per-arc canonicalisation.
A dense hop-distance row leaves a kernel as an ``array('i')``
(:data:`~repro.backends.api.HopRow`, 4 bytes a slot), converted once
at return; dense weighted rows stay lists.

Every kernel here is *single-source*.  The batched multi-source
siblings — bit-packed frontier BFS and scratch-reusing weighted
batches, bit-identical to mapping these kernels over the source
batch — live in :mod:`repro.spt.batched`.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.backends.api import HopRow
from repro.backends.dispatch import kernel_impl
from repro.exceptions import GraphError
from repro.graphs.csr import CSRGraph

UNREACHABLE = -1


def _check_source(csr: CSRGraph, source: int, role: str = "source") -> None:
    if not csr.has_vertex(source):
        raise GraphError(f"unknown {role} vertex {source}")


def csr_bfs_distances(csr: CSRGraph, mask: Optional[bytearray],
                      source: int) -> HopRow:
    """Hop distances from ``source`` over a (possibly masked) snapshot.

    An ``array('i')`` row, ``UNREACHABLE`` where cut off.

    Dispatching wrapper: the call is served by whichever kernel
    backend (:mod:`repro.backends`) the measured dispatch table picks
    for this snapshot's size — the loops below
    (:func:`csr_bfs_distances_loops`) or the vectorized sibling —
    with bit-identical results either way.
    """
    return kernel_impl("csr_bfs_distances", csr)(csr, mask, source)


def csr_bfs_distances_loops(csr: CSRGraph, mask: Optional[bytearray],
                            source: int) -> HopRow:
    """The pure-Python loop implementation (the ``pyloops`` backend)."""
    _check_source(csr, source)
    indptr, indices = csr.indptr, csr.indices
    dist = [UNREACHABLE] * csr.n
    dist[source] = 0
    frontier = [source]
    depth = 0
    if mask is None:
        while frontier:
            depth += 1
            nxt: List[int] = []
            for u in frontier:
                for v in indices[indptr[u]:indptr[u + 1]]:
                    if dist[v] < 0:
                        dist[v] = depth
                        nxt.append(v)
            frontier = nxt
    else:
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                lo, hi = indptr[u], indptr[u + 1]
                for v, ok in zip(indices[lo:hi], mask[lo:hi]):
                    if ok and dist[v] < 0:
                        dist[v] = depth
                        nxt.append(v)
            frontier = nxt
    return array("i", dist)


def csr_bfs_tree(csr: CSRGraph, mask: Optional[bytearray],
                 source: int) -> Dict[int, Optional[int]]:
    """Deterministic BFS parent map (smallest-id parent wins).

    CSR rows are sorted, and the level-synchronous expansion below
    visits frontier vertices in discovery order — exactly the FIFO
    queue order of the reference ``bfs_tree`` — so parent assignments
    match it vertex for vertex.
    """
    _check_source(csr, source)
    indptr, indices = csr.indptr, csr.indices
    seen = [False] * csr.n
    seen[source] = True
    parent: Dict[int, Optional[int]] = {source: None}
    frontier = [source]
    while frontier:
        nxt: List[int] = []
        for u in frontier:
            lo, hi = indptr[u], indptr[u + 1]
            row = indices[lo:hi] if mask is None else [
                v for v, ok in zip(indices[lo:hi], mask[lo:hi]) if ok
            ]
            for v in row:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    return parent


def csr_hop_distance(csr: CSRGraph, mask: Optional[bytearray],
                     source: int, target: int) -> int:
    """Early-exit pairwise hop distance (``UNREACHABLE`` if cut off)."""
    _check_source(csr, source)
    _check_source(csr, target, role="target")
    if source == target:
        return 0
    indptr, indices = csr.indptr, csr.indices
    dist = [UNREACHABLE] * csr.n
    dist[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        nxt: List[int] = []
        for u in frontier:
            lo, hi = indptr[u], indptr[u + 1]
            row = indices[lo:hi] if mask is None else (
                v for v, ok in zip(indices[lo:hi], mask[lo:hi]) if ok
            )
            for v in row:
                if dist[v] < 0:
                    if v == target:
                        return depth
                    dist[v] = depth
                    nxt.append(v)
        frontier = nxt
    return UNREACHABLE


def csr_dijkstra(csr: CSRGraph, mask: Optional[bytearray], source: int,
                 weight: Callable[[int, int], int],
                 targets: Optional[Iterable[int]] = None
                 ) -> Tuple[Dict[int, int], Dict[int, Optional[int]]]:
    """Single-source Dijkstra over a (possibly masked) snapshot.

    Same semantics and return shape as the reference
    :func:`repro.spt.dijkstra.dijkstra`; only the adjacency scan
    differs (flat arrays + inline mask test instead of per-arc
    canonicalisation).
    """
    _check_source(csr, source)
    indptr, indices = csr.indptr, csr.indices
    remaining = set(targets) if targets is not None else None
    settled = [False] * csr.n
    dist: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {}
    tentative: List[Optional[int]] = [None] * csr.n
    tentative_parent: List[Optional[int]] = [None] * csr.n
    tentative[source] = 0
    heap = [(0, source)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = True
        dist[u] = d
        parent[u] = tentative_parent[u]
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        lo, hi = indptr[u], indptr[u + 1]
        row = indices[lo:hi] if mask is None else (
            v for v, ok in zip(indices[lo:hi], mask[lo:hi]) if ok
        )
        for v in row:
            if settled[v]:
                continue
            w = weight(u, v)
            if w <= 0:
                raise GraphError(
                    f"non-positive arc weight {w} on ({u}, {v})"
                )
            candidate = d + w
            known = tentative[v]
            if known is None or candidate < known:
                tentative[v] = candidate
                tentative_parent[v] = u
                push(heap, (candidate, v))
    return dist, parent


def flat_weights(csr: CSRGraph) -> List[int]:
    """The snapshot's flat per-arc weights array (raises if absent).

    The one shared guard for every kernel that reads weights by arc
    index — the flat Dijkstra family below, the batched siblings in
    :mod:`repro.spt.batched`, and the delta-repair kernels in
    :mod:`repro.incremental.repair`.
    """
    if csr.weights is None:
        raise GraphError("snapshot carries no weights array")
    return csr.weights



def csr_dijkstra_flat(csr: CSRGraph, mask: Optional[bytearray],
                      source: int, targets: Optional[Iterable[int]] = None
                      ) -> Tuple[Dict[int, int], Dict[int, Optional[int]]]:
    """Single-source Dijkstra reading weights from the flat arc array.

    Same semantics and return shape as :func:`csr_dijkstra`, but the
    snapshot must carry a ``weights`` array.  Dispatching wrapper:
    full-tree calls (``targets is None``) go through the kernel
    backend seam (:mod:`repro.backends`); targeted calls always run
    the loops (:func:`csr_dijkstra_flat_loops`) — the early exit is
    inherently sequential.
    """
    if targets is not None:
        return csr_dijkstra_flat_loops(csr, mask, source, targets)
    return kernel_impl("csr_dijkstra_flat", csr)(csr, mask, source)


def csr_dijkstra_flat_loops(csr: CSRGraph, mask: Optional[bytearray],
                            source: int,
                            targets: Optional[Iterable[int]] = None
                            ) -> Tuple[Dict[int, int],
                                       Dict[int, Optional[int]]]:
    """The pure-Python loop implementation (the ``pyloops`` backend).

    The inner loop reads ``weights[i]`` by index instead of calling a
    Python weight function per arc.  Weight positivity was validated
    when the array was built, so no per-arc check is needed.
    """
    _check_source(csr, source)
    weights = flat_weights(csr)
    indptr, indices = csr.indptr, csr.indices
    remaining = set(targets) if targets is not None else None
    settled = [False] * csr.n
    dist: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {}
    tentative: List[Optional[int]] = [None] * csr.n
    tentative_parent: List[Optional[int]] = [None] * csr.n
    tentative[source] = 0
    heap = [(0, source)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = True
        dist[u] = d
        parent[u] = tentative_parent[u]
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for i in range(indptr[u], indptr[u + 1]):
            if mask is not None and not mask[i]:
                continue
            v = indices[i]
            if settled[v]:
                continue
            candidate = d + weights[i]
            known = tentative[v]
            if known is None or candidate < known:
                tentative[v] = candidate
                tentative_parent[v] = u
                push(heap, (candidate, v))
    return dist, parent


def csr_weighted_distances(csr: CSRGraph, mask: Optional[bytearray],
                           source: int) -> List[int]:
    """Dense weighted distance vector (``UNREACHABLE`` where cut off).

    The weighted analogue of :func:`csr_bfs_distances` — the scenario
    engine's hot path for weighted streams: no parent bookkeeping, no
    dict results, just one flat vector per scenario.  Dispatching
    wrapper over the kernel backend seam (:mod:`repro.backends`).
    """
    return kernel_impl("csr_weighted_distances", csr)(csr, mask, source)


def csr_weighted_distances_loops(csr: CSRGraph, mask: Optional[bytearray],
                                 source: int) -> List[int]:
    """The pure-Python loop implementation (the ``pyloops`` backend)."""
    _check_source(csr, source)
    weights = flat_weights(csr)
    indptr, indices = csr.indptr, csr.indices
    dist = [UNREACHABLE] * csr.n
    tentative: List[Optional[int]] = [None] * csr.n
    tentative[source] = 0
    heap = [(0, source)]
    push, pop = heapq.heappush, heapq.heappop
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
                    tentative[v] = candidate
                    push(heap, (candidate, v))
    return dist


def csr_weighted_distance(csr: CSRGraph, mask: Optional[bytearray],
                          source: int, target: int) -> int:
    """Early-exit pairwise weighted distance (``UNREACHABLE`` if cut off)."""
    _check_source(csr, source)
    _check_source(csr, target, role="target")
    if source == target:
        return 0
    weights = flat_weights(csr)
    indptr, indices = csr.indptr, csr.indices
    settled = [False] * csr.n
    tentative: List[Optional[int]] = [None] * csr.n
    tentative[source] = 0
    heap = [(0, source)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        if u == target:
            return d
        settled[u] = True
        for i in range(indptr[u], indptr[u + 1]):
            if mask is not None and not mask[i]:
                continue
            v = indices[i]
            if settled[v]:
                continue
            candidate = d + weights[i]
            known = tentative[v]
            if known is None or candidate < known:
                tentative[v] = candidate
                push(heap, (candidate, v))
    return UNREACHABLE


def csr_count_min_weight_paths(csr: CSRGraph, mask: Optional[bytearray],
                               source: int) -> Dict[int, int]:
    """Flat-array variant of
    :func:`repro.spt.dijkstra.count_min_weight_paths`.

    Counts are pushed *forward* along tight arcs in settling order —
    every tight arc ``(u, v)`` has ``dist[u] < dist[v]`` strictly
    (positive weights), so ``count[u]`` is final when ``u`` is
    processed.  This visits each arc once from its tail row, which is
    what lets an antisymmetric weights array be read by index (the
    reference's backward formulation would need the reverse arc's
    position).  Output is identical to the reference.
    """
    dist, _ = csr_dijkstra_flat(csr, mask, source)
    weights = flat_weights(csr)
    indptr, indices = csr.indptr, csr.indices
    count = {v: 0 for v in dist}
    count[source] = 1
    dist_get = dist.get
    for u in sorted(dist, key=dist.__getitem__):
        cu = count[u]
        du = dist[u]
        for i in range(indptr[u], indptr[u + 1]):
            if mask is not None and not mask[i]:
                continue
            v = indices[i]
            if dist_get(v) == du + weights[i]:
                count[v] += cu
    return count
