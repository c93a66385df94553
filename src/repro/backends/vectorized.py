"""numpy-vectorised kernel backend over cached CSR ndarray mirrors.

Every kernel here is pinned **bit-identical** to its pure-Python
sibling (the ``pyloops`` backend) by the hypothesis cross-check suites
— exact int distances, the same ``UNREACHABLE`` sentinels, the same
documented parent tie-breaks.  The speed comes from replacing the
per-arc interpreter frames with whole-frontier array sweeps:

* **Ragged frontier gather** — a frontier's arc ids are materialised
  in one shot from ``indptr`` fancy-indexing plus an
  ``arange``/``np.repeat`` segment trick (:func:`_arc_ids`); the arc
  mask is lifted once per call to a boolean array and applied as a
  single filter.
* **BFS** (:func:`csr_bfs_distances`) — level-synchronous boolean
  frontier: gather the frontier's arc heads, drop seen vertices,
  stamp the depth.
* **Multi-source BFS** (:func:`csr_bfs_distances_many`) — a
  direction-optimizing bit-packed wave over word-major
  ``(ceil(S/64), n)`` uint64 frontier/seen matrices, with no sort
  anywhere.  Dense levels *pull*: arc sets are symmetric, so gathering
  the frontier at ``indices`` lists every row's in-neighbour bits
  contiguously and one ``np.bitwise_or.reduceat`` ORs them per row.
  Sparse levels *push* the frontier's own arcs with
  ``np.bitwise_or.at``.  Depths are bit-sliced into a few planes and
  decoded into the ``(S, n)`` output once, after the last level.
* **Weighted distances** (:func:`csr_weighted_distances`) —
  frontier-restricted label-correcting (Bellman–Ford on the active
  set): each round relaxes every out-arc of the vertices whose
  tentative distance just improved, with one ``np.minimum.at`` per
  round.  Distances only ever decrease and the unique fixpoint *is*
  the Dijkstra distance vector, so the result is bit-identical to the
  heap loop even though the settling order differs; round count tracks
  the hop depth of the shortest-path tree, not ``n``.
* **Parent trees** (:func:`csr_dijkstra_flat`) — parents are derived
  after the distance pass as an argmin over *tight* in-arcs
  (``dist[u] + w(u, v) == dist[v]``) with ``(dist[u], u)`` as the
  tie-break.  Under unique shortest paths — the only regime the
  documented contract covers, and the only one the tiebreaking layer
  uses — the tight in-arc is unique, so this matches the heap loop's
  parents exactly.
* **Delta repair** (:func:`csr_bfs_repair` /
  :func:`csr_dijkstra_repair`) — the orphaned region is compacted to
  ``0..k-1``; seeds are gathered from every surviving intact→orphan
  arc (weighted seeds read the reverse arc's weight through the
  mirror's ``rev`` permutation, so antisymmetric snapshots repair
  exactly), then label-correcting rounds run entirely inside the
  ``k``-vector — per-round cost scales with the region, not ``n``.

All distances are computed in int64 with ``_INF = 2**62`` as the
internal unreached sentinel; the dispatcher never routes a snapshot
here whose weights could overflow that headroom (see
``repro.backends.dispatch``), and a forced route raises
:class:`~repro.exceptions.BackendError` instead of silently wrapping.
Hop rows leave as ``array('i')`` built straight from the ``np.intc``
buffer (:func:`_hop_row`), the loops' row type; weighted outputs are
converted with ``.tolist()``.  Indexing either yields plain Python
ints, exactly like the loops.
"""

from __future__ import annotations

from array import array
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.backends.api import (
    UNREACHABLE, HopRow, check_source, numpy_or_none,
)
from repro.exceptions import BackendError, GraphError
from repro.graphs.csr import CSRGraph

__all__ = ["VectorizedBackend"]

#: Internal "not yet settled" sentinel.  Large enough that no real
#: distance reaches it (the dispatcher guards ``max_weight * n`` against
#: it), small enough that one further int64 addition cannot wrap.
_INF = 1 << 62

#: The multi-source wave pulls a level (every row ORs its in-neighbours'
#: frontier words) when the frontier's out-arcs exceed ``arcs /
#: _PULL_DIVISOR``, and pushes along the frontier's own arcs otherwise.
#: Pulling every level loses on long paths and pushing every level on
#: random and grid graphs; divisors from 4 to 64 time alike on both.
_PULL_DIVISOR = 16


def _require_numpy() -> Any:
    np = numpy_or_none()
    if np is None:
        raise BackendError("vectorized backend requires numpy")
    return np


def _mirror(np: Any, csr: CSRGraph) -> Any:
    nd = csr.ndarrays()
    if nd is None:  # pragma: no cover - numpy vanished mid-call
        raise BackendError("vectorized backend requires numpy")
    return nd


def _weights_of(csr: CSRGraph, nd: Any) -> Any:
    """The mirror's int64 weights (same guards as ``flat_weights``).

    Raises :class:`GraphError` on a weightless snapshot (matching the
    loops) and :class:`BackendError` when the weights — or any simple
    path's sum of them (< n arcs) — could overflow the ``_INF``
    headroom.  The ``auto`` dispatch mode never routes such snapshots
    here; a forced route fails loudly instead of wrapping.
    """
    if csr.weights is None:
        raise GraphError("snapshot carries no weights array")
    if nd.weights is None or nd.max_weight > (_INF - 1) // max(csr.n, 1):
        raise BackendError(
            "snapshot weights exceed the vectorized backend's int64 range")
    return nd.weights


def weighted_safe(csr: CSRGraph) -> bool:
    """True when the vectorized weighted kernels can serve ``csr``.

    The dispatcher's overflow guard: weights must fit int64 and every
    simple path sum (< n arcs) must stay under the ``_INF`` sentinel.
    """
    np = numpy_or_none()
    if np is None:
        return False
    nd = csr.ndarrays()
    return (nd is not None and nd.weights is not None
            and nd.max_weight <= (_INF - 1) // max(csr.n, 1))


def _hop_row(dist: Any) -> HopRow:
    """An ``array('i')`` copy of a 1-D ``np.intc`` distance row.

    ``np.intc`` is C ``int``, the same item as typecode ``'i'``, so
    the bytes copy across unchanged.
    """
    return array("i", dist.tobytes())


def _lift_mask(np: Any, mask: Optional[bytearray]) -> Any:
    """The arc mask as a boolean array (one lift per kernel call)."""
    if mask is None:
        return None
    return np.frombuffer(mask, dtype=np.uint8) != 0


def _arc_ids(np: Any, indptr: Any, rows: Any) -> Any:
    """Arc ids of every row in ``rows``, concatenated (ragged gather).

    ``arange(total)`` numbers the output positions; subtracting each
    segment's exclusive prefix and adding its row start turns them
    into per-row arc ranges without a Python-level loop.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if not total:
        return starts[:0]
    prefix = np.cumsum(counts) - counts
    return (np.arange(total, dtype=np.int64)
            + np.repeat(starts - prefix, counts))


def csr_bfs_distances(csr: CSRGraph, mask: Optional[bytearray],
                      source: int) -> HopRow:
    """Vectorised sibling of ``fastpaths.csr_bfs_distances``."""
    np = _require_numpy()
    check_source(csr, source)
    nd = _mirror(np, csr)
    indptr, indices = nd.indptr, nd.indices
    ok = _lift_mask(np, mask)
    dist = np.full(csr.n, UNREACHABLE, dtype=np.intc)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    flatnonzero = np.flatnonzero
    arc_ids = _arc_ids
    depth = 0
    while frontier.size:
        depth += 1
        idx = arc_ids(np, indptr, frontier)
        if ok is not None:
            idx = idx[ok[idx]]
        heads = indices[idx]
        newly = np.zeros(csr.n, dtype=np.bool_)
        newly[heads] = True
        newly &= dist < 0
        dist[newly] = depth
        frontier = flatnonzero(newly)
    return _hop_row(dist)


def _weighted_dist(np: Any, indptr: Any, indices: Any, tails: Any,
                   weights: Any, ok: Any, n: int, source: int) -> Any:
    """Dense int64 distance vector (``_INF`` = unreached) from ``source``.

    Frontier-restricted label-correcting: each round relaxes the
    out-arcs of every vertex whose tentative distance just improved
    (one ``np.minimum.at``), and the improved heads form the next
    round's frontier.  Tentative distances are monotonically
    decreasing integers, so the loop terminates, and the fixpoint —
    every surviving arc non-tight-improvable — is the unique shortest
    -path distance vector: bit-identical to the heap loop's values.
    """
    dist = np.full(n, _INF, dtype=np.int64)
    dist[source] = 0
    active = np.array([source], dtype=np.int64)
    minimum_at = np.minimum.at
    unique = np.unique
    arc_ids = _arc_ids
    while active.size:
        idx = arc_ids(np, indptr, active)
        if ok is not None:
            idx = idx[ok[idx]]
        heads = indices[idx]
        cand = dist[tails[idx]] + weights[idx]
        better = cand < dist[heads]
        heads = heads[better]
        if not heads.size:
            break
        minimum_at(dist, heads, cand[better])
        active = unique(heads)
    return dist


def csr_weighted_distances(csr: CSRGraph, mask: Optional[bytearray],
                           source: int) -> List[int]:
    """Vectorised sibling of ``fastpaths.csr_weighted_distances``."""
    np = _require_numpy()
    check_source(csr, source)
    nd = _mirror(np, csr)
    weights = _weights_of(csr, nd)
    ok = _lift_mask(np, mask)
    dist = _weighted_dist(np, nd.indptr, nd.indices, nd.tails, weights,
                          ok, csr.n, source)
    return np.where(dist >= _INF, UNREACHABLE, dist).tolist()


def _flat_result(np: Any, nd: Any, weights: Any, ok: Any, n: int,
                 source: int, dist: Any
                 ) -> Tuple[Dict[int, int], Dict[int, Optional[int]]]:
    """``(dist, parent)`` dicts from a dense distance vector.

    Parents are the argmin over tight in-arcs with ``(dist[u], u)`` as
    tie-break — identical to the heap loop under unique shortest paths
    (the documented contract's only regime).
    """
    tails, heads = nd.tails, nd.indices
    reached = dist < _INF
    live = reached[tails] & reached[heads]
    if ok is not None:
        live &= ok
    cand = np.flatnonzero(live)
    ct, ch = tails[cand], heads[cand]
    tight = dist[ct] + weights[cand] == dist[ch]
    ct, ch = ct[tight], ch[tight]
    minimum_at = np.minimum.at
    best_d = np.full(n, _INF, dtype=np.int64)
    minimum_at(best_d, ch, dist[ct])
    keep = dist[ct] == best_d[ch]
    ct, ch = ct[keep], ch[keep]
    best_u = np.full(n, n, dtype=np.int64)
    minimum_at(best_u, ch, ct)
    rv = np.flatnonzero(reached)
    order = np.lexsort((rv, dist[rv]))
    verts = rv[order].tolist()
    dist_map = dict(zip(verts, dist[rv][order].tolist()))
    parents = best_u[rv][order].tolist()
    parent_map: Dict[int, Optional[int]] = {
        v: (None if v == source else p) for v, p in zip(verts, parents)
    }
    return dist_map, parent_map


def csr_dijkstra_flat(csr: CSRGraph, mask: Optional[bytearray],
                      source: int
                      ) -> Tuple[Dict[int, int], Dict[int, Optional[int]]]:
    """Vectorised sibling of ``fastpaths.csr_dijkstra_flat``.

    No ``targets`` early exit — the public wrapper keeps targeted
    calls on the loops (early exit is inherently sequential).
    """
    np = _require_numpy()
    check_source(csr, source)
    nd = _mirror(np, csr)
    weights = _weights_of(csr, nd)
    ok = _lift_mask(np, mask)
    dist = _weighted_dist(np, nd.indptr, nd.indices, nd.tails, weights,
                          ok, csr.n, source)
    return _flat_result(np, nd, weights, ok, csr.n, source, dist)


def csr_bfs_distances_many(csr: CSRGraph, mask: Optional[bytearray],
                           sources: Iterable[int],
                           eccentricity: bool = False
                           ) -> Union[List[HopRow], List[int]]:
    """Vectorised sibling of ``batched.csr_bfs_distances_many``.

    The bit-packed wave as word-major ``(W, n)`` uint64 frontier and
    seen matrices, ``W = ceil(S / 64)``: bit ``j & 63`` of word row
    ``j >> 6`` is source ``j``.  Each level picks its direction from
    the frontier's out-arc count (Beamer et al., SC'12):

    * **pull** (frontier arcs > arcs / ``_PULL_DIVISOR``) — arc sets
      are symmetric, so row ``v`` lists ``v``'s in-neighbours and
      ``frontier.take(indices, axis=1)`` comes out grouped by row; one
      ``np.bitwise_or.reduceat`` at the non-empty rows' starts ORs
      every vertex's in-neighbour bits without a sort.  A masked arc
      ``p`` is honoured by zeroing its pull position ``rev[p]``, so
      one-orientation masks stay exact.
    * **push** — ``np.bitwise_or.at`` of the frontier's surviving
      arcs into their heads.

    Depths are bit-sliced: plane ``b`` holds bit ``b`` of ``depth + 1``
    for every discovered (source, vertex) bit, so a level ORs its
    fresh bits into one plane per set bit of ``depth + 1``.  The
    planes are decoded once, after the last level, into an ``(S, n)``
    ``np.intc`` matrix whose rows become the ``array('i')`` outputs; an
    undiscovered entry decodes to ``0 - 1 = UNREACHABLE``.

    With ``eccentricity=True`` the wave is reduced instead of decoded:
    no planes are kept and no rows are built.  Each level ORs the
    fresh frontier across vertices (``np.bitwise_or.reduce``), so lane
    ``j``'s last set level is its eccentricity; one
    ``np.bitwise_and.reduce`` of ``seen`` after the last level says
    which lanes reached all ``n`` vertices, and the others read
    ``UNREACHABLE``.
    """
    np = _require_numpy()
    src_list = list(sources)
    check = check_source
    for s in src_list:
        check(csr, s)
    if not src_list:
        return []
    nd = _mirror(np, csr)
    indptr, indices, tails = nd.indptr, nd.indices, nd.tails
    degree, rows, row_starts = nd.degree, nd.rows, nd.row_starts
    ok = _lift_mask(np, mask)
    pull_zero = None if ok is None else nd.rev[np.flatnonzero(~ok)]
    n = csr.n
    n_sources = len(src_list)
    words = (n_sources + 63) >> 6
    lanes = np.arange(n_sources, dtype=np.int64)
    frontier = np.zeros((words, n), dtype=np.uint64)
    np.bitwise_or.at(frontier, (lanes >> 6, np.asarray(src_list)),
                     np.left_shift(np.uint64(1),
                                   (lanes & 63).astype(np.uint64)))
    seen = frontier.copy()
    # depth 0 -> depth + 1 == 0b1; the reduction mode keeps no planes
    planes = [] if eccentricity else [frontier.copy()]
    lane_word, lane_bit = lanes >> 6, (lanes & 63).astype(np.uint64)
    last = np.zeros(n_sources, dtype=np.int64)
    pull_arcs = indices.size / _PULL_DIVISOR
    or_at = np.bitwise_or.at
    or_reduce = np.bitwise_or.reduce
    or_reduceat = np.bitwise_or.reduceat
    flatnonzero = np.flatnonzero
    zeros_like = np.zeros_like
    arc_ids = _arc_ids
    active = flatnonzero(frontier.any(axis=0))
    depth = 0
    while True:
        depth += 1
        reached = zeros_like(frontier)
        if int(degree[active].sum()) > pull_arcs:
            pulled = frontier.take(indices, axis=1)
            if pull_zero is not None:
                pulled[:, pull_zero] = 0
            reached[:, rows] = or_reduceat(pulled, row_starts, axis=1)
        else:
            idx = arc_ids(np, indptr, active)
            if ok is not None:
                idx = idx[ok[idx]]
            heads, tails_of = indices[idx], tails[idx]
            for w in range(words):
                or_at(reached[w], heads, frontier[w, tails_of])
        frontier = reached & ~seen
        active = flatnonzero(frontier.any(axis=0))
        if not active.size:
            break
        seen |= frontier
        if eccentricity:
            gained = or_reduce(frontier, axis=1)[lane_word] >> lane_bit
            last[(gained & 1).astype(bool)] = depth
            continue
        code = depth + 1
        if code >> len(planes):
            planes.append(zeros_like(frontier))
        for b, plane in enumerate(planes):
            if code >> b & 1:
                plane |= frontier
    if eccentricity:
        spans = np.bitwise_and.reduce(seen, axis=1)[lane_word] >> lane_bit
        return np.where((spans & 1).astype(bool), last,
                        UNREACHABLE).tolist()
    hop_row = _hop_row
    return [hop_row(row) for row in _decode_depths(np, planes, lanes)]


def _decode_depths(np: Any, planes: List[Any], lanes: Any) -> Any:
    """``(S, n)`` ``np.intc`` distances from bit-sliced ``depth + 1``
    planes.

    Lane ``j`` reads bit ``j & 7`` of byte ``(j & 63) >> 3`` of word
    row ``j >> 6`` (little-endian words, so the byte order is fixed on
    every host); plane ``b`` contributes ``2**b``.
    """
    n = planes[0].shape[1]
    word, byte = lanes >> 6, (lanes & 63) >> 3
    shift = (lanes & 7).astype(np.uint8)[:, None]
    code = np.zeros((lanes.size, n),
                    dtype=np.min_scalar_type((1 << len(planes)) - 1))
    for b, plane in enumerate(planes):
        as_bytes = plane.astype("<u8", copy=False).view(np.uint8)
        bits = as_bytes.reshape(-1, n, 8)[word, :, byte]
        bits >>= shift
        bits &= 1
        code |= bits.astype(code.dtype, copy=False) << code.dtype.type(b)
    dist = code.astype(np.intc)
    dist -= 1  # an undiscovered entry (code 0) becomes UNREACHABLE
    return dist


def csr_weighted_distances_many(csr: CSRGraph, mask: Optional[bytearray],
                                sources: Iterable[int]) -> List[List[int]]:
    """Vectorised sibling of ``batched.csr_weighted_distances_many``.

    Dijkstra frontiers cannot share bits across sources, so the batch
    win is the amortised setup (one mask lift, one mirror) plus the
    per-source settled-frontier sweeps; duplicate sources are
    traversed once and re-emitted as list copies, exactly like the
    loops.
    """
    np = _require_numpy()
    src_list = list(sources)
    check = check_source
    for s in src_list:
        check(csr, s)
    if not src_list:
        return []
    nd = _mirror(np, csr)
    weights = _weights_of(csr, nd)
    ok = _lift_mask(np, mask)
    indptr, indices, tails = nd.indptr, nd.indices, nd.tails
    n = csr.n
    rows: Dict[int, List[int]] = {}
    out: List[List[int]] = []
    for s in src_list:
        row = rows.get(s)
        if row is None:
            dist = _weighted_dist(np, indptr, indices, tails, weights,
                                  ok, n, s)
            rows[s] = row = np.where(dist >= _INF, UNREACHABLE,
                                     dist).tolist()
            out.append(row)
        else:
            out.append(list(row))
    return out


def csr_dijkstra_flat_many(csr: CSRGraph, mask: Optional[bytearray],
                           sources: Iterable[int]
                           ) -> List[Tuple[Dict[int, int],
                                           Dict[int, Optional[int]]]]:
    """Vectorised sibling of ``batched.csr_dijkstra_flat_many``."""
    np = _require_numpy()
    src_list = list(sources)
    check = check_source
    for s in src_list:
        check(csr, s)
    if not src_list:
        return []
    nd = _mirror(np, csr)
    weights = _weights_of(csr, nd)
    ok = _lift_mask(np, mask)
    indptr, indices, tails = nd.indptr, nd.indices, nd.tails
    n = csr.n
    done: Dict[int, Tuple[Dict[int, int], Dict[int, Optional[int]]]] = {}
    out: List[Tuple[Dict[int, int], Dict[int, Optional[int]]]] = []
    for s in src_list:
        pair = done.get(s)
        if pair is None:
            dist = _weighted_dist(np, indptr, indices, tails, weights,
                                  ok, n, s)
            done[s] = pair = _flat_result(np, nd, weights, ok, n, s, dist)
            out.append(pair)
        else:
            out.append((dict(pair[0]), dict(pair[1])))
    return out


def _repair_region(np: Any, csr: CSRGraph, nd: Any,
                   mask: Optional[bytearray], base: Sequence[int],
                   orph: List[int], weights: Any
                   ) -> Tuple[Any, List[int]]:
    """Shared repair body; ``weights is None`` means hop (+1) repair.

    The orphaned region is compacted to ``0..k-1``; every surviving
    intact→orphan arc seeds its orphan with an exact proposal
    (weighted seeds read the *reverse* arc's weight through the
    mirror's ``rev`` permutation — scanning orphan ``v``'s row yields
    the arc ``(v, u)``, the seed needs ``w(u, v)`` — so antisymmetric
    snapshots repair exactly), then label-correcting rounds run
    entirely inside the ``k``-vector.  The fixpoint equals the loops'
    bucketed/heap settle, so ``patched`` is bit-identical.  It comes
    back as an int64 ndarray; each caller renders its own row type.
    """
    indptr, indices, tails = nd.indptr, nd.indices, nd.tails
    ok = _lift_mask(np, mask)
    base_arr = np.asarray(base, dtype=np.int64)
    patched = base_arr.copy()
    orph_arr = np.asarray(orph, dtype=np.int64)
    patched[orph_arr] = UNREACHABLE
    k = len(orph)
    pos = np.full(csr.n, -1, dtype=np.int64)
    pos[orph_arr] = np.arange(k)
    prop = np.full(k, _INF, dtype=np.int64)
    minimum_at = np.minimum.at
    unique = np.unique
    # Seed: arcs out of orphan rows whose head is intact and reached
    # (orphans were just zeroed to -1, so ``du >= 0`` covers both).
    idx = _arc_ids(np, indptr, orph_arr)
    if ok is not None:
        idx = idx[ok[idx]]
    du = patched[indices[idx]]
    val = du >= 0
    if val.any():
        idx_v = idx[val]
        seed = du[val] + (1 if weights is None else weights[nd.rev[idx_v]])
        minimum_at(prop, pos[tails[idx_v]], seed)
    active = np.flatnonzero(prop < _INF)
    arc_ids = _arc_ids
    while active.size:
        idx2 = arc_ids(np, indptr, orph_arr[active])
        if ok is not None:
            idx2 = idx2[ok[idx2]]
        p2 = pos[indices[idx2]]
        ing = p2 >= 0
        idx2, p2 = idx2[ing], p2[ing]
        cand = prop[pos[tails[idx2]]] + (
            1 if weights is None else weights[idx2])
        better = cand < prop[p2]
        p2 = p2[better]
        if not p2.size:
            break
        minimum_at(prop, p2, cand[better])
        active = unique(p2)
    patched[orph_arr] = np.where(prop < _INF, prop, UNREACHABLE)
    changed = orph_arr[patched[orph_arr] != base_arr[orph_arr]].tolist()
    return patched, changed


def csr_bfs_repair(csr: CSRGraph, mask: Optional[bytearray],
                   base: Sequence[int], orphans: Iterable[int]
                   ) -> Tuple[HopRow, List[int]]:
    """Vectorised sibling of ``incremental.repair.csr_bfs_repair``."""
    np = _require_numpy()
    orph = sorted(set(orphans))
    if not orph:
        return array("i", base), []
    nd = _mirror(np, csr)
    patched, changed = _repair_region(np, csr, nd, mask, base, orph, None)
    return _hop_row(patched.astype(np.intc)), changed


def csr_dijkstra_repair(csr: CSRGraph, mask: Optional[bytearray],
                        base: List[int], orphans: Iterable[int]
                        ) -> Tuple[List[int], List[int]]:
    """Vectorised sibling of ``incremental.repair.csr_dijkstra_repair``."""
    np = _require_numpy()
    nd = _mirror(np, csr)
    weights = _weights_of(csr, nd)
    orph = sorted(set(orphans))
    if not orph:
        return list(base), []
    patched, changed = _repair_region(np, csr, nd, mask, base, orph,
                                      weights)
    return patched.tolist(), changed


class VectorizedBackend:
    """Kernel backend serving every call with the numpy kernels."""

    name = "vectorized"

    def __init__(self) -> None:
        self.csr_bfs_distances = csr_bfs_distances
        self.csr_weighted_distances = csr_weighted_distances
        self.csr_dijkstra_flat = csr_dijkstra_flat
        self.csr_bfs_distances_many = csr_bfs_distances_many
        self.csr_weighted_distances_many = csr_weighted_distances_many
        self.csr_dijkstra_flat_many = csr_dijkstra_flat_many
        self.csr_bfs_repair = csr_bfs_repair
        self.csr_dijkstra_repair = csr_dijkstra_repair
