"""All-pairs helpers: distance matrices, diameter, eccentricity.

Built on repeated BFS (the paper's own observation that multi-source BFS
is the standard combinatorial APSP for unweighted graphs, Section 1.1).
These are used as correctness oracles throughout the test-suite and as
the non-faulty baseline in the benchmarks.

Whenever the input exposes a CSR snapshot (a :class:`~repro.graphs.base.Graph`
with its cached ``csr()``, a CSR object, or a masked fault view), the
many-source sweeps here dispatch onto the bit-packed batch kernel
:func:`repro.spt.batched.csr_bfs_distances_many` — one traversal wave
serves every source — and keep the per-source
:func:`~repro.spt.bfs.bfs_distances` loop as the reference for generic
``GraphLike`` inputs.

Disconnected-graph contract (one convention, documented in each
function): the *distance-valued* helpers (:func:`all_pairs_bfs_distances`,
:func:`distance_matrix`) encode unreachable pairs as ``UNREACHABLE``
(-1), while the *max-valued* helpers (:func:`eccentricity`,
:func:`eccentricities`, :func:`diameter`) raise :class:`GraphError`,
since a maximum over missing distances would silently understate.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.backends.api import HopRow, row_eccentricity
from repro.exceptions import GraphError
from repro.graphs.csr import CSRGraph, as_csr
from repro.spt.batched import csr_bfs_distances_many
from repro.spt.bfs import UNREACHABLE, bfs_distances


def _csr_of(graph: Any) -> Optional[Tuple[CSRGraph, Optional[bytearray]]]:
    """``(snapshot, mask)`` when ``graph`` has a CSR fast path, else None.

    Extends :func:`~repro.graphs.csr.as_csr` dispatch to mutable graphs
    carrying a cached ``csr()`` method (``Graph``, ``WeightedGraph``),
    which is where the many-source sweeps below are usually pointed.
    Deliberately local to this module: giving ``Graph`` a global
    ``_as_csr`` hook would silently upgrade *every* traversal entry
    point, erasing the generic reference loops the randomized
    cross-check tests compare the CSR kernels against.  Here the
    batch kernel is the point of the call, so the wider dispatch is
    the right trade.
    """
    pair = as_csr(graph)
    if pair is not None:
        return pair
    csr_method = getattr(graph, "csr", None)
    if csr_method is not None:
        return csr_method()._as_csr()
    return None


def _distance_rows(graph: Any, sources: List[int]) -> List[HopRow]:
    """One ``array('i')`` hop-distance row per source — batched when
    CSR-capable."""
    pair = _csr_of(graph)
    if pair is None:
        return [bfs_distances(graph, s) for s in sources]
    return csr_bfs_distances_many(pair[0], pair[1], sources)


def all_pairs_bfs_distances(graph: Any,
                            sources: Optional[Iterable[int]] = None
                            ) -> Dict[int, HopRow]:
    """Hop-distance rows ``{s: [dist(s, v) for v]}`` for each source.

    ``sources`` defaults to all vertices (full APSP).  Repeated sources
    are deduplicated up front (first occurrence wins the dict slot, as
    before) so each distinct source is traversed exactly once, and the
    whole batch runs as one multi-source wave on CSR-capable inputs.
    Unreachable vertices are encoded as ``UNREACHABLE`` (-1).
    """
    if sources is None:
        source_list = list(graph.vertices())
    else:
        source_list = list(dict.fromkeys(sources))
    return dict(zip(source_list, _distance_rows(graph, source_list)))


def eccentricity(graph: Any, v: int) -> int:
    """Max distance from ``v`` to any vertex; raises if disconnected.

    See the module docstring for the disconnected-graph contract
    (:func:`distance_matrix` returns ``-1`` entries instead).
    """
    ecc = row_eccentricity(bfs_distances(graph, v))
    if ecc == UNREACHABLE:
        raise GraphError(f"graph disconnected from vertex {v}")
    return ecc


def eccentricities(graph: Any) -> List[int]:
    """Every vertex's eccentricity in one batched wave.

    Each row is reduced once by
    :func:`~repro.backends.api.row_eccentricity`, which also detects
    disconnection: on a disconnected graph every row reduces to
    ``UNREACHABLE`` and :class:`GraphError` is raised.
    """
    eccs = [row_eccentricity(row)
            for row in _distance_rows(graph, list(graph.vertices()))]
    if UNREACHABLE in eccs:
        raise GraphError("graph is disconnected; eccentricity undefined")
    return eccs


def diameter(graph: Any) -> int:
    """Exact diameter (max pairwise hop distance) of a connected graph.

    One batched all-sources wave plus a single connectivity check —
    not n independent BFS calls each re-scanning for unreachable
    vertices.  Raises :class:`GraphError` when the graph is
    disconnected, matching :func:`eccentricity`; an empty graph has
    diameter 0.
    """
    eccs = eccentricities(graph)
    return max(eccs, default=0)


def distance_matrix(graph: Any) -> List[HopRow]:
    """Dense ``n x n`` hop-distance matrix (``-1`` for unreachable),
    one ``array('i')`` row per vertex.

    Unlike the max-valued helpers above, disconnection is *not* an
    error here: unreachable pairs are encoded as ``UNREACHABLE`` (-1),
    the library-wide dense-vector convention.
    """
    return _distance_rows(graph, list(graph.vertices()))


def replacement_distance(graph: Any, source: int, target: int,
                         faults: Iterable[Tuple[int, int]]) -> int:
    """``dist_{G \\ F}(s, t)`` — the ground-truth replacement distance.

    The brute-force oracle every replacement-path algorithm in the
    library is validated against.  Returns ``UNREACHABLE`` (-1) when the
    faults disconnect the pair.
    """
    from repro.graphs.csr import fast_without
    from repro.spt.bfs import hop_distance

    return hop_distance(fast_without(graph, faults), source, target)
