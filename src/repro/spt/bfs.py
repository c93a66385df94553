"""Breadth-first search over :class:`GraphLike` objects.

These are the unweighted primitives: hop distances, deterministic BFS
trees (lexicographically smallest parent), and layer decompositions.
The tiebreaking layer uses them both as a correctness oracle ("is this
reweighted shortest path also an unweighted shortest path?") and as the
f = 0 baseline throughout the benchmarks.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Any, Dict, List, Optional

from repro.backends.api import HopRow
from repro.exceptions import GraphError
from repro.graphs.csr import as_csr
from repro.spt import fastpaths

UNREACHABLE = -1


def bfs_distances(graph: Any, source: int) -> HopRow:
    """Hop distances from ``source``; ``UNREACHABLE`` (-1) where cut off.

    An ``array('i')`` row on every path, like the CSR kernels'.
    """
    csr = as_csr(graph)
    if csr is not None:
        return fastpaths.csr_bfs_distances(csr[0], csr[1], source)
    if not graph.has_vertex(source):
        raise GraphError(f"unknown source vertex {source}")
    dist = [UNREACHABLE] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                queue.append(v)
    return array("i", dist)


def bfs_tree(graph: Any, source: int) -> Dict[int, Optional[int]]:
    """Deterministic BFS parent map (smallest-id parent wins).

    Returns ``{vertex: parent}`` with ``parent[source] is None``;
    unreachable vertices are absent from the map.
    """
    csr = as_csr(graph)
    if csr is not None:
        return fastpaths.csr_bfs_tree(csr[0], csr[1], source)
    if not graph.has_vertex(source):
        raise GraphError(f"unknown source vertex {source}")
    parent: Dict[int, Optional[int]] = {source: None}
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.sorted_neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return parent


def bfs_layers(graph: Any, source: int) -> List[List[int]]:
    """Vertices grouped by hop distance: ``layers[d]`` = distance-d set."""
    dist = bfs_distances(graph, source)
    depth = max((d for d in dist if d != UNREACHABLE), default=0)
    layers: List[List[int]] = [[] for _ in range(depth + 1)]
    for v, d in enumerate(dist):
        if d != UNREACHABLE:
            layers[d].append(v)
    return layers


def hop_distance(graph: Any, source: int, target: int) -> int:
    """Hop distance between two vertices (``UNREACHABLE`` if cut off).

    Early-exits once ``target`` is settled, so cheaper than a full
    :func:`bfs_distances` for nearby pairs.
    """
    csr = as_csr(graph)
    if csr is not None:
        return fastpaths.csr_hop_distance(csr[0], csr[1], source, target)
    if not graph.has_vertex(source):
        raise GraphError(f"unknown source vertex {source}")
    if not graph.has_vertex(target):
        raise GraphError(f"unknown target vertex {target}")
    if source == target:
        return 0
    dist = [UNREACHABLE] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                if v == target:
                    return dist[v]
                queue.append(v)
    return UNREACHABLE
