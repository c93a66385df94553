"""Naive recompute-from-scratch replacement-path baselines.

These are the comparators every fast algorithm in the library is
validated against and benchmarked next to: remove the fault, rerun BFS,
read the distance.  Their asymptotics (``O(L * m)`` per pair for an
``L``-hop path, ``O(σ² L m)`` for subset-rp) are exactly the cost
Algorithm 1 beats.

Deliberately *not* routed through the CSR fast paths: these functions
are the naive yardstick the benchmark assertions measure against (and
the ``bench_scenario_engine`` baseline), so they keep the plain
``FaultView`` + reference-BFS shape.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.graphs.base import Edge
from repro.spt.bfs import bfs_distances, bfs_tree
from repro.spt.paths import Path


def _tree_path(parent: Dict[int, int], target: int) -> Path:
    chain = [target]
    v = target
    while parent[v] is not None:
        v = parent[v]
        chain.append(v)
    return Path(reversed(chain))


def naive_single_pair_replacement_distances(
    graph, s: int, t: int, path: Path
) -> Dict[Edge, int]:
    """``dist_{G \\ e}(s, t)`` for each edge ``e`` of ``path``, by BFS.

    One full BFS per path edge — the textbook baseline.
    """
    out: Dict[Edge, int] = {}
    for edge in path.edges():
        out[edge] = bfs_distances(graph.without([edge]), s)[t]
    return out


def naive_subset_replacement_paths(
    graph, sources: Iterable[int]
) -> Dict[Tuple[int, int], Dict[Edge, int]]:
    """Solve subset-rp by rerunning BFS for every (pair, fault).

    For each ordered-by-id pair ``s1 < s2`` in ``sources``, picks the
    deterministic BFS path between them and reports the replacement
    distance for each of its edges.  Output shape matches
    :func:`repro.replacement.subset_rp.subset_replacement_paths`.
    """
    source_list = sorted(set(sources))
    out: Dict[Tuple[int, int], Dict[Edge, int]] = {}
    for i, s1 in enumerate(source_list):
        parent = bfs_tree(graph, s1)
        for s2 in source_list[i + 1:]:
            if s2 not in parent:
                out[(s1, s2)] = {}
                continue
            path = _tree_path(parent, s2)
            out[(s1, s2)] = naive_single_pair_replacement_distances(
                graph, s1, s2, path
            )
    return out


def naive_sourcewise_replacement_distances(
    graph, s: int
) -> Dict[Tuple[int, Edge], int]:
    """The sourcewise setting (Chechik–Cohen): ``{s} x V`` replacement
    distances for every tree-edge fault, by brute force.

    Returns ``{(v, e): dist_{G \\ e}(s, v)}`` for every vertex ``v`` and
    edge ``e`` on the BFS path to ``v``.  Quadratic-ish and only used
    as an oracle.
    """
    parent = bfs_tree(graph, s)
    paths = {v: _tree_path(parent, v) for v in parent}
    needed_faults = set()
    for v, path in paths.items():
        for edge in path.edges():
            needed_faults.add(edge)
    dist_without: Dict[Edge, List[int]] = {
        e: bfs_distances(graph.without([e]), s) for e in needed_faults
    }
    out: Dict[Tuple[int, Edge], int] = {}
    for v, path in paths.items():
        for edge in path.edges():
            out[(v, edge)] = dist_without[edge][v]
    return out
