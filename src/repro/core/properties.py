"""Brute-force verifiers for the RPTS coordination properties.

Definitions 13-17 of the paper define four coordination properties —
symmetry, consistency, stability, restorability — and the paper's
results are statements about which combinations are achievable.  This
module decides each property *exactly* on concrete instances, which is
what lets the test-suite confirm Theorem 19 (ATW schemes are stable +
consistent + f-restorable), Theorem 37 (no symmetric scheme on C4 is
1-restorable, by exhausting all symmetric schemes), and the Figure-1
claim (BFS tiebreaking is consistent yet non-restorable).

All checkers work against the generic scheme interface
(``path(s, t, faults)``) so they apply to weighted, BFS, and explicit
table schemes alike.  They return *violation lists* (empty = property
holds) so failures are debuggable; thin boolean wrappers sit on top.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import GraphError
from repro.graphs.base import Edge, canonical_edge
from repro.spt.bfs import UNREACHABLE, bfs_distances
from repro.spt.paths import Path


def _all_pairs(graph) -> Iterator[Tuple[int, int]]:
    for s in graph.vertices():
        for t in graph.vertices():
            if s != t:
                yield (s, t)


# ----------------------------------------------------------------------
# Definition 13 — symmetry
# ----------------------------------------------------------------------
def symmetry_violations(scheme, faults: Sequence[Edge] = (),
                        pairs: Optional[Iterable[Tuple[int, int]]] = None
                        ) -> List[Tuple[int, int]]:
    """Pairs where ``path(s, t)`` is not the reverse of ``path(t, s)``."""
    graph = scheme.graph
    if pairs is None:
        pairs = [(s, t) for s, t in _all_pairs(graph) if s < t]
    bad = []
    for s, t in pairs:
        forward = scheme.path(s, t, faults)
        backward = scheme.path(t, s, faults)
        if forward is None and backward is None:
            continue
        if (forward is None) != (backward is None):
            bad.append((s, t))
        elif forward.vertices != backward.reverse().vertices:
            bad.append((s, t))
    return bad


def is_symmetric(scheme, faults: Sequence[Edge] = (), **kwargs) -> bool:
    return not symmetry_violations(scheme, faults, **kwargs)


# ----------------------------------------------------------------------
# Definition 14 — consistency
# ----------------------------------------------------------------------
def consistency_violations(scheme, faults: Sequence[Edge] = (),
                           pairs: Optional[Iterable[Tuple[int, int]]] = None
                           ) -> List[Tuple[int, int, int, int]]:
    """Quadruples ``(s, t, u, v)`` breaking the subpath property.

    For each selected path ``pi(s, t)`` and vertices ``u`` before ``v``
    on it, ``pi(u, v)`` must equal the contiguous ``u..v`` slice of
    ``pi(s, t)``.
    """
    graph = scheme.graph
    if pairs is None:
        pairs = list(_all_pairs(graph))
    bad = []
    for s, t in pairs:
        path = scheme.path(s, t, faults)
        if path is None:
            continue
        verts = path.vertices
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                u, v = verts[i], verts[j]
                sub = scheme.path(u, v, faults)
                if sub is None or sub.vertices != verts[i: j + 1]:
                    bad.append((s, t, u, v))
    return bad


def is_consistent(scheme, faults: Sequence[Edge] = (), **kwargs) -> bool:
    return not consistency_violations(scheme, faults, **kwargs)


# ----------------------------------------------------------------------
# Definition 16 — stability
# ----------------------------------------------------------------------
def stability_violations(
    scheme,
    base_fault_sets: Optional[Iterable[Sequence[Edge]]] = None,
    pairs: Optional[Iterable[Tuple[int, int]]] = None,
    extra_edges: Optional[Iterable[Edge]] = None,
) -> List[Tuple]:
    """Instances where adding an off-path fault changed the selection.

    For each base fault set ``F`` (default: just the empty set, i.e.
    certifying 1-stability), pair ``(s, t)``, and edge ``g`` not on
    ``pi(s, t | F)``, require ``pi(s, t | F + g) == pi(s, t | F)``.
    ``extra_edges`` restricts which ``g`` are tried (default: all).
    """
    graph = scheme.graph
    if base_fault_sets is None:
        base_fault_sets = [()]
    if pairs is None:
        pairs = list(_all_pairs(graph))
    all_edges = list(extra_edges) if extra_edges is not None else list(
        graph.edges()
    )
    bad = []
    for base in base_fault_sets:
        base_set = {canonical_edge(u, v) for u, v in base}
        for s, t in pairs:
            selected = scheme.path(s, t, base)
            if selected is None:
                continue
            on_path = selected.edge_set()
            for g in all_edges:
                g = canonical_edge(*g)
                if g in on_path or g in base_set:
                    continue
                after = scheme.path(s, t, tuple(base_set | {g}))
                if after is None or after.vertices != selected.vertices:
                    bad.append((tuple(sorted(base_set)), s, t, g))
    return bad


def is_stable(scheme, **kwargs) -> bool:
    return not stability_violations(scheme, **kwargs)


# ----------------------------------------------------------------------
# Definition 17 — f-restorability
# ----------------------------------------------------------------------
def restorability_violations(
    scheme,
    fault_sets: Optional[Iterable[Sequence[Edge]]] = None,
    pairs: Optional[Iterable[Tuple[int, int]]] = None,
) -> List[Tuple]:
    """Instances ``(F, s, t)`` where no midpoint concatenation is optimal.

    The generic (scheme-interface-only) check of Definition 17: for each
    nonempty ``F`` and connected pair, search all proper subsets
    ``F' ⊊ F`` and all midpoints ``x`` for a concatenation
    ``pi(s, x | F') . reverse(pi(t, x | F'))`` avoiding ``F`` of length
    ``dist_{G \\ F}(s, t)``.  Empty result = f-restorable over the given
    fault universe.

    ``fault_sets`` defaults to all single edges (1-restorability).
    """
    graph = scheme.graph
    if fault_sets is None:
        fault_sets = [(e,) for e in graph.edges()]
    if pairs is None:
        pairs = [(s, t) for s, t in _all_pairs(graph) if s < t]
    bad = []
    for faults in fault_sets:
        fault_set = {canonical_edge(u, v) for u, v in faults}
        if not fault_set:
            raise GraphError("restorability needs nonempty fault sets")
        view = graph.without(fault_set)
        dist_after: Dict[int, List[int]] = {}
        for s, t in pairs:
            if s not in dist_after:
                dist_after[s] = bfs_distances(view, s)
            target = dist_after[s][t]
            if target == UNREACHABLE:
                continue
            if not _has_optimal_concatenation(
                scheme, s, t, fault_set, target
            ):
                bad.append((tuple(sorted(fault_set)), s, t))
    return bad


def _has_optimal_concatenation(scheme, s: int, t: int,
                               fault_set: set, target: int) -> bool:
    fault_list = sorted(fault_set)
    for size in range(len(fault_list)):
        for subset in itertools.combinations(fault_list, size):
            for x in scheme.graph.vertices():
                p1 = scheme.path(s, x, subset)
                p2 = scheme.path(t, x, subset)
                if p1 is None or p2 is None:
                    continue
                if p1.hops + p2.hops != target:
                    continue
                if p1.avoids(fault_set) and p2.avoids(fault_set):
                    return True
    return False


def is_restorable(scheme, **kwargs) -> bool:
    return not restorability_violations(scheme, **kwargs)


# ----------------------------------------------------------------------
# scheme enumeration (Appendix A)
# ----------------------------------------------------------------------
def all_shortest_paths(graph, s: int, t: int,
                       limit: int = 100_000) -> List[Path]:
    """Every shortest ``s ~> t`` path, by backtracking the BFS DAG.

    Intended for small graphs; raises :class:`GraphError` past
    ``limit`` paths as a guard against exponential blowup.
    """
    dist = bfs_distances(graph, s)
    if dist[t] == UNREACHABLE:
        return []
    paths: List[Path] = []

    # Walk the shortest-path DAG from t back toward s, emitting each
    # complete predecessor chain as a path.
    def collect(v: int, acc: List[int]) -> None:
        if len(paths) > limit:
            raise GraphError(f"more than {limit} shortest paths")
        acc.append(v)
        if v == s:
            paths.append(Path(list(reversed(acc))))
        else:
            for u in graph.sorted_neighbors(v):
                if dist[u] == dist[v] - 1:
                    collect(u, acc)
        acc.pop()

    collect(t, [])
    return paths


def enumerate_symmetric_schemes(graph, limit: int = 1_000_000
                                ) -> Iterator["ExplicitScheme"]:
    """Yield every *symmetric* tiebreaking scheme of a small graph.

    One shortest path is chosen per unordered pair and mirrored onto
    both orientations (Definition 13).  The number of schemes is the
    product of per-pair tie counts; a :class:`GraphError` guards
    against enumerating more than ``limit``.
    """
    from repro.core.scheme import ExplicitScheme

    pair_choices: List[Tuple[Tuple[int, int], List[Path]]] = []
    total = 1
    for s in graph.vertices():
        for t in graph.vertices():
            if s < t:
                options = all_shortest_paths(graph, s, t)
                if options:
                    pair_choices.append(((s, t), options))
                    total *= len(options)
                    if total > limit:
                        raise GraphError(
                            f"more than {limit} symmetric schemes"
                        )
    keys = [pair for pair, _ in pair_choices]
    option_lists = [options for _, options in pair_choices]
    for selection in itertools.product(*option_lists):
        table: Dict[Tuple[int, int], Path] = {}
        for (s, t), path in zip(keys, selection):
            table[(s, t)] = path
            table[(t, s)] = path.reverse()
        yield ExplicitScheme(graph, table, name="symmetric-enum")


def theorem37_holds_on(graph) -> bool:
    """Appendix A / Theorem 37: no symmetric scheme is 1-restorable.

    Exhaustively enumerates every symmetric tiebreaking scheme of the
    graph and checks 1-restorability of each; True when *all* of them
    fail (the impossibility the paper proves for ``C4``).
    """
    for scheme in enumerate_symmetric_schemes(graph):
        if is_restorable(scheme):
            return False
    return True
