"""f-FT ``S x V`` preservers by RPTS overlay (Theorem 26).

The construction is stated in one line in the paper: *overlay all
``S x V`` replacement paths selected by a consistent stable f-RPTS*.
The subtlety is enumerating the fault sets.  Naively there are
``O(m^f)`` of them; stability collapses the space: adding a fault off
the selected path never changes the selection, so the only fault sets
that matter are chains in which each new fault lies on a currently
selected path — i.e. on an edge of the current selected tree.  The
overlay therefore recurses only on tree edges, visiting each *distinct*
reachable fault set once.

For ``f = 0`` the overlay of a consistent scheme is a single tree per
source (the classic BFS-tree fact the paper recalls in Section 2), and
Theorem 26 says the general overlay has
``O(n^{2 - 1/2^f} |S|^{1/2^f})`` edges — the benchmark
``bench_thm26_sv_preserver`` fits that exponent empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.graphs.base import Edge, Graph


@dataclass
class Preserver:
    """A fault-tolerant distance preserver: an edge subset of ``G``.

    Attributes
    ----------
    graph:
        The graph it was built from.
    edges:
        The preserver's edge set (canonical undirected edges).
    sources:
        The source set ``S`` whose distances it protects.
    faults_tolerated:
        The ``f`` it was built for (``S x V`` sense; ``S x S``
        preservers from :func:`~repro.preservers.subset.ft_ss_preserver`
        tolerate one more fault between sources — Theorem 31).
    fault_sets_explored:
        Diagnostic: how many distinct fault sets the overlay visited.
    """

    graph: Graph
    edges: FrozenSet[Edge]
    sources: Tuple[int, ...]
    faults_tolerated: int
    fault_sets_explored: int = 0

    @property
    def size(self) -> int:
        """Number of edges — the quantity every theorem bounds."""
        return len(self.edges)

    def as_graph(self) -> Graph:
        """Materialise as a standalone :class:`Graph` (same vertex ids)."""
        sub = Graph(self.graph.n)
        for u, v in self.edges:
            sub.add_edge(u, v)
        return sub

    def density_vs(self, bound: float) -> float:
        """Measured size over a theoretical bound (for benchmark rows)."""
        return self.size / bound if bound else float("inf")


def ft_sv_preserver(scheme, sources: Iterable[int], f: int,
                    max_fault_sets: Optional[int] = None) -> Preserver:
    """Build the f-FT ``S x V`` preserver by overlay (Theorem 26).

    Parameters
    ----------
    scheme:
        A consistent stable f-RPTS exposing ``tree(source, faults)`` —
        in practice a :class:`~repro.core.scheme.RestorableTiebreaking`
        built with an f-fault (or stronger) ATW function.
    sources:
        The source set ``S``.
    f:
        Maximum number of simultaneous edge faults to protect against.
    max_fault_sets:
        Optional safety valve for experiments on large graphs: stop
        exploring after this many fault sets (the result is then a
        partial overlay; benchmarks that use it say so).

    Returns
    -------
    Preserver
        The union of all selected replacement paths
        ``pi(s, v | F), s ∈ S, v ∈ V, |F| <= f``.
    """
    if f < 0:
        raise GraphError(f"f must be >= 0, got {f}")
    source_list = sorted(set(sources))
    edges: Set[Edge] = set()
    explored = 0
    budget = max_fault_sets if max_fault_sets is not None else float("inf")

    for s in source_list:
        visited: Set[frozenset] = set()
        stack: List[frozenset] = [frozenset()]
        while stack:
            faults = stack.pop()
            if faults in visited:
                continue
            visited.add(faults)
            explored += 1
            if explored > budget:
                break
            tree = scheme.tree(s, faults)
            tree_edges = tree.edge_set()
            edges |= tree_edges
            if len(faults) < f:
                for e in tree_edges:
                    nxt = faults | {e}
                    if nxt not in visited:
                        stack.append(nxt)

    return Preserver(
        graph=scheme.graph,
        edges=frozenset(edges),
        sources=tuple(source_list),
        faults_tolerated=f,
        fault_sets_explored=explored,
    )
