"""Undirected graphs with positive integer edge weights.

The weighted setting of Theorem 11.  Weights are integers (exactness,
as everywhere in this library); callers with rational weights should
pre-scale.  The class deliberately mirrors the read interface of
:class:`repro.graphs.base.Graph` plus a ``weight`` accessor, so the
Dijkstra/tree machinery of :mod:`repro.spt` works on it unchanged via
:meth:`arc_weight`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.exceptions import GraphError
from repro.graphs.base import Edge, Graph, canonical_edge


class WeightedGraph:
    """An undirected graph with positive integer edge weights.

    Parameters
    ----------
    num_vertices:
        Vertex count; vertices are ``0 .. n-1``.
    weighted_edges:
        Iterable of ``(u, v, w)`` triples with ``w >= 1``.
    """

    __slots__ = ("_graph", "_weights", "_csr")

    def __init__(self, num_vertices: int = 0,
                 weighted_edges: Iterable[Tuple[int, int, int]] = ()):
        self._graph = Graph(num_vertices)
        self._weights: Dict[Edge, int] = {}
        self._csr = None
        for u, v, w in weighted_edges:
            self.add_edge(u, v, w)

    # ------------------------------------------------------------------
    @classmethod
    def from_unit_graph(cls, graph: Graph) -> "WeightedGraph":
        """Lift an unweighted graph to weight-1 edges."""
        wg = cls(graph.n)
        for u, v in graph.edges():
            wg.add_edge(u, v, 1)
        return wg

    @classmethod
    def random(cls, n: int, p: float, max_weight: int = 20,
               seed: int = 0) -> "WeightedGraph":
        """A connected random weighted graph with uniform weights."""
        from repro.graphs.generators import connected_erdos_renyi

        rng = random.Random(seed + 1)
        base = connected_erdos_renyi(n, p, seed=seed)
        wg = cls(n)
        for u, v in base.edges():
            wg.add_edge(u, v, rng.randint(1, max_weight))
        return wg

    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        return self._graph.add_vertex()

    def add_edge(self, u: int, v: int, weight: int) -> Edge:
        """Insert the weighted edge ``{u, v}``; return its canonical form.

        Re-adding an existing edge with the *same* weight is an
        idempotent no-op, mirroring :meth:`Graph.add_edge
        <repro.graphs.base.Graph.add_edge>`; a *conflicting* weight
        raises :class:`~repro.exceptions.GraphError` instead of
        silently overwriting (an overwrite would also have invalidated
        every snapshot keyed on the ``(n, m)`` state without changing
        ``(n, m)`` — see :meth:`csr`).
        """
        if weight < 1:
            raise GraphError(f"edge weight must be >= 1, got {weight}")
        if self._graph.has_edge(u, v):
            edge = canonical_edge(u, v)
            if self._weights[edge] != weight:
                raise GraphError(
                    f"edge {edge} re-added with weight {weight}, "
                    f"conflicting with existing weight "
                    f"{self._weights[edge]}"
                )
            return edge
        edge = self._graph.add_edge(u, v)
        self._weights[edge] = weight
        return edge

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._graph.n

    @property
    def m(self) -> int:
        return self._graph.m

    def vertices(self) -> range:
        return self._graph.vertices()

    def has_vertex(self, v: int) -> bool:
        return self._graph.has_vertex(v)

    def has_edge(self, u: int, v: int) -> bool:
        return self._graph.has_edge(u, v)

    def neighbors(self, v: int) -> Iterator[int]:
        return self._graph.neighbors(v)

    def sorted_neighbors(self, v: int) -> List[int]:
        return self._graph.sorted_neighbors(v)

    def edges(self) -> Iterator[Edge]:
        return self._graph.edges()

    def arcs(self) -> Iterator[Edge]:
        return self._graph.arcs()

    def weight(self, u: int, v: int) -> int:
        edge = canonical_edge(u, v)
        if edge not in self._weights:
            raise GraphError(f"({u}, {v}) is not an edge")
        return self._weights[edge]

    def arc_weight(self, u: int, v: int) -> int:
        """Symmetric arc-weight callable for :func:`repro.spt.dijkstra`."""
        return self.weight(u, v)

    def total_weight(self) -> int:
        return sum(self._weights.values())

    def path_weight(self, path) -> int:
        """Total weight of a :class:`repro.spt.paths.Path`."""
        return sum(self.weight(u, v) for u, v in path.arcs())

    # ------------------------------------------------------------------
    def without(self, faults: Iterable[Edge]) -> "WeightedView":
        return WeightedView(self, faults)

    def unit_graph(self) -> Graph:
        """The underlying unweighted graph (shared, do not mutate)."""
        return self._graph

    def csr(self):
        """A cached weight-carrying CSR snapshot of the current state.

        Mirrors :meth:`repro.graphs.base.Graph.csr`: the snapshot
        (a :class:`repro.graphs.csr.CSRGraph` with a flat per-arc
        ``weights`` array) is rebuilt whenever ``(n, m)`` changes.
        That stamp is a sound invalidation rule here because
        :meth:`add_edge` refuses conflicting re-adds — a weight can
        never change without ``m`` changing.
        """
        from repro.graphs.csr import CSRGraph

        cached = self._csr
        if (cached is None or cached.n != self.n
                or cached.m != self.m):
            cached = CSRGraph.from_graph(self._graph,
                                         arc_weight=self.arc_weight)
            self._csr = cached
        return cached

    def _as_csr(self):
        """Fast-path dispatch hook (see :func:`repro.graphs.csr.as_csr`)."""
        return self.csr(), None

    def perturbed_weight(self, seed: int = 0):
        """A unique-shortest-path refinement of the weights.

        Returns ``(arc_weight_fn, scale)``: weights are scaled by a
        large integer and an antisymmetric perturbation is added, so
        the perturbed unique shortest paths are true weighted shortest
        paths (the "perturb to make shortest paths unique" step of
        Theorem 28's proof, done exactly).
        """
        n = max(self.n, 2)
        rng = random.Random(seed)
        big = n ** 6
        scale = 2 * n * (big + 1)
        perturbation = {
            edge: rng.randint(-big, big) for edge in self.edges()
        }

        def arc_weight(u: int, v: int) -> int:
            edge = canonical_edge(u, v)
            r = perturbation[edge]
            if (u, v) != edge:
                r = -r
            return self._weights[edge] * scale + r

        return arc_weight, scale

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


class WeightedView:
    """``G \\ F`` over a weighted graph (read-only, weight-preserving)."""

    __slots__ = ("_base", "_view", "_csr_view")

    def __init__(self, base: WeightedGraph, faults: Iterable[Edge]):
        self._base = base
        self._view = base.unit_graph().without(faults)
        self._csr_view = None

    @property
    def base(self) -> WeightedGraph:
        return self._base

    @property
    def faults(self) -> frozenset:
        return self._view.faults

    @property
    def n(self) -> int:
        return self._view.n

    @property
    def m(self) -> int:
        return self._view.m

    def vertices(self) -> range:
        return self._view.vertices()

    def has_vertex(self, v: int) -> bool:
        return self._view.has_vertex(v)

    def has_edge(self, u: int, v: int) -> bool:
        return self._view.has_edge(u, v)

    def neighbors(self, v: int) -> Iterator[int]:
        return self._view.neighbors(v)

    def sorted_neighbors(self, v: int) -> List[int]:
        return self._view.sorted_neighbors(v)

    def edges(self) -> Iterator[Edge]:
        return self._view.edges()

    def arcs(self) -> Iterator[Edge]:
        return self._view.arcs()

    def weight(self, u: int, v: int) -> int:
        if not self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) not present in the view")
        return self._base.weight(u, v)

    def arc_weight(self, u: int, v: int) -> int:
        return self.weight(u, v)

    def _as_csr(self):
        """Weighted base snapshot plus this view's arc mask (cached).

        Views are immutable, so the one O(m) mask allocation is paid on
        first use and shared by every traversal over the view.
        """
        view = self._csr_view
        if view is None:
            view = self._base.csr().without(self._view.faults)
            self._csr_view = view
        return view._as_csr()
