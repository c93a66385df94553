"""Read-only fault views ``G \\ F`` over a base graph.

The paper repeatedly reasons about the graph that survives a fault set
``F`` without ever touching ``G`` itself; :class:`FaultView` captures
exactly that.  It exposes the same read interface as
:class:`repro.graphs.base.Graph`, so every algorithm in the library is
written once against the :class:`GraphLike` protocol and works on both.

Views are cheap (O(|F|) construction) and compose: ``view.without(F2)``
produces a view over the *base* graph with the union fault set, so
chained views never stack indirection.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Protocol, runtime_checkable

from repro.graphs.base import Edge, Graph, canonical_edge


@runtime_checkable
class GraphLike(Protocol):
    """Structural protocol shared by :class:`Graph`, :class:`FaultView`
    and the CSR snapshots in :mod:`repro.graphs.csr`.

    ``neighbors`` may return any iterable: :class:`Graph` and the CSR
    types return tuple snapshots (safe to hold across mutation), while
    :class:`FaultView` yields lazily.  Callers that need mutation
    safety on an arbitrary ``GraphLike`` should materialise the result.
    """

    @property
    def n(self) -> int: ...

    @property
    def m(self) -> int: ...

    def vertices(self) -> range: ...

    def has_edge(self, u: int, v: int) -> bool: ...

    def neighbors(self, v: int) -> Iterable[int]: ...

    def sorted_neighbors(self, v: int) -> List[int]: ...

    def edges(self) -> Iterator[Edge]: ...


class FaultView:
    """The graph ``G \\ F``: ``base`` with the edges of ``faults`` removed.

    Parameters
    ----------
    base:
        The underlying :class:`Graph` (never mutated).
    faults:
        Edges to remove, in either orientation.  Edges not present in
        ``base`` are tolerated and simply ignored.

    Examples
    --------
    >>> g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> view = g.without([(1, 0)])
    >>> view.has_edge(0, 1)
    False
    >>> g.has_edge(0, 1)
    True
    """

    __slots__ = ("_base", "_faults", "_m")

    def __init__(self, base: Graph, faults: Iterable[Edge]):
        self._base = base
        self._faults = frozenset(canonical_edge(u, v) for u, v in faults)
        # Count the removed edges once: |F| is tiny next to m, and
        # making `m` O(1) keeps algorithms that consult `view.m` inside
        # loops from going accidentally quadratic.  (Views assume the
        # base graph is frozen for their lifetime — the library-wide
        # "one base graph, many scenarios" convention.)
        self._m = base.m - sum(
            1 for e in self._faults if base.has_edge(*e)
        )

    # ------------------------------------------------------------------
    @property
    def base(self) -> Graph:
        """The underlying fault-free graph."""
        return self._base

    @property
    def faults(self) -> frozenset:
        """The canonicalised fault set."""
        return self._faults

    @property
    def n(self) -> int:
        return self._base.n

    @property
    def m(self) -> int:
        """Surviving edge count, precomputed at construction (O(1))."""
        return self._m

    def vertices(self) -> range:
        return self._base.vertices()

    def has_vertex(self, v: int) -> bool:
        return self._base.has_vertex(v)

    def has_edge(self, u: int, v: int) -> bool:
        if not self._base.has_edge(u, v):
            return False
        return canonical_edge(u, v) not in self._faults

    def neighbors(self, v: int) -> Iterator[int]:
        """Lazily yield surviving neighbours of ``v``.

        Contract: unlike :meth:`Graph.neighbors
        <repro.graphs.base.Graph.neighbors>` (a tuple snapshot), this is
        a generator filtered on the fly — do not mutate the base graph
        while consuming it.  For the flat-array equivalent without the
        per-arc ``canonical_edge`` cost, see
        :meth:`repro.graphs.csr.CSRFaultView.neighbors`.
        """
        for u in self._base.neighbors(v):
            if canonical_edge(u, v) not in self._faults:
                yield u

    def sorted_neighbors(self, v: int) -> List[int]:
        return sorted(self.neighbors(v))

    def degree(self, v: int) -> int:
        return sum(1 for _ in self.neighbors(v))

    def edges(self) -> Iterator[Edge]:
        for edge in self._base.edges():
            if edge not in self._faults:
                yield edge

    def arcs(self) -> Iterator[Edge]:
        for u, v in self._base.arcs():
            if canonical_edge(u, v) not in self._faults:
                yield (u, v)

    # ------------------------------------------------------------------
    def without(self, faults: Iterable[Edge]) -> "FaultView":
        """A view over the same base with additional faults (flattened)."""
        extra = frozenset(canonical_edge(u, v) for u, v in faults)
        return FaultView(self._base, self._faults | extra)

    def materialize(self) -> Graph:
        """Copy into a standalone :class:`Graph` (same vertex ids)."""
        graph = Graph(self.n)
        for u, v in self.edges():
            graph.add_edge(u, v)
        return graph

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def __repr__(self) -> str:
        return f"FaultView(base={self._base!r}, faults={sorted(self._faults)!r})"
