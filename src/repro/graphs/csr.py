"""Compressed-sparse-row (CSR) snapshots of a graph — the batch fast path.

The paper's workload shape is "one base graph, many fault sets": the
graph is fixed while thousands of scenarios ``G \\ F`` are examined
against it.  :class:`repro.graphs.views.FaultView` is the *reference*
realisation of that idea — transparent, lazy, and paying a
``canonical_edge`` + ``frozenset`` membership test on every arc it
yields.  :class:`CSRGraph` is the throughput realisation: the adjacency
structure is flattened once into two parallel arrays

* ``indptr`` — ``indptr[v] .. indptr[v + 1]`` brackets row ``v``,
* ``indices`` — the concatenated, per-row-sorted neighbour lists,

and a fault set ``F`` becomes an **arc mask**: a bytearray with one flag
per directed arc, zeroed at the ≤ ``2 |F|`` positions of the faulted
arcs (found by an O(1) dict lookup per fault edge).  Traversals then
touch flat machine integers only; no per-arc canonicalisation, no
hashing, no generator frames.  A standalone :class:`CSRFaultView`
allocates its own mask (O(m) buffer copy + O(|F|) zeroing);
:class:`repro.scenarios.engine.ScenarioEngine` amortises even that by
reusing one scratch mask across a scenario stream.

Both :class:`CSRGraph` and :class:`CSRFaultView` satisfy the read-only
:class:`~repro.graphs.views.GraphLike` protocol, so every reference
algorithm in the library also runs on them unchanged — that is what the
randomized cross-check tests exploit.  The BFS/Dijkstra fast paths in
:mod:`repro.spt` additionally recognise them (via :func:`as_csr`) and
switch to array-based inner loops.

A snapshot may also carry a flat ``weights`` array aligned with
``indices`` — one integer per directed *arc*, so antisymmetric weight
functions (the tiebreaking perturbations of Definition 18, where
``w(u, v) != w(v, u)``) are representable, not just symmetric edge
weights.  Weight-carrying snapshots come from
:meth:`repro.weighted.graph.WeightedGraph.csr` or from
:meth:`CSRGraph.with_arc_weights`, and unlock the flat Dijkstra kernel
(:func:`repro.spt.fastpaths.csr_dijkstra_flat`) that reads weights by
array index instead of calling back into Python per arc.

Snapshots are immutable: they capture the base graph at construction
time and never observe later mutations.  :meth:`repro.graphs.base.Graph.csr`
caches one snapshot per ``(n, m)`` state, which is sound because
:class:`~repro.graphs.base.Graph` supports insertion only.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import GraphError
from repro.graphs.base import Edge, canonical_edge

__all__ = ["CSRGraph", "CSRFaultView", "as_csr", "fast_without"]


class CSRGraph:
    """An immutable flat-array adjacency snapshot of a ``GraphLike``.

    Parameters
    ----------
    graph:
        Any object with ``n`` and ``sorted_neighbors`` (``Graph``,
        ``FaultView``, or another CSR object).  Neighbour rows are
        stored sorted, so deterministic (lexicographic) traversals over
        a CSR snapshot match the reference implementations exactly.

    Examples
    --------
    >>> from repro.graphs.base import Graph
    >>> g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> snap = CSRGraph.from_graph(g)
    >>> snap.n, snap.m
    (4, 4)
    >>> snap.neighbors(0)
    (1, 3)
    >>> snap.without([(0, 1)]).has_edge(0, 1)
    False
    """

    __slots__ = ("_n", "_m", "indptr", "indices", "weights", "_arc_pos",
                 "_nd")

    def __init__(self, n: int, indptr: List[int], indices: List[int],
                 arc_pos: Dict[Edge, Tuple[int, int]],
                 weights: Optional[List[int]] = None):
        self._n = n
        self._m = len(indices) // 2
        self.indptr = indptr
        self.indices = indices
        self._arc_pos = arc_pos
        self._nd: Optional[_NDMirror] = None
        if weights is not None:
            if len(weights) != len(indices):
                raise GraphError(
                    f"weights array has {len(weights)} entries for "
                    f"{len(indices)} arcs"
                )
            for w in weights:
                if w <= 0:
                    raise GraphError(f"non-positive arc weight {w}")
        self.weights = weights

    @classmethod
    def from_graph(cls, graph: Any,
                   arc_weight: Optional[Callable[[int, int], int]] = None
                   ) -> "CSRGraph":
        """Flatten ``graph`` into a fresh snapshot (one O(n + m) pass).

        When ``arc_weight`` (a ``(u, v) -> int`` callable) is given,
        the snapshot carries a flat per-arc weights array; positivity
        is validated here, once, so the weighted kernels can skip the
        per-arc check.
        """
        n = graph.n
        indptr = [0] * (n + 1)
        indices: List[int] = []
        for v in range(n):
            indices.extend(graph.sorted_neighbors(v))
            indptr[v + 1] = len(indices)
        # Arc positions: canonical edge -> (index of v in row u, index of
        # u in row v) with u < v.  This is what makes fault masking
        # O(|F|) instead of O(m).
        arc_pos: Dict[Edge, Tuple[int, int]] = {}
        pos_of: Dict[Tuple[int, int], int] = {}
        for u in range(n):
            for i in range(indptr[u], indptr[u + 1]):
                pos_of[(u, indices[i])] = i
        for (u, v), i in pos_of.items():
            if u < v:
                arc_pos[(u, v)] = (i, pos_of[(v, u)])
        weights: Optional[List[int]] = None
        if arc_weight is not None:
            weights = [
                arc_weight(u, indices[i])
                for u in range(n)
                for i in range(indptr[u], indptr[u + 1])
            ]
        return cls(n, indptr, indices, arc_pos, weights)

    def with_arc_weights(self, arc_weight: Callable[[int, int], int]
                         ) -> "CSRGraph":
        """A reweighted snapshot sharing this topology (O(m) weight calls).

        ``indptr``/``indices`` and the arc-position table are shared
        with ``self`` (all immutable), so only the weights array is
        fresh.  ``arc_weight`` is evaluated per directed arc, which is
        what lets antisymmetric tiebreaking perturbations be
        materialised into a flat array once and then read by index in
        the Dijkstra inner loop.
        """
        weights = [
            arc_weight(u, self.indices[i])
            for u in range(self._n)
            for i in range(self.indptr[u], self.indptr[u + 1])
        ]
        return CSRGraph(self._n, self.indptr, self.indices,
                        self._arc_pos, weights)

    # ------------------------------------------------------------------
    # GraphLike queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self._n)

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < self._n

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (self.has_vertex(u) and self.has_vertex(v)):
            return False
        return canonical_edge(u, v) in self._arc_pos

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Neighbours of ``v`` in ascending order (tuple snapshot)."""
        self._check_vertex(v)
        return tuple(self.indices[self.indptr[v]:self.indptr[v + 1]])

    def sorted_neighbors(self, v: int) -> List[int]:
        self._check_vertex(v)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.indptr[v + 1] - self.indptr[v]

    def edges(self) -> Iterator[Edge]:
        for u in range(self._n):
            for i in range(self.indptr[u], self.indptr[u + 1]):
                v = self.indices[i]
                if u < v:
                    yield (u, v)

    def arcs(self) -> Iterator[Edge]:
        for u in range(self._n):
            for i in range(self.indptr[u], self.indptr[u + 1]):
                yield (u, self.indices[i])

    def is_connected(self) -> bool:
        if self._n == 0:
            return True
        from repro.spt.bfs import UNREACHABLE, bfs_distances

        return UNREACHABLE not in bfs_distances(self, 0)

    def arc_weight(self, u: int, v: int) -> int:
        """Weight of the directed arc ``(u, v)`` from the flat array.

        Only valid on weight-carrying snapshots.  The two orientations
        of an edge are stored separately, so antisymmetric weights read
        back exactly.  Passing this bound method as the ``weight``
        argument of :func:`repro.spt.dijkstra.dijkstra` selects the
        flat array kernel.
        """
        if self.weights is None:
            raise GraphError("snapshot carries no weights array")
        pos = self._arc_pos.get(canonical_edge(u, v))
        if pos is None:
            raise GraphError(f"({u}, {v}) is not an edge")
        return self.weights[pos[0] if u < v else pos[1]]

    # ------------------------------------------------------------------
    # fault masking
    # ------------------------------------------------------------------
    def arc_positions(self, u: int, v: int) -> Optional[Tuple[int, int]]:
        """Positions of arcs ``(u, v)`` and ``(v, u)`` in ``indices``.

        Returns ``None`` when the edge is absent.  Position order
        follows the canonical orientation ``u < v``.
        """
        return self._arc_pos.get(canonical_edge(u, v))

    def without(self, faults: Iterable[Edge]) -> "CSRFaultView":
        """A masked view of ``G \\ F`` (O(m) buffer + O(|F|) zeroing).

        Mirrors :meth:`repro.graphs.base.Graph.without`: orientation is
        ignored and faults absent from the graph are tolerated.  For
        long scenario streams prefer
        :class:`repro.scenarios.engine.ScenarioEngine`, which reuses
        one scratch mask instead of allocating per view.
        """
        return CSRFaultView(self, faults)

    # ------------------------------------------------------------------
    def ndarrays(self) -> Optional["_NDMirror"]:
        """Cached ndarray mirrors of the flat arrays (None sans numpy).

        Built lazily on first request and cached for the snapshot's
        lifetime, so the list→ndarray conversion cost is paid once per
        snapshot, not once per kernel call — the contract the
        vectorized backend (:mod:`repro.backends.vectorized`) relies
        on.  Soundness follows from immutability: the flat arrays
        never change after construction, so the mirror cannot go
        stale.  Returns ``None`` when numpy is unavailable
        (:func:`repro.backends.api.numpy_or_none` is the gate).
        """
        nd = self._nd
        if nd is None:
            from repro.backends.api import numpy_or_none
            np = numpy_or_none()
            if np is None:
                return None
            nd = self._nd = _NDMirror(np, self)
        return nd

    def __getstate__(self) -> Tuple[Any, ...]:
        # The ndarray mirror is dropped: ndarrays don't belong on the
        # multiprocessing pickle boundary (a Graph's cached _csr slot
        # travels with the fleet's InitRequest.graph)
        # and are rebuilt lazily on demand.
        return (self._n, self.indptr, self.indices, self._arc_pos,
                self.weights)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        n, indptr, indices, arc_pos, weights = state
        self._n = n
        self._m = len(indices) // 2
        self.indptr = indptr
        self.indices = indices
        self._arc_pos = arc_pos
        self.weights = weights
        self._nd = None

    def _as_csr(self) -> Tuple["CSRGraph", Optional[bytearray]]:
        """Fast-path dispatch hook: ``(snapshot, arc mask or None)``."""
        return self, None

    def _check_vertex(self, v: int) -> None:
        if not isinstance(v, int):
            raise GraphError(f"vertices must be ints, got {v!r}")
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} outside range(0, {self._n})")

    def __repr__(self) -> str:
        return f"CSRGraph(n={self._n}, m={self._m})"


class _NDMirror:
    """ndarray mirrors of one snapshot's flat arrays (numpy required).

    Everything the vectorized kernels index per call, converted once:

    * ``indptr`` / ``indices`` — int64 copies of the CSR arrays.
    * ``tails`` — the tail vertex of every arc (``indices[i]`` is the
      head; ``tails[i]`` the row it lives in), so a gathered arc set
      knows both endpoints without bisecting ``indptr``.
    * ``weights`` — int64 copy of the flat weights, or ``None`` when
      the snapshot is unweighted *or* a weight overflows int64 (huge
      tiebreaking perturbations); ``max_weight`` backs the
      dispatcher's overflow guard.
    * ``rev`` — the reverse-arc permutation: ``rev[i]`` is the
      position of arc ``(head_i, tail_i)``.  Arc ids are sorted by
      ``(tail, head)`` (rows are sorted), so the permutation sorting
      them by ``(head, tail)`` *is* the reverse map on a simple graph.
      Built always: the weighted repair kernel reads reverse weights
      through it, and the multi-source wave's pull levels find the
      pull positions of masked arcs with it.
    * ``degree`` — the row lengths, ``indptr[v + 1] - indptr[v]``.
    * ``rows`` / ``row_starts`` — the non-empty rows and their first
      arc ids: the segment starts of a per-row ``reduceat`` over an
      arc-aligned array (an empty row has no segment of its own).
    """

    __slots__ = ("indptr", "indices", "tails", "weights", "rev",
                 "degree", "rows", "row_starts", "max_weight")

    def __init__(self, np: Any, csr: "CSRGraph"):
        self.indptr = np.asarray(csr.indptr, dtype=np.int64)
        self.indices = np.asarray(csr.indices, dtype=np.int64)
        self.degree = self.indptr[1:] - self.indptr[:-1]
        self.tails = np.repeat(np.arange(csr.n, dtype=np.int64),
                               self.degree)
        self.rev = np.lexsort((self.tails, self.indices))
        self.rows = np.flatnonzero(self.degree)
        self.row_starts = self.indptr[self.rows]
        self.weights: Any = None
        self.max_weight = 0
        if csr.weights is not None:
            try:
                w = np.asarray(csr.weights, dtype=np.int64)
            except OverflowError:
                w = None
            if w is not None:
                self.weights = w
                self.max_weight = int(w.max()) if len(csr.weights) else 0


class CSRFaultView:
    """``G \\ F`` over a :class:`CSRGraph`, realised as an arc mask.

    Construction allocates a fresh all-ones mask (one O(m) bytearray
    copy), then zeroes ≤ ``2 |F|`` positions — one dict lookup and two
    writes per fault edge actually present.  The mask is shared with
    the fast traversals in :mod:`repro.spt`, which skip masked arcs
    inline.

    Like :class:`~repro.graphs.views.FaultView`, the view is read-only,
    tolerates absent/duplicate fault edges, and composes: ``without``
    flattens onto the same base snapshot.
    """

    __slots__ = ("_base", "_faults", "_mask", "_removed")

    def __init__(self, base: CSRGraph, faults: Iterable[Edge]):
        self._base = base
        self._faults = frozenset(canonical_edge(u, v) for u, v in faults)
        self._mask = bytearray(b"\x01") * len(base.indices)
        removed = 0
        for edge in self._faults:
            pos = base._arc_pos.get(edge)
            if pos is not None:
                self._mask[pos[0]] = 0
                self._mask[pos[1]] = 0
                removed += 1
        self._removed = removed

    # ------------------------------------------------------------------
    @property
    def base(self) -> CSRGraph:
        return self._base

    @property
    def faults(self) -> frozenset:
        return self._faults

    @property
    def n(self) -> int:
        return self._base.n

    @property
    def m(self) -> int:
        return self._base.m - self._removed

    def vertices(self) -> range:
        return self._base.vertices()

    def has_vertex(self, v: int) -> bool:
        return self._base.has_vertex(v)

    def has_edge(self, u: int, v: int) -> bool:
        if not self._base.has_edge(u, v):
            return False
        return canonical_edge(u, v) not in self._faults

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Surviving neighbours of ``v`` in ascending order."""
        base = self._base
        base._check_vertex(v)
        lo, hi = base.indptr[v], base.indptr[v + 1]
        mask = self._mask
        return tuple(
            u for u, ok in zip(base.indices[lo:hi], mask[lo:hi]) if ok
        )

    def sorted_neighbors(self, v: int) -> List[int]:
        return list(self.neighbors(v))

    def degree(self, v: int) -> int:
        base = self._base
        base._check_vertex(v)
        lo, hi = base.indptr[v], base.indptr[v + 1]
        return sum(self._mask[lo:hi])

    def edges(self) -> Iterator[Edge]:
        for edge in self._base.edges():
            if edge not in self._faults:
                yield edge

    def arcs(self) -> Iterator[Edge]:
        mask = self._mask
        base = self._base
        for u in range(base.n):
            for i in range(base.indptr[u], base.indptr[u + 1]):
                if mask[i]:
                    yield (u, base.indices[i])

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        from repro.spt.bfs import UNREACHABLE, bfs_distances

        return UNREACHABLE not in bfs_distances(self, 0)

    def arc_weight(self, u: int, v: int) -> int:
        """Weight of the surviving arc ``(u, v)`` (faulted arcs raise)."""
        if not self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) not present in the view")
        return self._base.arc_weight(u, v)

    # ------------------------------------------------------------------
    def without(self, faults: Iterable[Edge]) -> "CSRFaultView":
        """A view over the same snapshot with the union fault set."""
        extra = frozenset(canonical_edge(u, v) for u, v in faults)
        return CSRFaultView(self._base, self._faults | extra)

    def _as_csr(self) -> Tuple[CSRGraph, Optional[bytearray]]:
        return self._base, self._mask

    def __repr__(self) -> str:
        return (
            f"CSRFaultView(base={self._base!r}, "
            f"faults={sorted(self._faults)!r})"
        )


def fast_without(graph: Any, faults: Iterable[Edge]) -> Any:
    """``G \\ F`` on the cheapest structure ``graph`` supports.

    A :class:`~repro.graphs.base.Graph` routes through its cached CSR
    snapshot, so traversals that follow take the array fast path; any
    other ``GraphLike`` (including CSR types and ``FaultView``) falls
    back to its own ``without``.  This is the one shared definition of
    the dispatch — call sites should not re-implement it.
    """
    csr_method = getattr(graph, "csr", None)
    if csr_method is not None:
        return csr_method().without(faults)
    return graph.without(faults)


def as_csr(graph: Any) -> Optional[Tuple[CSRGraph, Optional[bytearray]]]:
    """``(snapshot, mask)`` when ``graph`` has a CSR fast path, else None.

    The :mod:`repro.spt` traversals call this to decide between the
    array inner loops and the generic ``GraphLike`` reference code.
    Dispatch is duck-typed on the ``_as_csr`` hook so third-party
    structures can opt in.
    """
    hook = getattr(graph, "_as_csr", None)
    return hook() if hook is not None else None
