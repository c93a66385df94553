"""A single-fault sourcewise distance sensitivity oracle.

For a source set ``S``, preprocessing stores per source ``s``:

* the selected (restorable-tiebreaking) tree ``T_s`` with hop
  distances and per-vertex path edge-membership, and
* for every *tree edge* ``e`` of ``T_s``, the full replacement
  distance row ``dist_{G \\ e}(s, .)``.

Stability is what makes this complete: a fault off the selected path
``pi(s, v)`` never changes ``dist(s, v)``, so only tree-edge faults
need rows, and a query reduces to one membership test plus one array
lookup — O(1).

Preprocessing cost is one BFS per tree edge.  Run with
``use_preserver=True``, those BFS runs happen inside the 1-FT
``{s} x V`` preserver (``O(n^{3/2})`` edges) instead of ``G``
(``O(n^2)`` possible) — answers are identical by Definition 4, and on
dense graphs the work drops accordingly.  This realises the paper's
Section-4.3 remark that its fault-tolerant structures "balance the
information" of DSOs.

All preprocessing routes through the declarative query API
(:mod:`repro.query`) — one shared :class:`~repro.query.session.Session`
over the base graph (injectable, so a caller already holding one pays
nothing extra) plus one per preserver substrate.  The whole
one-BFS-per-tree-edge loop is expressed as **one** declarative stream
of :class:`~repro.query.queries.VectorQuery` objects: the planner
groups it by canonical fault set, so each tree edge is masked once and
one bit-packed multi-source wave computes the replacement rows of
every source whose tree contains that edge (the transposition PR 3
hand-rolled now falls out of planning).  Since PR 5 the scheme's trees
are donated to the engine's incremental-delta path
(:meth:`~repro.scenarios.engine.ScenarioEngine.adopt_base_tree`):
every preprocessing fault is a tree edge, so a row whose orphaned
subtree is small is *patched* from the base row instead of traversed
at all (see :attr:`SourcewiseDSO.preprocessing_provenance`).  Query
streams go through
:meth:`SourcewiseDSO.query_many`, which hoists the per-query
validation and dictionary plumbing out of the loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import GraphError
from repro.graphs.base import Edge, Graph, canonical_edge
from repro.core.scheme import RestorableTiebreaking
from repro.preservers.ft_bfs import ft_sv_preserver
from repro.query.queries import VectorQuery
from repro.query.session import Session
from repro.scenarios.engine import ScenarioEngine
from repro.spt.bfs import UNREACHABLE


class SourcewiseDSO:
    """O(1)-query single-fault distance oracle for ``S x V`` pairs.

    Parameters
    ----------
    graph:
        The input graph.
    sources:
        The source set ``S``.
    scheme:
        Optional prebuilt restorable scheme (must cover >= 1 fault).
    use_preserver:
        When True, replacement BFS runs inside each source's 1-FT
        ``{s} x V`` preserver rather than the full graph.
    seed:
        Seed for a fresh scheme.
    engine:
        Optional shared :class:`ScenarioEngine` over ``graph``
        (wrapped in a private :class:`Session`); prefer ``session``.
    session:
        Optional shared :class:`~repro.query.session.Session` over
        ``graph``; one is built if absent.  Base distance rows come
        from its caches, and (without a preserver) the per-tree-edge
        replacement rows ride its planner's grouped waves.
    """

    def __init__(self, graph: Graph, sources: Iterable[int],
                 scheme: Optional[RestorableTiebreaking] = None,
                 use_preserver: bool = False, seed: int = 0,
                 engine: Optional[ScenarioEngine] = None,
                 session: Optional[Session] = None):
        self._graph = graph
        self._sources = sorted(set(sources))
        for s in self._sources:
            if not graph.has_vertex(s):
                raise GraphError(f"source {s} not in graph")
        if scheme is None:
            scheme = RestorableTiebreaking.build(graph, f=1, seed=seed)
        self._scheme = scheme
        self._use_preserver = use_preserver
        session = Session.adopt(graph, engine=engine, session=session)
        self._session = session
        self._engine = session.engine

        # per source: fault-free distances, tree-path edge sets,
        # and replacement rows per tree edge
        self._base_dist: Dict[int, Sequence[int]] = {}
        self._path_edges: Dict[int, Dict[int, frozenset]] = {}
        self._rows: Dict[Tuple[int, Edge], Sequence[int]] = {}
        self._preprocessed_edges = 0
        self._substrate_edges = 0
        self._row_provenance: Dict[str, int] = {}

        trees = {s: self._scheme.tree(s) for s in self._sources}
        # Base rows for every source in one fault-free batch wave.
        self._base_dist.update(zip(self._sources, (
            a.value for a in self._session.answer(
                VectorQuery(s) for s in self._sources
            )
        )))
        # Donate the scheme's trees to the engine's delta path: every
        # preprocessing fault is a tree edge of some source, exactly
        # the regime where patching the orphaned subtree beats a full
        # wave — and the tree the engine would otherwise re-derive
        # per source is already in hand.
        if not self._engine.weighted and self._engine.delta_enabled:
            for s in self._sources:
                self._engine.adopt_base_tree(s, trees[s])
        for s in self._sources:
            self._path_edges[s] = self._selected_path_edges(s, trees[s])
        if use_preserver:
            for s in self._sources:
                self._preprocess_in_preserver(s, trees[s])
        else:
            self._preprocess_shared(trees)

    # ------------------------------------------------------------------
    @staticmethod
    def _selected_path_edges(s: int, tree) -> Dict[int, frozenset]:
        # edge sets of each selected path, built incrementally down
        # the tree (O(n * depth) total, shared via frozenset reuse)
        per_vertex: Dict[int, frozenset] = {s: frozenset()}
        for v in tree.vertices_by_hop():
            p = tree.parent(v)
            if p is not None:
                per_vertex[v] = per_vertex[p] | {canonical_edge(p, v)}
        return per_vertex

    def _preprocess_shared(self, trees) -> None:
        """Replacement rows over the base graph, as one query stream.

        Sources sharing a tree edge share the scenario ``{e}``: the
        whole preprocessing is one declarative ``VectorQuery`` stream,
        and the session's planner groups it by canonical fault set, so
        each edge is masked once and one multi-source wave serves
        every source whose tree contains it (a source's tree edges are
        exactly the faults that can change its rows, so no source
        misses a needed row).
        """
        by_edge: Dict[Edge, List[int]] = {}
        for s in self._sources:
            for e in trees[s].edges():
                by_edge.setdefault(e, []).append(s)
        self._substrate_edges += self._graph.m * len(self._sources)
        stream = [
            (s, e) for e in sorted(by_edge) for s in by_edge[e]
        ]
        answers = self._session.answer(
            VectorQuery(s, (e,)) for s, e in stream
        )
        for (s, e), answer in zip(stream, answers):
            self._rows[(s, e)] = answer.value
            self._preprocessed_edges += 1
            kind = answer.provenance.source
            self._row_provenance[kind] = self._row_provenance.get(kind, 0) + 1

    def _preprocess_in_preserver(self, s: int, tree) -> None:
        """Replacement rows inside the source's own 1-FT preserver.

        Each source has a private substrate graph here, so rows batch
        per source (one scenario stream over the substrate's engine)
        rather than across sources.
        """
        substrate = ft_sv_preserver(self._scheme, [s], f=1).as_graph()
        row_session = Session(substrate)
        self._substrate_edges += substrate.m
        tree_edges = list(tree.edges())
        answers = row_session.answer(
            VectorQuery(s, (e,)) for e in tree_edges
        )
        for e, answer in zip(tree_edges, answers):
            self._rows[(s, e)] = answer.value
            self._preprocessed_edges += 1
            kind = answer.provenance.source
            self._row_provenance[kind] = self._row_provenance.get(kind, 0) + 1

    # ------------------------------------------------------------------
    @property
    def sources(self) -> List[int]:
        return list(self._sources)

    @property
    def scheme(self) -> RestorableTiebreaking:
        """The tiebreaking scheme the oracle selected paths with."""
        return self._scheme

    @property
    def preprocessed_edges(self) -> int:
        """Number of (source, tree-edge) replacement rows stored."""
        return self._preprocessed_edges

    @property
    def substrate_edges(self) -> int:
        """Total edges of the graphs the preprocessing BFS ran on —
        the work saved (or not) by ``use_preserver``."""
        return self._substrate_edges

    @property
    def preprocessing_provenance(self) -> Dict[str, int]:
        """How the replacement rows were served, by provenance kind.

        A counter over ``{"cache", "filter", "delta", "wave"}`` — on a
        delta-enabled unweighted engine the tree-edge fault stream is
        the delta sweet spot, so most rows should report ``"delta"``.
        """
        return dict(self._row_provenance)

    def space_entries(self) -> int:
        """Stored distance entries (the oracle's space, in words)."""
        return (
            sum(len(row) for row in self._rows.values())
            + sum(len(d) for d in self._base_dist.values())
        )

    # ------------------------------------------------------------------
    def query(self, s: int, v: int, e: Edge) -> int:
        """``dist_{G \\ e}(s, v)`` in O(1) (plus a set membership).

        Returns ``-1`` when the fault disconnects the pair.  ``e``
        must be an edge of the graph: the oracle only answers
        single-edge-fault scenarios, and a non-edge "fault" would
        silently alias the fault-free distance (the pre-fix
        behaviour) instead of surfacing the caller's bug.
        """
        return self.query_many([(s, v, e)])[0]

    def query_many(self, queries: Iterable[Tuple[int, int, Edge]]
                   ) -> List[int]:
        """Batch :meth:`query` over a stream of ``(s, v, e)`` triples.

        The one implementation of validate-and-answer (:meth:`query`
        delegates here), with the per-query attribute and dictionary
        plumbing hoisted out of the loop — the entry point for large
        sampled query streams.  Edge existence is checked against the
        engine's snapshot, which is exact under the library-wide
        frozen-base-graph convention.
        """
        base_dist = self._base_dist
        path_edges = self._path_edges
        rows = self._rows
        has_edge = self._engine.csr.has_edge
        n = self._graph.n
        out: List[int] = []
        append = out.append
        for s, v, e in queries:
            bd = base_dist.get(s)
            if bd is None:
                raise GraphError(f"{s} is not an oracle source")
            if not 0 <= v < n:
                raise GraphError(f"unknown vertex {v}")
            e = canonical_edge(*e)
            if not has_edge(*e):
                raise GraphError(f"{e} is not an edge of the graph")
            pe = path_edges[s].get(v)
            if pe is None:
                append(UNREACHABLE)
            elif e not in pe:
                append(bd[v])
            else:
                append(rows[(s, e)][v])
        return out

    def __repr__(self) -> str:
        return (
            f"SourcewiseDSO(sources={len(self._sources)}, "
            f"rows={self._preprocessed_edges}, "
            f"preserver={self._use_preserver})"
        )
