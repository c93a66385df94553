"""Afek et al.'s base-set method for path restoration.

Before restorable tiebreaking existed, the practical route around
tiebreaking-sensitivity was the *base set* (Afek et al. [3],
footnote 1 of this paper): fix an arbitrary set of C(n, 2) canonical
shortest paths, then take every canonical path extended by at most one
extra edge at either end.  Any replacement path concatenates two base
paths (provable from Theorem 11), at the cost of a much larger object:
up to ``m(n-1)`` base paths versus the ``n(n-1)`` selected paths of
Theorem 2.  Closing that gap was the paper's "intermediate open
question"; the ``bench_ablation_base_sets`` benchmark measures it.

Canonical paths here are made unique and *symmetric* by a symmetric
random perturbation (unlike the antisymmetric one of Definition 18 —
symmetry is fine for the base set because correctness never depended
on tiebreaking).  The perturbed weights are materialised into a flat
per-arc array once (see :meth:`repro.graphs.csr.CSRGraph.with_arc_weights`),
so every canonical tree is computed by the flat Dijkstra kernel, and
restoration queries run through a :class:`~repro.query.session.Session`
over one :class:`ScenarioEngine` — shared base distances, tree fault
indices, and the row cache behind each replacement distance.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.exceptions import DisconnectedError, GraphError
from repro.graphs.base import Edge, Graph, canonical_edge
from repro.query import DistanceQuery, Session
from repro.scenarios.engine import ScenarioEngine
from repro.spt.bfs import UNREACHABLE
from repro.spt.trees import ShortestPathTree
from repro.spt.paths import Path


class BaseSet:
    """The Afek-et-al. base set over an unweighted graph.

    Parameters
    ----------
    graph:
        Undirected unweighted input.
    seed:
        Randomness for the symmetric tie-breaking perturbation.
    engine:
        Optional shared (unweighted) :class:`ScenarioEngine` over
        ``graph``; one is built if absent.  Restoration queries reuse
        its base distance vectors, subtree interval indices, and row
        cache.
    """

    def __init__(self, graph: Graph, seed: int = 0,
                 engine: Optional[ScenarioEngine] = None):
        self._graph = graph
        self._session = Session.adopt(graph, engine=engine)
        self._engine = self._session.engine
        n = max(graph.n, 2)
        rng = random.Random(seed)
        big = n ** 6
        self._scale = 2 * n * (big + 1)
        perturbation = {
            edge: rng.randint(-big, big) for edge in graph.edges()
        }

        scale = self._scale

        def weight(u: int, v: int) -> int:
            return scale + perturbation[canonical_edge(u, v)]

        # Flat symmetric perturbed weights over the engine's snapshot:
        # every canonical tree below is one flat-kernel Dijkstra (and
        # the closure and perturbation dict die with this frame).
        self._wcsr = self._engine.csr.with_arc_weights(weight)
        self._trees: Dict[int, ShortestPathTree] = {}

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self._graph

    def _tree(self, source: int) -> ShortestPathTree:
        tree = self._trees.get(source)
        if tree is None:
            tree = ShortestPathTree.compute(
                self._wcsr, source, self._wcsr.arc_weight, self._scale
            )
            self._trees[source] = tree
        return tree

    def canonical(self, u: int, v: int) -> Optional[Path]:
        """The canonical shortest ``u ~> v`` path (symmetric choice)."""
        tree = self._tree(u)
        if not tree.reaches(v):
            return None
        return tree.path_to(v)

    # ------------------------------------------------------------------
    def count_paths(self) -> int:
        """Number of base paths: canonical pairs + one-edge extensions.

        Counted as the paper's footnote does: each base path is a
        canonical path with an extra edge appended at one end (or no
        extra edge), deduplicating the zero-extension case, bounded by
        ``m (n - 1)``.
        """
        n, m = self._graph.n, self._graph.m
        connected_pairs = 0
        extension_count = 0
        for u in self._graph.vertices():
            tree = self._tree(u)
            reached = len(tree.reached_vertices()) - 1
            connected_pairs += reached
            for v in tree.reached_vertices():
                if v != u:
                    extension_count += self._graph.degree(v)
        # ordered pairs were counted twice; canonical paths are
        # symmetric so halve, extensions stay per (path, end-edge).
        return connected_pairs // 2 + extension_count // 2

    def theoretical_bound(self) -> int:
        """Afek et al.'s bound: ``m (n - 1)`` one-edge extensions plus
        the ``C(n, 2)`` canonical paths themselves."""
        n, m = self._graph.n, self._graph.m
        return m * (n - 1) + n * (n - 1) // 2

    # ------------------------------------------------------------------
    def restore(self, s: int, t: int, e: Edge) -> Path:
        """Restore ``s ~> t`` around ``e`` by base-path concatenation.

        Scans middle edges ``(u, v)``: the candidate
        ``canonical(s, u) + (u, v) + canonical(v, t)`` is a base path
        (canonical + one extension) concatenated with a canonical
        path.  The shortest fault-avoiding candidate is optimal by the
        weighted restoration lemma.  Also tries the pure canonical
        ``s ~> t`` path in case ``e`` is off it.
        """
        e = canonical_edge(*e)
        direct = self.canonical(s, t)
        if direct is not None and direct.avoids([e]):
            return direct
        target = self._session.answer_one(DistanceQuery(s, t, (e,))).value
        if target == UNREACHABLE:
            raise DisconnectedError(s, t, [e])
        tree_s = self._tree(s)
        tree_t = self._tree(t)
        good_s = self._engine.tree_index(tree_s).fault_free_vertices([e])
        good_t = self._engine.tree_index(tree_t).fault_free_vertices([e])
        best: Optional[Tuple[int, Edge]] = None
        for u, v in self._graph.arcs():
            if canonical_edge(u, v) == e:
                continue
            if u not in good_s or v not in good_t:
                continue
            hops = tree_s.hop_distance(u) + 1 + tree_t.hop_distance(v)
            if best is None or hops < best[0]:
                best = (hops, (u, v))
        if best is None or best[0] != target:
            raise GraphError(
                f"base-set restoration failed for {s}~>{t} under {e}: "
                f"target {target}, best {best}"
            )
        u, v = best[1]
        return (
            tree_s.path_to(u)
            .concat(Path([u, v]))
            .concat(tree_t.path_to(v).reverse())
        )

    def __repr__(self) -> str:
        return f"BaseSet(n={self._graph.n}, m={self._graph.m})"
