"""Single-pair replacement paths via the candidate sweep (Theorem 28).

The paper uses Hershberger–Suri / Malik–Mittal–Gupta as a black box:
given a pair ``(s, t)``, report ``dist_{G \\ e}(s, t)`` for every edge
``e`` on the shortest ``s ~> t`` path, in near-linear time.  We
implement the same machinery the paper sketches in its proof of
Theorem 28:

1. perturb edge weights so shortest paths are unique (any
   tiebreaking weight function works here; antisymmetry not needed);
2. compute the two selected shortest-path trees ``T_s`` and ``T_t``;
3. by the weighted restoration lemma (Theorem 11) every edge
   ``(u, v)`` defines one *candidate* replacement path
   ``pi(s, u) + (u, v) + reverse(pi(t, v))``, whose length is known in
   O(1) from the two trees;
4. sort candidates by length and sweep: the first candidate avoiding a
   failing edge ``e`` is an exact replacement shortest path for ``e``.

Our sweep labels path edges in ``O(#candidates * L)`` for an ``L``-hop
path instead of the paper's cleverer data structure — on the O(n)-edge
tree unions Algorithm 1 feeds it, that is the same Õ(n) shape per pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.exceptions import GraphError
from repro.graphs.base import Edge, canonical_edge
from repro.spt.bfs import UNREACHABLE
from repro.spt.trees import ShortestPathTree
from repro.spt.paths import Path


class Candidate:
    """One weighted-restoration-lemma candidate replacement path.

    The candidate for middle arc ``(u, v)`` is
    ``pi(s, u) + (u, v) + reverse(pi(t, v))``; only its hop length and
    *edge set* are needed by the sweep, both derived lazily from the
    two trees.
    """

    __slots__ = ("arc", "hops", "weighted", "_tree_s", "_tree_t", "_edges")

    def __init__(self, arc: Edge, hops: int, weighted: int,
                 tree_s: ShortestPathTree, tree_t: ShortestPathTree):
        self.arc = arc
        self.hops = hops
        self.weighted = weighted
        self._tree_s = tree_s
        self._tree_t = tree_t
        self._edges: Optional[frozenset] = None

    def edge_set(self) -> frozenset:
        if self._edges is None:
            u, v = self.arc
            edges = set(self._tree_s.path_to(u).edges())
            edges.add(canonical_edge(u, v))
            edges.update(self._tree_t.path_to(v).edges())
            self._edges = frozenset(edges)
        return self._edges

    def path(self) -> Path:
        u, v = self.arc
        front = self._tree_s.path_to(u)
        back = self._tree_t.path_to(v).reverse()
        return front.concat(Path([u, v])).concat(back)


def candidate_sweep(graph, s: int, t: int, weight, scale: int,
                    trees: Optional[Tuple[ShortestPathTree,
                                          ShortestPathTree]] = None
                    ) -> Tuple[Path, Dict[Edge, int]]:
    """Run the full candidate sweep for one pair.

    Parameters
    ----------
    graph:
        Graph (or view) to operate on — Algorithm 1 passes the union of
        two selected trees here, not the whole input graph.
    s, t:
        The pair.
    weight, scale:
        A unique-shortest-path arc weight function and its hop scale
        (e.g. an :class:`~repro.core.weights.AntisymmetricWeights`).
    trees:
        Optional precomputed ``(T_s, T_t)`` selected trees over
        ``graph`` under ``weight`` — callers holding a batched kernel
        (e.g. Algorithm 1's amortised per-pair Dijkstra batch) inject
        them here; when absent the sweep computes both itself.

    Returns
    -------
    (path, distances):
        The selected ``s ~> t`` shortest path and a map from each of
        its edges ``e`` to ``dist_{G \\ e}(s, t)`` (``UNREACHABLE`` when
        ``e`` disconnects the pair).
    """
    if trees is None:
        tree_s = ShortestPathTree.compute(graph, s, weight, scale)
        tree_t = ShortestPathTree.compute(graph, t, weight, scale)
    else:
        tree_s, tree_t = trees
    if not tree_s.reaches(t):
        raise GraphError(f"{s} and {t} are disconnected")
    base_path = tree_s.path_to(t)

    candidates: List[Candidate] = []
    for u, v in graph.arcs():
        if not (tree_s.reaches(u) and tree_t.reaches(v)):
            continue
        weighted = (
            tree_s.weighted_distance(u)
            + weight(u, v)
            + tree_t.weighted_distance(v)
        )
        hops = tree_s.hop_distance(u) + 1 + tree_t.hop_distance(v)
        candidates.append(Candidate((u, v), hops, weighted, tree_s, tree_t))
    # Hop count first (machine ints), exact weight only to break hop
    # ties — same order as sorting by weight, much cheaper comparisons.
    candidates.sort(key=lambda c: (c.hops, c.weighted))

    unlabeled = set(base_path.edges())
    distances: Dict[Edge, int] = {}
    for cand in candidates:
        if not unlabeled:
            break
        # Edges of the base path that this candidate avoids get labeled
        # with the candidate's length: it is the shortest candidate
        # avoiding them, hence (Theorem 11) the replacement distance.
        covered = cand.edge_set()
        newly = [e for e in unlabeled if e not in covered]
        for e in newly:
            distances[e] = cand.hops
            unlabeled.discard(e)
    for e in unlabeled:
        distances[e] = UNREACHABLE
    return base_path, distances


def single_pair_replacement_distances(graph, s: int, t: int, weight=None,
                                      scale: int = 1, seed: int = 0
                                      ) -> Tuple[Path, Dict[Edge, int]]:
    """Convenience wrapper: build weights if absent, then sweep.

    When ``weight`` is None a fresh random tiebreaking weight function
    is drawn over ``graph`` (antisymmetric ones are fine and reuse the
    library's machinery).
    """
    if weight is None:
        from repro.core.weights import AntisymmetricWeights
        from repro.graphs.base import Graph

        base = graph if isinstance(graph, Graph) else graph.materialize()
        atw = AntisymmetricWeights.random(base, f=1, seed=seed)
        weight, scale = atw.weight, atw.scale
    return candidate_sweep(graph, s, t, weight, scale)
