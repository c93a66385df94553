"""The weighted restoration lemma (Theorem 11) as algorithms.

Theorem 11: in an undirected positively-weighted graph, for any
``s, t`` and failing edge ``e``, there is an edge ``(u, v)`` such that
for *any* shortest paths ``pi(s, u)`` and ``pi(v, t)``, the path
``pi(s, u) + (u, v) + pi(v, t)`` is a replacement shortest path
avoiding ``e``.  Unlike the unweighted restoration lemma this is not
tiebreaking-sensitive, which makes it directly algorithmic:

* :func:`weighted_restoration_lemma_holds` decides the guarantee on a
  concrete instance (used by the tests as a universal property).
* :func:`restore_via_middle_edge` *uses* it: restore a weighted
  shortest path by scanning middle edges against two precomputed
  shortest-path trees — the engine inside the candidate sweep of
  Theorem 28, here exposed for weighted graphs.

Both run on a (shared or per-call) weighted
:class:`~repro.scenarios.engine.ScenarioEngine`, adopted through
:meth:`Session.adopt <repro.query.session.Session.adopt>`: base and
per-fault distance vectors come from the flat-array Dijkstra kernels,
the lemma checker asks the session for its replacement distance as a
:class:`~repro.query.queries.DistanceQuery` and caches its
per-candidate distance vectors across the middle-edge sweep, and the
perturbed-unique trees of the restorer are materialised into flat
antisymmetric weight arrays once per seed.  Pass the same ``engine``
across calls against one graph to share all of that state — exactly
the "one base graph, many fault scenarios" amortisation the engine
exists for.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.exceptions import DisconnectedError
from repro.graphs.base import Edge, canonical_edge
from repro.query import DistanceQuery, Session
from repro.scenarios.engine import ScenarioEngine
from repro.spt.bfs import UNREACHABLE
from repro.spt.dijkstra import extract_path
from repro.spt.paths import Path
from repro.weighted.graph import WeightedGraph


def weighted_restoration_lemma_holds(wg: WeightedGraph, s: int, t: int,
                                     e: Edge,
                                     engine: Optional[ScenarioEngine] = None
                                     ) -> bool:
    """Decide Theorem 11's guarantee for one weighted instance.

    True iff some edge ``(u, v) != e`` satisfies
    ``dist(s, u) + w(u, v) + dist(v, t) == dist_{G\\e}(s, t)`` with
    *no* shortest ``s ~> u`` or ``v ~> t`` path using ``e`` (so any
    tie choice concatenates validly).  Vacuously true when ``e``
    disconnects the pair.

    ``engine`` may be a weighted :class:`ScenarioEngine` over ``wg``;
    sharing one across many instances reuses every base distance
    vector the candidate sweep touches.
    """
    e = canonical_edge(*e)
    a, b = e
    w_e = wg.weight(a, b)
    session = Session.adopt(wg, engine=engine)
    engine = session.engine
    # Through the planner's pair ladder: the touch filter answers
    # off-path faults in O(|F|), and a cached row answers repeats.
    target = session.answer_one(DistanceQuery(s, t, (e,))).value
    if target == UNREACHABLE:
        return True
    dist_s = engine.base_distances(s)
    dist_t = engine.base_distances(t)

    def every_shortest_avoids(dist_from: List[int], x: int) -> bool:
        """No shortest (origin ~> x) path crosses e = (a, b)."""
        if dist_from[x] == UNREACHABLE:
            return False
        dist_x = engine.base_distances(x)
        via_ab = (
            dist_from[a] != UNREACHABLE and dist_x[b] != UNREACHABLE
            and dist_from[a] + w_e + dist_x[b] == dist_from[x]
        )
        via_ba = (
            dist_from[b] != UNREACHABLE and dist_x[a] != UNREACHABLE
            and dist_from[b] + w_e + dist_x[a] == dist_from[x]
        )
        return not (via_ab or via_ba)

    csr = engine.csr
    weights, indptr, indices = csr.weights, csr.indptr, csr.indices
    for u in range(csr.n):
        if dist_s[u] == UNREACHABLE:
            continue
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            if canonical_edge(u, v) == e:
                continue
            if dist_t[v] == UNREACHABLE:
                continue
            if dist_s[u] + weights[i] + dist_t[v] != target:
                continue
            if every_shortest_avoids(dist_s, u) and \
                    every_shortest_avoids(dist_t, v):
                return True
    return False


def restore_via_middle_edge(wg: WeightedGraph, s: int, t: int,
                            e: Edge, seed: int = 0,
                            engine: Optional[ScenarioEngine] = None
                            ) -> Tuple[Path, int]:
    """Restore a weighted shortest path around ``e`` (Theorem 11 style).

    Precomputes perturbed-unique shortest-path trees from ``s`` and
    ``t``, scans all middle edges ``(u, v)``, and returns the best
    concatenation avoiding ``e`` together with its *unperturbed*
    weight.  By Theorem 11 the best candidate is a true replacement
    shortest path.

    The perturbed weights are materialised into a flat antisymmetric
    arc array and the two SSSP runs are cached on the engine (per
    ``(seed, source)``), so a stream of faults against the same
    monitored pair pays for the trees once.

    Raises :class:`DisconnectedError` when ``e`` cuts the pair.
    """
    e = canonical_edge(*e)
    engine = Session.adopt(wg, engine=engine).engine
    pcsr, _scale = engine.perturbed_csr(seed)
    dist_s, parent_s = engine.perturbed_sssp(s, seed)
    dist_t, parent_t = engine.perturbed_sssp(t, seed)

    weights, indptr, indices = pcsr.weights, pcsr.indptr, pcsr.indices
    best = None
    for u in range(pcsr.n):
        du = dist_s.get(u)
        if du is None:
            continue
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            if canonical_edge(u, v) == e:
                continue
            dv = dist_t.get(v)
            if dv is None:
                continue
            candidate_weight = du + weights[i] + dv
            if best is not None and candidate_weight >= best[0]:
                continue
            front = extract_path(parent_s, u)
            back = extract_path(parent_t, v)
            walk = front.concat(Path([u, v])).concat(back.reverse())
            if not walk.avoids([e]):
                continue
            best = (candidate_weight, walk)
    if best is None:
        raise DisconnectedError(s, t, [e])
    _, walk = best
    return walk, wg.path_weight(walk)
