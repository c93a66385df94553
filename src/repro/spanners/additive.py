"""The clustering construction for FT +4 additive spanners (Lemma 32).

Given a builder of f-FT ``S x S`` preservers on ``g(n, σ, f)`` edges,
Lemma 32 produces an f-FT +4 spanner on
``O(g(n, σ, f) + n f + n² f / σ)`` edges:

1. sample σ *cluster centers* ``C`` uniformly;
2. every vertex with ``>= f + 1`` neighbours in ``C`` is *clustered*
   and keeps ``f + 1`` of those edges (so at least one center
   adjacency survives any ``f`` faults);
3. every other vertex is *unclustered* and keeps all incident edges;
4. add an f-FT ``C x C`` subset preserver (Theorem 31).

Correctness is deterministic (+4 for every pair under every ``<= f``
fault set); only the edge bound is probabilistic.  Theorem 33 balances
``σ = n^{1/(2^f + 1)}`` against Theorem 31's preserver size to get
``O_f(n^{1 + 2^f/(2^f+1)})`` — ``O(n^{3/2})`` at one fault, matching
Bilò et al. [7].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.graphs.base import Edge, Graph, canonical_edge
from repro.preservers.subset import ft_ss_preserver


@dataclass
class Spanner:
    """An f-FT +4 additive spanner.

    Attributes
    ----------
    graph:
        The graph it spans.
    edges:
        The spanner's edge set.
    centers:
        The sampled cluster centers ``C``.
    clustered:
        Vertices that kept only ``f + 1`` center edges.
    faults_tolerated:
        The ``f`` of the +4-under-f-faults guarantee.
    preserver_size:
        Edge count contributed by the ``C x C`` preserver (before
        union), for the size-decomposition tables.
    """

    graph: Graph
    edges: FrozenSet[Edge]
    centers: Tuple[int, ...]
    clustered: FrozenSet[int]
    faults_tolerated: int
    preserver_size: int = 0

    @property
    def size(self) -> int:
        return len(self.edges)

    def as_graph(self) -> Graph:
        sub = Graph(self.graph.n)
        for u, v in self.edges:
            sub.add_edge(u, v)
        return sub


def default_sigma(n: int, f: int) -> int:
    """Theorem 33's balancing choice ``σ = n^{1/(2^f + 1)}``.

    ``f`` here is the overlay parameter of Theorem 31 (the spanner
    tolerates ``f + 1`` faults); clipped to ``[1, n]``.
    """
    sigma = round(n ** (1.0 / (2 ** f + 1)))
    return max(1, min(n, sigma))


def ft_plus4_spanner(graph: Graph, faults_tolerated: int,
                     sigma: Optional[int] = None, seed: int = 0,
                     max_fault_sets: Optional[int] = None) -> Spanner:
    """Build an f-FT +4 additive spanner via Lemma 32.

    Parameters
    ----------
    graph:
        The input graph.
    faults_tolerated:
        ``f`` — the number of simultaneous edge faults under which the
        +4 stretch must hold (>= 1).
    sigma:
        Number of cluster centers; defaults to Theorem 33's balance
        ``n^{1/(2^{f-1} + 1)}`` (with ``f - 1`` the overlay depth).
    seed:
        Randomness for center sampling and the preserver's scheme.
    max_fault_sets:
        Passed through to the preserver overlay.
    """
    if faults_tolerated < 1:
        raise GraphError(
            f"faults_tolerated must be >= 1, got {faults_tolerated}"
        )
    n = graph.n
    f = faults_tolerated
    if sigma is None:
        sigma = default_sigma(n, f - 1)
    sigma = max(1, min(n, sigma))

    rng = random.Random(seed)
    centers = tuple(sorted(rng.sample(range(n), sigma)))
    center_set = set(centers)

    edges: Set[Edge] = set()
    clustered: Set[int] = set()
    for v in graph.vertices():
        center_neighbors = sorted(
            u for u in graph.neighbors(v) if u in center_set
        )
        if len(center_neighbors) >= f + 1:
            clustered.add(v)
            for u in center_neighbors[: f + 1]:
                edges.add(canonical_edge(u, v))
        else:
            for u in graph.neighbors(v):
                edges.add(canonical_edge(u, v))

    preserver = ft_ss_preserver(
        graph, centers, faults_tolerated=f, seed=seed + 1,
        max_fault_sets=max_fault_sets,
    )
    edges |= preserver.edges

    return Spanner(
        graph=graph,
        edges=frozenset(edges),
        centers=centers,
        clustered=frozenset(clustered),
        faults_tolerated=f,
        preserver_size=preserver.size,
    )
