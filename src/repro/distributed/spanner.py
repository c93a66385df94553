"""Distributed FT +4 additive spanners (Corollary 9).

The corollary's recipe: sample σ cluster centers, run the clustering
step (one communication round — centers announce themselves, every
vertex locally decides which incident edges to keep), then build a
distributed f-FT ``C x C`` preserver (Theorem 8) and union.  The
spanner guarantee is Lemma 32's, which is deterministic given any
correct subset preserver; the distributed part only changes *how* the
preserver is built, so measured rounds = 1 + preserver rounds.

The clustering announcement round is simulated for real on the CONGEST
simulator (it is also where a practical system would piggyback the
weight exchange of Lemma 36).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.graphs.base import Edge, Graph, canonical_edge
from repro.distributed.congest import (
    CongestSimulator,
    NodeAlgorithm,
    NodeHandle,
    RunStats,
)
from repro.distributed.preserver import (
    DistributedBuildResult,
    distributed_ss_preserver,
)
from repro.spanners.additive import Spanner, default_sigma


class ClusterNode(NodeAlgorithm):
    """The one-round clustering step: centers announce, vertices choose.

    After the announcement round each vertex knows which neighbours are
    centers and locally selects either ``f + 1`` center edges
    (clustered) or all incident edges (unclustered).
    """

    def __init__(self, vertex: int, is_center: bool, f: int):
        self.vertex = vertex
        self.is_center = is_center
        self.f = f
        self.kept_edges: Set[Edge] = set()
        self.clustered = False

    def on_start(self, node: NodeHandle) -> None:
        if self.is_center:
            node.broadcast(("center",), words=1)
        node.wake_next_round()

    def on_round(self, node: NodeHandle,
                 inbox: List[Tuple[int, Any, int]]) -> None:
        if self.kept_edges:
            return
        center_neighbors = sorted(
            sender for sender, payload, _w in inbox
            if payload == ("center",)
        )
        if len(center_neighbors) >= self.f + 1:
            self.clustered = True
            for u in center_neighbors[: self.f + 1]:
                self.kept_edges.add(canonical_edge(self.vertex, u))
        else:
            for u in node.neighbors:
                self.kept_edges.add(canonical_edge(self.vertex, u))


@dataclass
class DistributedSpannerResult:
    """A spanner plus the distributed execution's accounting."""

    spanner: Spanner
    total_rounds: int
    clustering_stats: RunStats
    preserver_result: DistributedBuildResult


def distributed_ft_spanner(
    graph: Graph,
    faults_tolerated: int,
    sigma: Optional[int] = None,
    seed: int = 0,
    max_instances: int = 5000,
) -> DistributedSpannerResult:
    """Build an f-FT +4 spanner distributedly (Corollary 9).

    Parameters mirror :func:`repro.spanners.additive.ft_plus4_spanner`;
    σ defaults to the corollary's per-f choice (``sqrt(n)``, ``n^{1/3}``,
    ``n^{1/9}`` for f = 1, 2, 3, via
    :func:`~repro.spanners.additive.default_sigma`).
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

    # Round 1: the clustering announcement, on the simulator for real.
    sim = CongestSimulator(graph, capacity_messages=1)
    nodes = {
        v: ClusterNode(v, v in center_set, f) for v in graph.vertices()
    }
    clustering_stats = sim.run(nodes)
    edges: Set[Edge] = set()
    clustered: Set[int] = set()
    for v, node in nodes.items():
        edges |= node.kept_edges
        if node.clustered:
            clustered.add(v)

    # Then the distributed C x C preserver (Theorem 8).
    preserver_result = distributed_ss_preserver(
        graph, centers, faults_tolerated=f, seed=seed + 1,
        max_instances=max_instances,
    )
    edges |= preserver_result.preserver.edges

    spanner = Spanner(
        graph=graph,
        edges=frozenset(edges),
        centers=centers,
        clustered=frozenset(clustered),
        faults_tolerated=f,
        preserver_size=preserver_result.preserver.size,
    )
    return DistributedSpannerResult(
        spanner=spanner,
        total_rounds=clustering_stats.rounds + preserver_result.total_rounds,
        clustering_stats=clustering_stats,
        preserver_result=preserver_result,
    )
