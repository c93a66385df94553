"""Distributed tie-breaking shortest-path trees (Lemma 34).

Lemma 34: for any tie-breaking weight function ω and source ``s``, a
shortest-path tree under ω — which is simultaneously a legit BFS tree,
since ω only breaks ties — can be computed in O(D) rounds with O(1)
messages per edge.  :class:`LayeredBFSNode` implements exactly the
paper's phase protocol: vertices of BFS layer ``i`` broadcast their
weighted distance in phase ``i``; each new vertex picks the parent
minimising ``dist*(s, w) + ω(w, v)``.

Under *concurrent* scheduling (many sources, shared edge capacity —
Theorem 35's regime), layer-synchrony breaks, so
:class:`ConvergingBFSNode` provides the delay-robust distance-vector
variant: re-broadcast on improvement.  With unique shortest paths both
converge to the *same* tree; the layered protocol is cheaper, the
converging one is correct under arbitrary message delays.

Weight payloads carry exact integer distances; their size in words is
charged as ``ceil(bits / word_bits)``, so an isolation-lemma weight
function (O(f log n) bits per edge) costs O(f)-word messages, exactly
as a real CONGEST implementation would.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.graphs.base import Edge, Graph, canonical_edge
from repro.distributed.congest import (
    CongestSimulator,
    NodeAlgorithm,
    NodeHandle,
    RunStats,
)
from repro.spt.trees import ShortestPathTree

WeightFn = Callable[[int, int], int]


def _payload_words(value: int, word_bits: int) -> int:
    """Honest word count for an integer payload."""
    bits = max(1, int(value).bit_length())
    return max(1, -(-bits // word_bits))


class LayeredBFSNode(NodeAlgorithm):
    """One vertex's state in the Lemma-34 layered SPT protocol.

    Parameters
    ----------
    vertex:
        This node's id.
    source:
        The SPT root.
    weight:
        The tie-breaking arc weight ω, readable for incident edges only
        (the node never evaluates it elsewhere — locality is honoured).
    word_bits:
        Word size for payload accounting.
    instance:
        Tag carried in every message, so concurrent instances can be
        demultiplexed by :class:`MultiInstanceNode`.
    faults:
        Edges this instance must ignore (used by the FT-preserver
        constructions, where instance ``(s, e)`` operates in
        ``G \\ {e}``).  Locally checkable: a node simply refuses to
        use its faulted incident edges.
    """

    def __init__(self, vertex: int, source: int, weight: WeightFn,
                 word_bits: int, instance: Any = 0,
                 faults: Tuple[Edge, ...] = ()):
        self.vertex = vertex
        self.source = source
        self.weight = weight
        self.word_bits = word_bits
        self.instance = instance
        self.faults = frozenset(canonical_edge(u, v) for u, v in faults)
        self.dist: Optional[int] = 0 if vertex == source else None
        self.parent: Optional[int] = None
        self._announced = False

    # -- helpers -------------------------------------------------------
    def _usable(self, neighbor: int) -> bool:
        return canonical_edge(self.vertex, neighbor) not in self.faults

    def _announce(self, node: NodeHandle) -> None:
        words = _payload_words(self.dist, self.word_bits)
        for u in node.neighbors:
            if self._usable(u):
                node.send(u, (self.instance, self.dist), words)
        self._announced = True

    # -- protocol ------------------------------------------------------
    def on_start(self, node: NodeHandle) -> None:
        if self.vertex == self.source:
            self._announce(node)

    def on_round(self, node: NodeHandle,
                 inbox: List[Tuple[int, Any, int]]) -> None:
        if self.dist is not None:
            return  # settled vertices are silent after announcing
        best: Optional[Tuple[int, int]] = None
        for sender, payload, _words in inbox:
            tag, sender_dist = payload
            if tag != self.instance or not self._usable(sender):
                continue
            candidate = sender_dist + self.weight(sender, self.vertex)
            if best is None or candidate < best[0]:
                best = (candidate, sender)
        if best is not None:
            self.dist, self.parent = best
            self._announce(node)


class ConvergingBFSNode(LayeredBFSNode):
    """Delay-robust variant: re-announce whenever the estimate improves.

    Correct under arbitrary per-edge message queueing (each improvement
    propagates eventually, and with positive unique-shortest-path
    weights the final estimate is the true ``dist*``), at the cost of
    more messages.  This is the node used in the Theorem-35 concurrent
    runs where edge capacity is shared across instances.
    """

    def on_round(self, node: NodeHandle,
                 inbox: List[Tuple[int, Any, int]]) -> None:
        improved = False
        for sender, payload, _words in inbox:
            tag, sender_dist = payload
            if tag != self.instance or not self._usable(sender):
                continue
            candidate = sender_dist + self.weight(sender, self.vertex)
            if self.dist is None or candidate < self.dist:
                self.dist = candidate
                self.parent = sender
                improved = True
        if improved:
            self._announce(node)


def distributed_spt(graph: Graph, source: int, weight: WeightFn,
                    scale: int = 1,
                    faults: Tuple[Edge, ...] = (),
                    node_cls=LayeredBFSNode,
                    capacity_messages: int = 1,
                    ) -> Tuple[ShortestPathTree, RunStats]:
    """Run one SPT instance on the simulator; return tree and stats.

    With :class:`LayeredBFSNode` and capacity 1 this realises Lemma 34:
    O(D) rounds, O(1) messages per edge — both visible in the returned
    :class:`RunStats` and asserted in the tests.
    """
    sim = CongestSimulator(graph, capacity_messages=capacity_messages)
    nodes = {
        v: node_cls(v, source, weight, sim.word_bits, faults=faults)
        for v in graph.vertices()
    }
    stats = sim.run(nodes)
    parent = {
        v: nodes[v].parent
        for v in graph.vertices()
        if nodes[v].dist is not None
    }
    dist = {
        v: nodes[v].dist
        for v in graph.vertices()
        if nodes[v].dist is not None
    }
    tree = ShortestPathTree(source, parent, dist, scale)
    return tree, stats
