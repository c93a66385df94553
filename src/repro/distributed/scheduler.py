"""Random-delay scheduling of concurrent algorithms (Theorem 35).

Theorem 35 (Ghaffari [20], after Leighton–Maggs–Rao [25]): ``m``
distributed algorithms, each taking at most ``d`` rounds and together
sending at most ``c`` messages through any edge, can be scheduled to
run in ``O(c + d log n)`` rounds, using random start delays.

Here that is made concrete: :func:`run_concurrent_bfs` runs one SPT
instance per source *simultaneously* on a single simulator whose edges
carry at most ``capacity_messages`` per round — overflow queues, so
contention manifests as measured extra rounds rather than model
violations.  Each instance's start is delayed by a uniform random
offset in ``[0, max_delay]``.  The benchmark compares the measured
makespan against :func:`theorem35_bound`.

Nodes use the delay-robust :class:`ConvergingBFSNode` protocol, whose
output tree is invariant under message delays (unique shortest paths),
so correctness is unaffected by the scheduling — only the round count
moves.  Tests confirm the concurrent trees equal the isolated ones.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import CongestError
from repro.graphs.base import Edge, Graph
from repro.distributed.bfs import ConvergingBFSNode, WeightFn
from repro.distributed.congest import (
    CongestSimulator,
    NodeAlgorithm,
    NodeHandle,
    RunStats,
)
from repro.spt.trees import ShortestPathTree

# An instance descriptor: (instance_id, source, fault_edges, start_delay)
Instance = Tuple[Any, int, Tuple[Edge, ...], int]


class MultiInstanceNode(NodeAlgorithm):
    """One vertex participating in many tagged SPT instances at once.

    Demultiplexes the inbox by instance tag and forwards each batch to
    the corresponding :class:`ConvergingBFSNode` sub-state.  Sources
    with a positive start delay keep themselves awake until their
    delay round arrives, then announce.
    """

    def __init__(self, vertex: int, instances: Sequence[Instance],
                 weight: WeightFn, word_bits: int):
        self.vertex = vertex
        self.subs: Dict[Any, ConvergingBFSNode] = {}
        self._pending_starts: Dict[Any, int] = {}
        for instance_id, source, faults, delay in instances:
            sub = ConvergingBFSNode(
                vertex, source, weight, word_bits,
                instance=instance_id, faults=faults,
            )
            self.subs[instance_id] = sub
            if vertex == source:
                self._pending_starts[instance_id] = delay

    def on_start(self, node: NodeHandle) -> None:
        ready = [iid for iid, d in self._pending_starts.items() if d <= 0]
        for iid in ready:
            self.subs[iid].on_start(node)
            del self._pending_starts[iid]
        if self._pending_starts:
            node.wake_next_round()

    def on_round(self, node: NodeHandle,
                 inbox: List[Tuple[int, Any, int]]) -> None:
        ready = [
            iid for iid, d in self._pending_starts.items()
            if node.round >= d
        ]
        for iid in ready:
            self.subs[iid].on_start(node)
            del self._pending_starts[iid]
        if self._pending_starts:
            node.wake_next_round()

        by_instance: Dict[Any, List[Tuple[int, Any, int]]] = {}
        for sender, payload, words in inbox:
            tag = payload[0]
            by_instance.setdefault(tag, []).append((sender, payload, words))
        for tag, batch in by_instance.items():
            sub = self.subs.get(tag)
            if sub is None:
                raise CongestError(
                    f"vertex {self.vertex} received unknown instance {tag!r}"
                )
            sub.on_round(node, batch)


def run_concurrent_instances(
    graph: Graph,
    instances: Sequence[Instance],
    weight: WeightFn,
    scale: int = 1,
    capacity_messages: int = 1,
    max_rounds: int = 1_000_000,
) -> Tuple[Dict[Any, ShortestPathTree], RunStats]:
    """Run tagged SPT instances concurrently on one shared simulator.

    Returns per-instance trees (keyed by instance id) and the combined
    :class:`RunStats` — ``stats.rounds`` is the schedule's makespan.
    """
    sim = CongestSimulator(
        graph, capacity_messages=capacity_messages, queue_excess=True
    )
    nodes = {
        v: MultiInstanceNode(v, instances, weight, sim.word_bits)
        for v in graph.vertices()
    }
    stats = sim.run(nodes, max_rounds=max_rounds)
    trees: Dict[Any, ShortestPathTree] = {}
    for instance_id, source, _faults, _delay in instances:
        parent = {}
        dist = {}
        for v in graph.vertices():
            sub = nodes[v].subs[instance_id]
            if sub.dist is not None:
                parent[v] = sub.parent
                dist[v] = sub.dist
        trees[instance_id] = ShortestPathTree(source, parent, dist, scale)
    return trees, stats


def run_concurrent_bfs(
    graph: Graph,
    sources: Sequence[int],
    weight: WeightFn,
    scale: int = 1,
    seed: int = 0,
    capacity_messages: int = 1,
    max_delay: Optional[int] = None,
) -> Tuple[Dict[int, ShortestPathTree], RunStats]:
    """σ concurrent SPTs with random start delays (Theorem 35 setup).

    ``max_delay`` defaults to σ — the congestion any edge can see is at
    most one message per instance per relaxation wave, so delays of
    that order spread the load as in the theorem's analysis.
    """
    rng = random.Random(seed)
    source_list = list(sources)
    if max_delay is None:
        max_delay = max(1, len(source_list))
    instances: List[Instance] = [
        (s, s, (), rng.randrange(0, max_delay + 1)) for s in source_list
    ]
    return run_concurrent_instances(
        graph, instances, weight, scale,
        capacity_messages=capacity_messages,
    )


def theorem35_bound(congestion: int, dilation: int, n: int) -> float:
    """The scheduling bound ``O(c + d log n)`` of Theorem 35."""
    return congestion + dilation * max(1.0, math.log2(max(n, 2)))
