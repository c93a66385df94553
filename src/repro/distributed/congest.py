"""A synchronous CONGEST-model simulator (Peleg [32]).

The model: one processor per vertex, synchronous rounds, and in each
round every vertex may exchange O(log n) bits with each neighbour.  The
simulator enforces that contract and *accounts* for everything the
paper's round/congestion bounds talk about:

* **capacity** — at most ``capacity_messages`` messages per directed
  edge per round.  Overflow either raises :class:`CongestError`
  (strict mode — an algorithm claiming O(1) messages per edge must
  survive it) or queues FIFO per directed edge (``queue_excess=True``
  — the regime Theorem 35's random-delay scheduling analyses).
* **words** — every message declares its size in O(log n)-bit words;
  totals and the per-edge maximum are reported in :class:`RunStats`.
* **locality** — a node can only send to graph neighbours; violating
  that raises immediately.

Algorithms are :class:`NodeAlgorithm` subclasses with two callbacks —
``on_start`` (round 0 setup) and ``on_round`` (invoked each round with
the node's inbox).  All sends made during a round are delivered at the
start of the next one.  The simulation ends at *quiescence* — no
messages in flight or queued and no node has requested wake-up — or at
``max_rounds``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.exceptions import CongestError
from repro.graphs.base import Graph


@dataclass
class RunStats:
    """Accounting for one simulated execution.

    Attributes
    ----------
    rounds:
        Rounds executed until quiescence.
    messages:
        Total messages delivered.
    words:
        Total O(log n)-bit words delivered.
    max_edge_congestion:
        Max over directed edges of total messages carried — the ``c``
        in Theorem 35's ``O(c + d log n)``.
    max_queue_delay:
        Largest number of rounds any message waited in an edge queue
        (0 in strict mode).
    """

    rounds: int = 0
    messages: int = 0
    words: int = 0
    max_edge_congestion: int = 0
    max_queue_delay: int = 0


class NodeAlgorithm:
    """Base class for per-node CONGEST algorithms.

    Subclasses override :meth:`on_start` and :meth:`on_round`; both
    receive a :class:`NodeHandle` for sending and introspection.  Node
    state lives on the subclass instance (one instance per vertex).
    """

    def on_start(self, node: "NodeHandle") -> None:
        """Round-0 setup (e.g. the BFS source announces itself)."""

    def on_round(self, node: "NodeHandle",
                 inbox: List[Tuple[int, Any, int]]) -> None:
        """Handle this round's inbox: ``(sender, payload, words)``."""


class NodeHandle:
    """The API a node algorithm sees: its id, neighbours, and sends."""

    __slots__ = ("vertex", "_sim", "_neighbors")

    def __init__(self, vertex: int, sim: "CongestSimulator",
                 neighbors: Tuple[int, ...]):
        self.vertex = vertex
        self._sim = sim
        self._neighbors = neighbors

    @property
    def neighbors(self) -> Tuple[int, ...]:
        return self._neighbors

    @property
    def round(self) -> int:
        return self._sim._round

    def send(self, neighbor: int, payload: Any, words: int = 1) -> None:
        """Queue a message for delivery to ``neighbor`` next round."""
        self._sim._submit(self.vertex, neighbor, payload, words)

    def broadcast(self, payload: Any, words: int = 1) -> None:
        """Send the same message to every neighbour."""
        for u in self._neighbors:
            self.send(u, payload, words)

    def wake_next_round(self) -> None:
        """Request an ``on_round`` call next round even with empty inbox."""
        self._sim._wake.add(self.vertex)


class CongestSimulator:
    """Synchronous round executor over a fixed graph.

    Parameters
    ----------
    graph:
        The communication network.
    capacity_messages:
        Messages per directed edge per round (default 1 — the CONGEST
        norm for constant-size payloads).
    queue_excess:
        If True, overflow messages queue FIFO per directed edge and are
        delivered in later rounds (the scheduled-concurrency regime);
        if False, overflow raises :class:`CongestError`.
    word_bits:
        Bits per word; defaults to ``ceil(log2 n)``.  Purely
        informational — callers convert payload sizes to words.
    """

    def __init__(self, graph: Graph, capacity_messages: int = 1,
                 queue_excess: bool = False,
                 word_bits: Optional[int] = None):
        self._graph = graph
        self._capacity = capacity_messages
        self._queue_excess = queue_excess
        self.word_bits = word_bits or max(1, (graph.n - 1).bit_length())
        self._round = 0
        self._wake: set = set()
        # per directed edge: FIFO of (payload, words, submit_round)
        self._queues: Dict[Tuple[int, int], Deque] = defaultdict(deque)
        self._inboxes: Dict[int, List[Tuple[int, Any, int]]] = defaultdict(list)
        self._edge_load: Dict[Tuple[int, int], int] = defaultdict(int)
        self._stats = RunStats()
        self._neighbors = {
            v: tuple(graph.sorted_neighbors(v)) for v in graph.vertices()
        }

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self._graph

    def _submit(self, sender: int, receiver: int, payload: Any,
                words: int) -> None:
        if receiver not in self._neighbors.get(sender, ()):
            raise CongestError(
                f"node {sender} tried to message non-neighbour {receiver}"
            )
        if words < 1:
            raise CongestError(f"message words must be >= 1, got {words}")
        self._queues[(sender, receiver)].append(
            (payload, words, self._round)
        )

    def _deliver(self) -> bool:
        """Move queued messages into next-round inboxes; True if any."""
        delivered_any = False
        for arc, queue in self._queues.items():
            if not queue:
                continue
            budget = self._capacity
            while queue and budget > 0:
                payload, words, submitted = queue.popleft()
                budget -= 1
                delivered_any = True
                sender, receiver = arc
                self._inboxes[receiver].append((sender, payload, words))
                self._edge_load[arc] += 1
                self._stats.messages += 1
                self._stats.words += words
                # Normal latency is one round; anything beyond that is
                # queueing delay caused by contention.
                delay = self._round - submitted - 1
                if delay > self._stats.max_queue_delay:
                    self._stats.max_queue_delay = delay
            if queue and not self._queue_excess:
                raise CongestError(
                    f"edge {arc} over capacity at round {self._round}: "
                    f"{len(queue)} messages left beyond "
                    f"{self._capacity}/round"
                )
        return delivered_any

    def _pending(self) -> bool:
        return any(self._queues.values())

    # ------------------------------------------------------------------
    def run(self, algorithms: Dict[int, NodeAlgorithm],
            max_rounds: int = 100_000) -> RunStats:
        """Execute to quiescence.  ``algorithms`` maps vertex -> node.

        Every vertex of the graph must have an algorithm instance
        (vertices with nothing to do can share a base
        :class:`NodeAlgorithm`, which ignores everything).
        """
        handles = {
            v: NodeHandle(v, self, self._neighbors[v])
            for v in self._graph.vertices()
        }
        for v in self._graph.vertices():
            if v not in algorithms:
                raise CongestError(f"no algorithm for vertex {v}")

        self._round = 0
        for v, algo in algorithms.items():
            algo.on_start(handles[v])

        while self._round < max_rounds:
            self._round += 1
            delivered = self._deliver()
            wake = self._wake
            self._wake = set()
            if not delivered and not wake and not self._pending():
                self._round -= 1  # the empty round doesn't count
                break
            active = set(self._inboxes) | wake
            inboxes = self._inboxes
            self._inboxes = defaultdict(list)
            for v in sorted(active):
                algorithms[v].on_round(handles[v], inboxes.get(v, []))
        self._stats.rounds = self._round
        self._stats.max_edge_congestion = max(
            self._edge_load.values(), default=0
        )
        return self._stats
