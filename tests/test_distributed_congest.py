"""Tests for the CONGEST simulator contract."""

import pytest

from repro.exceptions import CongestError
from repro.graphs import generators
from repro.distributed.congest import (
    CongestSimulator,
    NodeAlgorithm,
)


class Flood(NodeAlgorithm):
    """Flood a token from a root; every node records receipt round."""

    def __init__(self, vertex, root):
        self.vertex = vertex
        self.root = root
        self.received_at = 0 if vertex == root else None

    def on_start(self, node):
        if self.vertex == self.root:
            node.broadcast("token")

    def on_round(self, node, inbox):
        if self.received_at is None and inbox:
            self.received_at = node.round
            node.broadcast("token")


class Chatter(NodeAlgorithm):
    """Sends `count` messages to one neighbour in round 1."""

    def __init__(self, vertex, target, count):
        self.vertex = vertex
        self.target = target
        self.count = count

    def on_start(self, node):
        if self.target is not None:
            for _ in range(self.count):
                node.send(self.target, "x")


class TestBasics:
    def test_flood_takes_eccentricity_rounds(self):
        g = generators.path(6)
        sim = CongestSimulator(g)
        nodes = {v: Flood(v, 0) for v in g.vertices()}
        stats = sim.run(nodes)
        assert nodes[5].received_at == 5
        assert stats.rounds == 6  # 5 hops + final silent delivery round
        assert stats.max_edge_congestion <= 2

    def test_missing_algorithm_rejected(self):
        g = generators.path(3)
        sim = CongestSimulator(g)
        with pytest.raises(CongestError):
            sim.run({0: Flood(0, 0)})

    def test_non_neighbor_send_rejected(self):
        g = generators.path(3)
        sim = CongestSimulator(g)
        nodes = {v: NodeAlgorithm() for v in g.vertices()}
        nodes[0] = Chatter(0, 2, 1)  # 0 and 2 are not adjacent
        with pytest.raises(CongestError):
            sim.run(nodes)

    def test_zero_word_message_rejected(self):
        g = generators.path(2)

        class BadWords(NodeAlgorithm):
            def on_start(self, node):
                node.send(node.neighbors[0], "x", words=0)

        sim = CongestSimulator(g)
        with pytest.raises(CongestError):
            sim.run({0: BadWords(), 1: NodeAlgorithm()})


class TestCapacity:
    def test_strict_mode_overflow_raises(self):
        g = generators.path(2)
        sim = CongestSimulator(g, capacity_messages=1, queue_excess=False)
        nodes = {0: Chatter(0, 1, 3), 1: NodeAlgorithm()}
        with pytest.raises(CongestError):
            sim.run(nodes)

    def test_queue_mode_delays_delivery(self):
        g = generators.path(2)

        class Sink(NodeAlgorithm):
            def __init__(self):
                self.arrivals = []

            def on_round(self, node, inbox):
                self.arrivals.extend(node.round for _ in inbox)

        sink = Sink()
        sim = CongestSimulator(g, capacity_messages=1, queue_excess=True)
        stats = sim.run({0: Chatter(0, 1, 3), 1: sink})
        assert sink.arrivals == [1, 2, 3]
        assert stats.max_queue_delay == 2
        assert stats.messages == 3

    def test_higher_capacity(self):
        g = generators.path(2)

        class Sink(NodeAlgorithm):
            def __init__(self):
                self.arrivals = []

            def on_round(self, node, inbox):
                self.arrivals.extend(node.round for _ in inbox)

        sink = Sink()
        sim = CongestSimulator(g, capacity_messages=3, queue_excess=False)
        sim.run({0: Chatter(0, 1, 3), 1: sink})
        assert sink.arrivals == [1, 1, 1]


class TestAccounting:
    def test_word_counting(self):
        g = generators.path(2)

        class Wordy(NodeAlgorithm):
            def on_start(self, node):
                node.send(node.neighbors[0], "big", words=5)

        sim = CongestSimulator(g)
        stats = sim.run({0: Wordy(), 1: NodeAlgorithm()})
        assert stats.words == 5
        assert stats.messages == 1

    def test_word_bits_default(self):
        g = generators.path(9)
        sim = CongestSimulator(g)
        assert sim.word_bits == 4  # ceil(log2 9)

    def test_quiescence_without_messages(self):
        g = generators.path(3)
        sim = CongestSimulator(g)
        stats = sim.run({v: NodeAlgorithm() for v in g.vertices()})
        assert stats.rounds == 0
        assert stats.messages == 0

    def test_wake_next_round(self):
        g = generators.path(2)

        class Sleeper(NodeAlgorithm):
            def __init__(self):
                self.wakes = 0

            def on_start(self, node):
                node.wake_next_round()

            def on_round(self, node, inbox):
                self.wakes += 1
                if self.wakes < 3:
                    node.wake_next_round()

        sleeper = Sleeper()
        sim = CongestSimulator(g)
        stats = sim.run({0: sleeper, 1: NodeAlgorithm()})
        assert sleeper.wakes == 3
        assert stats.rounds == 3
