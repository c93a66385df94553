"""Tests for distributed tie-breaking SPTs (Lemma 34)."""

import pytest

from repro.graphs import generators
from repro.core.weights import AntisymmetricWeights
from repro.distributed.bfs import ConvergingBFSNode, distributed_spt
from repro.spt.apsp import eccentricity
from repro.spt.trees import ShortestPathTree


@pytest.fixture(scope="module")
def setup():
    g = generators.torus(4, 4)
    atw = AntisymmetricWeights.random(g, f=1, seed=6)
    return g, atw


class TestLemma34:
    def test_tree_equals_centralized(self, setup):
        g, atw = setup
        for source in (0, 7, 13):
            tree, _stats = distributed_spt(g, source, atw.weight, atw.scale)
            central = ShortestPathTree.compute(g, source, atw.weight, atw.scale)
            assert tree.edge_set() == central.edge_set()
            for v in g.vertices():
                assert tree.weighted_distance(v) == central.weighted_distance(v)

    def test_rounds_linear_in_depth(self, setup):
        g, atw = setup
        tree, stats = distributed_spt(g, 0, atw.weight, atw.scale)
        ecc = eccentricity(g, 0)
        # layered protocol: one phase per layer (+1 delivery round)
        assert stats.rounds <= ecc + 2
        assert stats.rounds >= ecc

    def test_constant_messages_per_edge(self, setup):
        g, atw = setup
        _tree, stats = distributed_spt(g, 0, atw.weight, atw.scale)
        assert stats.max_edge_congestion <= 1  # each vertex announces once
        assert stats.messages <= 2 * g.m

    def test_message_words_reflect_weight_bits(self, setup):
        g, atw = setup
        _tree, stats = distributed_spt(g, 0, atw.weight, atw.scale)
        # isolation-lemma weights are O(f log n)-bit; words > messages
        assert stats.words > stats.messages

    def test_faulted_instance_avoids_edge(self, setup):
        g, atw = setup
        fault = (0, 1)
        tree, _stats = distributed_spt(
            g, 0, atw.weight, atw.scale, faults=(fault,)
        )
        central = ShortestPathTree.compute(
            g.without([fault]), 0, atw.weight, atw.scale
        )
        assert tree.edge_set() == central.edge_set()
        assert fault not in tree.edge_set()


class TestConvergingVariant:
    def test_same_tree_as_layered(self, setup):
        g, atw = setup
        layered, _ = distributed_spt(g, 3, atw.weight, atw.scale)
        converging, _ = distributed_spt(
            g, 3, atw.weight, atw.scale, node_cls=ConvergingBFSNode
        )
        assert layered.edge_set() == converging.edge_set()

    def test_correct_under_tight_capacity(self, setup):
        # With shared capacity the converging protocol still converges
        # to the unique SPT (it only ever runs alone here, but routed
        # through the queueing code path).
        g, atw = setup
        from repro.distributed.congest import CongestSimulator

        sim = CongestSimulator(g, capacity_messages=1, queue_excess=True)
        nodes = {
            v: ConvergingBFSNode(v, 0, atw.weight, sim.word_bits)
            for v in g.vertices()
        }
        sim.run(nodes)
        central = ShortestPathTree.compute(g, 0, atw.weight, atw.scale)
        for v in g.vertices():
            assert nodes[v].dist == central.weighted_distance(v)

    def test_unreached_on_disconnected(self):
        from repro.graphs.base import Graph

        g = Graph(3, [(0, 1)])
        atw = AntisymmetricWeights.random(g, f=1, seed=0)
        tree, _ = distributed_spt(g, 0, atw.weight, atw.scale)
        assert not tree.reaches(2)
        assert tree.reaches(1)
