"""Unit tests for BFS primitives, cross-checked against networkx."""

import networkx as nx
import pytest

from repro.exceptions import GraphError
from repro.graphs import generators
from repro.graphs.base import Graph
from repro.spt.bfs import (
    UNREACHABLE,
    bfs_distances,
    bfs_layers,
    bfs_tree,
    hop_distance,
)


class TestBfsDistances:
    def test_path_graph(self):
        g = generators.path(5)
        assert list(bfs_distances(g, 0)) == [0, 1, 2, 3, 4]
        assert list(bfs_distances(g, 2)) == [2, 1, 0, 1, 2]

    def test_unreachable(self):
        g = Graph(3, [(0, 1)])
        assert list(bfs_distances(g, 0)) == [0, 1, UNREACHABLE]

    def test_unknown_source(self):
        with pytest.raises(GraphError):
            bfs_distances(Graph(2), 5)

    def test_matches_networkx(self):
        g = generators.connected_erdos_renyi(40, 0.08, seed=9)
        nxg = g.to_networkx()
        for s in (0, 17, 39):
            ours = bfs_distances(g, s)
            theirs = nx.single_source_shortest_path_length(nxg, s)
            assert all(ours[v] == theirs[v] for v in g.vertices())

    def test_under_faults(self):
        g = generators.cycle(6)
        dist = bfs_distances(g.without([(0, 1)]), 0)
        assert dist[1] == 5  # forced the long way round


class TestBfsTree:
    def test_parent_of_source_is_none(self):
        g = generators.grid(3, 3)
        parent = bfs_tree(g, 4)
        assert parent[4] is None

    def test_deterministic_lexicographic(self):
        g = generators.complete(4)
        parent = bfs_tree(g, 2)
        assert all(parent[v] == 2 for v in (0, 1, 3))

    def test_tree_respects_layers(self):
        g = generators.connected_erdos_renyi(30, 0.1, seed=5)
        dist = bfs_distances(g, 0)
        parent = bfs_tree(g, 0)
        for v, p in parent.items():
            if p is not None:
                assert dist[v] == dist[p] + 1

    def test_unreached_absent(self):
        g = Graph(3, [(0, 1)])
        assert 2 not in bfs_tree(g, 0)


class TestLayersAndPairs:
    def test_layers_partition(self):
        g = generators.grid(3, 3)
        layers = bfs_layers(g, 0)
        assert layers[0] == [0]
        assert sorted(sum(layers, [])) == list(range(9))
        for d, layer in enumerate(layers):
            for v in layer:
                assert bfs_distances(g, 0)[v] == d

    def test_hop_distance_early_exit(self):
        g = generators.path(6)
        assert hop_distance(g, 0, 5) == 5
        assert hop_distance(g, 3, 3) == 0

    def test_hop_distance_unreachable(self):
        g = Graph(3, [(0, 1)])
        assert hop_distance(g, 0, 2) == UNREACHABLE

    def test_hop_distance_unknown_target(self):
        with pytest.raises(GraphError):
            hop_distance(Graph(2, [(0, 1)]), 0, 9)
