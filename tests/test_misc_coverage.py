"""Edge-case tests for smaller surfaces not covered elsewhere."""

from repro.graphs import generators
from repro.graphs.base import Graph


class TestPreserverHelpers:
    def test_density_vs(self):
        from repro.preservers import ft_ss_preserver

        g = generators.cycle(6)
        p = ft_ss_preserver(g, [0, 3], faults_tolerated=1, seed=1)
        assert p.density_vs(2 * p.size) == 0.5
        assert p.density_vs(0) == float("inf")

    def test_empty_source_set(self):
        from repro.core.scheme import RestorableTiebreaking
        from repro.preservers import ft_sv_preserver

        g = generators.cycle(5)
        scheme = RestorableTiebreaking.build(g, seed=0)
        p = ft_sv_preserver(scheme, [], f=1)
        assert p.size == 0


class TestSimulatorEdgeCases:
    def test_max_rounds_cutoff(self):
        from repro.distributed.congest import (
            CongestSimulator,
            NodeAlgorithm,
        )

        class Forever(NodeAlgorithm):
            def on_start(self, node):
                node.wake_next_round()

            def on_round(self, node, inbox):
                node.wake_next_round()

        g = generators.path(2)
        sim = CongestSimulator(g)
        stats = sim.run({0: Forever(), 1: NodeAlgorithm()}, max_rounds=7)
        assert stats.rounds == 7

    def test_runstats_defaults(self):
        from repro.distributed.congest import RunStats

        stats = RunStats()
        assert stats.rounds == 0
        assert stats.max_queue_delay == 0


class TestSchemeEdgeCases:
    def test_single_vertex_graph(self):
        from repro.core.scheme import RestorableTiebreaking
        from repro.spt.paths import Path

        g = Graph(1)
        scheme = RestorableTiebreaking.build(g, seed=0)
        assert scheme.path(0, 0) == Path.trivial(0)

    def test_disconnected_graph_scheme(self):
        from repro.core.scheme import RestorableTiebreaking

        g = Graph(4, [(0, 1), (2, 3)])
        scheme = RestorableTiebreaking.build(g, seed=1)
        assert scheme.path(0, 3) is None
        assert scheme.path(0, 1) is not None

    def test_weighted_scheme_repr(self):
        from repro.core.scheme import RestorableTiebreaking

        g = generators.cycle(4)
        scheme = RestorableTiebreaking.build(g, seed=0)
        assert "restorable" in repr(scheme)


class TestLowerBoundEdgeCases:
    def test_tiny_instance(self):
        from repro.graphs.lowerbound import build_lower_bound_instance

        inst = build_lower_bound_instance(20, 1)
        assert inst.n >= 20
        assert inst.graph.is_connected()

    def test_gadget_depth_property(self):
        from repro.graphs.lowerbound import build_gf
        from repro.spt.bfs import bfs_distances

        for f, d in ((1, 3), (2, 4), (3, 4)):
            graph, gadget = build_gf(f, d)
            dist = bfs_distances(graph, gadget.root)
            assert all(dist[z] == gadget.depth for z in gadget.leaves)


class TestSpannerEdgeCases:
    def test_sigma_one(self):
        from repro.spanners import ft_plus4_spanner, verify_spanner

        g = generators.connected_erdos_renyi(12, 0.3, seed=2)
        spanner = ft_plus4_spanner(g, faults_tolerated=1, sigma=1, seed=1)
        # one center: almost nothing clusters; the spanner ~= the graph
        assert verify_spanner(g, spanner.edges, f=1)

    def test_sigma_equals_n(self):
        from repro.spanners import ft_plus4_spanner

        g = generators.cycle(8)
        spanner = ft_plus4_spanner(g, faults_tolerated=1, sigma=8, seed=1)
        assert spanner.size <= g.m


class TestDistributedSpannerNode:
    def test_cluster_node_unit(self):
        from repro.distributed.congest import CongestSimulator
        from repro.distributed.spanner import ClusterNode

        g = generators.star(6)  # centre 0, leaves 1..5
        nodes = {
            v: ClusterNode(v, is_center=(v in {1, 2, 3}), f=1)
            for v in g.vertices()
        }
        sim = CongestSimulator(g)
        sim.run(nodes)
        # the hub sees 3 center neighbours >= f+1 = 2: clustered
        assert nodes[0].clustered
        assert len(nodes[0].kept_edges) == 2
        # leaves see at most the hub (not a center): unclustered
        assert not nodes[4].clustered
        assert nodes[4].kept_edges == {(0, 4)}


class TestWeightedViewEdgeCases:
    def test_view_vertices_passthrough(self):
        from repro.weighted import WeightedGraph

        wg = WeightedGraph(3, [(0, 1, 2), (1, 2, 2)])
        view = wg.without([(0, 1)])
        assert view.n == 3
        assert list(view.vertices()) == [0, 1, 2]
        assert view.has_vertex(2)
        assert sorted(view.arcs()) == [(1, 2), (2, 1)]
        assert view.sorted_neighbors(1) == [2]

    def test_add_vertex(self):
        from repro.weighted import WeightedGraph

        wg = WeightedGraph(1)
        v = wg.add_vertex()
        wg.add_edge(0, v, 3)
        assert wg.m == 1


class TestDagTiebreakingEdgeCases:
    def test_unreachable_pair(self):
        from repro.dag import DagTiebreaking, DirectedGraph

        dag = DirectedGraph(3, [(0, 1)])
        scheme = DagTiebreaking(dag, seed=0)
        assert scheme.path(0, 2) is None
        assert scheme.hop_distance(0, 2) is None
        assert scheme.backward_path(2, 1) is None

    def test_direction_matters(self):
        from repro.dag import DagTiebreaking
        from repro.dag.generators import path_dag

        scheme = DagTiebreaking(path_dag(4), seed=0)
        assert scheme.path(0, 3) is not None
        assert scheme.path(3, 0) is None
