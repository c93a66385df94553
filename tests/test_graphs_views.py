"""Unit tests for fault views ``G \\ F``."""

import pytest

from repro.graphs.base import Graph
from repro.graphs.views import GraphLike


@pytest.fixture
def square():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestFaultView:
    def test_edge_removed_in_view_only(self, square):
        view = square.without([(1, 0)])
        assert not view.has_edge(0, 1)
        assert square.has_edge(0, 1)
        assert view.m == 3
        assert square.m == 4

    def test_orientation_insensitive(self, square):
        assert not square.without([(1, 0)]).has_edge(0, 1)
        assert not square.without([(0, 1)]).has_edge(1, 0)

    def test_unknown_fault_ignored(self, square):
        view = square.without([(0, 2)])
        assert view.m == square.m

    def test_neighbors_filtered(self, square):
        view = square.without([(0, 1)])
        assert sorted(view.neighbors(0)) == [3]
        assert view.sorted_neighbors(1) == [2]
        assert view.degree(0) == 1

    def test_edges_and_arcs_filtered(self, square):
        view = square.without([(0, 1)])
        assert (0, 1) not in set(view.edges())
        assert (1, 0) not in set(view.arcs())
        assert len(list(view.edges())) == 3
        assert len(list(view.arcs())) == 6

    def test_views_compose_flat(self, square):
        double = square.without([(0, 1)]).without([(2, 3)])
        assert double.base is square
        assert double.faults == frozenset({(0, 1), (2, 3)})
        assert double.m == 2

    def test_materialize(self, square):
        solid = square.without([(0, 1)]).materialize()
        assert isinstance(solid, Graph)
        assert solid.m == 3
        assert solid.n == 4

    def test_connectivity(self, square):
        assert square.without([(0, 1)]).is_connected()
        assert not square.without([(0, 1), (2, 3)]).is_connected()

    def test_protocol_conformance(self, square):
        view = square.without([(0, 1)])
        assert isinstance(view, GraphLike)
        assert isinstance(square, GraphLike)

    def test_vertices_passthrough(self, square):
        view = square.without([(0, 1)])
        assert list(view.vertices()) == [0, 1, 2, 3]
        assert view.n == 4
        assert view.has_vertex(3)
        assert not view.has_vertex(4)
