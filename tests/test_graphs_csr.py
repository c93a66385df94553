"""CSRGraph/CSRFaultView structure tests + PR-1 bugfix regressions."""

import pytest

from repro.exceptions import GraphError
from repro.graphs.base import Graph
from repro.graphs.csr import CSRGraph, as_csr
from repro.graphs.views import FaultView, GraphLike
from repro.graphs import generators
from repro.spt.bfs import bfs_distances, hop_distance


@pytest.fixture
def house():
    # 0-1-2 triangle with a 2-3-4 tail.
    return Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])


# ----------------------------------------------------------------------
# CSRGraph snapshot
# ----------------------------------------------------------------------
class TestCSRGraph:
    def test_mirrors_base_graph(self, house):
        snap = CSRGraph.from_graph(house)
        assert (snap.n, snap.m) == (house.n, house.m)
        assert list(snap.edges()) == sorted(house.edges())
        assert sorted(snap.arcs()) == sorted(house.arcs())
        for v in house.vertices():
            assert snap.sorted_neighbors(v) == house.sorted_neighbors(v)
            assert snap.degree(v) == house.degree(v)
            assert snap.neighbors(v) == tuple(house.sorted_neighbors(v))
        for u in house.vertices():
            for v in house.vertices():
                assert snap.has_edge(u, v) == house.has_edge(u, v)

    def test_satisfies_graphlike(self, house):
        assert isinstance(CSRGraph.from_graph(house), GraphLike)
        assert isinstance(CSRGraph.from_graph(house).without([(0, 1)]),
                          GraphLike)

    def test_rows_are_sorted(self):
        g = generators.connected_erdos_renyi(40, 0.2, seed=3)
        snap = CSRGraph.from_graph(g)
        for v in g.vertices():
            row = snap.sorted_neighbors(v)
            assert row == sorted(row)

    def test_vertex_validation(self, house):
        snap = CSRGraph.from_graph(house)
        for bad in (-1, 5, "x"):
            with pytest.raises(GraphError):
                snap.neighbors(bad)

    def test_is_connected(self, house):
        snap = CSRGraph.from_graph(house)
        assert snap.is_connected()
        assert not snap.without([(3, 4)]).is_connected()
        assert snap.without([(0, 1)]).is_connected()

    def test_graph_csr_cache_invalidates_on_mutation(self, house):
        first = house.csr()
        assert house.csr() is first  # cached while unchanged
        house.add_edge(0, 3)
        second = house.csr()
        assert second is not first
        assert second.has_edge(0, 3) and not first.has_edge(0, 3)
        house.add_vertex()
        assert house.csr().n == house.n

    def test_as_csr_dispatch(self, house):
        assert as_csr(house) is None
        assert as_csr(house.without([(0, 1)])) is None
        snap, mask = as_csr(house.csr())
        assert snap is house.csr() and mask is None
        view = house.csr().without([(0, 1)])
        snap, mask = as_csr(view)
        assert mask is not None and sum(mask) == len(snap.indices) - 2


# ----------------------------------------------------------------------
# CSRFaultView masking
# ----------------------------------------------------------------------
class TestCSRFaultView:
    def test_matches_reference_fault_view(self, house):
        faults = [(1, 0), (3, 2)]
        fast = house.csr().without(faults)
        ref = house.without(faults)
        assert (fast.n, fast.m) == (ref.n, ref.m)
        assert list(fast.edges()) == list(ref.edges())
        for v in house.vertices():
            assert fast.sorted_neighbors(v) == ref.sorted_neighbors(v)
            assert fast.degree(v) == ref.degree(v)
        for u in house.vertices():
            for v in house.vertices():
                assert fast.has_edge(u, v) == ref.has_edge(u, v)

    def test_absent_faults_ignored(self, house):
        view = house.csr().without([(0, 4), (1, 3)])
        assert view.m == house.m
        assert list(view.edges()) == sorted(house.edges())

    def test_compose_without_flattens(self, house):
        view = house.csr().without([(0, 1)]).without([(2, 3)])
        assert view.base is house.csr()
        assert view.faults == frozenset({(0, 1), (2, 3)})
        assert view.m == house.m - 2

    def test_isolated_after_masking(self, house):
        view = house.csr().without([(3, 4), (2, 3)])
        assert view.neighbors(3) == ()
        assert view.degree(3) == 0


# ----------------------------------------------------------------------
# satellite bugfix regressions
# ----------------------------------------------------------------------
class TestHopDistanceValidation:
    """hop_distance silently accepted bad sources (negative indexing)."""

    @pytest.mark.parametrize("source", [-1, -3, 7, 100])
    def test_bad_source_raises(self, house, source):
        with pytest.raises(GraphError):
            hop_distance(house, source, 0)

    @pytest.mark.parametrize("target", [-1, 7])
    def test_bad_target_raises(self, house, target):
        with pytest.raises(GraphError):
            hop_distance(house, 0, target)

    def test_bad_source_raises_on_views_and_csr(self, house):
        for g in (house.without([(0, 1)]), house.csr(),
                  house.csr().without([(0, 1)])):
            with pytest.raises(GraphError):
                hop_distance(g, -1, 0)
            with pytest.raises(GraphError):
                hop_distance(g, 0, house.n)

    def test_negative_source_does_not_corrupt_result(self, house):
        # The old bug: dist[-1] = 0 wrote to the *last* vertex, so
        # hop_distance(g, -1, v) could "succeed" with a bogus value.
        with pytest.raises(GraphError):
            hop_distance(house, -1, 4)
        # ... and the graph still answers correctly afterwards.
        assert hop_distance(house, 0, 4) == 3


class TestFaultViewM:
    """FaultView.m rescanned the fault set on every access."""

    def test_m_correct_and_stable(self, house):
        view = FaultView(house, [(0, 1), (2, 3), (0, 4)])  # (0,4) absent
        assert view.m == house.m - 2
        assert view.m == view.m  # repeated access, same answer

    def test_m_computed_once_at_init(self, house, monkeypatch):
        view = house.without([(0, 1)])
        calls = []
        original = Graph.has_edge

        def spy(self, u, v):
            calls.append((u, v))
            return original(self, u, v)

        monkeypatch.setattr(Graph, "has_edge", spy)
        for _ in range(100):
            assert view.m == house.m - 1
        assert calls == []  # no per-access rescans of the fault set


class TestNeighborsSnapshot:
    """Graph.neighbors returned a live set iterator; mutation raised."""

    def test_add_edge_inside_loop_regression(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3)])
        # Old behaviour: RuntimeError: Set changed size during iteration.
        for v in g.neighbors(0):
            g.add_edge(0, 4)
            g.add_edge(0, 5)
        assert g.degree(0) == 5

    def test_snapshot_is_detached(self, house):
        snap = house.neighbors(0)
        house.add_edge(0, 4)
        assert 4 not in snap
        assert 4 in house.neighbors(0)

    def test_bfs_still_correct_after_change(self, house):
        # The tuple snapshot must not change traversal semantics.
        assert list(bfs_distances(house, 0)) == [0, 1, 1, 2, 3]
