"""Tests for routing tables and the MPLS restoration workflow."""

import pytest

from repro.exceptions import DisconnectedError, GraphError
from repro.graphs import generators
from repro.core.routing import MplsRouter, RoutingTable, fault_patch
from repro.core.scheme import RestorableTiebreaking
from repro.spt.apsp import replacement_distance


class TestRoutingTable:
    def test_routes_reproduce_selected_paths(self, grid4, grid_scheme):
        table = RoutingTable.from_scheme(grid_scheme)
        for s in (0, 7, 12):
            for t in grid4.vertices():
                if s == t:
                    continue
                assert table.route(s, t) == grid_scheme.path(s, t)

    def test_next_hop_semantics(self, grid_scheme):
        table = RoutingTable.from_scheme(grid_scheme)
        assert table.next_hop(0, 0) is None
        nh = table.next_hop(0, 15)
        assert nh == grid_scheme.path(0, 15)[1]

    def test_disconnected_route(self):
        g = generators.path(3)
        # remove connectivity by building the table over a subgraph view
        scheme = RestorableTiebreaking.build(g, seed=0)
        table = RoutingTable.from_scheme(scheme)
        assert table.next_hop(0, 2) == 1
        bad = RoutingTable({}, 3)
        with pytest.raises(DisconnectedError):
            bad.route(0, 2)

    def test_loop_detection(self):
        table = RoutingTable({(0, 2): 1, (1, 2): 0}, 3)
        with pytest.raises(GraphError):
            table.route(0, 2)

    def test_entries_count(self, grid4, grid_scheme):
        table = RoutingTable.from_scheme(grid_scheme)
        assert table.entries() == grid4.n * (grid4.n - 1)


class TestMplsRouter:
    @pytest.fixture(scope="class")
    def router(self, grid_scheme):
        return MplsRouter(grid_scheme)

    def test_primary_path(self, router, grid_scheme):
        assert router.primary_path(0, 15) == grid_scheme.path(0, 15)

    def test_restore_off_path_fault_keeps_primary(self, router, grid4):
        primary = router.primary_path(0, 15)
        off = next(e for e in grid4.edges() if not primary.uses_edge(e))
        assert router.restore(0, 15, off) == primary

    def test_restore_every_on_path_fault(self, router, grid4):
        primary = router.primary_path(0, 15)
        for e in primary.edges():
            restored = router.restore(0, 15, e)
            assert restored.avoids([e])
            assert restored.hops == replacement_distance(grid4, 0, 15, [e])

    def test_restore_all_on_path(self, router):
        primary = router.primary_path(0, 15)
        table = router.restore_all_on_path(0, 15)
        assert set(table) == set(primary.edges())

    def test_disconnecting_fault_raises(self):
        g = generators.path(4)
        router = MplsRouter(RestorableTiebreaking.build(g, seed=3))
        with pytest.raises(DisconnectedError):
            router.restore(0, 3, (1, 2))

    def test_restore_never_recomputes(self, grid4, grid_scheme):
        # The router must answer restorations from precomputed trees:
        # tree cache size stays fixed across restores.
        router = MplsRouter(grid_scheme)
        before = grid_scheme.cache_size()
        primary = router.primary_path(0, 15)
        for e in primary.edges():
            router.restore(0, 15, e)
        assert grid_scheme.cache_size() == before

    def test_works_on_every_pair_of_er_graph(self, er_small):
        scheme = RestorableTiebreaking.build(er_small, f=1, seed=13)
        router = MplsRouter(scheme)
        for s in range(0, er_small.n, 5):
            for t in range(1, er_small.n, 4):
                if s == t:
                    continue
                primary = router.primary_path(s, t)
                for e in primary.edges():
                    target = replacement_distance(er_small, s, t, [e])
                    if target == -1:
                        with pytest.raises(DisconnectedError):
                            router.restore(s, t, e)
                    else:
                        assert router.restore(s, t, e).hops == target


class TestFaultPatch:
    """The 'easy routing-table changes' claim, quantified."""

    def test_patch_only_touches_broken_paths(self, grid4, grid_scheme):
        fault = (5, 6)
        patch = fault_patch(grid_scheme, fault)
        for (s, t), (old, _new) in patch.items():
            primary = grid_scheme.path(s, t)
            # stability: a cell changes only if its path used the fault
            assert primary is not None
            assert primary.uses_edge(fault)
            assert old is not None

    def test_patch_covers_every_broken_path(self, grid4, grid_scheme):
        fault = (5, 6)
        patch = fault_patch(grid_scheme, fault)
        patched = set(patch)
        for s in grid4.vertices():
            for t in grid4.vertices():
                if s == t:
                    continue
                primary = grid_scheme.path(s, t)
                if primary.uses_edge(fault) and \
                        grid_scheme.path(s, t, [fault]) is not None:
                    new_hop = grid_scheme.path(s, t, [fault])[1]
                    if new_hop != primary[1]:
                        assert (s, t) in patched

    def test_patch_is_small(self, grid4, grid_scheme):
        fault = (5, 6)
        patch = fault_patch(grid_scheme, fault)
        assert len(patch) < grid4.n * (grid4.n - 1) / 4

    def test_unreachable_marked_none(self):
        g = generators.path(4)
        scheme = RestorableTiebreaking.build(g, seed=2)
        patch = fault_patch(scheme, (1, 2))
        # pairs split by the fault lose their cell entirely
        assert patch[(0, 3)][1] is None
        assert patch[(3, 0)][1] is None

    def test_diff_symmetric_roles(self):
        a = RoutingTable({(0, 1): 1}, 2)
        b = RoutingTable({(0, 1): 1}, 2)
        assert a.diff(b) == {}
        c = RoutingTable({}, 2)
        assert a.diff(c) == {(0, 1): (1, None)}
        assert c.diff(a) == {(0, 1): (None, 1)}
