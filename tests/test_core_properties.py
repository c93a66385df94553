"""Tests for the Definition 13-17 property verifiers."""

import pytest

from repro.exceptions import GraphError
from repro.graphs import generators
from repro.core.properties import (
    all_shortest_paths,
    consistency_violations,
    enumerate_symmetric_schemes,
    is_consistent,
    is_restorable,
    is_stable,
    is_symmetric,
    restorability_violations,
    stability_violations,
    symmetry_violations,
    theorem37_holds_on,
)
from repro.core.scheme import BFSTiebreaking, ExplicitScheme
from repro.spt.paths import Path


class TestAllShortestPaths:
    def test_counts_on_grid(self):
        g = generators.grid(3, 3)
        assert len(all_shortest_paths(g, 0, 8)) == 6
        assert len(all_shortest_paths(g, 0, 2)) == 1

    def test_disconnected_empty(self):
        from repro.graphs.base import Graph

        g = Graph(3, [(0, 1)])
        assert all_shortest_paths(g, 0, 2) == []

    def test_all_are_shortest_and_distinct(self):
        g = generators.grid(3, 3)
        paths = all_shortest_paths(g, 0, 8)
        assert len(set(paths)) == len(paths)
        assert all(p.hops == 4 and p.is_valid_in(g) for p in paths)

    def test_limit_guard(self):
        g = generators.biclique_chain(6, 4)  # 4^6 tied paths
        with pytest.raises(GraphError):
            all_shortest_paths(g, 0, g.n - 1, limit=100)


class TestSymmetry:
    def test_explicit_symmetric(self):
        g = generators.cycle(4)
        table = {}
        for (s, t), p in {
            (0, 2): Path([0, 1, 2]), (1, 3): Path([1, 2, 3]),
            (0, 1): Path([0, 1]), (1, 2): Path([1, 2]),
            (2, 3): Path([2, 3]), (0, 3): Path([0, 3]),
        }.items():
            table[(s, t)] = p
            table[(t, s)] = p.reverse()
        scheme = ExplicitScheme(g, table)
        assert is_symmetric(scheme)

    def test_restorable_is_asymmetric_on_tied_graphs(self, grid4, grid_scheme):
        # Antisymmetric perturbation forces pi(s,t) != reverse(pi(t,s))
        # somewhere on a graph with ties.
        assert symmetry_violations(grid_scheme)

    def test_violation_reports_pairs(self):
        g = generators.cycle(4)
        scheme = ExplicitScheme(g, {
            (0, 2): Path([0, 1, 2]), (2, 0): Path([2, 3, 0]),
        })
        assert (0, 2) in symmetry_violations(scheme, pairs=[(0, 2)])


class TestConsistency:
    def test_weighted_schemes_consistent(self, grid_scheme):
        assert is_consistent(grid_scheme)

    def test_weighted_consistent_under_faults(self, grid_scheme):
        assert is_consistent(grid_scheme, faults=[(5, 6)])

    def test_bfs_scheme_consistency_status(self, grid4):
        # Lexicographic BFS from each source picks smallest parent; this
        # is consistent on the grid (all sources agree on slicing).
        scheme = BFSTiebreaking(grid4)
        assert isinstance(consistency_violations(scheme), list)

    def test_inconsistent_table_detected(self):
        g = generators.cycle(4)
        scheme = ExplicitScheme(g, {
            (0, 2): Path([0, 1, 2]),
            (0, 1): Path([0, 3, 2, 1]),  # not the 0..1 slice, not even short
        })
        # the (0,1) selection is length-3 (not shortest), so the subpath
        # property of pi(0,2) must flag (0, 2, 0, 1)
        bad = consistency_violations(scheme, pairs=[(0, 2)])
        assert (0, 2, 0, 1) in bad


class TestStability:
    def test_restorable_stable(self, grid_scheme):
        assert is_stable(grid_scheme)

    def test_stability_beyond_one_fault(self, er_scheme, er_small):
        base_sets = [((0, next(iter(er_small.neighbors(0)))),)]
        pairs = [(1, 5), (2, 9)]
        assert not stability_violations(
            er_scheme, base_fault_sets=base_sets, pairs=pairs,
        )

    def test_unstable_table_detected(self):
        # A table with no fault entries: under any off-path fault the
        # selection vanishes (None), which violates Definition 16.
        g = generators.cycle(4)
        scheme = ExplicitScheme(g, {(0, 2): Path([0, 1, 2])})
        bad = stability_violations(scheme, pairs=[(0, 2)])
        flagged_edges = {entry[3] for entry in bad}
        assert flagged_edges == {(0, 3), (2, 3)}  # the off-path edges

    def test_stable_table_passes(self):
        g = generators.cycle(4)
        keep = Path([0, 1, 2])
        fault_table = {
            (0, 2, frozenset({(0, 3)})): keep,
            (0, 2, frozenset({(2, 3)})): keep,
        }
        scheme = ExplicitScheme(g, {(0, 2): keep}, fault_table=fault_table)
        assert not stability_violations(scheme, pairs=[(0, 2)])


class TestRestorability:
    def test_restorable_scheme_passes(self, grid_scheme):
        assert is_restorable(grid_scheme)

    def test_two_fault_restorability_sampled(self, er_scheme, er_small):
        fault_sets = generators.fault_sample(er_small, 15, seed=1, size=2)
        pairs = [(0, 9), (3, 14)]
        assert not restorability_violations(
            er_scheme, fault_sets=fault_sets, pairs=pairs,
        )

    def test_empty_fault_set_rejected(self, grid_scheme):
        with pytest.raises(GraphError):
            restorability_violations(grid_scheme, fault_sets=[()])

    def test_symmetric_scheme_on_c4_fails(self, c4):
        # hand-pick the symmetric scheme from the Theorem 37 proof
        table = {}
        for (s, t), p in {
            (0, 1): Path([0, 1]), (1, 2): Path([1, 2]),
            (2, 3): Path([2, 3]), (0, 3): Path([0, 3]),
            (0, 2): Path([0, 1, 2]), (1, 3): Path([1, 0, 3]),
        }.items():
            table[(s, t)] = p
            table[(t, s)] = p.reverse()
        scheme = ExplicitScheme(c4, table)
        assert is_symmetric(scheme)
        assert not is_restorable(scheme)


class TestTheorem37:
    def test_c4_impossibility_exhaustive(self, c4):
        assert theorem37_holds_on(c4)

    def test_enumeration_counts_on_c4(self, c4):
        # ties only on the two diagonals: 2 * 2 = 4 symmetric schemes
        schemes = list(enumerate_symmetric_schemes(c4))
        assert len(schemes) == 4
        assert all(s.is_symmetric_table() for s in schemes)

    def test_path_graph_has_restorable_symmetric_scheme(self):
        # no ties at all => the unique scheme is symmetric; on a tree,
        # single-edge faults disconnect, so 1-restorability is vacuous.
        g = generators.path(4)
        assert not theorem37_holds_on(g)

    def test_limit_guard(self):
        g = generators.biclique_chain(4, 4)
        with pytest.raises(GraphError):
            list(enumerate_symmetric_schemes(g, limit=10))
