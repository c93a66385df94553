"""Tests for FT preservers (Theorems 26, 31) and their verification."""

import re

import pytest

from repro.exceptions import GraphError
from repro.graphs import generators
from repro.core.scheme import RestorableTiebreaking
from repro.preservers import (
    ft_ss_preserver,
    ft_sv_preserver,
    preserver_violations,
    verify_preserver,
)
from repro.analysis.bounds import thm26_sv_preserver_bound


class TestSvPreserver:
    def test_f0_is_tree_union(self, er_small):
        scheme = RestorableTiebreaking.build(er_small, f=1, seed=2)
        sources = [0, 4, 9]
        preserver = ft_sv_preserver(scheme, sources, f=0)
        union = set()
        for s in sources:
            union |= scheme.tree(s).edge_set()
        assert preserver.edges == frozenset(union)
        assert preserver.size <= len(sources) * (er_small.n - 1)

    def test_f1_correct_sv(self, er_small):
        scheme = RestorableTiebreaking.build(er_small, f=1, seed=2)
        sources = [0, 4]
        preserver = ft_sv_preserver(scheme, sources, f=1)
        assert verify_preserver(
            er_small, preserver.edges, sources,
            targets=er_small.vertices(), f=1,
        )

    def test_f2_correct_sv_sampled(self):
        g = generators.connected_erdos_renyi(14, 0.22, seed=9)
        scheme = RestorableTiebreaking.build(g, f=2, seed=1)
        preserver = ft_sv_preserver(scheme, [0], f=2)
        fault_sets = generators.fault_sample(g, 25, seed=5, size=2)
        assert verify_preserver(
            g, preserver.edges, [0], targets=g.vertices(),
            fault_sets=fault_sets,
        )

    def test_negative_f_rejected(self, er_small):
        scheme = RestorableTiebreaking.build(er_small, seed=0)
        with pytest.raises(GraphError):
            ft_sv_preserver(scheme, [0], f=-1)

    def test_fault_set_budget(self, er_small):
        scheme = RestorableTiebreaking.build(er_small, f=1, seed=2)
        partial = ft_sv_preserver(scheme, [0], f=1, max_fault_sets=3)
        assert partial.fault_sets_explored <= 4

    def test_within_theorem26_bound(self, er_medium):
        scheme = RestorableTiebreaking.build(er_medium, f=1, seed=8)
        sources = [0, 10, 20, 30]
        preserver = ft_sv_preserver(scheme, sources, f=1)
        bound = thm26_sv_preserver_bound(er_medium.n, len(sources), 1)
        assert preserver.size <= bound  # generous at this scale
        assert preserver.size <= er_medium.m

    def test_as_graph_round_trip(self, er_small):
        scheme = RestorableTiebreaking.build(er_small, seed=4)
        preserver = ft_sv_preserver(scheme, [0], f=0)
        sub = preserver.as_graph()
        assert sub.m == preserver.size
        assert sub.n == er_small.n


class TestSsPreserver:
    def test_1ft_is_union_of_trees(self, er_small):
        p = ft_ss_preserver(er_small, [0, 5, 11], faults_tolerated=1, seed=3)
        assert p.faults_tolerated == 1
        assert verify_preserver(er_small, p.edges, [0, 5, 11], f=1)

    def test_2ft_exhaustive_small(self):
        g = generators.connected_erdos_renyi(13, 0.25, seed=2)
        S = [0, 4, 8]
        p = ft_ss_preserver(g, S, faults_tolerated=2, seed=1)
        assert verify_preserver(g, p.edges, S, f=2)

    def test_3ft_sampled(self):
        g = generators.connected_erdos_renyi(12, 0.3, seed=6)
        S = [0, 5]
        p = ft_ss_preserver(g, S, faults_tolerated=3, seed=1)
        fault_sets = generators.fault_sample(g, 30, seed=7, size=3)
        assert verify_preserver(g, p.edges, S, fault_sets=fault_sets)

    def test_grid_1ft(self, grid4):
        S = [0, 3, 12, 15]
        p = ft_ss_preserver(grid4, S, faults_tolerated=1, seed=5)
        assert verify_preserver(grid4, p.edges, S, f=1)
        assert p.size <= len(S) * (grid4.n - 1)

    def test_zero_faults_rejected(self, grid4):
        with pytest.raises(GraphError):
            ft_ss_preserver(grid4, [0, 15], faults_tolerated=0)

    def test_prebuilt_scheme_reused(self, er_small):
        scheme = RestorableTiebreaking.build(er_small, f=2, seed=9)
        a = ft_ss_preserver(er_small, [0, 7], 2, scheme=scheme)
        b = ft_ss_preserver(er_small, [0, 7], 2, scheme=scheme)
        assert a.edges == b.edges


class TestVerification:
    def test_detects_missing_edge(self, grid4):
        S = [0, 15]
        p = ft_ss_preserver(grid4, S, faults_tolerated=1, seed=2)
        # drop one edge that lies on some selected path: must break
        victim = next(iter(p.edges))
        weakened = p.edges - {victim}
        violations = preserver_violations(grid4, weakened, S, f=1)
        # dropping a tree edge must hurt at least the fault-free case
        # or some single-fault case
        assert isinstance(violations, list)

    def test_full_graph_always_preserves(self, er_small):
        assert verify_preserver(
            er_small, er_small.edges(), [0, 5], f=1
        )

    def test_empty_subgraph_fails(self, grid4):
        violations = preserver_violations(grid4, [], [0, 15], f=0)
        assert violations
        faults, s, t, dg, dh = violations[0]
        assert faults == ()
        assert dh == -1

    def test_explicit_fault_sets(self, grid4):
        S = [0, 15]
        p = ft_ss_preserver(grid4, S, faults_tolerated=1, seed=2)
        sampled = generators.fault_sample(grid4, 8, seed=1, size=1)
        assert verify_preserver(grid4, p.edges, S, fault_sets=sampled)

    @pytest.mark.parametrize("malformed, named", [
        ({"sources": [0, 99]}, "vertex 99"),
        ({"targets": [0, -1]}, "vertex -1"),
        ({"preserver_edges": [(0, 1), (15, 42)]}, "vertex 42"),
        ({"fault_sets": [[(0, 1)], [(0, 77)]]}, "vertex 77"),
        ({"fault_sets": [[(0, 1, 2)]]}, "fault edge (0, 1, 2)"),
    ], ids=["source", "target", "preserver-edge", "fault-edge",
            "non-pair-edge"])
    def test_malformed_input_raises_graph_error(self, grid4, malformed,
                                                named):
        """The verifier checks its own inputs before any sweep and
        names the offending vertex (or edge)."""
        args = {"preserver_edges": list(grid4.edges()), "sources": [0, 15],
                **malformed}
        with pytest.raises(GraphError, match=re.escape(named)):
            preserver_violations(grid4, **args)

    def test_absent_fault_edge_removes_nothing(self, grid4):
        # (0, 5) joins two grid vertices but is no grid edge: as a
        # fault it is accepted and leaves G and H as they are.
        assert not grid4.has_edge(0, 5)
        weakened = [e for e in grid4.edges() if e != (0, 1)]
        S, V = [0, 15], list(grid4.vertices())
        fault_free = preserver_violations(grid4, weakened, S, targets=V,
                                          fault_sets=[[]])
        absent = preserver_violations(grid4, weakened, S, targets=V,
                                      fault_sets=[[(5, 0)]])
        assert fault_free
        assert absent == [(((0, 5),), *v[1:]) for v in fault_free]
