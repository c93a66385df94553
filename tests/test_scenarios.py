"""Scenario enumerators and the batched ScenarioEngine."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.restoration import midpoint_scan, tree_fault_free_vertices
from repro.core.scheme import BFSTiebreaking, RestorableTiebreaking
from repro.exceptions import GraphError, QueryError
from repro.graphs import generators
from repro.graphs.base import Graph
from repro.preservers.verification import preserver_violations
from repro.query import (
    ConnectivityQuery,
    DistanceQuery,
    RestorationQuery,
    Session,
    VectorQuery,
)
from repro.scenarios import (
    ScenarioEngine,
    TreeFaultIndex,
    all_fault_subsets,
    random_fault_sets,
    single_edge_faults,
    tree_edge_faults,
)
from repro.spt.bfs import UNREACHABLE, bfs_distances
from repro.spt.fastpaths import csr_bfs_tree
from repro.spt.trees import ShortestPathTree


@pytest.fixture(scope="module")
def torus():
    return generators.torus(5, 5)


@pytest.fixture(scope="module")
def sparse():
    return generators.connected_erdos_renyi(60, 2.5 / 60, seed=9)


# ----------------------------------------------------------------------
# enumerators
# ----------------------------------------------------------------------
class TestEnumerators:
    def test_single_edge_faults(self, torus):
        scenarios = list(single_edge_faults(torus))
        assert len(scenarios) == torus.m
        assert all(len(f) == 1 for f in scenarios)
        assert scenarios == sorted(scenarios)

    def test_all_fault_subsets_exact_size(self, torus):
        f2 = list(all_fault_subsets(torus, 2))
        assert len(f2) == torus.m * (torus.m - 1) // 2
        assert all(len(f) == 2 for f in f2)

    def test_all_fault_subsets_include_smaller(self):
        g = generators.cycle(4)
        fs = list(all_fault_subsets(g, 2, include_smaller=True))
        assert fs[0] == ()  # empty scenario first
        assert len(fs) == 1 + 4 + 6

    def test_all_fault_subsets_negative_budget(self, torus):
        with pytest.raises(GraphError):
            list(all_fault_subsets(torus, -1))

    def test_random_fault_sets_deterministic(self, torus):
        a = random_fault_sets(torus, 2, 20, seed=4)
        b = random_fault_sets(torus, 2, 20, seed=4)
        c = random_fault_sets(torus, 2, 20, seed=5)
        assert a == b
        assert a != c
        assert len(a) == 20
        edge_set = set(torus.edges())
        for fs in a:
            assert len(fs) == 2
            assert set(fs) <= edge_set

    def test_random_fault_sets_budget_clamped(self):
        g = generators.cycle(3)
        (fs,) = random_fault_sets(g, 10, 1, seed=0)
        assert len(fs) == 3  # only 3 edges exist

    def test_tree_edge_faults_are_adversarial(self, torus):
        scheme = RestorableTiebreaking.build(torus, f=1, seed=2)
        tree = scheme.tree(0)
        scenarios = list(tree_edge_faults(tree))
        assert len(scenarios) == torus.n - 1  # spanning tree edges
        tree_edges = tree.edge_set()
        assert all(f[0] in tree_edges for f in scenarios)


# ----------------------------------------------------------------------
# TreeFaultIndex
# ----------------------------------------------------------------------
class TestTreeFaultIndex:
    def test_matches_reference_on_all_faults(self, torus):
        scheme = RestorableTiebreaking.build(torus, f=1, seed=1)
        tree = scheme.tree(7)
        index = TreeFaultIndex.of_tree(tree)
        for faults in itertools.chain(single_edge_faults(torus),
                                      random_fault_sets(torus, 3, 30, 8)):
            assert (index.fault_free_vertices(faults)
                    == tree_fault_free_vertices(tree, faults))

    def test_empty_faults_returns_all_reached(self, torus):
        tree = BFSTiebreaking(torus).tree(0)
        index = TreeFaultIndex.of_tree(tree)
        assert index.fault_free_vertices(()) == set(tree.reached_vertices())

    @given(st.integers(2, 30), st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_parent_map_index_matches_the_tree_walk(self, n, seed):
        """The flat index over a BFS parent map — what the engine
        builds for base trees — on graphs that may leave vertices
        unreached, against faults in either orientation, off the tree
        and off the graph."""
        rng = random.Random(seed)
        g = Graph(n)
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                g.add_edge(u, v)
        root = rng.randrange(n)
        parent = csr_bfs_tree(g.csr(), None, root)
        dist = bfs_distances(g, root)
        tree = ShortestPathTree(root, parent, {v: dist[v] for v in parent})
        index = TreeFaultIndex(parent)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for _ in range(10):
            faults = rng.sample(pairs, rng.randint(0, min(4, len(pairs))))
            assert (index.fault_free_vertices(faults)
                    == tree_fault_free_vertices(tree, faults))
            assert sorted(index.orphaned_vertices(faults)) == sorted(
                set(parent) - tree_fault_free_vertices(tree, faults))


# ----------------------------------------------------------------------
# ScenarioEngine
# ----------------------------------------------------------------------
class TestScenarioEngine:
    def test_replacement_distances_match_naive(self, sparse):
        session = Session(sparse)
        scenarios = list(single_edge_faults(sparse))
        scenarios += random_fault_sets(sparse, 2, 40, seed=1)
        s, t = 0, sparse.n - 1
        fast = [a.value for a in session.answer(
            DistanceQuery(s, t, f) for f in scenarios)]
        naive = [
            bfs_distances(sparse.without(f), s)[t] for f in scenarios
        ]
        assert fast == naive

    def test_pair_query_validates_vertices(self, torus):
        engine = ScenarioEngine(torus)
        session = Session(engine=engine)
        for s, t in ((0, -1), (0, torus.n), (-2, 5), (torus.n + 3, 5)):
            with pytest.raises(QueryError):
                session.answer_one(DistanceQuery(s, t, [(0, 1)]))
            with pytest.raises(GraphError):
                engine.faults_touch_pair(s, t, [(0, 1)])

    def test_out_of_range_fault_edges_tolerated(self, torus):
        # At the engine, fault edges naming unknown vertices behave
        # like absent edges, matching the without() convention (the
        # planner rejects them before any kernel runs).
        engine = ScenarioEngine(torus)
        base = bfs_distances(torus, 0)[12]
        (row,) = engine.source_vectors([0], [(0, 999), (-5, 3)])
        assert row[12] == base
        assert not engine.faults_touch_pair(0, 12, [(0, 999)])

    def test_scratch_mask_restored_between_scenarios(self, torus):
        engine = ScenarioEngine(torus)
        session = Session(engine=engine)
        scenarios = list(single_edge_faults(torus))
        expected = [
            bfs_distances(torus.without(f), 0)[12] for f in scenarios
        ]
        # Interleave different query types; a leaked mask bit from any
        # earlier scenario would corrupt a later answer.
        for f, want in zip(scenarios, expected):
            assert session.answer_one(DistanceQuery(0, 12, f)).value == want
            assert session.answer_one(ConnectivityQuery(f)).value == (
                torus.without(f).is_connected()
            )
        assert all(engine._scratch_mask)  # fully restored

    def test_disconnected_base_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        answer = Session(g).answer_one(DistanceQuery(0, 3, [(0, 1)]))
        assert answer.value == UNREACHABLE
        assert bfs_distances(g.without([(0, 1)]), 0)[3] == UNREACHABLE

    def test_touch_filter_has_no_false_negatives(self, sparse):
        engine = ScenarioEngine(sparse)
        s, t = 0, sparse.n - 1
        base = bfs_distances(sparse, s)[t]
        for faults in single_edge_faults(sparse):
            if not engine.faults_touch_pair(s, t, faults):
                # untouched scenario => distance provably unchanged
                assert bfs_distances(sparse.without(faults), s)[t] == base

    def test_connectivity_matches_naive(self, sparse):
        session = Session(sparse)
        scenarios = random_fault_sets(sparse, 2, 60, seed=2)
        assert [a.value for a in session.answer(
            ConnectivityQuery(f) for f in scenarios)] == [
            sparse.without(f).is_connected() for f in scenarios
        ]

    def test_distance_vectors_match_naive(self, torus):
        session = Session(torus)
        scenarios = random_fault_sets(torus, 2, 10, seed=3)
        answers = session.answer(VectorQuery(4, f) for f in scenarios)
        for faults, answer in zip(scenarios, answers):
            assert answer.value == bfs_distances(torus.without(faults), 4)

    def test_midpoint_scan_matches_core(self, torus):
        scheme = RestorableTiebreaking.build(torus, f=1, seed=4)
        engine = ScenarioEngine(torus)
        for faults in list(single_edge_faults(torus))[:25]:
            ref = midpoint_scan(scheme, 0, 12, faults)
            fast = engine.midpoint_scan(scheme, 0, 12, faults)
            assert ref == fast

    def test_restoration_sweep_restorable_never_fails(self, torus):
        scheme = RestorableTiebreaking.build(torus, f=1, seed=6)
        session = Session(torus, scheme=scheme)
        path = scheme.path(0, 12)
        for item in session.answer(RestorationQuery(0, 12, (e,))
                                   for e in path.edges()):
            assert item.value is not None
            target, result = item.value
            assert result is not None and result.path.hops == target

    def test_preserver_violations_match_reference(self, torus):
        # The full graph trivially preserves itself; a spanning tree
        # of a torus does not.
        scenarios = list(single_edge_faults(torus))[:15]
        sources = [0, 7, 13]
        engine = ScenarioEngine(torus)
        full = engine.preserver_violations(
            torus.edges(), sources, scenarios
        )
        assert full == []
        tree = BFSTiebreaking(torus).tree(0)
        fast = engine.preserver_violations(
            tree.edges(), sources, scenarios
        )
        ref = preserver_violations(
            torus, tree.edges(), sources, fault_sets=scenarios
        )
        assert fast == ref
        assert fast  # the tree really does lose distances

    def test_wave_failure_restores_scratch_mask(self, torus, monkeypatch):
        # A kernel failing inside a source_vectors wave propagates, and
        # the scratch mask the wave was loaned is restored for the
        # next query.
        engine = ScenarioEngine(torus, delta=False)
        masked = []

        class Broken:
            name = "broken"

            @staticmethod
            def csr_bfs_distances_many(csr, mask, sources):
                masked.append(mask.count(0))
                raise RuntimeError("kernel failed")

        monkeypatch.setattr("repro.scenarios.engine.backend_for",
                            lambda kernel, csr, batch=1: Broken)
        with pytest.raises(RuntimeError, match="kernel failed"):
            engine.source_vectors([0, 7], [(0, 1)])
        assert masked == [2]  # both arcs of the fault were masked
        assert all(engine._scratch_mask)
        monkeypatch.undo()
        assert engine.source_vectors([0], [(0, 1)])[0] == \
            bfs_distances(torus.without([(0, 1)]), 0)


# ----------------------------------------------------------------------
# CacheInfo aggregation
# ----------------------------------------------------------------------
class TestCacheInfoMerge:
    def test_merge_sums_counters_and_unions_backends(self):
        from repro.scenarios import CacheInfo

        a = CacheInfo(vector_hits=2, vector_misses=5, vector_evictions=1,
                      delta_hits=4, delta_fallbacks=2, size=7, maxsize=64,
                      wave_backends=(("pyloops", 3), ("vectorized", 1)))
        b = CacheInfo(vector_hits=0, vector_misses=1, vector_evictions=3,
                      delta_hits=0, delta_fallbacks=1, size=5, maxsize=64,
                      wave_backends=(("vectorized", 6),))
        merged = CacheInfo.merge([a, b])
        assert merged.vector_hits == 2 and merged.vector_misses == 6
        assert merged.vector_evictions == 4
        assert merged.delta_hits == 4 and merged.delta_fallbacks == 3
        assert merged.size == 12 and merged.maxsize == 128
        assert merged.wave_backends == (
            ("pyloops", 3), ("vectorized", 7))
        # componentwise: merging is exactly field-by-field summation
        for name in a.keys():
            if name == "wave_backends":
                continue
            assert merged[name] == a[name] + b[name]

    def test_merge_of_nothing_is_zero(self):
        from repro.scenarios import CacheInfo

        zero = CacheInfo.merge([])
        assert dict(zero) == dict(CacheInfo(
            vector_hits=0, vector_misses=0, vector_evictions=0,
            delta_hits=0, delta_fallbacks=0, size=0, maxsize=0,
        ))

    def test_merge_matches_live_engines(self, torus):
        from repro.scenarios import CacheInfo

        engines = [ScenarioEngine(torus) for _ in range(2)]
        for i, engine in enumerate(engines):
            for faults in random_fault_sets(torus, 1, 4, seed=i):
                engine.source_vectors([0, 7], faults)
        merged = CacheInfo.merge(e.cache_info() for e in engines)
        assert merged.size == sum(e.cache_info().size for e in engines)
        assert merged.vector_misses == sum(
            e.cache_info().vector_misses for e in engines)
