"""Tests for replacement-path algorithms (Section 4.2)."""

import pytest

from repro.exceptions import GraphError
from repro.graphs import generators
from repro.core.scheme import RestorableTiebreaking
from repro.replacement import (
    naive_single_pair_replacement_distances,
    naive_sourcewise_replacement_distances,
    naive_subset_replacement_paths,
    single_pair_replacement_distances,
    subset_replacement_paths,
)
from repro.spt.apsp import replacement_distance
from repro.spt.bfs import UNREACHABLE


class TestSinglePair:
    def test_matches_naive_on_er(self):
        g = generators.connected_erdos_renyi(30, 0.1, seed=6)
        path, dists = single_pair_replacement_distances(g, 0, 17, seed=2)
        naive = naive_single_pair_replacement_distances(g, 0, 17, path)
        assert dists == naive

    def test_matches_naive_on_grid(self):
        g = generators.grid(5, 5)
        path, dists = single_pair_replacement_distances(g, 0, 24, seed=1)
        naive = naive_single_pair_replacement_distances(g, 0, 24, path)
        assert dists == naive

    def test_unreachable_reported(self):
        g = generators.path(5)
        path, dists = single_pair_replacement_distances(g, 0, 4, seed=0)
        # every edge of a path graph disconnects the pair
        assert all(d == UNREACHABLE for d in dists.values())
        assert len(dists) == 4

    def test_disconnected_pair_rejected(self):
        from repro.graphs.base import Graph

        g = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            single_pair_replacement_distances(g, 0, 2)

    def test_cycle_exact(self):
        g = generators.cycle(8)
        path, dists = single_pair_replacement_distances(g, 0, 3, seed=4)
        assert path.hops == 3
        assert all(d == 5 for d in dists.values())


class TestSubsetRP:
    @pytest.fixture(scope="class")
    def instance(self):
        g = generators.connected_erdos_renyi(40, 0.1, seed=12)
        return g, [0, 7, 15, 22, 33]

    def test_exact_against_bfs_oracle(self, instance):
        g, sources = instance
        result = subset_replacement_paths(g, sources, seed=5)
        assert len(result.paths) == 10  # all C(5,2) pairs connected
        for (s1, s2), per_edge in result.distances.items():
            for e, d in per_edge.items():
                assert d == replacement_distance(g, s1, s2, [e])

    def test_selected_paths_are_shortest(self, instance):
        g, sources = instance
        result = subset_replacement_paths(g, sources, seed=5)
        from repro.spt.bfs import bfs_distances

        for (s1, s2), path in result.paths.items():
            assert path.hops == bfs_distances(g, s1)[s2]
            assert path.is_valid_in(g)

    def test_tree_unions_linear_size(self, instance):
        g, sources = instance
        result = subset_replacement_paths(g, sources, seed=5)
        for size in result.union_sizes.values():
            assert size <= 2 * (g.n - 1)

    def test_query_interface(self, instance):
        g, sources = instance
        result = subset_replacement_paths(g, sources, seed=5)
        (s1, s2), path = next(iter(result.paths.items()))
        e = next(iter(path.edges()))
        assert result.query(s1, s2, e) == replacement_distance(g, s1, s2, [e])
        # off-path faults leave the distance unchanged
        off = next(edge for edge in g.edges() if not path.uses_edge(edge))
        assert result.query(s1, s2, off) == path.hops
        with pytest.raises(GraphError):
            result.query(0, 0, e)

    def test_scheme_reuse(self, instance):
        g, sources = instance
        scheme = RestorableTiebreaking.build(g, f=1, seed=3)
        a = subset_replacement_paths(g, sources, scheme=scheme)
        b = subset_replacement_paths(g, sources, scheme=scheme)
        assert a.paths == b.paths

    def test_unknown_source_rejected(self, instance):
        g, _ = instance
        with pytest.raises(GraphError):
            subset_replacement_paths(g, [0, g.n + 5])

    def test_matches_naive_subset_baseline_distances(self, instance):
        # The two solvers may pick different tied paths, so compare the
        # ground truth they imply for a *shared* set of fault queries.
        g, sources = instance
        fast = subset_replacement_paths(g, sources, seed=5)
        naive = naive_subset_replacement_paths(g, sources)
        assert set(fast.paths) == set(naive)
        for key, per_edge in naive.items():
            for e, d in per_edge.items():
                assert fast.query(*key, e) == d if e in fast.distances[key] \
                    else d == replacement_distance(g, *key, [e])


class TestSourcewiseBaseline:
    def test_oracle_consistency(self):
        g = generators.grid(4, 4)
        table = naive_sourcewise_replacement_distances(g, 0)
        for (v, e), d in table.items():
            assert d == replacement_distance(g, 0, v, [e])

    def test_covers_all_tree_paths(self):
        g = generators.grid(3, 3)
        table = naive_sourcewise_replacement_distances(g, 0)
        # every non-root vertex contributes at least one (v, e) entry
        vertices = {v for v, _e in table}
        assert vertices == set(range(1, 9))
