"""Property-based tests for the extension modules (weighted, DAG, io).

The weighted restoration lemma and the conjectured DAG restorability
are tested as universal properties over random instances — the same
methodology as :mod:`tests.test_property_based`, pointed at the
Section-1.2 extensions.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.weighted import (
    BaseSet,
    WeightedGraph,
    weighted_restoration_lemma_holds,
)
from repro.dag import DagTiebreaking, dag_restorability_violations
from repro.dag.generators import random_layered_dag
from repro.spt.apsp import replacement_distance
from repro.spt.bfs import UNREACHABLE

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def weighted_graphs(draw, min_n=4, max_n=12, max_weight=9):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    wg = WeightedGraph(n)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        wg.add_edge(order[i], order[rng.randrange(i)],
                    rng.randint(1, max_weight))
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not wg.has_edge(u, v):
            wg.add_edge(u, v, rng.randint(1, max_weight))
    return wg


class TestWeightedLemmaProperty:
    @given(weighted_graphs(), st.data())
    @settings(max_examples=20, **COMMON)
    def test_theorem11_universal(self, wg, data):
        edges = list(wg.edges())
        e = edges[data.draw(st.integers(0, len(edges) - 1))]
        s = data.draw(st.integers(0, wg.n - 1))
        t = data.draw(st.integers(0, wg.n - 1))
        if s != t:
            assert weighted_restoration_lemma_holds(wg, s, t, e)

    @given(weighted_graphs(max_weight=1), st.data())
    @settings(max_examples=10, **COMMON)
    def test_unit_weight_case_matches_unweighted(self, wg, data):
        # with all weights 1 the weighted lemma specialises to the
        # unweighted one, already proven universal in the core tests
        edges = list(wg.edges())
        e = edges[data.draw(st.integers(0, len(edges) - 1))]
        assert weighted_restoration_lemma_holds(wg, 0, wg.n - 1, e)


class TestBaseSetProperty:
    @given(st.integers(0, 2**10), st.integers(8, 16))
    @settings(max_examples=10, **COMMON)
    def test_base_set_restores_exactly(self, seed, n):
        from repro.graphs.generators import connected_erdos_renyi

        g = connected_erdos_renyi(n, 3.0 / n, seed=seed)
        base = BaseSet(g, seed=seed)
        path = base.canonical(0, n - 1)
        for e in path.edges():
            truth = replacement_distance(g, 0, n - 1, [e])
            if truth == UNREACHABLE:
                continue
            assert base.restore(0, n - 1, e).hops == truth


class TestDagProperty:
    @given(st.integers(0, 2**10), st.integers(3, 5), st.integers(2, 4),
           st.floats(0.0, 0.4))
    @settings(max_examples=12, **COMMON)
    def test_dag_restorability_conjecture(self, seed, layers, width,
                                          skip_p):
        dag = random_layered_dag(layers, width, p=0.6, seed=seed,
                                 skip_p=skip_p)
        scheme = DagTiebreaking(dag, seed=seed)
        # restrict to a pair sample to keep each example fast
        pairs = [(0, dag.n - 1), (1, dag.n - 2), (0, dag.n // 2)]
        pairs = [(s, t) for s, t in pairs if s != t]
        arcs = list(dag.arcs())[:10]
        assert dag_restorability_violations(
            scheme, fault_arcs=arcs, pairs=pairs
        ) == []


class TestSerializationProperty:
    @given(st.integers(0, 2**10), st.integers(3, 20))
    @settings(max_examples=20, **COMMON)
    def test_edgelist_round_trip(self, seed, n):
        import tempfile
        from pathlib import Path

        from repro.graphs.generators import gnm
        from repro.graphs.io import read_edgelist, write_edgelist

        max_m = n * (n - 1) // 2
        g = gnm(n, min(2 * n, max_m), seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.edges"
            write_edgelist(g, path)
            assert read_edgelist(path) == g
