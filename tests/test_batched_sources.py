"""Batched multi-source kernels and the cross-pair scenario cache.

The per-source kernels in :mod:`repro.spt.fastpaths` are the reference;
the batched kernels in :mod:`repro.spt.batched` must be bit-identical
to mapping them over the source batch — for every graph, every arc
mask, and every ragged source batch (empty, singleton, all vertices,
duplicates).  Hypothesis drives random graphs and fault choices through
both code paths, and the engine-level batching (``source_vectors``,
the shared-LRU vector cache, and the grouped pair waves a
:class:`~repro.query.Session` plans) is checked against the per-pair
reference flow.
"""

from __future__ import annotations

import random
from array import array

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.backends.api import row_eccentricity
from repro.core.weights import AntisymmetricWeights
from repro.exceptions import GraphError, QueryError
from repro.graphs import generators
from repro.graphs.base import Graph
from repro.query import DistanceQuery, RestorationQuery, Session
from repro.scenarios import ScenarioEngine, single_edge_faults
from repro.spt.apsp import (
    all_pairs_bfs_distances,
    diameter,
    distance_matrix,
    eccentricities,
    eccentricity,
)
from repro.spt.batched import (
    csr_bfs_distances_many,
    csr_dijkstra_flat_many,
    csr_weighted_distances_many,
)
from repro.spt.bfs import bfs_distances
from repro.spt.fastpaths import (
    csr_bfs_distances,
    csr_bfs_distances_loops,
    csr_dijkstra_flat,
    csr_weighted_distances,
)
from repro.weighted import WeightedGraph

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Suites taking the `backend` fixture (pinning the kernel-backend seam)
# also suppress the function-scoped-fixture health check: the pin is
# idempotent across hypothesis examples.
BACKEND_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


def is_hop_row(row):
    """Every hop kernel returns its rows as ``array('i')``."""
    return isinstance(row, array) and row.typecode == "i"


@st.composite
def batched_cases(draw, min_n=2, max_n=14, max_faults=3):
    """(graph, faults, ragged source batch) for the cross-checks."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    g = Graph(n)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge(order[i], order[rng.randrange(i)])
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    edges = list(g.edges())
    k = draw(st.integers(0, min(max_faults, len(edges))))
    faults = rng.sample(edges, k)
    kind = draw(st.sampled_from(["empty", "single", "all", "duplicates",
                                 "random"]))
    if kind == "empty":
        sources = []
    elif kind == "single":
        sources = [rng.randrange(n)]
    elif kind == "all":
        sources = list(range(n))
    elif kind == "duplicates":
        s = rng.randrange(n)
        sources = [s] * draw(st.integers(2, 4)) + [rng.randrange(n)]
    else:
        sources = [rng.randrange(n)
                   for _ in range(draw(st.integers(1, 2 * n)))]
    return g, faults, sources


@given(batched_cases())
@settings(max_examples=120, **BACKEND_COMMON)
def test_bfs_many_bit_identical(backend, case):
    g, faults, sources = case
    csr = g.csr()
    for mask in (None, csr.without(faults)._as_csr()[1]):
        rows = csr_bfs_distances_many(csr, mask, sources)
        assert all(is_hop_row(row) for row in rows)
        assert rows == [csr_bfs_distances(csr, mask, s) for s in sources]


@st.composite
def wide_bfs_cases(draw):
    """(snapshot, arc masks, source batch) for the multi-word BFS wave.

    The shapes :func:`batched_cases` never draws: batches of 65-200
    sources (more than one 64-bit word), structurally isolated
    vertices — always including ``n - 1``, an empty last CSR row —
    paths of ``n >= 300`` with an endpoint among the sources (depths
    up to ``n - 2 >= 298``, nine or more bits of ``depth + 1``), and
    per-arc masks that block single orientations of edges.  The
    reference is the per-source loop kernel: the dispatched per-source
    call on the vectorized leg would spend ~0.5 s per deep path.
    """
    rng = random.Random(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        n = draw(st.integers(300, 400))
        order = list(range(n - 1))
        rng.shuffle(order)
        g = Graph(n, zip(order, order[1:]))
        sources = [order[0]]
    else:
        n = draw(st.integers(20, 120))
        isolated = {n - 1} | set(rng.sample(range(n), n // 10))
        live = [v for v in range(n) if v not in isolated]
        g = Graph(n)
        for _ in range(draw(st.integers(0, 3 * n))):
            u, v = rng.choice(live), rng.choice(live)
            if u != v:
                g.add_edge(u, v)
        sources = [n - 1]
    sources += [rng.randrange(n)
                for _ in range(draw(st.integers(64, 199)))]
    rng.shuffle(sources)
    csr = g.csr()
    arcs = len(csr.indices)
    one_way = bytearray(b"\x01") * arcs
    for i in rng.sample(range(arcs), min(arcs, draw(st.integers(1, 8)))):
        one_way[i] = 0
    edges = sorted(g.edges())
    faults = rng.sample(edges, min(len(edges), 3))
    return csr, (None, csr.without(faults)._as_csr()[1], one_way), sources


@given(wide_bfs_cases())
@settings(max_examples=20, **BACKEND_COMMON)
def test_bfs_many_wide_batches_bit_identical(backend, case):
    """Multi-word waves match the per-source loops on every mask."""
    csr, masks, sources = case
    for mask in masks:
        want = {s: csr_bfs_distances_loops(csr, mask, s)
                for s in set(sources)}
        rows = csr_bfs_distances_many(csr, mask, sources)
        assert all(is_hop_row(row) for row in rows)
        assert rows == [want[s] for s in sources]


@given(batched_cases(min_n=1))
@example((Graph(1), [], [0, 0]))
@settings(max_examples=120, **BACKEND_COMMON)
def test_bfs_many_eccentricity_mode_reduces_the_rows(backend, case):
    """The reduction mode returns ``row_eccentricity`` of each row,
    as an ``int``, on every mask (faults may disconnect a lane) and
    for duplicate sources and ``n = 1``."""
    g, faults, sources = case
    csr = g.csr()
    for mask in (None, csr.without(faults)._as_csr()[1]):
        rows = csr_bfs_distances_many(csr, mask, sources)
        eccs = csr_bfs_distances_many(csr, mask, sources, eccentricity=True)
        assert eccs == [row_eccentricity(row) for row in rows]
        assert all(type(e) is int for e in eccs)


@given(wide_bfs_cases())
@settings(max_examples=20, **BACKEND_COMMON)
def test_bfs_many_eccentricity_mode_on_wide_batches(backend, case):
    """Multi-word lanes, isolated vertices (lanes that miss vertices)
    and one-orientation masks reduce like their rows."""
    csr, masks, sources = case
    for mask in masks:
        want = {s: row_eccentricity(csr_bfs_distances_loops(csr, mask, s))
                for s in set(sources)}
        eccs = csr_bfs_distances_many(csr, mask, sources, eccentricity=True)
        assert eccs == [want[s] for s in sources]


@given(batched_cases())
@settings(max_examples=80, **BACKEND_COMMON)
def test_weighted_many_bit_identical(backend, case):
    g, faults, sources = case
    rng = random.Random(11)
    weight = {}
    for u, v in g.edges():
        weight[(u, v)] = weight[(v, u)] = rng.randint(1, 9)
    csr = g.csr().with_arc_weights(lambda u, v: weight[(u, v)])
    for mask in (None, csr.without(faults)._as_csr()[1]):
        assert csr_weighted_distances_many(csr, mask, sources) == [
            csr_weighted_distances(csr, mask, s) for s in sources
        ]


@given(batched_cases())
@settings(max_examples=60, **BACKEND_COMMON)
def test_dijkstra_flat_many_bit_identical(backend, case):
    """Antisymmetric (tiebreaking) weights: dist *and* parents agree."""
    g, faults, sources = case
    atw = AntisymmetricWeights.random(g, f=1, seed=7)
    csr = g.csr().with_arc_weights(atw.weight)
    for mask in (None, csr.without(faults)._as_csr()[1]):
        assert csr_dijkstra_flat_many(csr, mask, sources) == [
            csr_dijkstra_flat(csr, mask, s) for s in sources
        ]


@given(batched_cases())
@settings(max_examples=60, **COMMON)
def test_engine_evaluate_pairs_matches_per_pair(case):
    g, faults, sources = case
    if not sources:
        return
    rng = random.Random(3)
    stream = [
        (s, rng.randrange(g.n), faults) for s in sources
    ] + [(sources[0], g.n - 1, ())]
    batched = [a.value for a in Session(g).answer(
        DistanceQuery(s, t, f) for s, t, f in stream)]
    per_pair_session = Session(g)
    per_pair = [
        per_pair_session.answer_one(DistanceQuery(s, t, f)).value
        for s, t, f in stream
    ]
    naive = [
        bfs_distances(g.without(f), s)[t] for s, t, f in stream
    ]
    assert batched == per_pair == naive


class TestKernelEdgeCases:
    def test_empty_batch(self):
        csr = generators.cycle(4).csr()
        assert csr_bfs_distances_many(csr, None, []) == []

    def test_unknown_source_raises(self):
        csr = generators.cycle(4).csr()
        with pytest.raises(GraphError):
            csr_bfs_distances_many(csr, None, [0, 4])

    def test_duplicate_rows_are_independent(self):
        csr = generators.cycle(5).csr()
        a, b = csr_bfs_distances_many(csr, None, [2, 2])
        assert a == b
        wcsr = WeightedGraph.random(8, 0.5, seed=1).csr()
        wa, wb = csr_weighted_distances_many(wcsr, None, [3, 3])
        assert wa == wb and wa is not wb
        (da, pa), (db, pb) = csr_dijkstra_flat_many(wcsr, None, [3, 3])
        assert (da, pa) == (db, pb)
        assert da is not db and pa is not pb

    def test_weighted_many_requires_weights(self):
        csr = generators.cycle(4).csr()
        with pytest.raises(GraphError):
            csr_weighted_distances_many(csr, None, [0])


class TestEngineVectorCache:
    def test_source_vectors_match_reference_and_cache(self):
        g = generators.connected_erdos_renyi(40, 0.1, seed=2)
        engine = ScenarioEngine(g)
        faults = [(0, 1), (3, 7)]
        sources = [0, 5, 5, 9]
        rows = engine.source_vectors(sources, faults)
        ref = [bfs_distances(g.without(faults), s) for s in sources]
        assert rows == ref
        info = engine.cache_info()
        assert info["vector_misses"] == 3  # misses count traversals
        assert info["vector_hits"] == 0
        again = engine.source_vectors(sources, faults)
        assert again == ref
        # ...while hits count served lookups (the duplicate counts).
        assert engine.cache_info()["vector_hits"] == 4
        assert engine.cache_info()["vector_misses"] == 3

    def test_fault_free_batch_shares_base_cache(self):
        g = generators.torus(4, 4)
        engine = ScenarioEngine(g)
        rows = engine.source_vectors([1, 2, 1])
        assert rows == [bfs_distances(g, s) for s in [1, 2, 1]]
        assert engine.cache_info()["size"] == 0  # no LRU churn
        assert engine.base_distances(1) is rows[0]

    def test_pair_query_reuses_cached_vector(self):
        g = generators.connected_erdos_renyi(40, 0.1, seed=5)
        engine = ScenarioEngine(g)
        faults = [next(iter(g.edges()))]
        engine.source_vectors([0], faults)
        before = engine.cache_info()["vector_hits"]
        d = Session(engine=engine).answer_one(
            DistanceQuery(0, g.n - 1, faults))
        assert d.value == bfs_distances(g.without(faults), 0)[g.n - 1]
        assert d.provenance.detail == "vector-cache"
        assert engine.cache_info()["vector_hits"] == before + 1

    def test_shared_eviction_policy_and_counters(self):
        g = generators.cycle(8)
        # delta=False: this test counts raw LRU insertions, and the
        # delta path would add patched-vector entries of its own.
        engine = ScenarioEngine(g, memoize=3, delta=False)
        for e in list(g.edges())[:5]:
            engine.source_vectors([0], [e])
        info = engine.cache_info()
        assert info["size"] == 3
        assert info["vector_evictions"] == 2
        # pair answers index the cached rows and book no entry of
        # their own, so they churn nothing
        session = Session(engine=engine)
        for e in list(g.edges())[2:5]:
            a = session.answer_one(DistanceQuery(0, 4, [e]))
            assert a.cached
            assert a.value == bfs_distances(g.without([e]), 0)[4]
        assert engine.cache_info()["size"] == 3
        assert engine.cache_info()["vector_evictions"] == 2

    def test_memoize_zero_disables_vector_cache(self):
        g = generators.cycle(6)
        engine = ScenarioEngine(g, memoize=0)
        faults = [(0, 1)]
        assert engine.source_vectors([2], faults) == \
            engine.source_vectors([2], faults)
        Session(engine=engine).answer([DistanceQuery(2, 4, faults)])
        info = engine.cache_info()
        # disabled memo keeps every counter at zero, like the pair memo
        assert info["size"] == 0
        assert info["vector_hits"] == info["vector_misses"] == 0
        assert info["vector_evictions"] == 0

    def test_run_pairs_alignment(self):
        g = generators.torus(4, 4)
        stream = [DistanceQuery(0, 5, [(0, 1)]),
                  DistanceQuery(2, 9, [(1, 0)]), DistanceQuery(0, 5)]
        answers = Session(g).answer(stream)
        assert [a.query for a in answers] == stream
        assert answers[1].query.faults == ((0, 1),)
        for a in answers:
            q = a.query
            assert a.value == bfs_distances(g.without(q.faults),
                                            q.source)[q.target]

    def test_evaluate_pairs_validates_target(self):
        session = Session(generators.cycle(4))
        with pytest.raises(QueryError, match="target"):
            session.answer([DistanceQuery(0, 99)])

    def test_repr_carries_counters(self):
        engine = ScenarioEngine(generators.cycle(5))
        engine.source_vectors([0], [(0, 1)])
        text = repr(engine)
        assert "vectors=0h/1m/0e" in text and "pairs=" not in text


class TestBatchedApsp:
    def test_all_pairs_deduplicates_preserving_order(self):
        g = generators.path(5)
        rows = all_pairs_bfs_distances(g, sources=[3, 1, 3, 1, 4])
        assert list(rows) == [3, 1, 4]
        for s, row in rows.items():
            assert row == bfs_distances(g, s)

    def test_distance_matrix_batched_matches_reference(self):
        g = generators.connected_erdos_renyi(25, 0.15, seed=6)
        assert distance_matrix(g) == [
            bfs_distances(g, s) for s in g.vertices()
        ]

    def test_diameter_on_masked_view(self):
        g = generators.cycle(8)
        view = g.csr().without([(0, 7)])  # cycle minus an edge = path
        assert diameter(view) == 7

    def test_eccentricities_match_per_vertex(self):
        g = generators.torus(4, 5)
        assert eccentricities(g) == [
            eccentricity(g, v) for v in g.vertices()
        ]

    def test_diameter_matches_networkx(self):
        g = generators.connected_erdos_renyi(30, 0.12, seed=9)
        assert diameter(g) == nx.diameter(g.to_networkx())

    def test_disconnected_contract(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            diameter(g)
        with pytest.raises(GraphError):
            eccentricities(g)
        with pytest.raises(GraphError):
            eccentricity(g, 0)
        # ...while the distance-valued helpers encode -1 instead.
        assert distance_matrix(g)[0][2] == -1
        assert all_pairs_bfs_distances(g)[0][3] == -1

    def test_empty_graph_diameter(self):
        assert diameter(Graph(0)) == 0


class TestConsumerEquivalence:
    def test_restoration_sweep_unchanged_by_batching(self):
        g = generators.torus(4, 4)
        from repro.core.scheme import RestorableTiebreaking

        scheme = RestorableTiebreaking.build(g, f=1, seed=3)
        session = Session(g, scheme=scheme)
        path = scheme.path(0, 9)
        instances = [(0, 9, e) for e in path.edges()]
        instances += [(1, 9, e) for e in path.edges()]
        answers = session.answer(RestorationQuery(s, t, (e,))
                                 for s, t, e in instances)
        for (s, t, e), item in zip(instances, answers):
            want = bfs_distances(g.without([e]), s)[t]
            if item.value is None:
                assert want == -1
            else:
                assert item.value[0] == want

    def test_preserver_violations_batched_wave(self):
        g = generators.torus(4, 4)
        engine = ScenarioEngine(g)
        scenarios = list(single_edge_faults(g))[:10]
        sources = [0, 3, 9]
        bad = engine.preserver_violations(g.edges(), sources, scenarios)
        assert bad == []

    def test_dso_rows_unchanged(self):
        from repro.oracles.dso import SourcewiseDSO
        from repro.spt.apsp import replacement_distance

        g = generators.connected_erdos_renyi(30, 0.12, seed=12)
        dso = SourcewiseDSO(g, [0, 7, 19])
        rng = random.Random(0)
        edges = list(g.edges())
        for _ in range(60):
            s = rng.choice([0, 7, 19])
            v = rng.randrange(g.n)
            e = rng.choice(edges)
            assert dso.query(s, v, e) == replacement_distance(g, s, v, [e])

    def test_subset_rp_matches_oracle(self):
        from repro.replacement.subset_rp import subset_replacement_paths
        from repro.spt.apsp import replacement_distance

        g = generators.grid(4, 4)
        result = subset_replacement_paths(g, [0, 5, 15], seed=2)
        for (s1, s2), per_edge in result.distances.items():
            for e, d in per_edge.items():
                assert d == replacement_distance(g, s1, s2, [e])
