"""Randomized cross-checks: weighted flat kernels == reference Dijkstra.

The dict-and-heap loop (:func:`repro.spt.dijkstra.dijkstra_reference`)
is the reference; the flat-array kernels behind the weight-carrying CSR
snapshots must agree with it *exactly* — distances always, parents too
under unique (perturbed antisymmetric) weights.  Hypothesis drives
random connected weighted graphs and random fault sets through both
code paths, and through the weighted :class:`ScenarioEngine`.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import GraphError
from repro.preservers import preserver_violations
from repro.query import DistanceQuery, Session, VectorQuery
from repro.scenarios.engine import ScenarioEngine
from repro.spt.bfs import UNREACHABLE
from repro.spt.dijkstra import (
    count_min_weight_paths,
    dijkstra,
    dijkstra_reference,
)
from repro.spt.fastpaths import (
    csr_count_min_weight_paths,
    csr_dijkstra_flat,
    csr_weighted_distance,
    csr_weighted_distances,
)
from repro.weighted.graph import WeightedGraph

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def weighted_graphs_with_faults(draw, min_n=3, max_n=14, max_faults=3):
    """(weighted graph, fault set) with random integer weights."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    wg = WeightedGraph(n)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        wg.add_edge(order[i], order[rng.randrange(i)], rng.randint(1, 9))
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not wg.has_edge(u, v):
            wg.add_edge(u, v, rng.randint(1, 9))
    edges = list(wg.edges())
    k = draw(st.integers(0, min(max_faults, len(edges))))
    faults = rng.sample(edges, k)
    return wg, faults


def _vector(dist_map, n):
    return [dist_map.get(v, UNREACHABLE) for v in range(n)]


@given(weighted_graphs_with_faults())
@settings(max_examples=80, **COMMON)
def test_flat_dijkstra_distances_bit_identical(case):
    """dispatch -> flat kernel == reference, full graph and masked view."""
    wg, faults = case
    csr, mask = wg._as_csr()
    assert csr.weights is not None and mask is None
    for s in range(min(wg.n, 4)):
        fast, _ = dijkstra(wg, s, wg.arc_weight)
        ref, _ = dijkstra_reference(wg, s, wg.arc_weight)
        assert fast == ref
    view = wg.without(faults)
    for s in range(min(wg.n, 4)):
        fast, _ = dijkstra(view, s, view.arc_weight)
        ref, _ = dijkstra_reference(view, s, view.arc_weight)
        assert fast == ref


@given(weighted_graphs_with_faults(max_faults=2))
@settings(max_examples=60, **COMMON)
def test_flat_dijkstra_perturbed_antisymmetric_identical(case):
    """Antisymmetric perturbed weights: dist AND parent maps match."""
    wg, _faults = case
    arc_weight, _scale = wg.perturbed_weight(seed=7)
    pcsr = wg.csr().with_arc_weights(arc_weight)
    # the flat array stores both orientations separately
    u, v = next(iter(wg.edges()))
    assert pcsr.arc_weight(u, v) != pcsr.arc_weight(v, u)
    for s in range(min(wg.n, 3)):
        fast_dist, fast_parent = dijkstra(pcsr, s, pcsr.arc_weight)
        ref_dist, ref_parent = dijkstra_reference(wg, s, arc_weight)
        assert fast_dist == ref_dist
        assert fast_parent == ref_parent
    counts = count_min_weight_paths(pcsr, 0, pcsr.arc_weight)
    assert all(c == 1 for c in counts.values())


@given(weighted_graphs_with_faults())
@settings(max_examples=60, **COMMON)
def test_weighted_vector_kernels_match_flat(case):
    """Dense-vector and pairwise kernels agree with the dict kernel."""
    wg, faults = case
    csr = wg.csr()
    mask = csr.without(faults)._as_csr()[1]
    for m in (None, mask):
        dist, _ = csr_dijkstra_flat(csr, m, 0)
        assert csr_weighted_distances(csr, m, 0) == _vector(dist, wg.n)
        for t in (0, wg.n - 1, wg.n // 2):
            assert csr_weighted_distance(csr, m, 0, t) == \
                dist.get(t, UNREACHABLE)


@given(weighted_graphs_with_faults(max_faults=2))
@settings(max_examples=60, **COMMON)
def test_count_min_weight_paths_flat_vs_reference(case):
    """Forward-push flat counting == reference backward DP, with ties."""
    wg, faults = case
    csr = wg.csr()
    mask = csr.without(faults)._as_csr()[1]
    view = wg.without(faults)

    def plain_weight(u, v):
        return wg.weight(u, v)

    assert csr_count_min_weight_paths(csr, mask, 0) == \
        count_min_weight_paths(view, 0, plain_weight)
    assert count_min_weight_paths(wg, 0, wg.arc_weight) == \
        count_min_weight_paths(wg, 0, plain_weight)


@given(weighted_graphs_with_faults())
@settings(max_examples=60, **COMMON)
def test_weighted_engine_matches_reference(case):
    """Engine pair queries and vectors == naive per-scenario Dijkstra."""
    wg, faults = case
    engine = ScenarioEngine(wg)
    assert engine.weighted
    s, t = 0, wg.n - 1
    view = wg.without(faults)
    ref, _ = dijkstra_reference(view, s, view.arc_weight)
    session = Session(engine=engine)
    assert session.answer_one(DistanceQuery(s, t, faults)).value == \
        ref.get(t, UNREACHABLE)
    assert session.answer_one(
        VectorQuery(s, faults)).value == _vector(ref, wg.n)


@given(weighted_graphs_with_faults(max_faults=1))
@settings(max_examples=40, **COMMON)
def test_weighted_touch_filter_no_false_negatives(case):
    """A filtered-out scenario never changes the pair distance."""
    wg, faults = case
    engine = ScenarioEngine(wg, memoize=0)
    s, t = 0, wg.n - 1
    if not engine.faults_touch_pair(s, t, faults):
        view = wg.without(faults)
        ref, _ = dijkstra_reference(view, s, view.arc_weight)
        assert ref.get(t, UNREACHABLE) == engine.base_distances(s)[t]


def _reference_distance(wg, faults, s, t):
    view = wg.without(faults)
    ref, _ = dijkstra_reference(view, s, view.arc_weight)
    return ref.get(t, UNREACHABLE)


class TestScenarioMemo:
    def _engine(self, memoize=4096):
        wg = WeightedGraph.random(30, 0.15, seed=4)
        return wg, ScenarioEngine(wg, memoize=memoize)

    def test_repeats_hit_and_match(self):
        wg, engine = self._engine()
        # the first edges, plus edges on a shortest 0 ~> n-1 path, so
        # both the touch filter and the row cache serve repeats
        touching = [e for e in wg.edges()
                    if engine.faults_touch_pair(0, wg.n - 1, [e])]
        scenarios = [(e,) for e in dict.fromkeys(list(wg.edges())[:5]
                                                 + touching[:5])]
        session = Session(engine=engine)
        first = [session.answer_one(DistanceQuery(0, wg.n - 1, f))
                 for f in scenarios]
        info, waves = engine.cache_info(), session.stats.waves
        repeats = [session.answer_one(DistanceQuery(0, wg.n - 1, f))
                   for f in scenarios * 2]
        # repeats make no new wave, patch or miss: each indexes the
        # row its first answer cached, or is a touch-filter verdict
        after = engine.cache_info()
        assert session.stats.waves == waves
        assert after.vector_misses == info.vector_misses
        assert after.delta_hits == info.delta_hits
        assert all(a.provenance.source in ("cache", "filter")
                   for a in repeats)
        assert after.vector_hits - info.vector_hits == sum(
            a.cached for a in repeats)
        dists = [a.value for a in first + repeats]
        assert dists[:len(scenarios)] * 3 == dists
        assert dists[:len(scenarios)] == [
            _reference_distance(wg, f, 0, wg.n - 1) for f in scenarios]

    def test_orientation_and_duplicates_canonicalised(self):
        wg, engine = self._engine()
        (u, v) = next(iter(wg.edges()))
        session = Session(engine=engine)
        d1 = session.answer_one(DistanceQuery(0, wg.n - 1, [(u, v)]))
        misses = engine.cache_info().vector_misses
        d2 = session.answer_one(DistanceQuery(0, wg.n - 1,
                                              [(v, u), (u, v)]))
        assert d1.value == d2.value == \
            _reference_distance(wg, [(u, v)], 0, wg.n - 1)
        assert d2.provenance.source in ("cache", "filter")
        assert engine.cache_info().vector_misses == misses
        # one row per canonical fault set, whatever its spelling
        (row,) = engine.source_vectors([0], [(u, v)])
        hits = engine.cache_info().vector_hits
        assert engine.source_vectors([0], [(v, u), (u, v)])[0] is row
        assert engine.cache_info().vector_hits == hits + 1

    def test_bounded_eviction(self):
        wg, engine = self._engine(memoize=4)
        edges = list(wg.edges())[:8]
        session = Session(engine=engine)
        for e in edges:
            session.answer_one(VectorQuery(0, [e]))
        info = engine.cache_info()
        assert info.size == 4
        assert info.vector_evictions == 4

    def test_disabled(self):
        wg = WeightedGraph.random(30, 0.15, seed=4)
        # delta=False keeps the delta counters deterministically zero;
        # the cache-disabled contract is what this test pins.
        engine = ScenarioEngine(wg, memoize=0, delta=False)
        e = next(e for e in wg.edges()
                 if engine.faults_touch_pair(0, wg.n - 1, [e]))
        session = Session(engine=engine)
        dists = [session.answer_one(DistanceQuery(0, wg.n - 1, [e])).value
                 for _ in range(3)]
        assert dists == [_reference_distance(wg, [e], 0, wg.n - 1)] * 3
        info = engine.cache_info()
        assert {k: v for k, v in dict(info).items()
                if k != "wave_backends"} == {
            "vector_hits": 0, "vector_misses": 0, "vector_evictions": 0,
            "delta_hits": 0, "delta_fallbacks": 0,
            "size": 0, "maxsize": 0,
        }
        # with no row cache, each repeat of a touched pair waves again
        assert session.stats.waves == 3
        assert sum(count for _, count in info.wave_backends) == 3


class TestAntisymmetricEngine:
    def test_touch_filter_disabled_not_wrong(self):
        # regression: the touch filter reads dist_t[x] as x -> t, which
        # is only valid for symmetric weights; an adopted antisymmetric
        # snapshot used to return stale base distances (and memoise
        # them).  With w(1->0) = 5 != w(0->1) = 1, faulting (0, 1)
        # must surface the weight-10 detour.
        wg = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 10)])
        asym = {(0, 1): 1, (1, 0): 5, (1, 2): 1, (2, 1): 5,
                (0, 2): 10, (2, 0): 10}
        acsr = wg.csr().with_arc_weights(lambda u, v: asym[(u, v)])
        engine = ScenarioEngine(acsr)
        assert engine.weighted and not engine._symmetric_weights
        session = Session(engine=engine)
        assert session.answer_one(DistanceQuery(0, 2, [(0, 1)])).value == 10
        assert session.answer_one(DistanceQuery(0, 2, [])).value == 2

    @given(weighted_graphs_with_faults(max_faults=2))
    @settings(max_examples=40, **COMMON)
    def test_perturbed_snapshot_engine_matches_kernel(self, case):
        wg, faults = case
        arc_weight, _scale = wg.perturbed_weight(seed=5)
        pcsr = wg.csr().with_arc_weights(arc_weight)
        engine = ScenarioEngine(pcsr)
        mask = pcsr.without(faults)._as_csr()[1]
        s, t = 0, wg.n - 1
        answer = Session(engine=engine).answer_one(DistanceQuery(s, t, faults))
        assert answer.value == csr_weighted_distance(pcsr, mask, s, t)

    def test_symmetric_engine_keeps_filter(self):
        wg = WeightedGraph.random(20, 0.2, seed=3)
        assert ScenarioEngine(wg)._symmetric_weights


class TestWeightedEngineGuards:
    def test_scheme_queries_rejected(self):
        wg = WeightedGraph.random(12, 0.3, seed=1)
        engine = ScenarioEngine(wg)
        try:
            engine.midpoint_scan(None, 0, 1, [])
        except GraphError as err:
            assert "weighted" in str(err)
        else:  # pragma: no cover - regression guard
            raise AssertionError("weighted engine accepted a scheme query")
        # the preserver verifier sweeps an engine over its graph too
        try:
            preserver_violations(wg, [], [0])
        except GraphError as err:
            assert "weighted" in str(err)
        else:  # pragma: no cover - regression guard
            raise AssertionError("preserver verifier accepted a weighted graph")

    def test_perturbed_requires_weighted(self):
        from repro.graphs import generators

        engine = ScenarioEngine(generators.cycle(5))
        try:
            engine.perturbed_csr()
        except GraphError:
            pass
        else:  # pragma: no cover - regression guard
            raise AssertionError("unweighted engine built perturbed CSR")
