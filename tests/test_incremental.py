"""The incremental delta subsystem (repro.incremental).

The repair kernels' contract is *bit-identical* output to the full
masked kernels: hypothesis drives random graphs, multi-edge fault
sets and sources through both paths — unweighted, weighted, and
antisymmetric snapshots, including disconnecting faults — and the
engine/planner integration is checked for answer equality against a
delta-disabled engine, correct provenance, and honest counters.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.restoration import tree_fault_free_vertices
from repro.core.scheme import BFSTiebreaking
from repro.core.weights import AntisymmetricWeights
from repro.exceptions import GraphError
from repro.graphs import generators
from repro.graphs.base import Graph, canonical_edge
from repro.incremental import (
    AffectedRegion,
    CostModel,
    affected_region,
    csr_bfs_repair,
    csr_dijkstra_repair,
)
from repro.query import DistanceQuery, Session, VectorQuery
from repro.scenarios import (
    ScenarioEngine,
    clustered_fault_sets,
    random_fault_sets,
)
from repro.spt.bfs import UNREACHABLE, bfs_distances, hop_distance
from repro.spt.fastpaths import (
    csr_bfs_distances,
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
def delta_cases(draw, min_n=2, max_n=16, max_faults=4):
    """(graph, fault set, source) over random connected-ish graphs."""
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
    faults = tuple(sorted(rng.sample(edges, k)))
    source = draw(st.integers(0, n - 1))
    return g, faults, source


class TestRepairKernels:
    @given(delta_cases())
    @settings(max_examples=150, **BACKEND_COMMON)
    def test_bfs_repair_bit_identical(self, backend, case):
        g, faults, s = case
        engine = ScenarioEngine(g)
        index = engine.base_tree_index(s)
        orphans = index.orphaned_vertices(faults)
        csr = g.csr()
        mask = csr.without(faults)._as_csr()[1]
        base = csr_bfs_distances(csr, None, s)
        patched, changed = csr_bfs_repair(csr, mask, base, orphans)
        assert is_hop_row(patched)
        assert patched == csr_bfs_distances(csr, mask, s)
        assert changed == sorted(
            v for v in range(g.n) if patched[v] != base[v]
        )
        assert set(changed) <= set(orphans)

    def test_bfs_repair_of_an_empty_region_copies_the_base(self, backend):
        # The early return for no orphans hands back a fresh hop row
        # too, from an array base or a list base alike.
        csr = generators.cycle(6).csr()
        base = csr_bfs_distances(csr, None, 0)
        for given_base in (base, list(base)):
            patched, changed = csr_bfs_repair(csr, None, given_base, [])
            assert is_hop_row(patched)
            assert patched == base and patched is not given_base
            assert changed == []

    @given(delta_cases())
    @settings(max_examples=80, **BACKEND_COMMON)
    def test_dijkstra_repair_bit_identical(self, backend, case):
        g, faults, s = case
        rng = random.Random(13)
        wg = WeightedGraph(g.n)
        for u, v in g.edges():
            wg.add_edge(u, v, rng.randint(1, 9))
        engine = ScenarioEngine(wg)
        orphans = engine.base_tree_index(s).orphaned_vertices(faults)
        csr = wg.csr()
        mask = csr.without(faults)._as_csr()[1]
        base = csr_weighted_distances(csr, None, s)
        patched, changed = csr_dijkstra_repair(csr, mask, base, orphans)
        assert patched == csr_weighted_distances(csr, mask, s)
        assert changed == sorted(
            v for v in range(g.n) if patched[v] != base[v]
        )

    @given(delta_cases())
    @settings(max_examples=60, **BACKEND_COMMON)
    def test_dijkstra_repair_antisymmetric(self, backend, case):
        """Seed arcs are read in the intact->orphan direction, so the
        tiebreaking perturbations (w(u, v) != w(v, u)) repair exactly."""
        g, faults, s = case
        atw = AntisymmetricWeights.random(g, f=1, seed=7)
        csr = g.csr().with_arc_weights(atw.weight)
        engine = ScenarioEngine(csr)
        orphans = engine.base_tree_index(s).orphaned_vertices(faults)
        mask = csr.without(faults)._as_csr()[1]
        base = csr_weighted_distances(csr, None, s)
        patched, _ = csr_dijkstra_repair(csr, mask, base, orphans)
        assert patched == csr_weighted_distances(csr, mask, s)

    def test_disconnecting_fault_patches_to_unreachable(self):
        # A path graph: cutting the last edge orphans exactly the far
        # endpoint, and no seed reaches it.
        g = generators.path(6)
        engine = ScenarioEngine(g)
        faults = ((4, 5),)
        orphans = engine.base_tree_index(0).orphaned_vertices(faults)
        assert orphans == [5]
        csr = g.csr()
        mask = csr.without(faults)._as_csr()[1]
        base = csr_bfs_distances(csr, None, 0)
        patched, changed = csr_bfs_repair(csr, mask, base, orphans)
        assert patched[5] == UNREACHABLE
        assert patched[:5] == base[:5]
        assert changed == [5]


class TestAffectedRegion:
    @given(delta_cases())
    @settings(max_examples=100, **COMMON)
    def test_orphans_complement_fault_free_vertices(self, case):
        g, faults, s = case
        index = ScenarioEngine(g).base_tree_index(s)
        orphans = index.orphaned_vertices(faults)
        assert affected_region(index, g.n, s, faults).estimate == \
            len(orphans)
        assert len(set(orphans)) == len(orphans)
        free = index.fault_free_vertices(faults)
        reached = {v for v, d in
                   enumerate(bfs_distances(g, s)) if d >= 0}
        assert set(orphans) | free == reached
        assert not set(orphans) & free

    def test_cost_model_floor_and_ratio(self):
        model = CostModel(patch_ratio=0.25, min_orphans=8)
        assert model.patch_worthwhile(8, 10)  # floor wins on tiny graphs
        assert model.patch_worthwhile(25, 100)
        assert not model.patch_worthwhile(26, 100)

    def test_region_materialises_orphans_only_when_patching(self):
        g = generators.path(40)
        index = ScenarioEngine(g).base_tree_index(0)
        small = affected_region(index, g.n, 0, ((38, 39),))
        assert small.patch and small.orphans == (39,)
        assert len(small) == 1
        big = affected_region(index, g.n, 0, ((0, 1),))
        assert not big.patch and big.orphans is None
        assert big.estimate == 39
        assert isinstance(big, AffectedRegion)


class TestEngineDelta:
    @given(delta_cases())
    @settings(max_examples=60, **COMMON)
    def test_try_delta_matches_full_wave(self, case):
        g, faults, s = case
        engine = ScenarioEngine(g)
        engine.base_tree_index(s)  # pre-warm: cold origins decline
        vec = engine.try_delta(s, faults)
        (ref,) = ScenarioEngine(g, delta=False).source_vectors([s], faults)
        if vec is not None:
            assert vec == ref
            # the empty fault set is served straight from the base
            # vector, uncounted like every fault-free path
            assert engine.delta_hits == (1 if faults else 0)
            assert engine.delta_fallbacks == 0
        else:
            assert engine.delta_fallbacks == 1
            # the fallback verdict cost only interval arithmetic; the
            # wave path still serves the same answer
            assert engine.source_vectors([s], faults)[0] == ref

    def test_cold_origin_warms_up_on_repeat(self):
        g = generators.path(30)
        engine = ScenarioEngine(g)
        faults = ((27, 28),)  # patch regime once warm
        # first faulted query per source rides the wave (a counted
        # fallback): building the tree costs as much as the wave
        assert engine.try_delta(0, faults) is None
        assert engine.delta_fallbacks == 1 and not engine._delta_index
        # the repeat warms the substrate and patches
        vec = engine.try_delta(0, faults)
        assert vec is not None and engine.delta_hits == 1
        assert vec == ScenarioEngine(g, delta=False).source_vectors(
            [0], faults)[0]

    def test_large_cold_batch_keeps_the_shared_wave(self):
        # One fault set, many cold sources: the single bit-packed wave
        # must survive — no per-source tree builds, not even when the
        # batch repeats after its rows left the cache.
        g = generators.torus(6, 6)
        faults = ((0, 1),)
        stream = [VectorQuery(s, faults) for s in range(g.n)]
        want = [list(bfs_distances(g.without(faults), s))
                for s in range(g.n)]
        session = Session(g)
        for _ in range(2):
            answers = session.answer(stream)
            assert not session.engine._delta_index  # nothing cold-built
            assert all(a.provenance.source == "wave" for a in answers)
            assert [list(a.value) for a in answers] == want
            session.engine._memo.clear()

    def test_counters_and_cache_interplay(self):
        g = generators.path(30)
        engine = ScenarioEngine(g)
        engine.base_tree_index(0)  # pre-warm
        faults = ((27, 28),)  # orphans {28, 29}: patch regime
        vec = engine.try_delta(0, faults)
        assert vec is not None and engine.delta_hits == 1
        # the patched vector landed in the shared LRU vector cache
        assert engine.peek_vector(0, faults) is vec
        info = engine.cache_info()
        assert info.delta_hits == 1 and info["delta_fallbacks"] == 0
        assert "delta_hits" in dict(info)
        assert "delta=1h/0f" in repr(engine)
        # a root-adjacent fault orphans nearly everything: fallback
        assert engine.try_delta(0, ((0, 1),)) is None
        assert engine.cache_info().delta_fallbacks == 1

    def test_disabled_engine_never_patches(self):
        g = generators.path(30)
        engine = ScenarioEngine(g, delta=False)
        assert engine.try_delta(0, ((27, 28),)) is None
        assert engine.delta_hits == engine.delta_fallbacks == 0

    def test_engine_streams_equal_with_and_without_delta(self, er_medium):
        g = er_medium
        scenarios = (random_fault_sets(g, 2, 6, seed=3)
                     + clustered_fault_sets(g, 3, 6, seed=4))
        on, off = ScenarioEngine(g), ScenarioEngine(g, delta=False)
        ask_on, ask_off = Session(engine=on), Session(engine=off)
        for F in scenarios:
            vq = [VectorQuery(s, F) for s in (0, 5, 9)]
            assert [list(a.value) for a in ask_on.answer(vq)] == \
                [list(a.value) for a in ask_off.answer(vq)] == \
                [list(bfs_distances(g.without(F), s)) for s in (0, 5, 9)]
            q = DistanceQuery(3, g.n - 1, F)
            assert ask_on.answer_one(q).value == \
                ask_off.answer_one(q).value == \
                bfs_distances(g.without(F), 3)[g.n - 1]
        assert on.delta_hits + on.delta_fallbacks > 0

    def test_adopt_base_tree_validates(self, grid4, grid_scheme):
        engine = ScenarioEngine(grid4)
        tree = grid_scheme.tree(0)
        engine.adopt_base_tree(0, tree)  # a genuine SPT adopts fine
        # The base index now cuts this tree's subtrees.
        index = engine.base_tree_index(0)
        for e in tree.edges():
            assert set(index.orphaned_vertices([e])) == (
                set(tree.reached_vertices())
                - tree_fault_free_vertices(tree, [e]))
        with pytest.raises(GraphError, match="rooted"):
            engine.adopt_base_tree(5, tree)
        # a tree of the wrong graph is rejected, not silently patched
        bad = BFSTiebreaking(generators.path(16)).tree(0)
        with pytest.raises(GraphError):
            engine.adopt_base_tree(0, bad)

    def test_adopted_tree_serves_exact_deltas(self, grid4, grid_scheme):
        engine = ScenarioEngine(grid4)
        tree = grid_scheme.tree(0)
        engine.adopt_base_tree(0, tree)
        for e in tree.edges():
            vec = engine.try_delta(0, (e,))
            ref = bfs_distances(grid4.without([e]), 0)
            if vec is not None:
                assert vec == ref


class TestSessionDeltaProvenance:
    def test_delta_provenance_and_equality(self):
        g = generators.path(60)
        deep = ((57, 58),)
        on, off = Session(g), Session(g, delta=False)
        on.engine.base_tree_index(0)  # pre-warm past the cold decline
        q = [VectorQuery(0, deep), DistanceQuery(0, 59, deep)]
        a_on, a_off = on.answer(q), off.answer(q)
        assert [a.value for a in a_on] == [a.value for a in a_off]
        assert all(a.patched for a in a_on)
        assert all(a.provenance.source == "delta" for a in a_on)
        assert a_on[0].provenance.kernel == "csr_bfs_repair"
        assert on.stats.delta == 2 and on.stats.wave == 0
        assert off.stats.delta == 0 and off.stats.wave == 2
        assert "2d" in repr(on)

    def test_fallback_group_still_waves(self):
        g = generators.path(60)
        session = Session(g)
        a = session.answer_one(VectorQuery(0, ((0, 1),)))
        assert a.waved and not a.patched
        assert session.engine.delta_fallbacks == 1

    def test_mixed_stream_equal_answers(self, er_medium):
        g = er_medium
        scenarios = (clustered_fault_sets(g, 2, 5, seed=8)
                     + random_fault_sets(g, 1, 5, seed=9))
        stream = []
        for F in scenarios:
            stream.append(DistanceQuery(0, g.n - 1, F))
            stream.append(VectorQuery(3, F))
        on, off = Session(g), Session(g, delta=False)
        assert [a.value for a in on.answer(stream)] == \
            [a.value for a in off.answer(stream)]


class TestClusteredFaultSets:
    def test_seeded_and_canonical(self, er_medium):
        g = er_medium
        a = clustered_fault_sets(g, 3, 10, seed=5)
        b = clustered_fault_sets(g, 3, 10, seed=5)
        assert a == b and len(a) == 10
        edges = set(g.edges())
        for F in a:
            assert len(F) <= 3 and len(set(F)) == len(F)
            assert all(e in edges for e in F)
            assert all(e == canonical_edge(*e) for e in F)
        assert a != clustered_fault_sets(g, 3, 10, seed=6)

    def test_faults_stay_inside_one_ball(self):
        # On a torus every radius-2 ball holds plenty of edges, so the
        # radius never grows: all endpoints of one scenario are
        # pairwise within 2 * radius hops.
        g = generators.torus(6, 6)
        for F in clustered_fault_sets(g, 3, 12, radius=2, seed=1):
            endpoints = {v for e in F for v in e}
            assert all(
                hop_distance(g, u, v) <= 4
                for u in endpoints for v in endpoints
            )

    def test_ball_grows_until_enough_edges(self):
        # A long path with radius 0: the ball must grow to find edges.
        g = generators.path(20)
        for F in clustered_fault_sets(g, 2, 8, radius=0, seed=2):
            assert len(F) == 2

    def test_edge_cases(self):
        empty = Graph(0)
        assert clustered_fault_sets(empty, 2, 3, seed=0) == [(), (), ()]
        isolated = Graph(3)  # no edges at all
        assert clustered_fault_sets(isolated, 2, 2, seed=0) == [(), ()]
        with pytest.raises(GraphError):
            clustered_fault_sets(empty, -1, 1)
        with pytest.raises(GraphError):
            clustered_fault_sets(empty, 1, -1)
        with pytest.raises(GraphError):
            clustered_fault_sets(empty, 1, 1, radius=-1)


class TestDSODeltaIntegration:
    def test_preprocessing_reports_delta_and_answers_match(self, er_small):
        from repro.oracles.dso import SourcewiseDSO

        g = er_small
        dso = SourcewiseDSO(g, sources=[0, 3])
        prov = dso.preprocessing_provenance
        assert sum(prov.values()) == dso.preprocessed_edges
        assert prov.get("delta", 0) > 0  # tree-edge faults: sweet spot
        # spot-check oracle answers against a fresh BFS
        tree = dso.scheme.tree(0)
        e = next(iter(tree.edges()))
        ref = bfs_distances(g.without([e]), 0)
        for v in range(g.n):
            assert dso.query(0, v, e) == ref[v]
