"""Tests for the declarative query API (repro.query).

Covers the algebra contract (canonical fault keys, frozen value
objects), planner validation (mixed weightedness must raise
QueryError, never silently serve the wrong kernels), answer equality
against the naive BFS oracle, provenance consistency with
cache_info() deltas, and the target-side batching cost model.
"""

import sys
import threading

import pytest

from repro.core.restoration import midpoint_scan
from repro.core.scheme import RestorableTiebreaking
from repro.exceptions import GraphError, QueryError
from repro.graphs import generators
from repro.graphs.base import Graph
from repro.query import (
    ConnectivityQuery,
    DistanceQuery,
    EccentricityQuery,
    PairQuery,
    PairReport,
    Planner,
    RestorationQuery,
    Session,
    VectorQuery,
)
from repro.scenarios import CacheInfo, ScenarioEngine, random_fault_sets
from repro.spt.bfs import UNREACHABLE, bfs_distances
from repro.weighted.graph import WeightedGraph


def _quiet_engine(graph, **kwargs) -> ScenarioEngine:
    return ScenarioEngine(graph, **kwargs)


def _reference_value(graph, q):
    """The naive oracle for one query: BFS over the fault view (and
    the view's own connectivity check)."""
    view = graph.without(q.faults)
    if isinstance(q, ConnectivityQuery):
        return view.is_connected()
    dist = bfs_distances(view, q.source)
    if isinstance(q, DistanceQuery):
        return dist[q.target]
    if isinstance(q, PairQuery):
        return PairReport(base=bfs_distances(graph, q.source)[q.target],
                          distance=dist[q.target])
    if isinstance(q, VectorQuery):
        return dist
    if isinstance(q, EccentricityQuery):
        return UNREACHABLE if UNREACHABLE in dist else max(dist)
    raise AssertionError(q)


def _naive_restoration(scheme, s, t, e):
    """The naive oracle for one ``RestorationQuery``: BFS over the
    fault view for the target, the core midpoint scan for the result."""
    target = bfs_distances(scheme.graph.without([e]), s)[t]
    if target == UNREACHABLE:
        return None
    return target, midpoint_scan(scheme, s, t, [e])


class TestQueryObjects:
    def test_fault_sets_canonicalized(self):
        a = DistanceQuery(0, 5, [(3, 1), (2, 4), (1, 3)])
        b = DistanceQuery(0, 5, (((4, 2)), (1, 3)))
        assert a.faults == ((1, 3), (2, 4))
        assert a == b and hash(a) == hash(b)
        assert a.fault_key == b.fault_key

    def test_frozen(self):
        q = VectorQuery(0, [(0, 1)])
        with pytest.raises(Exception):
            q.source = 3

    def test_usable_as_dict_keys(self):
        memo = {DistanceQuery(0, 1, [(1, 2)]): 7}
        assert memo[DistanceQuery(0, 1, [(2, 1)])] == 7

    def test_restoration_requires_single_fault(self):
        with pytest.raises(QueryError):
            RestorationQuery(0, 5, ())
        with pytest.raises(QueryError):
            RestorationQuery(0, 5, ((0, 1), (1, 2)))
        q = RestorationQuery(0, 5, ((1, 0),))
        assert q.faults == ((0, 1),)

    def test_malformed_fault_set(self):
        with pytest.raises(QueryError):
            DistanceQuery(0, 1, [(1,)])

    def test_pair_report(self):
        ok = PairReport(base=3, distance=5)
        assert ok.stretch == 2 and not ok.disconnected
        cut = PairReport(base=3, distance=UNREACHABLE)
        assert cut.stretch is None and cut.disconnected


class TestPlannerValidation:
    def test_mixed_weightedness_raises(self, grid4):
        session = Session(grid4)
        with pytest.raises(QueryError, match="mixed"):
            session.answer([
                DistanceQuery(0, 1, weighted=False),
                DistanceQuery(0, 2, weighted=True),
            ])

    def test_weighted_flag_must_match_engine(self, grid4):
        session = Session(grid4)
        with pytest.raises(QueryError, match="unweighted"):
            session.answer([DistanceQuery(0, 1, weighted=True)])
        wg = WeightedGraph(3)
        wg.add_edge(0, 1, 2)
        wg.add_edge(1, 2, 3)
        wsession = Session(wg)
        with pytest.raises(QueryError, match="weighted"):
            wsession.answer([DistanceQuery(0, 1, weighted=False)])
        # matching declarations are served
        assert wsession.answer_one(
            DistanceQuery(0, 2, weighted=True)
        ).value == 5

    def test_unknown_vertex_raises(self, grid4):
        session = Session(grid4)
        with pytest.raises(QueryError, match="target"):
            session.answer([DistanceQuery(0, 99)])
        with pytest.raises(QueryError, match="source"):
            session.answer([VectorQuery(-1)])

    def test_fault_edge_with_unknown_vertex_raises(self, grid4):
        session = Session(grid4)
        # a typo'd fault endpoint must not silently read as
        # "touches nothing" (base distance with filter provenance)
        with pytest.raises(QueryError, match="fault edge"):
            session.answer([DistanceQuery(0, 15, [(99, 100)])])
        # ...but an absent edge between existing vertices is a no-op,
        # matching the engine-wide without() convention
        assert session.answer_one(
            DistanceQuery(0, 15, [(0, 15)])
        ).value == 6

    def test_non_query_rejected(self, grid4):
        session = Session(grid4)
        with pytest.raises(QueryError):
            session.answer([(0, 1, ())])

    def test_restoration_needs_scheme_and_unweighted(self, grid4,
                                                     grid_scheme):
        q = RestorationQuery(0, 15, (next(iter(grid4.edges())),))
        with pytest.raises(QueryError, match="scheme"):
            Session(grid4).answer([q])
        wg = WeightedGraph(3)
        wg.add_edge(0, 1, 2)
        wg.add_edge(1, 2, 3)
        with pytest.raises(QueryError, match="weighted"):
            Session(wg).answer([RestorationQuery(0, 2, ((0, 1),))])
        # A structurally equal copy of the scheme's graph is fine —
        # that is exactly what a scheme looks like after crossing a
        # pickle boundary (fleet shard, service payload)...
        copy = generators.grid(4, 4)
        answered = Session(copy).answer([q], scheme=grid_scheme)
        assert len(answered) == 1
        # ...but a genuinely different graph still raises.
        other = generators.torus(4, 4)
        qo = RestorationQuery(0, 15, (next(iter(other.edges())),))
        with pytest.raises(QueryError, match="same base graph"):
            Session(other).answer([qo], scheme=grid_scheme)

    def test_session_graph_engine_mismatch(self, grid4, torus4):
        engine = _quiet_engine(torus4)
        with pytest.raises(QueryError):
            Session(grid4, engine=engine)
        with pytest.raises(QueryError):
            Session()


class TestAnswerEquality:
    def test_mixed_stream_matches_per_call_paths(self, er_medium):
        g = er_medium
        faults = random_fault_sets(g, 2, 6, seed=5)
        stream = []
        for F in faults:
            stream += [DistanceQuery(s, t, F)
                       for s in (0, 1, 2) for t in (g.n - 1, g.n - 2)]
            stream += [
                PairQuery(3, g.n - 1, F),
                VectorQuery(4, F),
                EccentricityQuery(5, F),
                ConnectivityQuery(F),
            ]
        session = Session(g)
        answers = session.answer(stream)
        assert len(answers) == len(stream)
        for q, a in zip(stream, answers):
            assert a.query is q
            assert a.value == _reference_value(g, q)

    def test_disconnecting_faults(self):
        g = generators.path(4)
        session = Session(g)
        d, e, c = session.answer([
            DistanceQuery(0, 3, [(1, 2)]),
            EccentricityQuery(0, [(1, 2)]),
            ConnectivityQuery([(1, 2)]),
        ])
        assert d.value == UNREACHABLE
        assert e.value == UNREACHABLE
        assert c.value is False

    def test_duplicates_and_order(self, grid4):
        session = Session(grid4)
        q = DistanceQuery(0, 15, [(0, 1)])
        answers = session.answer([q, VectorQuery(0, [(0, 1)]), q])
        assert answers[0].value == answers[2].value
        assert answers[1].value[15] == answers[0].value

    def test_restoration_matches_engine_sweep(self, grid4, grid_scheme):
        path = grid_scheme.path(0, 15)
        instances = [(0, 15, e) for e in path.edges()]
        session = Session(grid4, scheme=grid_scheme)
        answers = session.answer(
            RestorationQuery(s, t, (e,)) for s, t, e in instances
        )
        ref = [_naive_restoration(grid_scheme, s, t, e)
               for s, t, e in instances]
        assert [a.value for a in answers] == ref
        assert all(a.provenance.kernel == "restoration_sweep"
                   for a in answers)


class TestProvenanceAndCaches:
    def test_replay_is_all_cache_and_counts_match_cache_info(self,
                                                             er_medium):
        g = er_medium
        faults = random_fault_sets(g, 1, 4, seed=9)
        stream = []
        for F in faults:
            stream += [DistanceQuery(s, g.n - 1, F) for s in range(6)]
            stream += [VectorQuery(7, F), EccentricityQuery(8, F)]
        session = Session(g)
        before = dict(session.cache_info())
        first = session.answer(stream)
        mid = dict(session.cache_info())
        waves = session.stats.waves
        # nothing was cached yet: no hit, and one counted miss per
        # distinct (F, origin) row the waves traversed
        assert mid["vector_hits"] == before["vector_hits"]
        assert all(not a.cached for a in first)

        def waved_row(a):
            q = a.query
            flip = (isinstance(q, DistanceQuery)
                    and a.provenance.side == "target")
            return q.fault_key, q.target if flip else q.source

        waved = {waved_row(a) for a in first if a.waved}
        assert mid["vector_misses"] - before["vector_misses"] == len(waved)
        second = session.answer(stream)
        after = dict(session.cache_info())
        # the replay makes no new wave, no new patch and no new miss:
        # every answer indexes a cached row, or is a touch-filter
        # verdict for a pair the filter already served...
        assert session.stats.waves == waves
        assert after["vector_misses"] == mid["vector_misses"]
        assert after["delta_hits"] == mid["delta_hits"]
        for a, b in zip(first, second):
            assert b.value == a.value
            assert b.cached or (b.provenance.source == "filter"
                                and a.provenance.source == "filter")
        assert all(b.cached for b in second
                   if isinstance(b.query, (VectorQuery, EccentricityQuery)))
        # ...and each cache answer is one counted vector-cache hit.
        assert after["vector_hits"] - mid["vector_hits"] == sum(
            b.cached for b in second)

    def test_wave_provenance_records_kernel_and_size(self, er_medium):
        g = er_medium
        e = next(iter(g.edges()))
        # delta=False: this test pins the *wave* provenance; with the
        # delta path on, a small orphaned region would legitimately
        # serve these vectors as "delta" instead.
        session = Session(g, delta=False)
        answers = session.answer([VectorQuery(0, (e,)),
                                  VectorQuery(1, (e,))])
        for a in answers:
            assert a.waved
            assert a.provenance.kernel == "csr_bfs_distances_many"
            assert a.provenance.wave_size == 2
        assert session.stats.waves == 1

    def test_touch_filter_provenance(self, grid4):
        session = Session(grid4)
        # a fault on the far corner cannot touch dist(0, 1)
        a = session.answer_one(DistanceQuery(0, 1, [(11, 15)]))
        assert a.provenance.source == "filter"
        assert a.value == 1

    def test_vector_left_by_wave_serves_pairs_from_cache(self, grid4):
        session = Session(grid4)
        F = ((0, 1),)
        session.answer([VectorQuery(0, F)])
        a = session.answer_one(DistanceQuery(0, 15, F))
        assert a.cached and a.provenance.detail == "vector-cache"

    def test_cache_info_is_frozen_dataclass(self, grid4):
        info = _quiet_engine(grid4).cache_info()
        assert isinstance(info, CacheInfo)
        assert info.vector_hits == 0 and info["vector_hits"] == 0
        assert dict(info)["maxsize"] == info.maxsize
        assert "vector_hits" in info.keys() and "nope" not in info.keys()
        with pytest.raises(KeyError):
            info["nope"]
        # ``in`` asks about a field; iteration is refused, not by index
        assert "size" in info and "hits" not in info
        with pytest.raises(TypeError):
            list(info)
        with pytest.raises(Exception):
            info.vector_hits = 5
        # equality and hashing are the frozen dataclass's own
        same = CacheInfo(**dict(info))
        assert info == same and hash(info) == hash(same)
        # the LRU holds rows only: no pair-memo counters
        assert not {"hits", "misses", "evictions"} & set(info.keys())

    def test_missing_scheme_raises_before_any_kernel_runs(self, grid4):
        session = Session(grid4)
        e = next(iter(grid4.edges()))
        with pytest.raises(QueryError, match="scheme"):
            session.answer([
                DistanceQuery(0, 15, (e,)),
                RestorationQuery(0, 15, (e,)),
            ])
        # the distance group must not have run: caches untouched
        assert dict(session.cache_info()) == dict(
            _quiet_engine(grid4).cache_info()
        )

    def test_connectivity_rides_any_cached_vector(self, grid4):
        session = Session(grid4)
        F = ((0, 1),)
        session.answer([VectorQuery(5, F)])
        waves_before = session.stats.waves
        d, c = session.answer([DistanceQuery(5, 15, F),
                               ConnectivityQuery(F)])
        assert d.cached and c.value is True
        assert session.stats.waves == waves_before  # no extra traversal
        # a connectivity-only gather also finds the (5, F) vector,
        # even though it is not cached under source 0
        c2 = session.answer_one(ConnectivityQuery(F))
        assert c2.cached and session.stats.waves == waves_before


class TestTargetSideBatching:
    def test_skewed_group_waves_from_targets(self, er_medium):
        g = er_medium
        e = next(iter(g.edges()))
        # many sources, one target: waving from the target costs one
        # traversal instead of eight.
        stream = [DistanceQuery(s, g.n - 1, (e,)) for s in range(8)]
        planner = Planner(_quiet_engine(g))
        plan = planner.plan(stream)
        (group,) = plan.groups
        assert group.side == "target"
        assert group.cost_target == 1 and group.cost_source == 8
        answers = planner.execute(plan)
        for q, a in zip(stream, answers):
            assert a.value == _reference_value(g, q)
        waved = [a for a in answers if a.waved]
        assert all(a.provenance.side == "target" for a in waved)
        assert group.wave_size <= 1  # at most the one target traversal

    def test_unskewed_group_stays_on_source_side(self, er_medium):
        g = er_medium
        e = next(iter(g.edges()))
        stream = [DistanceQuery(0, t, (e,)) for t in range(5, 13)]
        plan = Planner(_quiet_engine(g)).plan(stream)
        assert plan.groups[0].side == "source"

    def test_pinned_vector_sources_enter_the_cost_model(self, er_medium):
        g = er_medium
        e = next(iter(g.edges()))
        # 3 pair-sources + the same 3 pinned by vector queries vs 2
        # targets: target side still needs the pinned sources, so
        # source side (3) beats target side (2 + 3).
        stream = [DistanceQuery(s, g.n - 1 - s % 2, (e,))
                  for s in range(3)]
        stream += [VectorQuery(s, (e,)) for s in range(3)]
        plan = Planner(_quiet_engine(g)).plan(stream)
        (group,) = plan.groups
        assert group.cost_source == 3 and group.cost_target == 5
        assert group.side == "source"

    def test_antisymmetric_weights_never_flip(self):
        g = generators.cycle(6)
        csr = g.csr().with_arc_weights(
            lambda u, v: 1 if u < v else 2  # antisymmetric
        )
        engine = _quiet_engine(csr)
        assert engine.weighted and not engine.symmetric_weights
        stream = [DistanceQuery(s, 3, ((0, 1),)) for s in (0, 1, 2)]
        plan = Planner(engine).plan(stream)
        assert plan.groups[0].side == "source"


@pytest.fixture(params=["local", "fleet-1", "fleet-2", "service"])
def make_session(request):
    """A session factory covering every `Session`-shaped surface.

    ``local`` builds the in-process :class:`Session`; ``fleet-N``
    builds a :class:`repro.fleet.FleetSession` over N worker
    processes; ``service`` serves a local session through a
    :class:`repro.service.BackgroundServer` and hands back the
    blocking :class:`repro.service.ServiceClient`.  The facade tests
    parametrised over this fixture *are* the conformance suite for
    the session dialect: whatever the local session answers, a
    sharded fleet and a served client must answer identically.
    """
    built = []

    def build(graph):
        if request.param == "local":
            session = Session(graph)
        elif request.param == "service":
            from repro.service import BackgroundServer, ServiceClient

            server = BackgroundServer(Session(graph))
            built.append(server)
            session = ServiceClient(*server.address)
        else:
            from repro.fleet import FleetSession

            workers = int(request.param.rsplit("-", 1)[1])
            session = FleetSession(graph, workers=workers)
        built.append(session)
        return session

    yield build
    # clients before their servers: built in server-then-client order
    for session in reversed(built):
        session.close()


class TestSessionFacade:
    def test_submit_gather_drains_in_order(self, grid4, make_session):
        session = make_session(grid4)
        session.submit(DistanceQuery(0, 15))
        session.submit([VectorQuery(1)], ConnectivityQuery())
        assert session.pending == 3
        answers = session.gather()
        assert session.pending == 0
        assert [type(a.query) for a in answers] == [
            DistanceQuery, VectorQuery, ConnectivityQuery
        ]
        assert answers[0].value == 6 and answers[2].value is True

    def test_submit_rejects_non_queries(self, grid4, make_session):
        session = make_session(grid4)
        with pytest.raises(QueryError):
            session.submit(42)

    def test_answer_one(self, grid4, make_session):
        session = make_session(grid4)
        a = session.answer_one(DistanceQuery(0, 15, [(0, 1)]))
        assert isinstance(a.query, DistanceQuery) and a.value == 6
        assert session.pending == 0

    def test_restoration_matches_naive_oracle(self, grid4, make_session):
        # a 4x4 grid plus a pendant vertex: its bridge (15, 16)
        # disconnects every pair that crosses it
        graph = Graph(17, [*grid4.edges(), (15, 16)])
        scheme = RestorableTiebreaking.build(graph, f=1, seed=7)
        session = make_session(graph)
        instances = [(s, t, e) for s, t in ((0, 15), (3, 16), (5, 6))
                     for e in [*sorted(grid4.edges())[:6], (15, 16)]]
        answers = session.answer(
            [RestorationQuery(s, t, (e,)) for s, t, e in instances],
            scheme,
        )
        assert [a.value for a in answers] == [
            _naive_restoration(scheme, s, t, e) for s, t, e in instances
        ]
        assert any(a.value is None for a in answers)
        assert all(a.provenance.source == "wave"
                   and a.provenance.detail == "restoration-sweep"
                   for a in answers)

    def test_gather_drains_the_queue_when_a_query_fails(self, grid4,
                                                        make_session):
        session = make_session(grid4)
        session.submit(DistanceQuery(0, 15), DistanceQuery(0, 99))
        with pytest.raises(QueryError, match="unknown"):
            session.gather()
        assert session.pending == 0
        # an empty gather reaches no transport: no ledger entry
        gathers = session.stats.gathers
        assert session.gather() == []
        assert session.stats.gathers == gathers
        assert session.answer_one(DistanceQuery(0, 15)).value == 6

    def test_close_is_idempotent_and_a_context_manager(self, grid4,
                                                       make_session):
        session = make_session(grid4)
        with session as entered:
            assert entered is session
            assert entered.answer_one(ConnectivityQuery()).value is True
        session.close()  # a second close is harmless

    def test_threads_share_one_session(self, grid4, make_session):
        """Four threads answer their own streams through one session
        at once, with the interpreter switching threads often: every
        answer equals an in-process session's, and the ledger loses
        no update."""
        session = make_session(grid4)
        streams = [
            [q for F in random_fault_sets(grid4, 2, 3, seed=seed)
             for q in (DistanceQuery(seed, 15 - seed, F),
                       VectorQuery(seed, F),
                       EccentricityQuery(15 - seed, F),
                       ConnectivityQuery(F))]
            for seed in range(4)
        ]
        reference = Session(grid4)
        expected = [[(a.query, a.value) for a in reference.answer(s)]
                    for s in streams]
        rounds = 20
        got = [[] for _ in streams]
        errors = []

        def run(i):
            try:
                for _ in range(rounds):
                    got[i].append([(a.query, a.value)
                                   for a in session.answer(streams[i])])
            except BaseException as exc:  # noqa: BLE001 — re-raised
                errors.append(exc)

        answered = session.stats.answers
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(streams))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        assert got == [[rows] * rounds for rows in expected]
        assert session.stats.answers == answered + rounds * sum(
            len(s) for s in streams)

    def test_adopts_existing_engine(self, grid4):
        engine = _quiet_engine(grid4)
        engine.base_distances(0)  # warm
        session = Session(engine=engine)
        assert session.engine is engine
        assert session.answer_one(DistanceQuery(0, 15)).value == 6

    def test_adopt_resolves_the_consumer_idiom(self, grid4, torus4):
        fresh = Session.adopt(grid4)
        assert fresh.graph is grid4
        engine = _quiet_engine(grid4)
        wrapped = Session.adopt(grid4, engine=engine)
        assert wrapped.engine is engine
        reused = Session.adopt(grid4, engine=engine, session=wrapped)
        assert reused is wrapped
        with pytest.raises(GraphError):
            Session.adopt(torus4, engine=engine)
        with pytest.raises(GraphError):
            Session.adopt(torus4, session=wrapped)
        with pytest.raises(GraphError):  # disagreeing pair
            Session.adopt(grid4, engine=_quiet_engine(grid4),
                          session=wrapped)

    def test_stats_and_repr(self, grid4, make_session):
        session = make_session(grid4)
        session.answer([DistanceQuery(0, 15, [(0, 1)])])
        assert session.stats.answers == 1
        # Session / FleetSession / ServiceClient each name themselves
        assert "Session(" in repr(session) or "Client(" in repr(session)


class TestSessionStatsMerge:
    def test_merge_sums_counters_and_unions_tallies(self):
        from repro.query.session import SessionStats

        a = SessionStats(answers=10, gathers=2, waves=3, cache=4,
                         filter=1, delta=2, wave=3,
                         by_backend={"pyloops": 3},
                         by_worker={"w0": 10})
        b = SessionStats(answers=5, gathers=1, waves=1, cache=0,
                         filter=2, delta=0, wave=3,
                         by_backend={"pyloops": 1, "vectorized": 2},
                         by_worker={"w1": 5})
        merged = SessionStats.merge([a, b])
        assert merged.answers == 15 and merged.gathers == 3
        assert merged.waves == 4
        assert (merged.cache, merged.filter, merged.delta,
                merged.wave) == (4, 3, 2, 6)
        assert merged.by_backend == {"pyloops": 4, "vectorized": 2}
        assert merged.by_worker == {"w0": 10, "w1": 5}
        # inputs are untouched (merge builds a fresh snapshot)
        assert a.by_backend == {"pyloops": 3}

    def test_merge_of_nothing_is_zero(self):
        from repro.query.session import SessionStats

        merged = SessionStats.merge([])
        assert merged.answers == 0 and merged.by_backend == {}

    def test_record_tallies_workers(self, grid4):
        from dataclasses import replace

        session = Session(grid4)
        answers = session.answer([DistanceQuery(0, 15, [(0, 1)]),
                                  VectorQuery(3)])
        stamped = [
            replace(a, provenance=replace(a.provenance, worker="w7"))
            for a in answers
        ]
        from repro.query.session import SessionStats

        stats = SessionStats()
        stats.record_answers(stamped)
        assert stats.by_worker == {"w7": 2}
