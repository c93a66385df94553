"""The engine fleet (repro.fleet): protocol spawn-safety, routing,
worker lifecycle, and FleetSession conformance.

The general Session-surface conformance lives in test_query_api.py
(the facade tests parametrised over the `make_session` factory); this
module covers what is fleet-specific — the pickle seam, fault-set
affinity, the registry's degradation ladder, and the merged reports.
"""

import io
import pickle
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.exceptions import FleetError, QueryError
from repro.query import (
    ConnectivityQuery,
    DistanceQuery,
    EccentricityQuery,
    PairQuery,
    Session,
    VectorQuery,
)
from repro.fleet import FleetSession, WorkerRegistry, fault_hash
from repro.fleet import registry as registry_module
from repro.fleet.protocol import (
    ErrorReply,
    ExecuteReply,
    ExecuteRequest,
    InitRequest,
    ReportRequest,
    ShutdownRequest,
    raise_reply,
)
from repro import obs
from repro.obs import TraceContext
from repro.scenarios import CacheInfo, random_fault_sets


def _spawn_roundtrip(obj):
    """Round-trip through the reducer multiprocessing actually uses.

    Connection.send pickles with ForkingPickler under every start
    method, so this is the exact seam a message must survive — under
    ``spawn`` there is no inherited state to hide behind.
    """
    buf = io.BytesIO()
    ForkingPickler(buf, pickle.HIGHEST_PROTOCOL).dump(obj)
    return pickle.loads(buf.getvalue())


def _mixed_stream(g, seed=0, scenarios=5):
    stream = []
    for F in random_fault_sets(g, 2, scenarios, seed=seed):
        stream += [
            DistanceQuery(0, g.n - 1, F),
            PairQuery(1, g.n - 2, F),
            VectorQuery(2, F),
            EccentricityQuery(3, F),
            ConnectivityQuery(F),
        ]
    return stream


# ----------------------------------------------------------------------
# spawn-safety: everything that crosses the worker boundary pickles
# ----------------------------------------------------------------------
class TestSpawnSafety:
    def test_init_request_roundtrips(self, grid4, grid_scheme):
        init = InitRequest(graph=grid4, memoize=128, delta=False,
                           scheme=grid_scheme)
        back = _spawn_roundtrip(init)
        assert back.memoize == 128 and back.delta is False
        assert back.graph.n == grid4.n and back.graph.m == grid4.m
        assert back.scheme.graph.n == grid4.n

    def test_requests_roundtrip(self, grid4):
        for request in (
            InitRequest(graph=grid4),
            ExecuteRequest(queries=(DistanceQuery(0, 15, [(0, 1)]),
                                    VectorQuery(1),
                                    ConnectivityQuery())),
            ReportRequest(),
            ShutdownRequest(),
        ):
            assert _spawn_roundtrip(request) == request

    def test_queries_and_answers_roundtrip(self, grid4):
        stream = _mixed_stream(grid4, seed=2, scenarios=3)
        assert _spawn_roundtrip(stream) == stream
        answers = Session(grid4).answer(stream)
        back = _spawn_roundtrip(answers)
        assert [a.value for a in back] == [a.value for a in answers]
        assert [a.provenance for a in back] == [
            a.provenance for a in answers]

    def test_engine_construction_args_roundtrip(self, grid4):
        # what a worker actually builds its engines from
        kwargs = {"memoize": 64, "delta": True}
        graph, kwargs2 = _spawn_roundtrip((grid4, kwargs))
        session = Session(graph, **kwargs2)
        assert session.answer_one(DistanceQuery(0, 15)).value == 6

    def test_cache_info_and_stats_roundtrip(self, grid4):
        session = Session(grid4)
        session.answer(_mixed_stream(grid4, seed=1, scenarios=2))
        info = session.cache_info()
        assert _spawn_roundtrip(info) == info
        stats = _spawn_roundtrip(session.stats)
        assert stats.answers == session.stats.answers

    def test_trace_and_span_fields_roundtrip(self, grid4):
        ctx = TraceContext(trace_id="ab" * 8, span_id="cd" * 8)
        request = ExecuteRequest(queries=(ConnectivityQuery(),),
                                 trace=ctx.to_dict())
        back = _spawn_roundtrip(request)
        assert back == request
        assert TraceContext.from_dict(back.trace) == ctx
        assert _spawn_roundtrip(ctx) == ctx  # the context itself too
        record = {"kind": "span", "name": "worker.execute",
                  "trace_id": ctx.trace_id, "span_id": "ee" * 8,
                  "parent_id": ctx.span_id, "start": 0.0, "end": 1.0,
                  "attrs": {"worker": "w0"}}
        reply = _spawn_roundtrip(ExecuteReply(worker="w0", answers=(),
                                              spans=(record,)))
        assert reply.spans == (record,)

    def test_untraced_protocol_defaults(self):
        # pre-obs shape: no trace on the way out, no spans back
        assert ExecuteRequest(queries=()).trace is None
        assert ExecuteReply(worker="w0", answers=()).spans == ()

    def test_error_reply_reraises_repro_types(self):
        reply = ErrorReply(worker="w0", exc_type="QueryError",
                           message="bad stream")
        with pytest.raises(QueryError, match="bad stream"):
            raise_reply(reply)
        with pytest.raises(FleetError, match="ZeroDivisionError"):
            raise_reply(ErrorReply(worker="w0",
                                   exc_type="ZeroDivisionError",
                                   message="boom"))


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class TestRouter:
    def test_fault_hash_is_process_stable(self):
        # pinned value: crc32 of the repr, no interpreter salt
        key = ((0, 1), (2, 3))
        assert fault_hash(key) == fault_hash(key)
        import zlib

        assert fault_hash(key) == zlib.crc32(repr(key).encode())

    def test_fault_affinity(self, grid4):
        # every answer comes from the worker its fault set hashes to,
        # so one fault set is never split across workers
        stream = _mixed_stream(grid4, seed=4)
        with FleetSession(grid4, workers=3) as fleet:
            answers = fleet.answer(stream)
        assert [a.provenance.worker for a in answers] == [
            f"w{fault_hash(q.fault_key) % 3}" for q in stream]
        assert len({a.provenance.worker for a in answers}) > 1


# ----------------------------------------------------------------------
# registry lifecycle and degradation
# ----------------------------------------------------------------------
class TestRegistry:
    def test_configuration_errors(self, grid4):
        with pytest.raises(FleetError, match="at least one worker"):
            WorkerRegistry(InitRequest(graph=grid4), workers=0)

    def test_ping_and_close(self, grid4):
        """Started workers are alive (read off their handles); close
        reaps every one, and a second close is harmless."""
        registry = WorkerRegistry(InitRequest(graph=grid4), workers=2)
        registry.start()
        assert all(h.alive for h in registry._handles.values())
        registry.close()
        assert not any(h.alive for h in registry._handles.values())
        registry.close()  # idempotent

    def test_respawn_after_worker_death(self, grid4):
        with WorkerRegistry(InitRequest(graph=grid4),
                            workers=2) as registry:
            registry.start()
            victim = registry._handles["w0"]
            victim.process.terminate()
            victim.process.join()
            with pytest.warns(RuntimeWarning, match="respawning"):
                replies = registry.dispatch({
                    "w0": ExecuteRequest(
                        queries=(DistanceQuery(0, 15, [(0, 1)]),)),
                })
            assert replies["w0"].answers[0].value == 6
            assert registry.respawns == 1
            assert registry.serial_fallbacks == 0
            assert registry._handles["w0"].alive

    def test_serial_fallback_when_respawn_fails(self, grid4,
                                                monkeypatch):
        with WorkerRegistry(InitRequest(graph=grid4),
                            workers=2) as registry:
            registry.start()
            victim = registry._handles["w1"]
            victim.process.terminate()
            victim.process.join()

            def _no_respawn(handle):
                raise OSError("no processes left")

            built = []
            real_build = registry_module.build_session

            def _recording_build(init):
                built.append(init)
                return real_build(init)

            monkeypatch.setattr(registry, "_respawn", _no_respawn)
            monkeypatch.setattr(registry_module, "build_session",
                                _recording_build)
            with pytest.warns(RuntimeWarning, match="serial fallback"):
                replies = registry.dispatch({
                    "w1": ExecuteRequest(
                        queries=(DistanceQuery(0, 15, [(0, 1)]),)),
                })
            answer = replies["w1"].answers[0]
            assert answer.value == 6
            assert answer.provenance.worker == "serial"
            assert registry.serial_fallbacks == 1
            # the fallback session is built from the workers' init
            assert len(built) == 1 and built[0] is registry.init


# ----------------------------------------------------------------------
# FleetSession
# ----------------------------------------------------------------------
class TestFleetSession:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_answers_equal_local_session(self, er_medium, workers):
        stream = _mixed_stream(er_medium, seed=3, scenarios=6)
        reference = Session(er_medium).answer(stream)
        with FleetSession(er_medium, workers=workers) as fleet:
            answers = fleet.answer(stream)
        assert len(answers) == len(stream)
        for a, b in zip(answers, reference):
            assert a.query == b.query
            assert a.value == b.value

    def test_worker_provenance_and_shares(self, er_medium):
        stream = _mixed_stream(er_medium, seed=3, scenarios=8)
        with FleetSession(er_medium, workers=2) as fleet:
            answers = fleet.answer(stream)
            names = {a.provenance.worker for a in answers}
            assert names <= {"w0", "w1"} and len(names) == 2
            shares = fleet.stats.by_worker
            assert sum(shares.values()) == len(stream)

    def test_reading_reports_never_reroutes(self, er_medium):
        # w0 owns these fault sets and its LRU holds exactly their
        # vectors; a cache_info() read (what the service's stats verb
        # runs) must not move them off the worker that caches them
        owned = [F for F in random_fault_sets(er_medium, 2, 40, seed=1)
                 if fault_hash(VectorQuery(0, F).fault_key) % 2 == 0][:4]
        sources = (0, 1, 2)
        with FleetSession(er_medium, workers=2, delta=False,
                          memoize=len(owned) * len(sources)) as fleet:
            fill = fleet.answer([VectorQuery(s, F) for F in owned
                                 for s in sources])
            assert {a.provenance.worker for a in fill} == {"w0"}
            fleet.cache_info()
            w0_info = fleet.worker_reports()["w0"].cache_info
            assert w0_info.size == w0_info.maxsize
            again = fleet.answer([VectorQuery(0, owned[0]),
                                  VectorQuery(1, owned[1])])
            assert [a.provenance.worker for a in again] == ["w0", "w0"]
            assert [a.provenance.source for a in again] == [
                "cache", "cache"]

    def test_merged_cache_info_is_sum_of_worker_reports(self,
                                                        er_medium):
        with FleetSession(er_medium, workers=2) as fleet:
            fleet.answer(_mixed_stream(er_medium, seed=5, scenarios=6))
            reports = fleet.worker_reports()
            per_worker = [rep.cache_info for rep in reports.values()]
            merged = fleet.cache_info()
            assert merged == CacheInfo.merge(per_worker)
            for name in merged.keys():
                if name == "wave_backends":
                    continue
                assert merged[name] == sum(i[name] for i in per_worker)

    def test_memoize_budget_reaches_every_worker(self, torus4):
        """The one-graph init reaches every worker: each engine holds
        the fleet's ``memoize`` budget under a stream wider than it,
        and ``delta=False`` turns the delta path off in every
        worker."""
        stream = [VectorQuery(s, F)
                  for F in random_fault_sets(torus4, 2, 6, seed=5)
                  for s in range(torus4.n)]
        local = Session(torus4, memoize=8)
        local.answer(stream)
        on = local.cache_info()
        assert on.delta_hits + on.delta_fallbacks > 0  # not vacuous
        with FleetSession(torus4, memoize=8, delta=False,
                          workers=2) as fleet:
            answers = fleet.answer(stream)
            assert [a.value for a in answers] == [
                a.value for a in Session(torus4).answer(stream)]
            for report in fleet.worker_reports().values():
                info = report.cache_info
                assert info.vector_misses > 8  # wider than the budget
                assert info.maxsize == 8 and info.size <= 8
                assert info.delta_hits == info.delta_fallbacks == 0

    def test_query_error_propagates_and_queue_drains(self, grid4):
        with FleetSession(grid4, workers=2) as fleet:
            fleet.submit(DistanceQuery(0, 99))  # unknown vertex
            with pytest.raises(QueryError, match="unknown"):
                fleet.gather()
            assert fleet.pending == 0
            # the fleet is not poisoned
            assert fleet.answer_one(DistanceQuery(0, 15)).value == 6

    def test_mixed_weightedness_caught_before_sharding(self, grid4):
        # the two contradicting queries have different fault sets, so
        # sharding could send each to a different worker where both
        # shards would look internally consistent — the parent-side
        # check must catch it first
        with FleetSession(grid4, workers=2) as fleet:
            with pytest.raises(QueryError, match="mixed"):
                fleet.answer([
                    DistanceQuery(0, 1, weighted=False),
                    DistanceQuery(0, 2, [(0, 1)], weighted=True),
                ])

    def test_spawn_start_method_end_to_end(self, grid4):
        with FleetSession(grid4, workers=2,
                          start_method="spawn") as fleet:
            stream = _mixed_stream(grid4, seed=1, scenarios=3)
            answers = fleet.answer(stream)
            reference = Session(grid4).answer(stream)
            assert [a.value for a in answers] == [
                a.value for a in reference]

    def test_gathers_counter_and_repr(self, grid4):
        with FleetSession(grid4, workers=1) as fleet:
            fleet.submit(ConnectivityQuery()).gather()
            assert fleet.gathers == 1
            assert "FleetSession(" in repr(fleet)
            assert fleet.graph is grid4


# ----------------------------------------------------------------------
# cross-process tracing through the fleet
# ----------------------------------------------------------------------
class TestTracedFleet:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_worker_spans_link_into_one_cross_process_chain(self,
                                                            grid4):
        obs.enable()
        with FleetSession(grid4, workers=2) as fleet:
            with obs.span("test.root") as root:
                answers = fleet.answer(
                    [DistanceQuery(0, 15, [(0, 1)]),
                     DistanceQuery(0, 15, [(1, 2)])])
        assert [a.value for a in answers] == [6, 6]
        records = obs.span_records()
        by_id = {r["span_id"]: r for r in records}
        # everything — parent-side gather AND worker-side execution,
        # brought home via ExecuteReply.spans — shares the root trace
        assert {r["trace_id"] for r in records} == {root.trace_id}
        gathers = [r for r in records if r["name"] == "fleet.gather"]
        executes = [r for r in records
                    if r["name"] == "worker.execute"]
        assert len(gathers) == 1 and executes
        assert gathers[0]["parent_id"] == root.span_id
        for record in executes:
            assert record["parent_id"] == gathers[0]["span_id"]
            assert record["attrs"]["worker"] in ("w0", "w1")
        # the worker-side planner/wave spans chain under the execute
        plans = [r for r in records if r["name"] == "planner.execute"]
        assert plans
        assert {r["parent_id"] for r in plans} <= set(
            r["span_id"] for r in executes)
        waves = [r for r in records if r["name"] == "wave"]
        assert waves
        for record in waves:
            assert by_id[record["parent_id"]]["name"] == \
                "planner.execute"

    def test_untraced_fleet_returns_no_spans(self, grid4):
        # obs disabled: requests go out untraced, workers stay quiet
        with FleetSession(grid4, workers=1) as fleet:
            fleet.answer([DistanceQuery(0, 15)])
        assert obs.span_records() == []
