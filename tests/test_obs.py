"""Tests for the observability plane (repro.obs).

Covers the registry (get-or-create instruments, label identity,
bucket ladders, snapshots), the switch contract (disabled by default,
helpers no-op while off, ``span()`` yields None), the tracing plane
(parent links, context currency, portable TraceContext, the bounded
span buffer, cross-process ingest), the exporters (Prometheus text,
JSON-lines, the scrape server), and the thin-view ``publish`` seam on
CacheInfo.  The cross-process chains themselves are
asserted where they happen: test_fleet.py (pickle seam) and
test_service.py (frames + coalescer).
"""

import io
import itertools
import json
import time
import urllib.request

import pytest

from repro import obs
from repro.obs import SIZE_BUCKETS, TIME_BUCKETS, MetricsRegistry
from repro.obs.export import render_prometheus, write_jsonl
from repro.obs.metrics import Histogram
from repro.obs.trace import TraceContext
from repro.query import DistanceQuery, Session, VectorQuery


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with the plane off and empty."""
    obs.reset()
    yield
    obs.reset()


def _by_name(records, name):
    return [r for r in records if r["name"] == name]


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_instruments_are_get_or_create(self):
        reg = MetricsRegistry()
        c1 = reg.counter("repro_waves_total", kernel="bfs")
        c2 = reg.counter("repro_waves_total", kernel="bfs")
        assert c1 is c2
        c1.inc()
        c1.inc(2.5)
        assert c2.value == 3.5
        assert len(reg) == 1

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        reg.counter("repro_waves_total", kernel="bfs").inc()
        reg.counter("repro_waves_total", kernel="dial").inc(4)
        records = reg.snapshot()
        assert [r["labels"]["kernel"] for r in records] == ["bfs", "dial"]
        assert [r["value"] for r in records] == [1.0, 4.0]

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_fleet_capacity_used_bytes", worker="w0")
        g.set(128.0)
        g.inc(64.0)
        assert g.value == 192.0
        g.set(0.0)
        assert reg.snapshot()[0]["value"] == 0.0

    def test_histogram_ladder_chosen_by_name(self):
        reg = MetricsRegistry()
        assert reg.histogram("repro_coalescer_batch_size").bounds == \
            SIZE_BUCKETS
        assert reg.histogram("repro_wave_seconds").bounds == TIME_BUCKETS
        explicit = reg.histogram("custom_thing", buckets=(1.0, 2.0))
        assert explicit.bounds == (1.0, 2.0)

    def test_histogram_observation_lands_in_buckets(self):
        h = Histogram("x_size", (), (1.0, 4.0, 16.0))
        for v in (0.5, 1.0, 3.0, 20.0):
            h.observe(v)
        # bisect_left: a value equal to a bound counts in that bucket
        assert h.counts == [2, 1, 0, 1]
        assert h.count == 4 and h.sum == 24.5

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", (), (4.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", (), ())

    def test_metrics_submodule_import_yields_the_module(self):
        # ``import repro.obs.metrics as m`` binds the package attribute
        # of that name, so nothing in the package may shadow it.
        import types

        import repro.obs.metrics as metrics_module

        assert isinstance(metrics_module, types.ModuleType)
        assert metrics_module.MetricsRegistry is obs.MetricsRegistry

    def test_snapshot_is_json_ready_and_sorted(self):
        reg = MetricsRegistry()
        reg.histogram("z_seconds").observe(0.01)
        reg.gauge("a_level").set(7)
        reg.counter("m_total").inc()
        records = reg.snapshot()
        assert [r["name"] for r in records] == \
            ["a_level", "m_total", "z_seconds"]
        json.dumps(records)  # plain data all the way down
        reg.clear()
        assert reg.snapshot() == [] and len(reg) == 0


# ----------------------------------------------------------------------
# the switch
# ----------------------------------------------------------------------
class TestSwitch:
    def test_disabled_by_default_and_helpers_noop(self):
        assert obs.ENABLED is False and obs.enabled() is False
        obs.inc("repro_waves_total")
        obs.set_gauge("repro_backend_threshold", 9, kernel="bfs")
        obs.observe("repro_wave_seconds", 0.01)
        obs.emit_span("wave", 0.01)
        assert obs.snapshot() == [] and obs.span_records() == []

    def test_span_yields_none_while_disabled(self):
        with obs.span("planner.execute") as span_obj:
            assert span_obj is None
        assert obs.span_records() == []

    def test_enable_records_and_reset_clears(self):
        obs.enable()
        assert obs.ENABLED
        obs.inc("repro_waves_total", kernel="bfs")
        with obs.span("wave") as span_obj:
            assert span_obj is not None
        assert len(obs.snapshot()) == 1
        assert len(obs.span_records()) == 1
        obs.reset()
        assert not obs.ENABLED
        assert obs.snapshot() == [] and obs.span_records() == []

    def test_disable_keeps_recorded_data(self):
        obs.enable()
        obs.inc("repro_plans_total")
        obs.disable()
        obs.inc("repro_plans_total")  # dropped — switch is off
        assert obs.snapshot()[0]["value"] == 1.0


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_nested_spans_share_trace_and_parent_link(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        outer_rec, = [r for r in obs.span_records()
                      if r["name"] == "outer"]
        inner_rec, = [r for r in obs.span_records()
                      if r["name"] == "inner"]
        # children finish first; both carry start <= end
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert outer_rec["start"] <= outer_rec["end"]

    def test_currency_restored_after_block(self):
        obs.enable()
        assert obs.current_context() is None
        with obs.span("outer") as outer:
            assert obs.current_context() == outer.context()
        assert obs.current_context() is None

    def test_emit_span_backdates_start(self):
        obs.enable()
        obs.emit_span("wave", 1.5, kernel="bfs")
        record, = obs.span_records()
        assert record["end"] - record["start"] == pytest.approx(1.5,
                                                                abs=0.1)
        assert record["attrs"] == {"kernel": "bfs"}

    def test_stepped_wall_clock_cannot_shorten_a_span(self, monkeypatch):
        # The wall clock steps back an hour inside a span (an NTP
        # correction, a resumed VM).  Stamps come from the monotonic
        # clock against one per-process anchor, so no duration goes
        # negative and stamps stay epoch seconds.
        obs.enable()
        wall = time.time
        with obs.span("outer"):
            monkeypatch.setattr(time, "time", lambda: wall() - 3600.0)
            with obs.span("inner"):
                pass
        records = obs.span_records()
        assert {r["name"] for r in records} == {"outer", "inner"}
        for record in records:
            assert record["end"] - record["start"] >= 0
            assert abs(record["start"] - wall()) < 600

    def test_emit_span_records_the_seconds_it_was_passed(self, monkeypatch):
        # A wall clock that jumps a second on every read: the record's
        # duration must still be exactly the timed seconds.
        ticks = itertools.count(time.time(), 1.0)
        monkeypatch.setattr(time, "time", lambda: next(ticks))
        obs.enable()
        obs.emit_span("wave", 1.5)
        record, = obs.span_records()
        assert record["end"] - record["start"] == pytest.approx(1.5,
                                                                abs=1e-6)

    def test_activate_reparents_to_carried_context(self):
        obs.enable()
        ctx = TraceContext(trace_id="t" * 16, span_id="s" * 16)
        with obs.activate(ctx):
            with obs.span("worker.execute") as span_obj:
                assert span_obj.trace_id == ctx.trace_id
                assert span_obj.parent_id == ctx.span_id
        assert obs.current_context() is None

    def test_take_spans_drains_and_ingest_adopts(self):
        obs.enable()
        obs.emit_span("wave", 0.01)
        drained = obs.take_spans()
        assert len(drained) == 1 and obs.span_records() == []
        assert obs.ingest(drained + ["not-a-record", None]) == 1
        assert obs.span_records() == drained

    def test_span_buffer_is_bounded(self):
        obs.enable()
        limit = obs._SPAN_LIMIT
        for i in range(limit + 10):
            obs.emit_span("wave", 0.0, seq=i)
        records = obs.span_records()
        assert len(records) == limit
        assert records[-1]["attrs"]["seq"] == limit + 9
        assert records[0]["attrs"]["seq"] == 10  # oldest evicted


class TestTraceContext:
    def test_dict_round_trip(self):
        ctx = TraceContext(trace_id="ab" * 8, span_id="cd" * 8)
        back = TraceContext.from_dict(ctx.to_dict())
        assert back == ctx
        assert TraceContext.from_dict(ctx) is ctx

    @pytest.mark.parametrize("wire", [
        None, "garbage", 42, {}, {"trace_id": "x"},
        {"trace_id": 1, "span_id": 2},
        {"trace_id": "x", "span_id": None},
    ])
    def test_malformed_wire_degrades_to_untraced(self, wire):
        assert TraceContext.from_dict(wire) is None


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExport:
    def test_prometheus_counters_and_gauges(self):
        obs.enable()
        obs.inc("repro_waves_total", 3, kernel="bfs", backend="pyloops")
        obs.set_gauge("repro_backend_threshold", 512, kernel="bfs")
        text = obs.render_prometheus()
        assert "# TYPE repro_waves_total counter" in text
        assert ('repro_waves_total{backend="pyloops",kernel="bfs"} 3'
                in text)
        assert "# TYPE repro_backend_threshold gauge" in text
        assert 'repro_backend_threshold{kernel="bfs"} 512' in text

    def test_prometheus_histogram_is_cumulative(self):
        obs.enable()
        obs.observe("repro_coalescer_batch_size", 2.0)
        obs.observe("repro_coalescer_batch_size", 3.0)
        obs.observe("repro_coalescer_batch_size", 5000.0)  # overflow
        text = obs.render_prometheus()
        assert ('repro_coalescer_batch_size_bucket{le="2"} 1' in text)
        assert ('repro_coalescer_batch_size_bucket{le="4"} 2' in text)
        assert ('repro_coalescer_batch_size_bucket{le="1024"} 2'
                in text)
        assert ('repro_coalescer_batch_size_bucket{le="+Inf"} 3'
                in text)
        assert "repro_coalescer_batch_size_count 3" in text

    def test_prometheus_escapes_label_values(self):
        text = render_prometheus([{
            "kind": "counter", "name": "odd",
            "labels": {"path": 'a"b\\c\nd'}, "value": 1.0,
        }])
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_jsonl_dump_round_trips(self):
        obs.enable()
        obs.inc("repro_plans_total")
        obs.emit_span("wave", 0.01, kernel="bfs")
        buf = io.StringIO()
        assert obs.write_jsonl(buf) == 2
        records = [json.loads(line)
                   for line in buf.getvalue().splitlines()]
        assert [r["kind"] for r in records] == ["counter", "span"]
        assert records[1]["attrs"] == {"kernel": "bfs"}
        assert write_jsonl(io.StringIO(), [], []) == 0

    def test_metrics_server_serves_live_render(self):
        obs.enable()
        obs.inc("repro_scrapes_total")
        with obs.MetricsServer(obs.render_prometheus) as server:
            url = f"http://{server.host}:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as reply:
                body = reply.read().decode("utf-8")
                assert reply.headers["Content-Type"].startswith(
                    "text/plain")
            assert "repro_scrapes_total 1" in body
            obs.inc("repro_scrapes_total")  # live: next GET sees it
            with urllib.request.urlopen(url, timeout=5) as reply:
                assert "repro_scrapes_total 2" in \
                    reply.read().decode("utf-8")


# ----------------------------------------------------------------------
# the instrumented stack: engine seams and the thin-view publish
# ----------------------------------------------------------------------
class TestInstrumentedSession:
    def test_enabled_session_records_at_the_seams(self, grid4):
        obs.enable()
        session = Session(grid4, delta=False)
        answers = session.answer([DistanceQuery(0, 15, [(0, 1)]),
                                  VectorQuery(1, [(0, 1)])])
        assert all(a.value is not None for a in answers)
        records = obs.snapshot()
        assert _by_name(records, "repro_plans_total")[0]["value"] >= 1
        waves = _by_name(records, "repro_waves_total")
        assert waves and all(r["labels"]["backend"] for r in waves)
        sizes = _by_name(records, "repro_wave_batch_size")
        assert sizes and sizes[0]["count"] >= 1
        by_prov = _by_name(records, "repro_answers_total")
        assert sum(r["value"] for r in by_prov) == len(answers)
        names = {r["name"] for r in obs.span_records()}
        assert {"planner.execute", "wave"} <= names

    def test_disabled_session_records_nothing(self, grid4):
        session = Session(grid4)
        session.answer([DistanceQuery(0, 15)])
        assert obs.snapshot() == [] and obs.span_records() == []

    def test_publish_mirrors_cache_info(self, grid4):
        obs.enable()
        session = Session(grid4, delta=False)
        session.answer([DistanceQuery(0, 15, [(0, 1)])])
        session.cache_info().publish()
        records = obs.snapshot()
        maxsize, = _by_name(records, "repro_cache_maxsize")
        assert maxsize["value"] == float(session.cache_info().maxsize)
        backends = _by_name(records, "repro_cache_wave_backends")
        assert backends and all(r["labels"]["backend"]
                                for r in backends)

    def test_publish_is_noop_while_disabled(self, grid4):
        session = Session(grid4)
        session.answer([DistanceQuery(0, 15)])
        session.cache_info().publish()
        assert obs.snapshot() == []
