"""Unit contract of :mod:`repro.telemetry` — registry, spans, exporters.

Uses private :class:`MetricsRegistry`/:class:`Tracer` instances throughout
so the process-wide defaults (shared with the instrumented engine code)
are never perturbed.
"""

import json
import threading

import pytest

from repro.telemetry import (
    BenchReport,
    MetricsRegistry,
    Tracer,
    format_span_tree,
    instrumented,
    parse_json_lines,
    record_activity_report,
    record_burst_utilization,
    render_prometheus,
    to_json_lines,
)
from repro.telemetry.registry import OVERFLOW_LABEL


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "requests")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x_total").inc(-1)

    def test_disabled_registry_is_a_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x_total")
        c.inc(100)
        assert c.value == 0
        reg.enable()
        c.inc()
        assert c.value == 1

    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")

        def worker():
            for _ in range(2000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 16000


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("open_streams")
        g.set(5)
        g.inc(3)
        g.dec(2)
        assert g.value == 6


class TestLabels:
    def test_children_are_distinct_series(self):
        reg = MetricsRegistry()
        fam = reg.counter("lookups_total", labels=("result",))
        fam.labels(result="hit").inc(3)
        fam.labels(result="miss").inc()
        assert fam.labels(result="hit").value == 3
        assert fam.labels(result="miss").value == 1

    def test_same_label_set_is_same_child(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_total", labels=("a", "b"))
        assert fam.labels(a="1", b="2") is fam.labels(b="2", a="1")

    def test_wrong_label_names_rejected(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_total", labels=("a",))
        with pytest.raises(ValueError):
            fam.labels(b="1")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_reregistration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")

    def test_cardinality_bound_collapses_to_overflow(self):
        reg = MetricsRegistry(max_label_sets=4)
        fam = reg.counter("x_total", labels=("id",))
        for i in range(10):
            fam.labels(id=str(i)).inc()
        samples = fam.samples()
        assert len(samples) == 5  # 4 real children + the shared overflow child
        assert fam.dropped_label_sets == 6
        overflow = [s for labels, s in samples if labels["id"] == OVERFLOW_LABEL]
        assert len(overflow) == 1 and overflow[0].value == 6
        # Bounded: further unseen labels keep landing on the same child.
        fam.labels(id="zzz").inc()
        assert len(fam.samples()) == 5


class TestHistogram:
    def test_bucket_edges_use_le_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)   # exactly on an edge -> that edge's bucket
        h.observe(0.5)   # below first edge -> first bucket
        h.observe(2.0)   # exactly on second edge
        h.observe(3.0)   # between 2 and 5
        h.observe(99.0)  # above the last edge -> +Inf bucket
        assert h.bucket_counts() == [2, 1, 1, 1]
        assert h.count == 5
        assert h.total == pytest.approx(105.5)
        assert h.cumulative() == [(1.0, 2), (2.0, 3), (5.0, 4), (float("inf"), 5)]

    def test_unsorted_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(2.0, 1.0))

    def test_disabled_observe_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        h = reg.histogram("h", buckets=(1.0,))
        h.observe(0.5)
        assert h.count == 0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_by_default_yields_none(self):
        tr = Tracer()
        with tr.span("x") as sp:
            assert sp is None
        assert tr.roots() == []

    def test_span_nesting(self):
        tr = Tracer(enabled=True)
        with tr.span("outer", kind="root"):
            with tr.span("inner-1"):
                with tr.span("leaf"):
                    pass
            with tr.span("inner-2"):
                pass
        roots = tr.roots()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
        assert [c.name for c in outer.children[0].children] == ["leaf"]
        assert outer.attributes == {"kind": "root"}
        # Wall-clock sanity: a parent covers its children.
        assert outer.duration >= outer.children[0].duration
        assert tr.span_count == 4

    def test_buffer_bound_drops_excess(self):
        tr = Tracer(max_spans=3, max_roots=100, enabled=True)
        for i in range(5):
            with tr.span(f"s{i}"):
                pass
        assert tr.span_count == 3
        assert tr.dropped == 2

    def test_root_bound_evicts_oldest(self):
        tr = Tracer(max_spans=1000, max_roots=2, enabled=True)
        for i in range(4):
            with tr.span(f"s{i}"):
                pass
        assert [r.name for r in tr.roots()] == ["s2", "s3"]

    def test_format_tree(self):
        tr = Tracer(enabled=True)
        with tr.span("parent", M=32):
            with tr.span("child"):
                pass
        text = format_span_tree(tr.roots())
        lines = text.splitlines()
        assert lines[0].startswith("parent") and "M=32" in lines[0]
        assert lines[1].startswith("  child")
        assert format_span_tree([]) == "(no spans recorded)"

    def test_clear(self):
        tr = Tracer(enabled=True)
        with tr.span("x"):
            pass
        tr.clear()
        assert tr.roots() == [] and tr.span_count == 0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("hits_total", "hits", labels=("result",)).labels(result="hit").inc(7)
    reg.gauge("open_streams", "streams").set(3)
    h = reg.histogram("latency_seconds", "latency", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    reg.counter("untouched_total", "registered but never incremented")
    return reg


class TestJsonLines:
    def test_round_trip_is_exact(self):
        reg = _populated_registry()
        restored = parse_json_lines(to_json_lines(reg))
        assert restored.snapshot() == reg.snapshot()

    def test_lines_are_individually_parseable(self):
        for line in to_json_lines(_populated_registry()).strip().splitlines():
            json.loads(line)

    def test_schema_header_checked(self):
        with pytest.raises(ValueError):
            parse_json_lines('{"schema": "other/9"}\n')


class TestPrometheus:
    def test_exposition_format(self):
        text = render_prometheus(_populated_registry())
        assert '# TYPE hits_total counter' in text
        assert 'hits_total{result="hit"} 7' in text
        assert '# TYPE open_streams gauge' in text
        assert 'open_streams 3' in text
        assert '# TYPE latency_seconds histogram' in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert 'latency_seconds_count 3' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("p",)).labels(p='a"b\\c\nd').inc()
        text = render_prometheus(reg)
        assert r'x_total{p="a\"b\\c\nd"} 1' in text

    def test_untouched_label_less_series_export_zero(self):
        """A scrape tells zero from missing: a label-less counter or gauge
        exports 0 from registration, a labelled family no child."""
        reg = MetricsRegistry()
        reg.counter("evictions_total", "never bumped")
        reg.gauge("depth", "never set")
        reg.counter("hits_total", labels=("result",))
        snap = reg.snapshot()
        assert snap["evictions_total"]["samples"] == [{"labels": {}, "value": 0.0}]
        assert snap["depth"]["samples"] == [{"labels": {}, "value": 0.0}]
        assert snap["hits_total"]["samples"] == []
        lines = render_prometheus(reg).splitlines()
        assert "evictions_total 0" in lines
        assert "depth 0" in lines
        assert not any(line.startswith("hits_total") for line in lines)


class TestBenchReport:
    def test_write_and_load(self, tmp_path):
        report = BenchReport(
            name="demo",
            title="demo bench",
            params={"M": 32},
            metrics={"rate": 123.4},
            series={"curve": {"128": 1.0, "256": 2.0}},
        )
        path = report.write(tmp_path)
        assert path == tmp_path / "demo.json"
        data = json.loads(path.read_text())
        assert data["schema"] == "repro-bench/1"
        assert data["created_unix"] > 0
        assert data["environment"]["python"]
        loaded = BenchReport.load(path)
        assert loaded == report

    def test_load_rejects_other_schemas(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope/1", "name": "bad"}')
        with pytest.raises(ValueError):
            BenchReport.load(path)


# ----------------------------------------------------------------------
# Instrumentation hooks
# ----------------------------------------------------------------------
class TestInstrumented:
    def test_counts_times_and_traces(self):
        reg = MetricsRegistry()
        tr = Tracer(enabled=True)

        @instrumented(name="work", registry=reg, tracer=tr)
        def work(x):
            return x + 1

        assert work(1) == 2
        assert work(2) == 3
        assert reg.get("work_calls_total").value == 2
        assert reg.get("work_seconds").count == 2
        assert [r.name for r in tr.roots()] == ["work", "work"]

    def test_fully_disabled_short_circuits(self):
        reg = MetricsRegistry(enabled=False)
        tr = Tracer(enabled=False)

        @instrumented(name="work", registry=reg, tracer=tr)
        def work():
            return 42

        assert work() == 42
        assert reg.get("work_calls_total").value == 0
        assert tr.roots() == []


class TestBridges:
    def test_burst_utilization_matches_trace(self):
        from repro.picoga.trace import trace_burst
        from repro.mapping import map_crc
        from repro.crc import ETHERNET_CRC32

        reg = MetricsRegistry()
        op = map_crc(ETHERNET_CRC32, 8).update_op
        trace = trace_burst(op, 6)
        record_burst_utilization(
            op.name, op.n_rows, op.initiation_interval, 6, registry=reg
        )
        gauge = reg.get("picoga_pipeline_utilization").labels(op=op.name)
        assert gauge.value == pytest.approx(trace.utilization())
        assert reg.get("picoga_blocks_issued_total").labels(op=op.name).value == 6
        assert reg.get("picoga_burst_cycles_total").labels(op=op.name).value == trace.cycles

    def test_activity_report_bridge(self):
        from repro.picoga.activity import ActivityReport

        reg = MetricsRegistry()
        report = ActivityReport(
            blocks=4, cell_evaluations=100, cell_toggles=40, output_toggles=10
        )
        record_activity_report("op1", report, registry=reg)
        assert reg.get("picoga_cell_toggles_total").labels(op="op1").value == 40
        assert reg.get("picoga_activity_factor").labels(op="op1").value == pytest.approx(0.4)


# ----------------------------------------------------------------------
# v2: lazy family binding
# ----------------------------------------------------------------------
class TestLazyFamilyBinding:
    def test_swapped_default_registry_is_observed(self):
        """Satellite regression: module-level families must not pin the
        import-time default registry (fixed via ``bind_families``)."""
        from repro.telemetry import bind_families, set_default_registry

        families = bind_families(lambda reg: {"c": reg.counter("lazy_total")})
        first = families()["c"]
        replacement = MetricsRegistry()
        previous = set_default_registry(replacement)
        try:
            second = families()["c"]
            assert second is not first
            second.inc(3)
            assert replacement.get("lazy_total").value == 3
        finally:
            set_default_registry(previous)
        assert families()["c"] is first

    def test_engine_modules_follow_a_registry_swap(self):
        """The fixed capture sites (batch/cache/...) publish into a
        registry swapped in *after* import."""
        from repro.crc import ETHERNET_CRC32
        from repro.engine.batch import BatchCRC
        from repro.telemetry import set_default_registry

        from repro.engine.batch import BatchAdditiveScrambler
        from repro.scrambler import IEEE80216E

        replacement = MetricsRegistry()
        previous = set_default_registry(replacement)
        try:
            engine = BatchCRC(ETHERNET_CRC32, 8)
            engine.compute_batch([b"123456789"])
            assert replacement.get("engine_batch_calls_total").labels(
                kernel="crc-sliced"
            ).value >= 1
            BatchAdditiveScrambler(IEEE80216E, 8).scramble_batch([b"\x05"])
            assert replacement.get("engine_batch_calls_total").labels(
                kernel="scrambler-additive"
            ).value >= 1
        finally:
            set_default_registry(previous)

    def test_set_default_registry_type_checked(self):
        from repro.telemetry import set_default_registry

        with pytest.raises(TypeError):
            set_default_registry("not a registry")


# ----------------------------------------------------------------------
# Tracing v2: ids, serialization, detached capture
# ----------------------------------------------------------------------
class TestSpanIds:
    def test_children_share_trace_id(self):
        tr = Tracer(enabled=True)
        with tr.span("parent") as parent:
            with tr.span("child") as child:
                pass
        assert parent.trace_id and parent.span_id
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_to_dict_from_dict_round_trip(self):
        from repro.telemetry import Span

        tr = Tracer(enabled=True)
        with tr.span("outer", key="v") as outer:
            with tr.span("inner"):
                pass
        (root,) = tr.roots()
        clone = Span.from_dict(root.to_dict())
        assert clone.to_dict() == root.to_dict()
        assert clone.children[0].name == "inner"

    def test_capture_is_detached(self):
        tr = Tracer(enabled=True)
        with tr.capture("shard", trace_id="t1", parent_id="p1", worker="3") as span:
            pass
        assert tr.roots() == []  # detached: never recorded as a root
        assert span.trace_id == "t1" and span.parent_id == "p1"
        assert span.attributes["worker"] == "3"


class TestFlightRecorder:
    def test_ring_bounds_and_sequencing(self):
        from repro.telemetry import FlightRecorder

        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record("tick", f"event {i}")
        events = rec.events()
        assert [e["seq"] for e in events] == [3, 4, 5]
        assert events[-1]["message"] == "event 4"

    def test_disabled_is_noop(self):
        from repro.telemetry import FlightRecorder

        rec = FlightRecorder(enabled=False)
        rec.record("tick")
        assert rec.events() == []

    def test_save_load_round_trip(self, tmp_path):
        from repro.telemetry import FlightRecorder

        rec = FlightRecorder()
        rec.record("plan", "chose shard-batch", strategy="shard-batch")
        path = rec.save(tmp_path / "ring.jsonl")
        events = FlightRecorder.load(path)
        assert len(events) == 1
        assert events[0]["kind"] == "plan"
        assert events[0]["attrs"]["strategy"] == "shard-batch"

    def test_format_events(self):
        from repro.telemetry import FlightRecorder, format_events

        rec = FlightRecorder()
        assert format_events(rec.events()) == "(no events recorded)"
        rec.record("dispatch", "2 shard(s)", worker="w0", n=2)
        text = format_events(rec.events())
        assert "dispatch" in text and "worker=w0" in text and "n=2" in text

    def test_attach_flight_dump_names_worker(self):
        from repro.errors import StreamError
        from repro.telemetry import (
            FlightRecorder,
            attach_flight_dump,
            set_default_flight_recorder,
        )

        rec = FlightRecorder()
        previous = set_default_flight_recorder(rec)
        try:
            rec.record("x", worker="w3")
            exc = StreamError("shard failed")
            attach_flight_dump(exc, worker="w3")
        finally:
            set_default_flight_recorder(previous)
        dump = exc.context["flight_recorder"]
        assert dump["worker"] == "w3"
        assert dump["events"][0]["kind"] == "x"


# ----------------------------------------------------------------------
# Exporters v2: span records, chrome traces
# ----------------------------------------------------------------------
class TestSpanExport:
    def test_spans_embedded_and_parsed(self):
        from repro.telemetry import parse_spans

        tr = Tracer(enabled=True)
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        text = to_json_lines(MetricsRegistry(), tracer=tr)
        (root,) = parse_spans(text)
        assert root.name == "outer"
        assert root.children[0].name == "inner"
        # Metric parsing skips span records without complaint.
        assert parse_json_lines(text).snapshot() == {}

    def test_v1_snapshots_still_accepted(self):
        text = '{"schema": "repro-telemetry/1"}\n'
        assert parse_json_lines(text).snapshot() == {}

    def test_prometheus_renders_worker_extended_labels(self):
        worker = MetricsRegistry()
        worker.counter("ops_total", labels=("op",)).labels(op="m").inc(2)
        snap = worker.snapshot()
        snap["ops_total"]["samples"][0]["labels"]["worker"] = "5"
        reg = MetricsRegistry()
        reg.restore(snap)  # a sample may extend the declared label names
        text = render_prometheus(reg)
        assert 'ops_total{op="m",worker="5"} 2' in text

    def test_escaping_edge_cases_round_trip(self):
        reg = MetricsRegistry()
        fam = reg.counter("edge_total", labels=("v",))
        for value in ('"', "\\", "\n", '\\"', 'a\\n"b'):
            fam.labels(v=value).inc()
        restored = parse_json_lines(to_json_lines(reg))
        assert restored.snapshot() == reg.snapshot()
        text = render_prometheus(reg)
        assert r'edge_total{v="\""}' in text
        assert r'edge_total{v="\\"}' in text
        assert r'edge_total{v="\n"}' in text


class TestChromeTrace:
    def test_schema_and_worker_lanes(self):
        from repro.telemetry import spans_to_chrome

        tr = Tracer(enabled=True)
        with tr.span("dispatch") as parent:
            with tr.capture("shard", trace_id=parent.trace_id,
                            parent_id=parent.span_id, worker="11") as shard:
                pass
            parent.children.append(shard)
        doc = spans_to_chrome(tr.roots())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in xs} == {"dispatch", "shard"}
        by_name = {e["name"]: e for e in xs}
        assert by_name["dispatch"]["tid"] == 0
        assert by_name["shard"]["tid"] == 1
        lane_names = {e["tid"]: e["args"]["name"] for e in metas}
        assert lane_names[0] == "main" and lane_names[1] == "worker 11"
        for e in xs:
            assert e["pid"] == 1 and e["ts"] >= 0 and e["dur"] >= 0

    def test_render_is_valid_json(self):
        from repro.telemetry import render_chrome_trace

        tr = Tracer(enabled=True)
        with tr.span("root"):
            pass
        doc = json.loads(render_chrome_trace(tr))
        assert "traceEvents" in doc


class TestFlightRecorderClock:
    """Satellite regression: event times derive from one monotonic clock.

    A wall-clock step (NTP slew, manual adjustment) mid-run must never
    reorder the ring: ``ts`` is derived from ``time.monotonic`` against
    a single anchor captured at construction, and a dump carries exactly
    one wall-clock reference line.
    """

    def test_backwards_wall_clock_cannot_reorder_events(self, monkeypatch):
        import time as time_module

        from repro.telemetry import FlightRecorder

        rec = FlightRecorder()
        # The wall clock jumps backwards an hour between events; the
        # recorder must not consult it again after construction.
        walls = iter([2_000_000_000.0, 1_999_996_400.0, 1_999_992_800.0])
        monkeypatch.setattr(time_module, "time", lambda: next(walls))
        rec.record("first")
        rec.record("second")
        rec.record("third")
        events = rec.events()
        ts = [e["ts"] for e in events]
        ts_mono = [e["ts_mono"] for e in events]
        assert ts == sorted(ts)
        assert ts_mono == sorted(ts_mono)
        # Derived wall deltas track the monotonic deltas (to float64
        # resolution at unix-epoch magnitude, ~0.25us).
        for (a, b) in zip(events, events[1:]):
            assert b["ts"] - a["ts"] == pytest.approx(
                b["ts_mono"] - a["ts_mono"], abs=1e-5
            )

    def test_anchor_is_captured_once_at_construction(self):
        from repro.telemetry import FlightRecorder

        rec = FlightRecorder()
        anchor = rec.anchor
        rec.record("tick")
        rec.record("tock")
        assert rec.anchor == anchor  # never re-read
        event = rec.events()[0]
        assert event["ts"] == pytest.approx(
            anchor["wall_unix"] + (event["ts_mono"] - anchor["monotonic"])
        )

    def test_dump_carries_one_anchor_line(self, tmp_path):
        import json as json_module

        from repro.telemetry import FlightRecorder

        rec = FlightRecorder()
        rec.record("plan", "chose shard-batch")
        rec.record("dispatch")
        path = rec.save(tmp_path / "ring.jsonl")
        lines = [json_module.loads(l) for l in path.read_text().splitlines()]
        anchor_lines = [l for l in lines if "anchor" in l and "seq" not in l]
        assert len(anchor_lines) == 1
        assert lines[0] is not None and "anchor" in lines[0]  # first line

        anchor = FlightRecorder.load_anchor(path)
        assert anchor == {k: pytest.approx(v) for k, v in rec.anchor.items()}
        events = FlightRecorder.load(path)
        assert [e["kind"] for e in events] == ["plan", "dispatch"]

    def test_legacy_dump_without_anchor_loads(self, tmp_path):
        import json as json_module

        from repro.telemetry import FlightRecorder

        path = tmp_path / "legacy.jsonl"
        path.write_text(json_module.dumps(
            {"seq": 1, "ts": 123.0, "kind": "old", "message": "",
             "worker": "", "attrs": {}}
        ) + "\n")
        assert FlightRecorder.load_anchor(path) is None
        events = FlightRecorder.load(path)
        assert [e["kind"] for e in events] == ["old"]

    def test_snapshot_header_orders_across_wall_steps(self):
        from repro.telemetry import MetricsRegistry, to_json_lines

        registry = MetricsRegistry()
        first = json.loads(to_json_lines(registry).splitlines()[0])
        second = json.loads(to_json_lines(registry).splitlines()[0])
        assert "generated_monotonic" in first
        # Monotonic stamps order successive snapshots even if the wall
        # clock were to step backwards between the two writes.
        assert second["generated_monotonic"] >= first["generated_monotonic"]
