"""Telemetry across a sharded run — the pool's observability contract.

Drives real thread pools and asserts the contract end to end:

* a planned batch CRC run (``Planner.plan`` feeding
  ``ParallelBatchCRC(plan=)``) on a thread-sharded plan produces ONE
  span tree — ``planner.plan`` through ``pool.dispatch`` down to
  per-shard ``worker.shard`` spans labeled with their worker thread;
* the per-phase histograms see compile, dispatch and shard execution;
* the span tree exports as schema-valid Chrome trace-event JSON;
* a crashing shard raises :class:`~repro.errors.StreamError` carrying a
  flight-recorder dump that names the failed worker and its last events.

Uses the deterministic ``desktop-4cpu`` measured host profile from
``conftest.py`` so the planner reliably chooses a four-way thread plan
regardless of the machine running the tests.
"""

import pytest

from repro.crc import get as get_crc
from repro.engine.parallel import ParallelBatchCRC, WorkerPool
from repro.engine.planner import Planner, WorkloadDescriptor
from repro.errors import StreamError
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    set_default_flight_recorder,
    set_default_registry,
    set_default_tracer,
    spans_to_chrome,
)


def _boom(x):
    """Shard function that always fails."""
    raise RuntimeError(f"kaboom {x}")


def _echo(x):
    """Identity shard function."""
    return x


@pytest.fixture
def fresh_defaults():
    """Swap in fresh default registry/tracer/recorder; restore after."""
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True)
    recorder = FlightRecorder()
    prev_reg = set_default_registry(registry)
    prev_tr = set_default_tracer(tracer)
    prev_rec = set_default_flight_recorder(recorder)
    yield registry, tracer, recorder
    set_default_registry(prev_reg)
    set_default_tracer(prev_tr)
    set_default_flight_recorder(prev_rec)


def _run_auto_batch(host_profiles, tracer):
    """One planner-chosen thread-sharded batch CRC run under an outer span."""
    planner = Planner(host_profiles["desktop-4cpu"])
    workload = WorkloadDescriptor(
        kind="crc-batch", standard="CRC-32", message_bits=1 << 17, batch=64
    )
    with tracer.span("run"):
        plan = planner.plan(workload)
        engine = ParallelBatchCRC(get_crc("CRC-32"), plan.M, plan=plan)
        assert engine.plan.mode == "thread" and engine.workers >= 2
        messages = [bytes([i % 256] * 128) for i in range(8)]
        results = engine.compute_batch(messages)
    engine.close()
    return engine, results


def _find(span, name):
    """Depth-first search for the first span with the given name."""
    if span.name == name:
        return span
    for child in span.children:
        found = _find(child, name)
        if found is not None:
            return found
    return None


class TestDistributedSpanTree:
    def test_auto_batch_crc_produces_one_merged_tree(
        self, fresh_defaults, host_profiles
    ):
        registry, tracer, recorder = fresh_defaults
        engine, results = _run_auto_batch(host_profiles, tracer)

        from repro.engine.batch import BatchCRC

        serial = BatchCRC(engine.spec, engine.M)
        assert results == serial.compute_batch(
            [bytes([i % 256] * 128) for i in range(8)]
        )

        (root,) = tracer.roots()  # ONE tree under the outer span
        plan_span = _find(root, "planner.plan")
        dispatch = _find(root, "pool.dispatch")
        assert plan_span is not None and dispatch is not None

        shards = [c for c in dispatch.children if c.name == "worker.shard"]
        assert len(shards) == engine.workers >= 2
        assert sorted(s.attributes["shard"] for s in shards) == list(
            range(engine.workers)
        )
        for shard in shards:
            assert shard.attributes["worker"].startswith("repro-shard")
            assert shard.trace_id == dispatch.trace_id
            assert shard.parent_id == dispatch.span_id

    def test_phase_histograms_populated(self, fresh_defaults, host_profiles):
        registry, tracer, recorder = fresh_defaults
        _run_auto_batch(host_profiles, tracer)
        samples = registry.snapshot()["engine_phase_seconds"]["samples"]
        phases = {s["labels"]["phase"] for s in samples if s["count"] > 0}
        assert {"compile", "dispatch", "shard-execute"} <= phases

    def test_chrome_export_is_schema_valid(self, fresh_defaults, host_profiles):
        registry, tracer, recorder = fresh_defaults
        _run_auto_batch(host_profiles, tracer)
        doc = spans_to_chrome(tracer.roots())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        for event in xs:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0
        # One lane per worker thread plus the parent lane, all labeled.
        lanes = {e["tid"] for e in xs}
        labeled = {e["tid"] for e in metas}
        assert lanes <= labeled
        shard_lanes = {
            e["tid"] for e in xs if e["name"] == "worker.shard"
        }
        assert shard_lanes and 0 not in shard_lanes

    def test_flight_recorder_saw_plan_and_dispatch(
        self, fresh_defaults, host_profiles
    ):
        registry, tracer, recorder = fresh_defaults
        _run_auto_batch(host_profiles, tracer)
        kinds = {e["kind"] for e in recorder.events()}
        assert {"plan", "dispatch"} <= kinds


class TestSharedDefaults:
    def test_thread_pool_does_not_double_count(self, fresh_defaults):
        """Shards publish straight into the shared registry: no per-worker
        copies, no merged duplicates."""
        registry, tracer, recorder = fresh_defaults
        counter = registry.counter("thread_work_total")

        def work(x):
            counter.inc()
            return x

        with WorkerPool(2) as pool:
            assert sorted(pool.run(work, [(i,) for i in range(4)])) == [0, 1, 2, 3]
        assert registry.get("thread_work_total").value == 4
        samples = registry.snapshot()["thread_work_total"]["samples"]
        assert all("worker" not in s.get("labels", {}) for s in samples)


class TestCrashContainment:
    def test_thread_crash_dump_names_worker(self, fresh_defaults):
        registry, tracer, recorder = fresh_defaults
        with WorkerPool(2) as pool:
            with pytest.raises(StreamError) as excinfo:
                pool.run(_boom, [(1,), (2,)])
        exc = excinfo.value
        dump = exc.context["flight_recorder"]
        assert dump["worker"].startswith("repro-shard")
        assert dump["worker"] in str(exc)
        crash_events = [
            e for e in dump["events"] if e["kind"] == "worker-crash"
        ]
        assert crash_events and "kaboom" in crash_events[-1]["message"]
        assert isinstance(exc.__cause__, RuntimeError)

    def test_crashed_shard_span_is_grafted_with_its_error(self, fresh_defaults):
        registry, tracer, recorder = fresh_defaults
        with WorkerPool(2) as pool:
            with pytest.raises(StreamError):
                pool.run(_boom, [(1,)])
        (dispatch,) = tracer.roots()
        (shard,) = dispatch.children
        assert shard.name == "worker.shard"
        assert "kaboom" in shard.attributes["error"]

    def test_healthy_run_attaches_nothing(self, fresh_defaults):
        registry, tracer, recorder = fresh_defaults
        with WorkerPool(2) as pool:
            assert sorted(pool.run(_echo, [(i,) for i in range(3)])) == [0, 1, 2]
        assert not [e for e in recorder.events() if e["kind"] == "worker-crash"]


class TestDisabledTelemetryFastPath:
    def test_all_off_runs_raw_functions(self):
        """With registry, tracer and recorder all disabled the pool submits
        the raw shard function — no wrapper, no spans, no events."""
        registry = MetricsRegistry(enabled=False)
        tracer = Tracer(enabled=False)
        recorder = FlightRecorder(enabled=False)
        prev_reg = set_default_registry(registry)
        prev_tr = set_default_tracer(tracer)
        prev_rec = set_default_flight_recorder(recorder)
        try:
            with WorkerPool(2) as pool:
                assert sorted(pool.run(_echo, [(i,) for i in range(4)])) == [0, 1, 2, 3]
            assert registry.snapshot() == {}
            assert tracer.roots() == []
            assert recorder.events() == []
        finally:
            set_default_registry(prev_reg)
            set_default_tracer(prev_tr)
            set_default_flight_recorder(prev_rec)
