"""The telemetry wiring: engine, pipelines, and DREAM publish correctly.

These tests run against the process-wide default registry (the one the
instrumented modules hold references into), so every assertion is a
*delta* between before/after readings — other tests in the same process
may have moved the same counters.
"""

import sys
import threading
import time

import pytest

from repro.crc import BitwiseCRC, ETHERNET_CRC32, MPEG2_CRC32
from repro.dream import DreamSystem
from repro.engine import BatchCRC, CompileCache, CRCPipeline
from repro.telemetry import default_registry, default_tracer, instrumented
from repro.telemetry import MetricsRegistry, Tracer

REG = default_registry()


def _counter_value(name, **labels):
    family = REG.get(name)
    if family is None:
        return 0.0
    child = family.labels(**labels) if labels else family
    return child.value


def _hist_count(name, **labels):
    family = REG.get(name)
    if family is None:
        return 0
    child = family.labels(**labels) if labels else family
    return child.count


# ----------------------------------------------------------------------
# Compile cache
# ----------------------------------------------------------------------
class TestCompileCacheMetrics:
    def test_hits_and_misses_reach_the_registry(self):
        hits0 = _counter_value("engine_compile_cache_lookups_total", result="hit")
        miss0 = _counter_value("engine_compile_cache_lookups_total", result="miss")
        cache = CompileCache(capacity=8)
        BatchCRC(ETHERNET_CRC32, 16, cache=cache)  # cold: misses
        BatchCRC(ETHERNET_CRC32, 16, cache=cache)  # warm: hits
        hits1 = _counter_value("engine_compile_cache_lookups_total", result="hit")
        miss1 = _counter_value("engine_compile_cache_lookups_total", result="miss")
        assert hits1 - hits0 == cache.stats.hits
        assert miss1 - miss0 == cache.stats.misses
        assert cache.stats.hits > 0 and cache.stats.misses > 0

    def test_evictions_reach_the_registry(self):
        ev0 = _counter_value("engine_compile_cache_evictions_total")
        cache = CompileCache(capacity=1)
        BatchCRC(ETHERNET_CRC32, 8, cache=cache)
        BatchCRC(MPEG2_CRC32, 8, cache=cache)  # different spec: evicts
        ev1 = _counter_value("engine_compile_cache_evictions_total")
        assert ev1 - ev0 == cache.stats.evictions
        assert cache.stats.evictions > 0


class TestCacheStatsThreadSafety:
    def test_concurrent_recording_is_exact(self):
        """One cache driven from several threads counts every lookup once,
        and the registry reads the same counts: no update is lost and the
        two views cannot disagree."""
        hits0 = _counter_value("engine_compile_cache_lookups_total", result="hit")
        miss0 = _counter_value("engine_compile_cache_lookups_total", result="miss")
        ev0 = _counter_value("engine_compile_cache_evictions_total")
        cache = CompileCache(capacity=4)
        n, workers = 2000, 8

        def worker(w):
            for i in range(n):
                cache.get(("key", (w + i) % 6), object)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.lookups == n * workers
        assert stats.misses > 0 and stats.evictions > 0
        hits1 = _counter_value("engine_compile_cache_lookups_total", result="hit")
        miss1 = _counter_value("engine_compile_cache_lookups_total", result="miss")
        ev1 = _counter_value("engine_compile_cache_evictions_total")
        assert (hits1 - hits0, miss1 - miss0) == (stats.hits, stats.misses)
        assert ev1 - ev0 == stats.evictions

    def test_snapshot_and_repr(self):
        cache = CompileCache(capacity=4)
        cache.get("k", object)
        cache.get("k", object)
        stats = cache.stats
        assert stats.snapshot() == {"hits": 1, "misses": 1, "evictions": 0}
        assert repr(stats) == "CacheStats(hits=1, misses=1, evictions=0)"
        assert stats.hit_rate == pytest.approx(0.5)
        assert not hasattr(stats, "reset")  # a read-only view


# ----------------------------------------------------------------------
# Batch kernels
# ----------------------------------------------------------------------
class TestBatchKernelMetrics:
    def test_crc_batch_publishes_bits_and_throughput(self):
        kernel = "crc-sliced"
        calls0 = _counter_value("engine_batch_calls_total", kernel=kernel)
        bits0 = _counter_value("engine_batch_bits_total", kernel=kernel)
        tp0 = _hist_count("engine_batch_throughput_mbps", kernel=kernel)
        engine = BatchCRC(ETHERNET_CRC32, 32)
        messages = [bytes(range(64))] * 16
        crcs = engine.compute_batch(messages)
        assert crcs[0] == BitwiseCRC(ETHERNET_CRC32).compute(messages[0])
        assert _counter_value("engine_batch_calls_total", kernel=kernel) > calls0
        assert (
            _counter_value("engine_batch_bits_total", kernel=kernel) - bits0
            == 16 * 64 * 8
        )
        assert _hist_count("engine_batch_throughput_mbps", kernel=kernel) > tp0


# ----------------------------------------------------------------------
# Streaming pipelines
# ----------------------------------------------------------------------
class TestPipelineMetrics:
    def test_stream_accounting_api(self):
        """The satellite API: stream_count / pending_bits."""
        pipe = CRCPipeline(ETHERNET_CRC32, 32)
        assert pipe.stream_count == 0 and pipe.pending_bits() == 0
        a = pipe.open()
        b = pipe.open()
        assert pipe.stream_count == 2
        pipe.feed(a, bytes(5), pump=False)  # 40 = 32 + 8 tail
        pipe.feed(b, bytes(1), pump=False)
        assert pipe.pending_bits(a) == 40
        assert pipe.pending_bits(b) == 8
        assert pipe.pending_bits() == 48
        pipe.pump()  # drains one full block from a
        assert pipe.pending_bits(a) == 8
        assert pipe.pending_bits() == 16
        pipe.finalize(a)
        pipe.abort(b)
        assert pipe.stream_count == 0 and pipe.pending_bits() == 0

    def test_gauges_track_open_and_pending(self):
        streams0 = _counter_value("engine_pipeline_streams", kind="crc")
        pending0 = _counter_value("engine_pipeline_pending_bits", kind="crc")
        blocks0 = _counter_value("engine_pipeline_blocks_total", kind="crc")
        pipe = CRCPipeline(ETHERNET_CRC32, 32)
        sid = pipe.open()
        pipe.feed(sid, b"\xa5" * 7, pump=False)  # 56 bits
        assert _counter_value("engine_pipeline_streams", kind="crc") == streams0 + 1
        assert (
            _counter_value("engine_pipeline_pending_bits", kind="crc") == pending0 + 56
        )
        pipe.pump()  # one 32-bit block
        assert (
            _counter_value("engine_pipeline_pending_bits", kind="crc") == pending0 + 24
        )
        assert _counter_value("engine_pipeline_blocks_total", kind="crc") == blocks0 + 1
        pipe.finalize(sid)
        assert _counter_value("engine_pipeline_streams", kind="crc") == streams0
        assert _counter_value("engine_pipeline_pending_bits", kind="crc") == pending0

    def test_pipeline_result_matches_serial(self):
        pipe = CRCPipeline(ETHERNET_CRC32, 32)
        sid = pipe.open()
        pipe.feed(sid, b"123456789")
        assert pipe.finalize(sid) == 0xCBF43926

    def test_gauges_survive_telemetry_toggle_mid_stream(self):
        """Regression: disabling telemetry between feed and pump used to
        leave the pending-bits gauge permanently drifted, because the inc
        at feed time was never matched by a dec at pump time.  The
        reconciling publisher self-heals on the next mutation."""
        streams0 = _counter_value("engine_pipeline_streams", kind="crc")
        pending0 = _counter_value("engine_pipeline_pending_bits", kind="crc")
        pipe = CRCPipeline(ETHERNET_CRC32, 32)
        sid = pipe.open()
        pipe.feed(sid, b"\xff" * 7, pump=False)  # gauge now +56
        REG.disable()
        try:
            pipe.pump()  # consumes 32 bits while the registry is off
        finally:
            REG.enable()
        pipe.finalize(sid)  # next enabled mutation reconciles
        assert _counter_value("engine_pipeline_streams", kind="crc") == streams0
        assert _counter_value("engine_pipeline_pending_bits", kind="crc") == pending0

    def test_gauges_survive_disabled_feed(self):
        """The mirror-image toggle: bytes fed while the registry is off
        must not drive the gauge negative once telemetry comes back."""
        streams0 = _counter_value("engine_pipeline_streams", kind="crc")
        pending0 = _counter_value("engine_pipeline_pending_bits", kind="crc")
        pipe = CRCPipeline(ETHERNET_CRC32, 32)
        REG.disable()
        try:
            sid = pipe.open()
            pipe.feed(sid, b"\x55" * 7, pump=False)
        finally:
            REG.enable()
        pipe.feed(sid, b"\x0f", pump=False)  # reconciles: 1 stream, 64 bits
        assert _counter_value("engine_pipeline_streams", kind="crc") == streams0 + 1
        assert (
            _counter_value("engine_pipeline_pending_bits", kind="crc") == pending0 + 64
        )
        pipe.finalize(sid)
        assert _counter_value("engine_pipeline_streams", kind="crc") == streams0
        assert _counter_value("engine_pipeline_pending_bits", kind="crc") == pending0


# ----------------------------------------------------------------------
# DREAM spans and bridges
# ----------------------------------------------------------------------
class TestDreamTelemetry:
    def test_execute_crc_records_span_and_cycles(self):
        tracer = default_tracer()
        tracer.enable()
        tracer.clear()
        runs0 = _counter_value("dream_executed_runs_total", workload="crc-single")
        util_before = REG.get("picoga_pipeline_utilization")
        try:
            system = DreamSystem(cache=CompileCache(capacity=8))
            mapped = system.compile_crc(ETHERNET_CRC32, 16)
            crc, _ = system.execute_crc(mapped, b"123456789")
            assert crc == 0xCBF43926
            names = [r.name for r in tracer.roots()]
            assert "dream.compile_crc" in names
            assert "dream.execute_crc" in names
        finally:
            tracer.clear()
            tracer.disable()
        assert (
            _counter_value("dream_executed_runs_total", workload="crc-single")
            == runs0 + 1
        )
        util = REG.get("picoga_pipeline_utilization")
        assert util is not None
        assert any(0 < child.value <= 1 for _, child in util.samples())

    def test_spans_nest_under_an_outer_span(self):
        tracer = default_tracer()
        tracer.enable()
        tracer.clear()
        try:
            system = DreamSystem(cache=CompileCache(capacity=8))
            with tracer.span("outer"):
                mapped = system.compile_crc(ETHERNET_CRC32, 8)
                system.execute_crc(mapped, b"abc")
            roots = tracer.roots()
            assert [r.name for r in roots] == ["outer"]
            child_names = {c.name for c in roots[0].children}
            assert {"dream.compile_crc", "dream.execute_crc"} <= child_names
        finally:
            tracer.clear()
            tracer.disable()


# ----------------------------------------------------------------------
# Overhead gate
# ----------------------------------------------------------------------
class TestOverheadGate:
    def test_disabled_registry_under_5pct_on_batch_micro_run(self):
        """The issue's gate: a disabled registry adds <5% to a batch-bench
        micro-run.  Min-of-repeats on both sides plus a small absolute
        slack keeps the comparison robust on noisy CI machines."""
        engine = BatchCRC(ETHERNET_CRC32, 32)
        messages = [bytes(range(64))] * 64
        engine.compute_batch(messages)  # warm-up

        def best_of(repeats=7):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                engine.compute_batch(messages)
                best = min(best, time.perf_counter() - t0)
            return best

        was_enabled = REG.enabled
        try:
            REG.enable()
            t_on = best_of()
            REG.disable()
            t_off = best_of()
        finally:
            REG.set_enabled(was_enabled)
        # The disabled path does strictly less work, so it should never be
        # meaningfully slower than the enabled path.
        assert t_off <= t_on * 1.05 or (t_off - t_on) < 250e-6, (
            f"disabled {t_off * 1e6:.0f}us vs enabled {t_on * 1e6:.0f}us"
        )

    def test_decorator_short_circuit_is_cheap(self):
        reg = MetricsRegistry(enabled=False)
        tr = Tracer(enabled=False)

        @instrumented(name="noop", registry=reg, tracer=tr)
        def noop():
            return None

        noop()  # warm-up
        n = 20000
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 10e-6, f"{per_call * 1e9:.0f}ns per disabled call"
