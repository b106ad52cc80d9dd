"""Values read where they live: the registry pulls, owners never push.

A pipeline's open streams and block counts, a server's request counts,
a compile cache's resident entries and a worker pool's slots each live
once, in the object that owns them.  The registry reads them whenever
it is read (snapshot, Prometheus, JSON lines), so:

* a stream's open → feed → pump → finalize makes no registry call;
* the ``serve_*`` families equal the stats verb's counts, whatever the
  registry's switch did during the session;
* the pool gauges stay exact across registry toggles;
* a client's verb never becomes a label value of its own;
* a counter does not drop when its owner is garbage-collected.
"""

import asyncio
import gc
import threading
import time
import weakref

import pytest

from repro.crc import BitwiseCRC, ETHERNET_CRC32
from repro.engine import CRCPipeline, ScramblerPipeline
from repro.engine.parallel import WorkerPool
from repro.errors import StreamError
from repro.scrambler import IEEE80216E
from repro.serve import ReproServer, ServeClient
from repro.serve.protocol import read_frame, write_frame
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Owners,
    read_json_lines,
    render_prometheus,
    set_default_registry,
    write_json_lines,
)


class CountingRegistry(MetricsRegistry):
    """A registry that notes every ``enabled`` read made on it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    @property
    def enabled(self):
        self.calls.append("enabled")
        return self._enabled


@pytest.fixture
def registry():
    """A fresh default registry, swapped in before anything is built."""
    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    yield fresh
    set_default_registry(previous)


@pytest.fixture
def counting(monkeypatch):
    """A fresh default registry that records every registry call."""
    fresh = CountingRegistry()
    spied = {
        Counter: ("inc",),
        Gauge: ("inc", "dec", "set"),
        Histogram: ("observe",),
        MetricFamily: ("labels", "sample"),
    }
    for cls, names in spied.items():
        for name in names:
            def spy(self, *args, _original=getattr(cls, name),
                    _name=f"{cls.__name__}.{name}", **kwargs):
                fresh.calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, spy)
    previous = set_default_registry(fresh)
    yield fresh
    set_default_registry(previous)


def _samples(registry, name, label):
    """``{label value: value}`` of one family, read from a snapshot."""
    return {
        sample["labels"].get(label): sample["value"]
        for sample in registry.snapshot()[name]["samples"]
    }


def _value(registry, name):
    return registry.snapshot()[name]["samples"][0]["value"]


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Registry: bound series and Owners
# ----------------------------------------------------------------------
class TestBoundSeries:
    def test_bound_series_reach_every_export(self, tmp_path):
        reg = MetricsRegistry()
        box = {"live": 3}
        reg.gauge("things_live", "Things alive").bind(lambda: box["live"])
        reg.counter("things_total", "Things made", labels=("kind",)).labels(
            kind="a"
        ).bind(lambda: 7)
        box["live"] = 5
        snap = reg.snapshot()
        assert snap["things_live"]["samples"] == [{"labels": {}, "value": 5.0}]
        assert snap["things_total"]["samples"] == [
            {"labels": {"kind": "a"}, "value": 7.0}
        ]
        text = render_prometheus(reg)
        assert "things_live 5\n" in text
        assert 'things_total{kind="a"} 7\n' in text
        path = write_json_lines(reg, tmp_path / "snap.jsonl")
        assert read_json_lines(path).snapshot() == snap

    def test_bound_series_ignore_the_switch(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("things_live")
        gauge.bind(lambda: 4)
        reg.disable()
        assert gauge.value == 4

    def test_owners_keep_what_collected_objects_counted(self):
        class Owner:
            def __init__(self, n):
                self.n = n
                self.counts = {"made": n}

        owners = Owners()
        kept = [Owner(n) for n in (1, 2)]
        for owner in kept:
            owners.add(owner, owner.counts)
        dropped = [Owner(10) for _ in range(40)]  # past the first fold
        for owner in dropped:
            owners.add(owner, owner.counts)
        assert owners.sum(lambda o: o.n) == 3 + 400
        del dropped, owner
        gc.collect()
        assert owners.sum(lambda o: o.n) == 3
        assert owners.total("made") == 403
        kept[0].counts["made"] += 5
        owners.add(Owner(0), {"made": 0})
        assert owners.total("made") == 408


# ----------------------------------------------------------------------
# Pipelines: no registry call per stream operation
# ----------------------------------------------------------------------
class TestPipelinesMakeNoRegistryCall:
    def test_crc_stream_round_trip(self, counting):
        pipe = CRCPipeline(ETHERNET_CRC32, 32)
        message = bytes(range(80))
        oracle = BitwiseCRC(ETHERNET_CRC32)
        counting.calls.clear()
        sid = pipe.open()
        pipe.feed(sid, message, pump=False)
        pipe.feed(sid, b"\x05")
        pipe.pump()
        digest = pipe.finalize(sid)
        second = pipe.open()
        pipe.feed(second, message)
        both = pipe.finalize_many([second])
        pipe.abort(pipe.open())
        assert counting.calls == []
        assert digest == oracle.compute(message + b"\x05")
        assert both == [oracle.compute(message)]
        # ...and the registry still reads what the pipeline did.
        assert _samples(counting, "engine_pipeline_blocks_total", "kind")["crc"] == 40
        assert _samples(counting, "engine_pipeline_pumps_total", "kind")["crc"] == 5
        assert _samples(counting, "engine_pipeline_streams", "kind")["crc"] == 0

    def test_scrambler_feed(self, counting):
        pipe = ScramblerPipeline(IEEE80216E, 16)
        sid = pipe.open()
        counting.calls.clear()
        out = pipe.feed(sid, b"\x55" * 13)  # 104 bits: 7 blocks of 16
        assert counting.calls == []
        assert len(out) == 13
        blocks = _samples(counting, "engine_pipeline_blocks_total", "kind")
        assert blocks["scrambler"] == 7
        assert _samples(counting, "engine_pipeline_streams", "kind")["scrambler"] == 1

    def test_blocks_total_survives_its_pipeline(self, registry):
        pipe = CRCPipeline(ETHERNET_CRC32, 32)
        sid = pipe.open()
        pipe.feed(sid, bytes(64))
        pipe.open()  # left open: the gauge drops with the pipeline
        pipe.finalize(sid)
        assert _samples(registry, "engine_pipeline_blocks_total", "kind")["crc"] == 16
        assert _samples(registry, "engine_pipeline_streams", "kind")["crc"] == 1
        ref = weakref.ref(pipe)
        del pipe
        gc.collect()
        assert ref() is None
        assert _samples(registry, "engine_pipeline_blocks_total", "kind")["crc"] == 16
        assert _samples(registry, "engine_pipeline_streams", "kind")["crc"] == 0

    def test_swapping_a_registry_out_and_back_keeps_its_counts(self, registry):
        pipe = CRCPipeline(ETHERNET_CRC32, 32)
        sid = pipe.open()
        pipe.feed(sid, bytes(64))
        other = set_default_registry(MetricsRegistry())
        CRCPipeline(ETHERNET_CRC32, 32)  # built under the other registry
        set_default_registry(other)
        CRCPipeline(ETHERNET_CRC32, 32)  # resolves this registry again
        assert _samples(registry, "engine_pipeline_blocks_total", "kind")["crc"] == 16
        assert _samples(registry, "engine_pipeline_streams", "kind")["crc"] == 1
        pipe.finalize(sid)

    def test_a_registry_that_is_off_learns_of_no_pipeline(self, registry):
        registry.disable()
        CRCPipeline(ETHERNET_CRC32, 32).open()
        registry.enable()
        assert not [name for name in registry.snapshot() if "pipeline" in name]


# ----------------------------------------------------------------------
# Server: counts live once
# ----------------------------------------------------------------------
class TestServerCountsLiveOnce:
    def test_registry_equals_stats_across_a_disabled_stretch(self, registry):
        payload = b"\xa5" * 4096

        async def scenario():
            server = ReproServer(ETHERNET_CRC32, M=64, high_watermark_bits=1024)
            async with server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    await c.compute(payload, chunk_bytes=512)
                    registry.disable()
                    try:
                        await c.compute(payload, chunk_bytes=512)
                        with pytest.raises(StreamError):
                            await c.feed("never-opened", b"x")
                    finally:
                        registry.enable()
                    await c.compute(b"after", chunk_bytes=512)
                    stats = await c.stats()
            return stats["counters"], weakref.ref(server)

        counters, server = run(scenario())
        gc.collect()
        assert server() is None  # the registry now reads its retired counts
        messages = _samples(registry, "serve_messages_total", "op")
        errors = _samples(registry, "serve_errors_total", "code")
        assert sum(messages.values()) == counters["messages_total"]
        assert messages["read-digest"] == messages["open-stream"] == 3
        assert errors["protocol"] == counters["protocol_errors_total"] == 0
        assert errors["stream"] == counters["stream_errors_total"] == 1
        assert errors["draining"] == counters["refused_draining_total"] == 0
        pauses = _value(registry, "serve_backpressure_pauses_total")
        assert pauses == counters["backpressure_pauses_total"] > 0
        assert _value(registry, "serve_connections") == 0

    def test_unknown_verb_counts_as_unknown(self, registry):
        async def scenario():
            async with ReproServer(ETHERNET_CRC32, M=64) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await read_frame(reader)  # hello
                await write_frame(writer, {"op": "no-such-verb"})
                response, _ = await read_frame(reader)
                writer.close()
                return response, dict(server.counters)

        response, counters = run(scenario())
        assert response["code"] == "protocol"
        messages = _samples(registry, "serve_messages_total", "op")
        assert messages["unknown"] == 1
        assert "no-such-verb" not in messages
        assert counters["messages_total"] == counters["protocol_errors_total"] == 1

    def test_counters_are_a_read_only_view(self):
        server = ReproServer(ETHERNET_CRC32)
        assert set(server.counters) == {
            "connections_total", "messages_total", "bytes_in_total",
            "digests_total", "protocol_errors_total", "stream_errors_total",
            "refused_draining_total", "backpressure_pauses_total",
        }
        with pytest.raises(TypeError):
            server.counters["messages_total"] = 1


# ----------------------------------------------------------------------
# Worker pool: gauges exact across toggles
# ----------------------------------------------------------------------
def _echo(x):
    return x


def _pool_gauges(registry):
    return (
        _value(registry, "engine_parallel_workers"),
        _value(registry, "engine_parallel_busy_workers"),
    )


class TestPoolGaugesAcrossToggles:
    def test_started_on_closed_off(self, registry):
        pool = WorkerPool(2)
        assert pool.run(_echo, [(1,), (2,)]) == [1, 2]
        assert _pool_gauges(registry) == (2, 0)
        registry.disable()
        pool.close()
        registry.enable()
        assert _pool_gauges(registry) == (0, 0)

    def test_started_off_closed_on(self, registry):
        pool = WorkerPool(2)
        registry.disable()
        assert pool.run(_echo, [(1,)]) == [1]
        registry.enable()
        assert _pool_gauges(registry) == (2, 0)
        pool.close()
        assert _pool_gauges(registry) == (0, 0)

    def test_disabled_while_a_shard_runs(self, registry):
        started, release = threading.Event(), threading.Event()

        def shard():
            started.set()
            release.wait(10)
            return "done"

        with WorkerPool(2) as pool:
            results = []
            caller = threading.Thread(
                target=lambda: results.extend(pool.run(shard, [()]))
            )
            caller.start()
            assert started.wait(10)
            # The caller tracks the future once submit() returns, which
            # may be after the shard has started.
            deadline = time.monotonic() + 10
            while _pool_gauges(registry) != (2, 1) and time.monotonic() < deadline:
                time.sleep(0.001)
            assert _pool_gauges(registry) == (2, 1)
            registry.disable()
            release.set()
            caller.join(10)
            registry.enable()
            assert results == ["done"]
            assert _pool_gauges(registry) == (2, 0)
        assert _pool_gauges(registry) == (0, 0)
