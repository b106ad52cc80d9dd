"""Contract of the sharded execution layer.

Two properties matter and each gets direct coverage:

* **Invisibility** — any shard plan (batch partition or pipeline
  assignment) reproduces the serial result bit-exactly, including batch
  sizes that do not divide evenly and ``workers=1`` degenerating to the
  serial path object-for-object.
* **Containment** — a worker crash surfaces as
  :class:`~repro.errors.StreamError` at the call site, never a hang.
"""

import threading

import pytest

from repro.crc import BitwiseCRC, get as get_crc
from repro.engine import (
    CompileCache,
    CRCPipeline,
    ParallelBatchCRC,
    BatchCRC,
    ShardedCRCPipeline,
    WorkerPool,
    plan_shards,
    resolve_workers,
)
from repro.errors import StreamError, ValidationError

SPEC = get_crc("CRC-32")
SPEC16 = get_crc("CRC-16/ARC")


class TestWorkerResolution:
    def test_explicit_argument_wins(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == 1

    @pytest.mark.parametrize("bad", ["three", "-2", "3", -1, 2.5, True, "auto", 0])
    def test_invalid_counts_rejected(self, bad):
        with pytest.raises(ValidationError):
            resolve_workers(bad)


class TestShardPlanning:
    def test_balanced_contiguous_cover(self):
        assert plan_shards(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert plan_shards(12, 4) == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_more_shards_than_items_drops_empties(self):
        assert plan_shards(2, 5) == [(0, 1), (1, 2)]
        assert plan_shards(0, 4) == []

    def test_every_plan_partitions_exactly(self):
        for n in range(0, 40):
            for w in range(1, 9):
                bounds = plan_shards(n, w)
                covered = [i for a, b in bounds for i in range(a, b)]
                assert covered == list(range(n))
                assert all(b > a for a, b in bounds)

    def test_invalid_shard_count(self):
        with pytest.raises(ValidationError):
            plan_shards(4, 0)


@pytest.fixture(scope="module")
def corpus():
    import random

    rng = random.Random(0xD5B)
    return [
        bytes(rng.randrange(256) for _ in range(rng.randrange(0, 97)))
        for _ in range(41)
    ]


class TestParallelBatchCRC:
    def test_workers1_is_serial_object_for_object(self, corpus):
        engine = ParallelBatchCRC(SPEC, 16, workers=1)
        # No pool exists, and the batch path is literally the serial engine.
        assert engine.pool is None
        assert engine.workers == 1
        serial = engine.serial_engine
        assert isinstance(serial, BatchCRC)
        assert engine.compute_batch(corpus) == serial.compute_batch(corpus)

    def test_thread_sharding_matches_serial(self, corpus):
        ref = BitwiseCRC(SPEC)
        expected = [ref.compute(m) for m in corpus]
        with ParallelBatchCRC(SPEC, 16, workers=3, min_shard_bits=1) as engine:
            assert engine.compute_batch(corpus) == expected

    def test_small_batches_bypass_the_pool(self, corpus):
        with ParallelBatchCRC(SPEC, 16, workers=3) as engine:
            # Default min_shard_bits keeps tiny work serial: the executor
            # is never started.
            engine.compute_batch(corpus[:2])
            assert engine.pool is not None and not engine.pool.started

    def test_worker_crash_surfaces_as_stream_error(
        self, corpus, monkeypatch, crashing_worker
    ):
        with ParallelBatchCRC(SPEC, 16, workers=2, min_shard_bits=1) as engine:
            monkeypatch.setattr(
                engine.serial_engine, "compute_batch", crashing_worker
            )
            with pytest.raises(StreamError, match="kaboom"):
                engine.compute_batch(corpus)


class TestShardedValidation:
    """A sharded engine validates the whole batch before splitting it:
    bad items raise :class:`ValidationError` naming their index in the
    caller's batch, never a raw ``TypeError`` from the shard planner or an
    index inside one shard."""

    def test_non_bytes_message_is_a_validation_error(self):
        with ParallelBatchCRC(SPEC, 16, workers=2, min_shard_bits=1) as engine:
            with pytest.raises(ValidationError, match=r"messages\[1\]"):
                engine.compute_batch([b"ab", 5])

    def test_error_names_the_index_in_the_whole_batch(self):
        with ParallelBatchCRC(SPEC, 16, workers=2, min_shard_bits=1) as engine:
            with pytest.raises(ValidationError, match=r"messages\[1\] must be bytes-like"):
                engine.compute_batch([b"ab", "x"])


class TestShardedPipeline:
    def test_matches_serial_pipeline_under_chunked_delivery(self):
        import random

        rng = random.Random(11)
        cache = CompileCache()
        sharded = ShardedCRCPipeline(SPEC16, 8, workers=3, cache=cache)
        serial = CRCPipeline(SPEC16, 8, cache=cache)
        ids = [f"s{i}" for i in range(10)]
        for sid in ids:
            sharded.open(sid)
            serial.open(sid)
        for sid in ids:
            data = rng.randbytes(rng.randrange(0, 50))
            i = 0
            while i < len(data):
                n = rng.randrange(1, 7)
                sharded.feed(sid, data[i : i + n], pump=(rng.random() < 0.4))
                serial.feed(sid, data[i : i + n], pump=False)
                i += n
        sharded.pump()
        aborted = set(ids[::4])
        for sid in ids:
            if sid in aborted:
                sharded.abort(sid)
                serial.abort(sid)
            else:
                assert sharded.finalize(sid) == serial.finalize(sid)
        assert sharded.stream_count == 0
        sharded.close()

    def test_open_prefers_least_pending(self):
        with ShardedCRCPipeline(SPEC16, 8, workers=3) as pipe:
            for sid, nbytes in (("a", 12), ("b", 1), ("c", 6)):
                pipe.open(sid)
                pipe.feed(sid, bytes(nbytes), pump=False)
            pending = pipe.shard_pending()
            assert sorted(pending) == [8, 48, 96]  # one stream a shard
            pipe.open("d")
            counts = [s.stream_count for s in pipe.shards]
            assert counts[pending.index(8)] == 2

    def test_open_breaks_ties_round_robin(self):
        with ShardedCRCPipeline(SPEC16, 8, workers=3) as pipe:
            for i in range(6):
                pipe.open(f"s{i}")
            # Nothing pending, so every open is a tie: all shards get arrivals.
            assert [s.stream_count for s in pipe.shards] == [2, 2, 2]

    def test_auto_ids_skip_open_ids(self):
        with ShardedCRCPipeline(SPEC16, 8, workers=2) as pipe:
            pipe.open("shard-auto-0")
            assert pipe.open() == "shard-auto-1"

    def test_unknown_stream_raises_stream_error(self):
        pipe = ShardedCRCPipeline(SPEC16, 8, workers=2)
        with pytest.raises(StreamError):
            pipe.finalize("ghost")
        pipe.open("dup")
        with pytest.raises(StreamError):
            pipe.open("dup")
        pipe.abort("dup")
        pipe.close()


class TestWorkerPool:
    def test_crash_is_stream_error_not_hang(self, crashing_worker):
        with WorkerPool(2) as pool:
            with pytest.raises(StreamError, match="kaboom"):
                pool.run(crashing_worker, [(1,), (2,), (3,)])

    def test_library_errors_pass_through_untyped(self):
        def raise_validation(_):
            raise ValidationError("bad shard input")

        with WorkerPool(2) as pool:
            with pytest.raises(ValidationError, match="bad shard input"):
                pool.run(raise_validation, [(1,)])

    def test_results_keep_shard_order(self):
        with WorkerPool(3) as pool:
            out = pool.run(lambda x: x * x, [(i,) for i in range(10)])
        assert out == [i * i for i in range(10)]

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.run(len, [("ab",)])
        pool.close()
        pool.close()
        assert not pool.started

    def test_validation(self):
        with pytest.raises(ValidationError):
            WorkerPool(0)


class TestLifecycleClose:
    """Satellite regression: close is idempotent and safe with work in flight.

    These are the drain-path invariants ``repro.serve`` depends on: a
    double close (or a close racing a dispatch) must raise nothing and
    never hang, and a pool closed mid-dispatch must surface a contained
    :class:`StreamError` at the call site rather than wedging.
    """

    def test_worker_pool_double_close_raises_nothing(self):
        pool = WorkerPool(2)
        pool.run(len, [("warm",)])
        pool.close()
        pool.close()
        pool.close()
        assert not pool.started

    def test_worker_pool_concurrent_closes_are_safe(self):
        pool = WorkerPool(4)
        pool.run(len, [("warm",)] * 4)
        errors = []

        def closer():
            try:
                pool.close()
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert not pool.started

    def test_close_during_dispatch_is_contained_stream_error(self):
        pool = WorkerPool(2)
        release = threading.Event()
        entered = threading.Event()

        def slow_shard(tag):
            entered.set()
            release.wait(timeout=30)
            return tag

        result = {}

        def runner():
            try:
                result["out"] = pool.run(slow_shard, [(i,) for i in range(64)])
            except StreamError as exc:
                result["error"] = exc

        thread = threading.Thread(target=runner)
        thread.start()
        entered.wait(timeout=30)
        closer = threading.Thread(target=pool.close)
        closer.start()
        release.set()
        thread.join(timeout=30)
        closer.join(timeout=30)
        assert not thread.is_alive() and not closer.is_alive()  # never hangs
        # Either the dispatch won the race and completed, or the close
        # did and the submit failure surfaced as a contained StreamError.
        if "error" in result:
            assert "closed during dispatch" in str(result["error"])
        else:
            assert result["out"] == list(range(64))

    def test_pool_restarts_lazily_after_close(self):
        pool = WorkerPool(2)
        assert pool.run(len, [("ab",), ("cdef",)]) == [2, 4]
        pool.close()
        assert pool.run(len, [("xyz",)]) == [3]
        pool.close()

    def test_sharded_pipeline_double_close(self):
        pipe = ShardedCRCPipeline(SPEC, 32, workers=2)
        pipe.open("s")
        pipe.feed("s", b"held open")
        pipe.close()
        pipe.close()
        assert pipe.closed

    def test_close_during_feed_storm_stays_bit_exact(self):
        """Drain scenario: close() lands while feeds are in flight; every
        stream must still finalize to the serial oracle's digest."""
        messages = {f"m{i}": bytes([i]) * (29 * i + 3) for i in range(8)}
        pipe = ShardedCRCPipeline(SPEC, 32, workers=2)
        for sid in messages:
            pipe.open(sid)
        barrier = threading.Barrier(3)

        def feeder(items):
            barrier.wait(timeout=30)
            for sid, payload in items:
                for start in range(0, len(payload), 17):
                    pipe.feed(sid, payload[start:start + 17])

        items = sorted(messages.items())
        feeders = [
            threading.Thread(target=feeder, args=(items[:4],)),
            threading.Thread(target=feeder, args=(items[4:],)),
        ]
        for t in feeders:
            t.start()
        barrier.wait(timeout=30)
        pipe.close()  # races the feeds; must raise nothing, never hang
        for t in feeders:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in feeders)
        assert pipe.closed
        oracle = BitwiseCRC(SPEC)
        for sid, payload in messages.items():
            assert pipe.finalize(sid) == oracle.compute(payload)

    def test_streams_survive_close_and_pump_serially(self):
        pipe = ShardedCRCPipeline(SPEC, 32, workers=2)
        pipe.open("keep")
        pipe.feed("keep", b"before close ")
        pipe.close()
        pipe.feed("keep", b"after close")
        expected = BitwiseCRC(SPEC).compute(b"before close after close")
        assert pipe.finalize("keep") == expected
