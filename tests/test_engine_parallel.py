"""Contract of the sharded execution layer.

Two properties matter and each gets direct coverage:

* **Invisibility** — any shard plan (batch-dimension, time-axis, or
  pipeline assignment) reproduces the serial result bit-exactly,
  including lengths that do not divide evenly and ``workers=1``
  degenerating to the serial path object-for-object.
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
    ShardScheduler,
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
        assert resolve_workers("3") == 3  # a CLI flag's value
        assert resolve_workers(None) == 1

    @pytest.mark.parametrize("bad", ["three", "-2", -1, 2.5, True, "auto", 0])
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
            bit_streams = [SPEC.message_bits(m) for m in corpus]
            assert engine.compute_bits_batch(bit_streams) == expected

    @pytest.mark.parametrize("n_bits", [1, 17, 64, 127, 333, 1024, 4097])
    def test_time_axis_sharding_is_exact(self, n_bits):
        """Single-message sharding with x^k recombination, at lengths that
        are prime, power-of-two, and everything between — none a multiple
        of the worker count."""
        import random

        rng = random.Random(n_bits)
        bits = [rng.randrange(2) for _ in range(n_bits)]
        want = BatchCRC(SPEC, 16).compute_bits_batch([bits])[0]
        with ParallelBatchCRC(SPEC, 16, workers=3, min_shard_bits=1) as engine:
            assert engine.compute_sharded_bits(bits) == want

    def test_compute_matches_bitwise_reference(self):
        data = bytes(range(256)) * 9
        with ParallelBatchCRC(SPEC, 32, workers=4, min_shard_bits=1) as engine:
            assert engine.compute(data) == BitwiseCRC(SPEC).compute(data)

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

    def test_non_sequence_bit_stream_is_a_validation_error(self):
        with ParallelBatchCRC(SPEC, 16, workers=2, min_shard_bits=1) as engine:
            with pytest.raises(ValidationError, match=r"bit_streams\[1\]"):
                engine.compute_bits_batch([[0, 1], 7])


class TestShardScheduler:
    def test_assign_prefers_least_pending(self):
        sched = ShardScheduler(3)
        assert sched.assign([100, 5, 50]) == 1

    def test_assign_breaks_ties_round_robin(self):
        sched = ShardScheduler(3)
        picks = [sched.assign([0, 0, 0]) for _ in range(6)]
        assert sorted(set(picks)) == [0, 1, 2]  # all shards get arrivals

    def test_plan_steals_moves_streams_off_laggard(self):
        sched = ShardScheduler(2, steal_ratio=2.0)
        stream_bits = [{"a": 600, "b": 500, "c": 400}, {"d": 100}]
        moves = sched.plan_steals([1500, 100], stream_bits, min_gap=64)
        assert moves  # the laggard sheds work
        for sid, src, dst in moves:
            assert (src, dst) == (0, 1)
        # Post-plan imbalance is below the steal threshold.
        p0 = sum(stream_bits[0].values())
        p1 = sum(stream_bits[1].values())
        assert p0 < 2.0 * max(p1, 1) or p0 - p1 < 64

    def test_balanced_load_plans_nothing(self):
        sched = ShardScheduler(2)
        moves = sched.plan_steals(
            [500, 480], [{"a": 500}, {"b": 480}], min_gap=64
        )
        assert moves == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardScheduler(0)
        with pytest.raises(ValidationError):
            ShardScheduler(2, steal_ratio=0.5)
        with pytest.raises(ValidationError):
            ShardScheduler(2).assign([1, 2, 3])


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
            bits = [rng.randrange(2) for _ in range(rng.randrange(0, 400))]
            i = 0
            while i < len(bits):
                n = rng.randrange(1, 50)
                sharded.feed_bits(sid, bits[i : i + n], pump=(rng.random() < 0.4))
                serial.feed_bits(sid, bits[i : i + n], pump=False)
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

    def test_rebalance_steals_from_lagging_shard(self, lagged_pipeline):
        # The fixture hand-builds the imbalance (no sleeps, no pump-order
        # races): streams a and b loaded on one shard, c empty on the
        # other, steal_ratio=1.0 so any worthwhile gap triggers a steal.
        pipe, streams = lagged_pipeline(heavy_bits=2000, light_bits=1564)
        before = pipe.shard_pending()
        assert min(before) == 0  # all load on one shard
        moved = pipe.rebalance()
        assert moved >= 1
        after = pipe.shard_pending()
        assert max(after) < max(before)
        # Results stay exact after migration.
        pipe.pump()
        serial = BatchCRC(SPEC16, 8)
        assert pipe.finalize(streams["a"]) == serial.compute_bits_batch(
            [[1] * 2000]
        )[0]
        assert pipe.finalize(streams["b"]) == serial.compute_bits_batch(
            [[0] * 64 + [1] * 1500]
        )[0]
        pipe.abort(streams["c"])

    def test_rebalance_leaves_balanced_load_alone(self, lagged_pipeline):
        # A steal threshold beyond the total pending load turns the same
        # imbalance into a no-op: the scheduler only steals past
        # steal_ratio x the lightest shard (floored at 1 bit), so nothing
        # moves and nothing is disturbed mid-stream.
        pipe, streams = lagged_pipeline(steal_ratio=1e6)
        assert pipe.rebalance() == 0
        pipe.pump()
        serial = BatchCRC(SPEC16, 8)
        assert pipe.finalize(streams["a"]) == serial.compute_bits_batch(
            [[1] * 2000]
        )[0]
        pipe.abort(streams["b"])
        pipe.abort(streams["c"])

    def test_finalize_after_migration_is_exact(self):
        cache = CompileCache()
        pipe = ShardedCRCPipeline(SPEC16, 8, workers=2, cache=cache)
        sid = pipe.open("x")
        payload = bytes(range(200))
        pipe.feed(sid, payload, pump=False)
        # Migrate mid-stream by hand, then finish.
        src = pipe._home[sid]
        dst = 1 - src
        pipe.shards[src].migrate(sid, pipe.shards[dst])
        pipe._home[sid] = dst
        pipe.feed(sid, payload, pump=True)
        assert pipe.finalize(sid) == BitwiseCRC(SPEC16).compute(payload * 2)
        pipe.close()

    def test_unknown_stream_raises_stream_error(self):
        pipe = ShardedCRCPipeline(SPEC16, 8, workers=2)
        with pytest.raises(StreamError):
            pipe.finalize("ghost")
        pipe.open("dup")
        with pytest.raises(StreamError):
            pipe.open("dup")
        pipe.abort("dup")
        pipe.close()

    def test_scheduler_shard_count_must_match(self):
        with pytest.raises(ValidationError):
            ShardedCRCPipeline(SPEC16, 8, workers=2, scheduler=ShardScheduler(3))


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


class TestMigrateConcurrency:
    """Satellite coverage: migrate racing feeds, and gauge reconciliation."""

    def test_migrate_racing_concurrent_feeds_stays_bit_exact(self):
        """Feeder threads hammer streams while another thread forces
        rebalance/migration rounds; every digest must match the serial
        oracle (the pipeline lock makes the interleaving invisible)."""
        messages = {f"s{i}": bytes([40 + i]) * (211 * (i + 1)) for i in range(6)}
        pipe = ShardedCRCPipeline(SPEC, 32, workers=2)
        for sid in messages:
            pipe.open(sid)
        stop = threading.Event()

        def migrator():
            while not stop.is_set():
                pipe.rebalance()
                pipe.pump()

        def feeder(items):
            for sid, payload in items:
                for start in range(0, len(payload), 23):
                    pipe.feed(sid, payload[start:start + 23], pump=False)

        items = sorted(messages.items())
        threads = [
            threading.Thread(target=migrator),
            threading.Thread(target=feeder, args=(items[:3],)),
            threading.Thread(target=feeder, args=(items[3:],)),
        ]
        for t in threads[1:]:
            t.start()
        threads[0].start()
        for t in threads[1:]:
            t.join(timeout=60)
        stop.set()
        threads[0].join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        oracle = BitwiseCRC(SPEC)
        for sid, payload in messages.items():
            assert pipe.finalize(sid) == oracle.compute(payload)
        pipe.close()

    def test_gauges_reconcile_when_migrated_stream_closes_on_target(
        self, lagged_pipeline
    ):
        """A stream that opens on one shard, migrates, and finalizes on
        the target must leave the aggregate stream/pending gauges at the
        values it found them — no double-decrement, no leak."""
        from repro.telemetry import MetricsRegistry, set_default_registry

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            pipe, streams = lagged_pipeline(heavy_bits=2048, light_bits=64)
            moved = pipe.rebalance()
            assert moved >= 1  # the laggard's stream migrated
            for sid in (streams["a"], streams["b"], streams["c"]):
                pipe.finalize(sid)
            snapshot = registry.snapshot()

            def series_total(name):
                family = snapshot.get(name)
                if family is None:
                    return 0
                return sum(s["value"] for s in family["samples"])

            assert series_total("engine_pipeline_streams") == 0
            assert series_total("engine_pipeline_pending_bits") == 0
            pipe.close()
        finally:
            set_default_registry(previous)
