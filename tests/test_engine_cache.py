"""Behavioral contract of :class:`repro.engine.cache.CompileCache`.

Covers the LRU discipline (touch order, eviction order, bounded size),
the hit/miss/eviction counters the benchmarks assert on, and the
same-object guarantee: a cached compile handed to a
:class:`~repro.picoga.array.PicogaArray` is the identical netlist object
on every hit — the model analogue of the DREAM configuration cache
serving the same bitstream to repeated contexts.
"""

import pytest

from repro.crc import ETHERNET_CRC32, get as get_crc
from repro.dream.system import DreamSystem
from repro.engine import BatchCRC, CompileCache, default_cache
from repro.picoga.array import PicogaArray


def test_capacity_validation():
    with pytest.raises(ValueError):
        CompileCache(capacity=0)


def test_builder_runs_once_and_result_is_identical():
    cache = CompileCache(capacity=4)
    calls = []

    def build():
        calls.append(1)
        return object()

    first = cache.get("k", build)
    second = cache.get("k", build)
    assert first is second
    assert len(calls) == 1
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5


def test_lru_eviction_order():
    cache = CompileCache(capacity=3)
    for key in "abc":
        cache.get(key, lambda k=key: k.upper())
    assert cache.keys() == ["a", "b", "c"]  # LRU first

    # Touching "a" promotes it; inserting "d" must evict "b", the LRU.
    cache.get("a", lambda: pytest.fail("hit must not rebuild"))
    cache.get("d", lambda: "D")
    assert cache.keys() == ["c", "a", "d"]
    assert "b" not in cache
    assert cache.stats.evictions == 1

    # Two more inserts evict in strict LRU order: "c" then "a".
    cache.get("e", lambda: "E")
    cache.get("f", lambda: "F")
    assert cache.keys() == ["d", "e", "f"]
    assert cache.stats.evictions == 3
    assert len(cache) == 3


def test_counters_survive_clear():
    """``clear`` empties the cache and keeps its counts: the registry's
    lookup and eviction counters read them, and a counter never goes
    backwards."""
    cache = CompileCache(capacity=2)
    assert cache.stats.lookups == 0 and cache.stats.hit_rate == 0.0
    cache.get("x", lambda: 1)
    cache.get("x", lambda: 1)
    cache.get("y", lambda: 2)
    assert (cache.stats.hits, cache.stats.misses) == (1, 2)
    assert cache.stats.lookups == 3
    cache.clear()
    assert len(cache) == 0 and cache.size_bytes == 0
    assert cache.stats.snapshot() == {"hits": 1, "misses": 2, "evictions": 0}
    cache.get("x", lambda: 1)
    assert (cache.stats.hits, cache.stats.misses) == (1, 3)


def test_typed_helpers_share_sub_compiles():
    cache = CompileCache(capacity=32)
    spec = get_crc("CRC-16/ARC")
    la = cache.lookahead(spec, 8)
    assert cache.lookahead(spec, 8) is la
    # The look-ahead builder reuses the cached state space.
    assert cache.crc_statespace(spec) is cache.crc_statespace(spec)
    # Different method/M are distinct entries.
    assert cache.derby(spec, 8) is not la
    assert cache.lookahead(spec, 16) is not la


def test_mapped_crc_same_object_reaches_picoga_array():
    cache = CompileCache(capacity=16)
    mapped = cache.mapped_crc(ETHERNET_CRC32, 8)
    assert cache.mapped_crc(ETHERNET_CRC32, 8) is mapped

    array = PicogaArray()
    array.load_operation(mapped.update_op, slot=0)
    array.run_burst(mapped.update_op.name, [[0] * 8])
    # The op resident and active in the array IS the cached netlist object.
    assert array.cache.active_op is mapped.update_op
    assert array.cache.slot_of(mapped.update_op.name) == 0


def test_dream_system_reuses_cached_compile():
    cache = CompileCache(capacity=16)
    system = DreamSystem(cache=cache)
    mapped = system.compile_crc(ETHERNET_CRC32, 16)
    assert system.compile_crc(ETHERNET_CRC32, 16) is mapped
    assert cache.stats.hits > 0
    # The analytic shortcut rides the same entry: no new misses.
    misses = cache.stats.misses
    system.predict_crc(ETHERNET_CRC32, 16, message_bits=512)
    assert cache.stats.misses == misses


def test_empty_explicit_cache_is_respected():
    """Regression: an empty CompileCache is falsy (it defines __len__), so
    ``cache or default_cache()`` would silently discard it."""
    cache = CompileCache(capacity=8)
    BatchCRC(ETHERNET_CRC32, 8, cache=cache)
    assert cache.stats.misses > 0
    assert len(cache) > 0


def test_default_cache_is_shared_singleton():
    assert default_cache() is default_cache()


def test_init_fold_zero_init_short_circuits():
    import dataclasses

    cache = CompileCache(capacity=4)
    spec = get_crc("CRC-32/MPEG-2")  # init = 0xFFFFFFFF
    folded = cache.init_fold(spec, 64)
    assert cache.init_fold(spec, 64) == folded
    assert cache.stats.hits == 1
    zero_spec = dataclasses.replace(get_crc("CRC-32C"), init=0)
    lookups = cache.stats.lookups
    assert cache.init_fold(zero_spec, 64) == 0
    assert cache.stats.lookups == lookups  # early return, no lookup


def test_ragged_batch_leaves_the_cache_alone():
    """A batch with more distinct lengths than the cache holds folds its
    init on the batch engine, not through ``init_fold``: bit-exact, no
    eviction, and the table stack stays resident."""
    import random

    from repro.crc import BitwiseCRC

    cache = CompileCache(capacity=8)
    engine = BatchCRC(ETHERNET_CRC32, 128, cache=cache)
    rng = random.Random("ragged")
    messages = [rng.randbytes(n) for n in rng.sample(range(1, 1519), 64)]
    serial = BitwiseCRC(ETHERNET_CRC32)
    assert engine.compute_batch(messages) == [serial.compute(m) for m in messages]
    assert cache.stats.evictions == 0
    assert ("slicing-tables", ETHERNET_CRC32) in cache


def test_racing_cold_key_compiles_keep_one_identity():
    """Regression: two threads racing on the same cold key used to each
    insert their own artifact, the second silently replacing the first —
    so earlier callers held an object the cache no longer served,
    breaking the same-object netlist guarantee.  The first insert must
    win and every caller must receive the identical object."""
    import threading

    cache = CompileCache(capacity=8)
    gate = threading.Barrier(2)
    results = []

    def build():
        # Hold both threads inside the (unlocked) builder section so both
        # definitely compile before either inserts.
        gate.wait(timeout=5)
        return object()

    def worker():
        results.append(cache.get("hot-key", build))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(results) == 2
    assert results[0] is results[1]
    # Later hits serve that same object too.
    assert cache.get("hot-key", build) is results[0]
    assert len(cache) == 1


class TestByteAccounting:
    """The cache bounds resident *bytes* (matrix cost), not just entries."""

    def test_estimate_scales_with_matrix_size(self):
        from repro.engine import estimate_entry_bytes

        spec32 = get_crc("CRC-32")
        cache = CompileCache(capacity=32)
        small = estimate_entry_bytes(cache.lookahead(spec32, 8))
        large = estimate_entry_bytes(cache.lookahead(spec32, 128))
        # An M=128 system carries a 32x128 injection matrix; its byte cost
        # must dominate the M=8 system's, not collapse to a flat per-entry
        # constant.
        assert large > small >= 64

    def test_size_bytes_tracks_inserts_and_clear(self):
        cache = CompileCache(capacity=8)
        assert cache.size_bytes == 0
        cache.get("a", lambda: bytes(1000))
        first = cache.size_bytes
        assert first >= 1000
        cache.get("b", lambda: bytes(3000))
        assert cache.size_bytes >= first + 3000
        cache.clear()
        assert cache.size_bytes == 0

    def test_max_bytes_evicts_lru_until_under_budget(self):
        cache = CompileCache(capacity=100, max_bytes=5000)
        cache.get("a", lambda: bytes(2000))
        cache.get("b", lambda: bytes(2000))
        cache.get("c", lambda: bytes(2000))  # 6000 > 5000: "a" must go
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.size_bytes <= 5000
        assert cache.stats.evictions == 1

    def test_single_oversized_entry_stays_resident(self):
        """An artifact larger than the whole budget must still be served
        (and resident, preserving the same-object guarantee) — the bound
        trims the tail, it cannot refuse the workload."""
        cache = CompileCache(capacity=100, max_bytes=100)
        big = cache.get("big", lambda: bytes(10_000))
        assert cache.get("big", lambda: pytest.fail("must hit")) is big
        assert len(cache) == 1

    def test_byte_gauge_reconciles(self):
        from repro.telemetry import default_registry

        gauge = default_registry().get("engine_compile_cache_bytes")
        before = gauge.value
        cache = CompileCache(capacity=4, max_bytes=4096)
        cache.get("a", lambda: bytes(1024))
        assert gauge.value == before + cache.size_bytes
        cache.clear()
        assert gauge.value == before


def test_racing_cold_keys_entry_gauge_stays_exact():
    """The loser of a cold-key race must not bump the resident-entries
    gauge for an artifact that was never stored."""
    import threading

    from repro.telemetry import default_registry

    gauge = default_registry().get("engine_compile_cache_entries")
    before = gauge.value
    cache = CompileCache(capacity=8)
    gate = threading.Barrier(2)

    def build():
        gate.wait(timeout=5)
        return object()

    threads = [
        threading.Thread(target=lambda: cache.get("k", build)) for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert gauge.value == before + 1
