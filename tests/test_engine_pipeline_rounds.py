"""Per-round engine choice and byte buffers in :class:`~repro.engine.CRCPipeline`.

A pump round with at least ``PACKED_MIN_STREAMS`` ready streams holding
at most ``PACKED_MAX_BYTES`` whole bytes each runs one packed GF(2)
product; any other round advances each ready stream through the byte
engines (the byte table below ``SHORT_RUN_BYTES``, the byte-sliced
gather above).  These tests pin either side through the private
``_rule`` override (``"packed"``: every round packed;
``"table"``: every round stream by stream) and run streams on byte or
bit buffers through the private ``_byte_streams`` override, and check
that neither choice shows: the same digests, the same ``pending_bits``
after every call, the same ``engine_pipeline_blocks_total`` and ``pump``
return values.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.engine.pipeline as pipeline_mod
from repro.crc import BitwiseCRC, get as get_crc
from repro.crc.slicing import SLICE_DEPTH, ByteSlicedCRC
from repro.engine import CompileCache, CRCPipeline, ShardedCRCPipeline, ShardScheduler
from repro.engine.pipeline import PACKED_MAX_BYTES, PACKED_MIN_STREAMS, SHORT_RUN_BYTES
from repro.errors import StreamError, ValidationError
from repro.telemetry import default_registry

#: Round-rule overrides: "table" pins the per-stream side (byte table or
#: byte-sliced gather, by run length).
PACKED, TABLE = (0, sys.maxsize, SHORT_RUN_BYTES), (sys.maxsize, 0, SHORT_RUN_BYTES)
ENGINES = {"packed": PACKED, "table": TABLE}


@pytest.fixture(scope="module")
def cache():
    return CompileCache(capacity=64)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts packed products issued by pipelines (the kernel entry point)."""
    calls = []
    real = pipeline_mod.gf2_mul_packed

    def counting(matrix, packed):
        calls.append(packed.shape[1])
        return real(matrix, packed)

    monkeypatch.setattr(pipeline_mod, "gf2_mul_packed", counting)
    return calls


@pytest.fixture
def sliced_runs(monkeypatch):
    """Lengths of the runs pipelines hand to the byte-sliced gather."""
    runs = []
    real = ByteSlicedCRC.raw_register

    def counting(self, data, register=None):
        runs.append(len(data))
        return real(self, data, register)

    monkeypatch.setattr(ByteSlicedCRC, "raw_register", counting)
    return runs


def _pipe(spec, M, rule, cache, method="lookahead", byte_streams=True):
    pipe = CRCPipeline(spec, M, method=method, cache=cache)
    pipe._rule = rule
    pipe._byte_streams = pipe._byte_streams and byte_streams
    return pipe


def _blocks_total():
    family = default_registry().get("engine_pipeline_blocks_total")
    return family.labels(kind="crc").value if family is not None else 0.0


def _schedule(seed, streams, max_bytes=90, max_chunk=24):
    """A seeded interleaved delivery: (stream, bytes, pump?) steps."""
    rng = random.Random(seed)
    payloads = [
        bytes(rng.randrange(256) for _ in range(rng.randint(0, max_bytes)))
        for _ in range(streams)
    ]
    steps = []
    offsets = [0] * streams
    while any(off < len(p) for off, p in zip(offsets, payloads)):
        for i, payload in enumerate(payloads):
            if offsets[i] < len(payload):
                n = rng.randint(1, max_chunk)
                steps.append((i, payload[offsets[i]:offsets[i] + n], rng.random() < 0.4))
                offsets[i] += n
    return payloads, steps


def _replay(pipe, payloads, steps):
    """Drive a schedule, recording every observable reading on the way."""
    ids = [pipe.open() for _ in payloads]
    readings = []
    for i, chunk, pump in steps:
        pipe.feed(ids[i], chunk, pump=pump)
        readings.append((pipe.pending_bits(ids[i]), pipe.pending_bits()))
    readings.append(pipe.pump())
    readings.append(pipe.pending_bits())
    return pipe.finalize_many(ids), readings


@pytest.mark.parametrize("method", ["lookahead", "derby"])
@pytest.mark.parametrize("name", ["CRC-32", "CRC-16/CCITT-FALSE", "CRC-8", "CRC-32/MPEG-2"])
@pytest.mark.parametrize("M", [8, 32, 128])
def test_engines_agree_with_bitwise(name, M, method, cache):
    """Either side of the round rule, on byte or bit buffers: the same
    digests and the same observable readings."""
    spec = get_crc(name)
    serial = BitwiseCRC(spec)
    payloads, steps = _schedule(f"{name}/{M}/{method}", streams=5, max_bytes=300, max_chunk=80)
    results = {}
    for engine, rule in ENGINES.items():
        for byte_streams in (True, False):
            blocks0 = _blocks_total()
            pipe = _pipe(spec, M, rule, cache, method, byte_streams)
            digests, readings = _replay(pipe, payloads, steps)
            assert digests == [serial.compute(p) for p in payloads], (engine, byte_streams)
            results[engine, byte_streams] = (readings, _blocks_total() - blocks0)
    assert len(set(map(repr, results.values()))) == 1


def test_round_occupancy_crossing_the_constant(cache, kernel_calls):
    """Packed rounds run while PACKED_MIN_STREAMS streams are ready; the
    streams still holding blocks after that finish stream by stream."""
    spec = get_crc("CRC-32")
    M = 8
    streams = PACKED_MIN_STREAMS + 2
    # One stream holds 1 block, one 2, two 5 and the rest 3: rounds 0..2
    # have PACKED_MIN_STREAMS + 2 .. PACKED_MIN_STREAMS ready streams.
    blocks = [1, 2] + [3] * (streams - 4) + [5, 5]
    payloads = [bytes([i]) * (n * M // 8) for i, n in enumerate(blocks)]
    assert sum(map(len, payloads)) <= PACKED_MAX_BYTES * streams
    ids = list(range(streams))
    pipe = CRCPipeline(spec, M, cache=cache)
    for sid, payload in zip(ids, payloads):
        pipe.open(sid)
        pipe.feed(sid, payload, pump=False)
    assert pipe.pump() == sum(blocks)
    # One packed product per round, over 2, 2 and 1 words of lanes.
    assert kernel_calls == [2, 2, 1]
    assert pipe.pending_bits() == 0
    serial = BitwiseCRC(spec)
    assert pipe.finalize_many(ids) == [serial.compute(p) for p in payloads]


def test_deep_rounds_advance_stream_by_stream(cache, kernel_calls, sliced_runs):
    """Past PACKED_MAX_BYTES per ready stream even a wide round skips the
    packed product: every stream's whole blocks take one gather."""
    spec = get_crc("CRC-32")
    M = 128
    pipe = CRCPipeline(spec, M, cache=cache)
    ids = [pipe.open() for _ in range(2 * PACKED_MIN_STREAMS)]
    payload = bytes(range(256)) * 2
    assert len(payload) > PACKED_MAX_BYTES
    for sid in ids:
        pipe.feed(sid, payload, pump=False)
    assert pipe.pump() == len(ids) * len(payload) * 8 // M
    assert kernel_calls == []
    assert sliced_runs == [len(payload)] * len(ids)
    assert pipe.finalize_many(ids) == [BitwiseCRC(spec).compute(payload)] * len(ids)


def test_deep_backlog_runs_in_slabs(cache, kernel_calls, monkeypatch):
    """A backlog deeper than one gather runs its packed rounds in slabs;
    the slab edges must not show in the digests or the round count."""
    monkeypatch.setattr(pipeline_mod, "_GATHER_BITS", 32 * PACKED_MIN_STREAMS * 3)
    spec = get_crc("CRC-32")
    M = 32
    pipe = CRCPipeline(spec, M, method="derby", cache=cache)
    rng = random.Random(11)
    payloads = [
        bytes(rng.randrange(256) for _ in range(rng.randint(8, 40)))
        for _ in range(PACKED_MIN_STREAMS + 4)
    ]
    ids = [pipe.open() for _ in payloads]
    for sid, payload in zip(ids, payloads):
        pipe.feed(sid, payload, pump=False)
    blocks = sorted((len(p) * 8 // M for p in payloads), reverse=True)
    assert pipe.pump() == sum(blocks)
    assert len(kernel_calls) == blocks[PACKED_MIN_STREAMS - 1]
    serial = BitwiseCRC(spec)
    assert pipe.finalize_many(ids) == [serial.compute(p) for p in payloads]


def test_lone_streams_never_reach_the_kernel(cache, kernel_calls):
    spec = get_crc("CRC-32")
    pipe = CRCPipeline(spec, 128, cache=cache)
    sids = [pipe.open() for _ in range(PACKED_MIN_STREAMS - 1)]
    for sid in sids:
        pipe.feed(sid, bytes(range(200)))
    assert kernel_calls == []
    assert pipe.finalize_many(sids) == [BitwiseCRC(spec).compute(bytes(range(200)))] * len(sids)


def test_short_runs_take_the_table_long_runs_the_gather(cache, sliced_runs):
    spec = get_crc("CRC-32")
    pipe = CRCPipeline(spec, 8, cache=cache)
    short, long = pipe.open(), pipe.open()
    pipe.feed(short, bytes(SHORT_RUN_BYTES - 1))
    pipe.feed(long, bytes(SHORT_RUN_BYTES))
    assert sliced_runs == [SHORT_RUN_BYTES]
    serial = BitwiseCRC(spec)
    assert pipe.finalize(short) == serial.compute(bytes(SHORT_RUN_BYTES - 1))
    assert pipe.finalize(long) == serial.compute(bytes(SHORT_RUN_BYTES))


def test_a_whole_frame_is_one_gather_and_one_buffer(cache, sliced_runs):
    """Bytes stay bytes until the pump: a frame buffers as its own length
    and advances through one gather however many blocks it holds."""
    spec = get_crc("CRC-32")
    pipe = CRCPipeline(spec, 1024, cache=cache)
    sid = pipe.open()
    frame = random.Random(5).randbytes(3 * SLICE_DEPTH + 128 * 4)
    pipe.feed(sid, frame, pump=False)
    assert pipe.pending_bits(sid) == 8 * len(frame)
    assert len(pipe._streams[sid].data) == len(frame)
    assert pipe.pump() == len(frame) * 8 // 1024
    assert sliced_runs == [len(frame)]
    assert pipe.finalize(sid) == BitwiseCRC(spec).compute(frame)


def test_pipelines_share_one_table_stack():
    spec = get_crc("CRC-32C")
    cache = CompileCache()
    a, b = CRCPipeline(spec, 64, cache=cache), CRCPipeline(spec, 128, cache=cache)
    assert a._sliced._flat.base is b._sliced._flat.base is cache.slicing_tables(spec)
    assert [k for k in cache.keys() if k[0] == "slicing-tables"] == [("slicing-tables", spec)]


@pytest.mark.parametrize("M", [4, 12, 20])
def test_m_not_a_multiple_of_eight_stays_packed(M, cache, kernel_calls):
    spec = get_crc("CRC-32")
    pipe = _pipe(spec, M, TABLE, cache)
    sid = pipe.open()
    pipe.feed(sid, b"123456789")
    assert kernel_calls, "a non-byte block must go through the packed product"
    assert pipe._streams[sid].bits is not None
    assert pipe.finalize(sid) == 0xCBF43926


@pytest.mark.parametrize("name", ["CRC-12/UMTS", "CRC-7/MMC"])
@pytest.mark.parametrize("method", ["lookahead", "derby"])
def test_specs_without_a_byte_table_stay_packed(name, method, cache, kernel_calls):
    # CRC-12/UMTS mixes reflections; CRC-7/MMC is narrow and non-reflected.
    spec = get_crc(name)
    pipe = _pipe(spec, 16, TABLE, cache, method)
    sid = pipe.open()
    pipe.feed(sid, b"123456789" * 3)
    assert kernel_calls
    assert pipe.finalize(sid) == BitwiseCRC(spec).compute(b"123456789" * 3)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("method", ["lookahead", "derby"])
def test_feed_bits_with_partial_bytes(engine, method, cache):
    spec = get_crc("CRC-16/ARC")
    serial = BitwiseCRC(spec)
    rng = random.Random(7)
    pipe = _pipe(spec, 16, ENGINES[engine], cache, method)
    ids = [pipe.open() for _ in range(3)]
    fed = [[] for _ in ids]
    for _ in range(12):
        for i, sid in enumerate(ids):
            bits = [rng.randrange(2) for _ in range(rng.randint(0, 29))]
            pipe.feed_bits(sid, bits, pump=rng.random() < 0.5)
            fed[i].extend(bits)
    for sid, bits in zip(ids, fed):
        expected = spec.finalize(serial.process_bits(spec.init, bits))
        assert pipe.finalize(sid) == expected


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", ["CRC-32", "CRC-16/CCITT-FALSE"])
def test_feed_bits_after_byte_feeds_switches_the_stream(name, engine, cache):
    """Bytes, then bits mid-stream, then bytes again: the stream turns to
    bits for good, keeps its buffered bytes and counts every bit."""
    spec = get_crc(name)
    serial = BitwiseCRC(spec)
    pipe = _pipe(spec, 32, ENGINES[engine], cache)
    sid, other = pipe.open(), pipe.open()
    head = bytes(range(70))
    pipe.feed(sid, head, pump=False)
    pipe.feed(other, head, pump=False)
    assert pipe.pending_bits(sid) == 8 * len(head)
    mid = [1, 0, 1, 1, 0]
    pipe.feed_bits(sid, mid, pump=False)
    stream = pipe._streams[sid]
    assert stream.bits is not None and not stream.data
    assert pipe.pending_bits(sid) == 8 * len(head) + len(mid)
    assert pipe._streams[other].bits is None
    pipe.pump()
    tail = b"after the switch"
    pipe.feed(sid, tail)
    pipe.feed(other, tail)
    bits = spec.message_bits(head) + mid + spec.message_bits(tail)
    assert pipe.finalize(sid) == spec.finalize(serial.process_bits(spec.init, bits))
    assert pipe.finalize(other) == serial.compute(head + tail)
    fresh = pipe.open()
    with pytest.raises(ValidationError):
        pipe.feed_bits(fresh, [2])
    assert pipe._streams[fresh].bits is None  # validated before the switch


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_seeded_registers(engine, cache):
    spec = get_crc("CRC-32C")
    serial = BitwiseCRC(spec)
    pipe = _pipe(spec, 32, ENGINES[engine], cache, "derby")
    sid = pipe.open(register=0x1234ABCD)
    pipe.feed(sid, b"seeded register" * 4)
    expected = spec.finalize(serial.raw_register(b"seeded register" * 4, 0x1234ABCD))
    assert pipe.finalize(sid) == expected


@pytest.mark.parametrize("src_engine", sorted(ENGINES))
@pytest.mark.parametrize("dst_engine", sorted(ENGINES))
def test_migrate_and_abort_mid_stream(src_engine, dst_engine, cache):
    spec = get_crc("CRC-32")
    serial = BitwiseCRC(spec)
    src = _pipe(spec, 32, ENGINES[src_engine], cache)
    dst = _pipe(spec, 32, ENGINES[dst_engine], cache)
    keep, ghost = src.open("keep"), src.open("ghost")
    src.feed(keep, b"first half, ")
    src.feed(ghost, b"never finished" * 3)
    src.migrate(keep, dst)
    src.abort(ghost)
    assert src.stream_count == 0 and src.pending_bits() == 0
    dst.feed(keep, b"second half")
    assert dst.finalize(keep) == serial.compute(b"first half, second half")


@pytest.mark.parametrize("src_bytes", [True, False])
@pytest.mark.parametrize("dst_bytes", [True, False])
def test_migrate_keeps_the_stream_buffer(src_bytes, dst_bytes, cache):
    """A migrated stream keeps its own buffer kind: a byte stream stays
    bytes in a bit-buffering pipeline, and the other way round."""
    spec = get_crc("CRC-16/ARC")
    serial = BitwiseCRC(spec)
    src = _pipe(spec, 64, TABLE, cache, byte_streams=src_bytes)
    dst = _pipe(spec, 64, PACKED, cache, byte_streams=dst_bytes)
    sid = src.open()
    src.feed(sid, bytes(range(21)), pump=False)
    src.migrate(sid, dst)
    assert (dst._streams[sid].bits is None) == src_bytes
    assert dst.pending_bits(sid) == 8 * 21
    dst.feed(sid, bytes(range(100, 190)))
    assert dst.finalize_many([sid]) == [serial.compute(bytes(range(21)) + bytes(range(100, 190)))]


def test_sharded_stealing_moves_byte_streams_exactly():
    """Work stealing migrates byte streams between shards mid-message."""
    spec = get_crc("CRC-32")
    pipe = ShardedCRCPipeline(
        spec, 64, workers=2, cache=CompileCache(), scheduler=ShardScheduler(2, steal_ratio=1.0)
    )
    try:
        a, b = pipe.open("a"), pipe.open("b")
        c = pipe.open("c")
        home = pipe._home[a]
        for sid in (b, c):
            if pipe._home[sid] != home:
                pipe.shards[pipe._home[sid]].migrate(sid, pipe.shards[home])
                pipe._home[sid] = home
        payloads = {a: bytes(range(250)) * 3, b: b"light" * 40, c: b""}
        for sid, payload in payloads.items():
            pipe.feed(sid, payload[: len(payload) // 2], pump=False)
        assert min(pipe.shard_pending()) == 0
        assert pipe.rebalance() >= 1
        assert min(pipe.shard_pending()) > 0
        for sid, payload in payloads.items():
            pipe.feed(sid, payload[len(payload) // 2:])
        assert all(s._streams[sid].bits is None for s in pipe.shards for sid in s._streams)
        serial = BitwiseCRC(spec)
        assert pipe.finalize_many([a, b]) == [serial.compute(payloads[a]), serial.compute(payloads[b])]
        pipe.abort(c)
        assert pipe.stream_count == 0 and pipe.pending_bits() == 0
    finally:
        pipe.close()


def test_abort_and_finalize_many_release_byte_buffers(cache):
    spec = get_crc("CRC-32")
    pipe = CRCPipeline(spec, 128, cache=cache)
    ids = [pipe.open() for _ in range(4)]
    for i, sid in enumerate(ids):
        pipe.feed(sid, bytes([i]) * (100 + 50 * i), pump=False)
    assert pipe.pending_bits() == 8 * sum(100 + 50 * i for i in range(4))
    pipe.abort(ids[1])
    with pytest.raises(StreamError):
        pipe.finalize_many([ids[0], ids[1]])  # unknown id: nothing consumed
    assert pipe.stream_count == 3
    serial = BitwiseCRC(spec)
    got = pipe.finalize_many([ids[3], ids[0], ids[2]])
    assert got == [serial.compute(bytes([i]) * (100 + 50 * i)) for i in (3, 0, 2)]
    assert pipe.stream_count == 0 and pipe.pending_bits() == 0


def test_pipeline_import_leaves_the_serve_stack_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys\n"
        "import repro.engine.pipeline as p\n"
        "from repro.crc import get\n"
        "pipe = p.CRCPipeline(get('CRC-32'), 128)\n"
        "sid = pipe.open(); pipe.feed(sid, b'123456789')\n"
        "assert pipe.finalize(sid) == 0xCBF43926\n"
        "heavy = ['asyncio', 'multiprocessing', 'hashlib', 'repro.engine.planner',\n"
        "         'repro.engine.parallel', 'repro.engine.microbatch',\n"
        "         'repro.engine.diskcache']\n"
        "print(','.join(m for m in heavy if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == ""


def test_every_engine_name_still_resolves():
    import repro.engine as engine

    for name in engine.__all__:
        assert getattr(engine, name) is not None
    assert set(engine.__all__) <= set(dir(engine))
    with pytest.raises(AttributeError):
        engine.no_such_name
