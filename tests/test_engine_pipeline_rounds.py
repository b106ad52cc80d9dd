"""Per-round engine choice in :class:`~repro.engine.CRCPipeline.pump`.

A pump round with fewer than ``TABLE_CROSSOVER`` ready streams advances
each of them through the byte table; a wider round runs one packed GF(2)
product.  These tests pin either engine through the private
``_crossover`` override (0 = every round packed, ``sys.maxsize`` = every
round the table can take) and check that the choice is invisible: the
same digests, the same ``pending_bits`` after every call, the same
``engine_pipeline_blocks_total`` and ``pump`` return values.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.engine.pipeline as pipeline_mod
from repro.crc import BitwiseCRC, get as get_crc
from repro.engine import CompileCache, CRCPipeline
from repro.engine.pipeline import TABLE_CROSSOVER
from repro.telemetry import default_registry

PACKED, TABLE = 0, sys.maxsize
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


def _pipe(spec, M, crossover, cache, method="lookahead"):
    pipe = CRCPipeline(spec, M, method=method, cache=cache)
    pipe._crossover = crossover
    return pipe


def _blocks_total():
    family = default_registry().get("engine_pipeline_blocks_total")
    return family.labels(kind="crc").value if family is not None else 0.0


def _schedule(seed, streams, max_bytes=90):
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
                n = rng.randint(1, 24)
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
    spec = get_crc(name)
    serial = BitwiseCRC(spec)
    payloads, steps = _schedule(f"{name}/{M}/{method}", streams=5)
    results = {}
    for engine, crossover in ENGINES.items():
        blocks0 = _blocks_total()
        digests, readings = _replay(_pipe(spec, M, crossover, cache, method), payloads, steps)
        assert digests == [serial.compute(p) for p in payloads], engine
        results[engine] = (readings, _blocks_total() - blocks0)
    assert results["packed"] == results["table"]


def test_round_occupancy_crossing_the_constant(cache, kernel_calls):
    """Packed rounds run while TABLE_CROSSOVER streams are ready; the
    streams still holding blocks after that finish on the table."""
    spec = get_crc("CRC-32")
    M = 32
    pipe = CRCPipeline(spec, M, cache=cache)
    streams = TABLE_CROSSOVER + 2
    # Stream i holds i + 1 whole blocks: round r has streams - r ready.
    payloads = [bytes([i]) * ((i + 1) * M // 8) for i in range(streams)]
    ids = [pipe.open() for _ in payloads]
    for sid, payload in zip(ids, payloads):
        pipe.feed(sid, payload, pump=False)
    assert pipe.pump() == sum(i + 1 for i in range(streams))
    # Rounds 0..2 have TABLE_CROSSOVER + 2 .. TABLE_CROSSOVER ready streams.
    assert kernel_calls == [1, 1, 1]
    assert pipe.pending_bits() == 0
    serial = BitwiseCRC(spec)
    assert pipe.finalize_many(ids) == [serial.compute(p) for p in payloads]


def test_deep_backlog_runs_in_slabs(cache, kernel_calls, monkeypatch):
    """A backlog deeper than one gather runs its packed rounds in slabs;
    the slab edges must not show in the digests or the round count."""
    monkeypatch.setattr(pipeline_mod, "_GATHER_BITS", 32 * TABLE_CROSSOVER * 3)
    spec = get_crc("CRC-32")
    M = 32
    pipe = CRCPipeline(spec, M, method="derby", cache=cache)
    rng = random.Random(11)
    payloads = [
        bytes(rng.randrange(256) for _ in range(rng.randint(40, 90)))
        for _ in range(TABLE_CROSSOVER + 4)
    ]
    ids = [pipe.open() for _ in payloads]
    for sid, payload in zip(ids, payloads):
        pipe.feed(sid, payload, pump=False)
    blocks = sorted((len(p) * 8 // M for p in payloads), reverse=True)
    assert pipe.pump() == sum(blocks)
    assert len(kernel_calls) == blocks[TABLE_CROSSOVER - 1]
    serial = BitwiseCRC(spec)
    assert pipe.finalize_many(ids) == [serial.compute(p) for p in payloads]


def test_lone_streams_never_reach_the_kernel(cache, kernel_calls):
    spec = get_crc("CRC-32")
    pipe = CRCPipeline(spec, 128, cache=cache)
    sids = [pipe.open() for _ in range(TABLE_CROSSOVER - 1)]
    for sid in sids:
        pipe.feed(sid, bytes(range(200)))
    assert kernel_calls == []
    assert pipe.finalize_many(sids) == [BitwiseCRC(spec).compute(bytes(range(200)))] * len(sids)


@pytest.mark.parametrize("M", [4, 12, 20])
def test_m_not_a_multiple_of_eight_stays_packed(M, cache, kernel_calls):
    spec = get_crc("CRC-32")
    pipe = _pipe(spec, M, TABLE, cache)
    sid = pipe.open()
    pipe.feed(sid, b"123456789")
    assert kernel_calls, "a non-byte block must go through the packed product"
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
