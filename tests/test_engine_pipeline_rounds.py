"""Byte streams and the per-run engine choice in :class:`~repro.engine.CRCPipeline`.

Every stream holds its register, its unabsorbed bytes and its
pending-bit count (8 a byte).  A pump clocks each ready stream's counted
whole bytes through the
byte table below ``SHORT_RUN_BYTES`` and through the byte-sliced gather
above it.  These tests pin either engine through the private
``_short_run`` override (``"table"``: every run on the table;
``"sliced"``: every run on the gather) and check that the choice never
shows: the same digests as ``BitwiseCRC``, the same ``pending_bits``
after every call, the same ``engine_pipeline_blocks_total`` and ``pump``
return values.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.crc.slicing as slicing_mod
from repro.crc import CATALOG, BitwiseCRC, DerbyCRC, LookaheadCRC, get as get_crc
from repro.crc.slicing import SLICE_DEPTH, ByteSlicedCRC
from repro.engine import CompileCache, CRCPipeline
from repro.engine.pipeline import SHORT_RUN_BYTES
from repro.errors import StreamError
from repro.gf2.backend import NumpyPackedBackend
from repro.telemetry import default_registry

#: Short-run threshold overrides pinning one byte engine.
ENGINES = {"table": sys.maxsize, "sliced": 0}
#: The paper's M-bit engines, a second reference at the pipeline's M.
PAPER_ENGINES = {"lookahead": LookaheadCRC, "derby": DerbyCRC}


@pytest.fixture(scope="module")
def cache():
    return CompileCache(capacity=64)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts packed GF(2) products issued anywhere (the kernel entry point)."""
    calls = []
    real = NumpyPackedBackend.matvec_batch

    def counting(self, matrix, packed):
        calls.append(packed.shape[1])
        return real(self, matrix, packed)

    monkeypatch.setattr(NumpyPackedBackend, "matvec_batch", counting)
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


def _pipe(spec, M, cache, engine=None):
    """A pipeline, pinned to one byte engine unless ``engine`` is None."""
    pipe = CRCPipeline(spec, M, cache=cache)
    if engine is not None:
        pipe._short_run = ENGINES[engine]
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
    """Either byte engine pinned, or the default threshold between them:
    the digests of the bit-serial reference and of the paper's M-bit
    engine (look-ahead or Derby) at the same M, and the same observable
    readings every time."""
    spec = get_crc(name)
    serial = BitwiseCRC(spec)
    paper = PAPER_ENGINES[method](spec, M)
    payloads, steps = _schedule(f"{name}/{M}/{method}", streams=5, max_bytes=300, max_chunk=80)
    expected = [serial.compute(p) for p in payloads]
    assert [paper.compute(p) for p in payloads] == expected
    results = {}
    for engine in (None, *ENGINES):
        blocks0 = _blocks_total()
        digests, readings = _replay(_pipe(spec, M, cache, engine), payloads, steps)
        assert digests == expected, engine
        results[engine] = (readings, _blocks_total() - blocks0)
    assert len(set(map(repr, results.values()))) == 1


@pytest.mark.parametrize("M", [3, 8, 128])
@pytest.mark.parametrize("name", [spec.name for spec in CATALOG])
def test_bytes_bits_bytes_on_every_catalog_spec(name, M, cache):
    """Bytes, a chunk of one to three bytes whose bits leave the stream's
    pending count off the M-block grid, then bytes again into a seeded
    register: every reading is what the M-bit block count says, and the
    digest is the bit-serial one, on either byte engine."""
    spec = get_crc(name)
    rng = random.Random(f"{name}/{M}")
    register = rng.randrange(1 << spec.width)
    head, tail = rng.randbytes(rng.randint(0, 200)), rng.randbytes(rng.randint(1, 200))
    mid = rng.randbytes(rng.randint(1, 3))
    expected = spec.finalize(BitwiseCRC(spec).raw_register(head + mid + tail, register))
    for engine in ENGINES:
        pipe = _pipe(spec, M, cache, engine)
        sid = pipe.open(register=register)
        pending = blocks = 0
        for chunk in (head, mid, tail):
            pipe.feed(sid, chunk, pump=False)
            pending += 8 * len(chunk)
            assert pipe.pending_bits(sid) == pending, engine
            blocks0 = _blocks_total()
            assert pipe.pump() == pending // M, engine
            assert _blocks_total() - blocks0 == pending // M
            blocks += pending // M
            pending %= M
            assert pipe.pending_bits(sid) == pipe.pending_bits() == pending, engine
            assert pipe.pump() == 0
        assert blocks == 8 * len(head + mid + tail) // M
        assert pipe.finalize(sid) == expected, engine
        assert pipe.stream_count == 0 and pipe.pending_bits() == 0


def test_finalize_checks_the_id_before_it_pumps(cache):
    """An unknown id raises before the pump: no other stream advances and
    the block counter does not move."""
    spec = get_crc("CRC-32")
    pipe = CRCPipeline(spec, 32, cache=cache)
    sid = pipe.open()
    pipe.feed(sid, bytes(100), pump=False)
    blocks0 = _blocks_total()
    with pytest.raises(StreamError):
        pipe.finalize("unknown")
    assert pipe.pending_bits(sid) == 800
    assert _blocks_total() == blocks0
    assert pipe.finalize(sid) == BitwiseCRC(spec).compute(bytes(100))


def test_deep_rounds_advance_stream_by_stream(cache, kernel_calls, sliced_runs):
    """A wide round of deep streams advances each stream's whole blocks
    with one gather, and never through a packed product."""
    spec = get_crc("CRC-32")
    M = 128
    pipe = CRCPipeline(spec, M, cache=cache)
    ids = [pipe.open() for _ in range(128)]
    payload = bytes(range(256)) * 2
    for sid in ids:
        pipe.feed(sid, payload, pump=False)
    assert pipe.pump() == len(ids) * len(payload) * 8 // M
    assert kernel_calls == []
    assert sliced_runs == [len(payload)] * len(ids)
    assert pipe.finalize_many(ids) == [BitwiseCRC(spec).compute(payload)] * len(ids)


def test_deep_backlog_runs_in_slabs(cache, monkeypatch):
    """A backlog deeper than one gather slab runs through the gather slab
    by slab; the slab edges must not show in the digests or the block
    count."""
    monkeypatch.setattr(slicing_mod, "_SLAB_BLOCKS", 2)
    spec = get_crc("CRC-32C")
    M = 32
    pipe = CRCPipeline(spec, M, cache=cache)
    rng = random.Random(11)
    payloads = [rng.randbytes(rng.randint(5 * SLICE_DEPTH, 9 * SLICE_DEPTH)) for _ in range(6)]
    ids = [pipe.open() for _ in payloads]
    for sid, payload in zip(ids, payloads):
        pipe.feed(sid, payload, pump=False)
    assert pipe.pump() == sum(len(p) * 8 // M for p in payloads)
    assert pipe.pending_bits() == sum(len(p) * 8 % M for p in payloads)
    serial = BitwiseCRC(spec)
    assert pipe.finalize_many(ids) == [serial.compute(p) for p in payloads]


def test_lone_streams_never_reach_the_kernel(cache, kernel_calls):
    """No stream reaches the packed GF(2) product: not byte streams, not
    sub-block tails, not M % 8 != 0, not mixed-reflection or narrow
    non-reflected specs."""
    for name, M in (("CRC-32", 128), ("CRC-32", 12), ("CRC-12/UMTS", 64), ("CRC-7/MMC", 5)):
        spec = get_crc(name)
        pipe = CRCPipeline(spec, M, cache=cache)
        sids = [pipe.open() for _ in range(63)]
        for sid in sids:
            pipe.feed(sid, bytes(range(200)))
        pipe.feed(sids[0], b"\x05", pump=False)
        serial = BitwiseCRC(spec)
        expected = [serial.compute(bytes(range(200)))] * len(sids)
        expected[0] = serial.compute(bytes(range(200)) + b"\x05")
        assert pipe.finalize_many(sids) == expected, name
    assert kernel_calls == []


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
    """Pipelines at any M compile one table stack per spec, and nothing
    else: no ``A^M`` / ``B_M`` or Derby-basis matrices."""
    spec = get_crc("CRC-32C")
    cache = CompileCache()
    a, b = CRCPipeline(spec, 64, cache=cache), CRCPipeline(spec, 128, cache=cache)
    assert a._sliced._flat.base is b._sliced._flat.base is cache.slicing_tables(spec)
    assert cache.keys() == [("slicing-tables", spec)]


@pytest.mark.parametrize("M", [4, 12, 20])
def test_m_not_a_multiple_of_eight_counts_whole_blocks(M, cache):
    """A block may end inside a byte: the pump counts it whole, and its
    last bits wait in the buffer for the next pump or ``finalize``."""
    spec = get_crc("CRC-32")
    for engine in ENGINES:
        pipe = _pipe(spec, M, cache, engine)
        sid = pipe.open()
        pending = 0
        for chunk in (b"1", b"2345", b"", b"6789"):
            pipe.feed(sid, chunk, pump=False)
            pending += 8 * len(chunk)
            assert pipe.pump() == pending // M
            pending %= M
            assert pipe.pending_bits(sid) == pending
        assert pipe.finalize(sid) == 0xCBF43926, engine


@pytest.mark.parametrize("name", ["CRC-12/UMTS", "CRC-7/MMC"])
@pytest.mark.parametrize("method", ["lookahead", "derby"])
def test_mixed_and_narrow_specs_take_byte_buffers(name, method, cache, kernel_calls):
    """CRC-12/UMTS mixes reflections; CRC-7/MMC is narrow and non-reflected.
    Both stay byte buffers with no packed product, and give the digests of
    the bit-serial reference and of the paper's M-bit engine (``method``)."""
    spec = get_crc(name)
    message = b"123456789" * 7
    expected = BitwiseCRC(spec).compute(message)
    for engine in ENGINES:
        pipe = _pipe(spec, 16, cache, engine)
        sid = pipe.open()
        pipe.feed(sid, message, pump=False)
        assert len(pipe._streams[sid].data) == len(message)
        assert pipe.pending_bits(sid) == 8 * len(message)
        assert pipe.pump() == 8 * len(message) // 16
        assert pipe.pending_bits(sid) == 8 * len(message) % 16
        assert pipe.finalize(sid) == expected, engine
    assert kernel_calls == []
    assert PAPER_ENGINES[method](spec, 16).compute(message) == expected


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_seeded_registers(engine, cache):
    spec = get_crc("CRC-32C")
    serial = BitwiseCRC(spec)
    pipe = _pipe(spec, 32, cache, engine)
    sid = pipe.open(register=0x1234ABCD)
    pipe.feed(sid, b"seeded register" * 4)
    expected = spec.finalize(serial.raw_register(b"seeded register" * 4, 0x1234ABCD))
    assert pipe.finalize(sid) == expected


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
        "         'repro.engine.parallel', 'repro.engine.microbatch']\n"
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
