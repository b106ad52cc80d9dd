"""Cross-engine equivalence and per-engine behaviour tests."""

import random

import numpy as np
import pytest

from repro.crc import (
    CATALOG,
    BitwiseCRC,
    ByteSlicedCRC,
    CRCSpec,
    DerbyCRC,
    ETHERNET_CRC32,
    GFMACCRC,
    LookaheadCRC,
    MPEG2_CRC32,
    SlicingCRC,
    TableCRC,
    build_slicing_tables,
    build_table,
    get,
)
import repro.crc.slicing as slicing
from repro.crc.gfmac import chunk_message_bits
from repro.crc.slicing import GATHER_MIN_ROWS, SLICE_DEPTH
from repro.engine import BatchCRC, CompileCache

SPECS = [ETHERNET_CRC32, MPEG2_CRC32, get("CRC-16/CCITT-FALSE"), get("CRC-16/ARC")]


@pytest.fixture(scope="module")
def messages():
    rng = np.random.default_rng(2024)
    lengths = [0, 1, 2, 3, 8, 15, 16, 17, 64, 255]
    return [bytes(rng.integers(0, 256, size=n).tolist()) for n in lengths]


class TestSoftwareEngineEquivalence:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_table_equals_bitwise(self, spec, messages):
        bw, tb = BitwiseCRC(spec), TableCRC(spec)
        for m in messages:
            assert tb.compute(m) == bw.compute(m)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("slices", [4, 8, 16])
    def test_slicing_equals_bitwise(self, spec, slices, messages):
        bw, sl = BitwiseCRC(spec), SlicingCRC(spec, slices)
        for m in messages:
            assert sl.compute(m) == bw.compute(m)

    def test_slicing_fallback_for_odd_width(self, messages):
        spec = get("CRC-15/CAN")
        sl = SlicingCRC(spec)
        assert not sl.supported
        bw = BitwiseCRC(spec)
        for m in messages:
            assert sl.compute(m) == bw.compute(m)

    def test_slicing_rejects_bad_count(self):
        with pytest.raises(ValueError):
            SlicingCRC(ETHERNET_CRC32, 0)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_byte_sliced_equals_bitwise(self, spec, messages):
        bw, bs = BitwiseCRC(spec), ByteSlicedCRC(spec)
        for m in messages:
            assert bs.compute(m) == bw.compute(m)

    def test_narrow_width_table(self, messages):
        for name in ("CRC-5/USB", "CRC-7/MMC"):
            spec = get(name)
            bw, tb = BitwiseCRC(spec), TableCRC(spec)
            for m in messages:
                assert tb.compute(m) == bw.compute(m)


class TestByteSlicedCRC:
    """The byte-sliced look-ahead against the bit-serial reference."""

    @pytest.mark.parametrize("depth", [16, SLICE_DEPTH])
    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_every_catalog_spec_at_block_edges(self, spec, depth):
        """Lengths around the register width and the block edges, from
        seeded random registers (a block shorter than the register
        leaves part of it unfolded)."""
        engine = ByteSlicedCRC(spec, build_slicing_tables(spec, depth))
        assert engine.supported
        serial = BitwiseCRC(spec)
        nbytes = -(-spec.width // 8)
        rng = random.Random(f"{spec.name}/{depth}")
        lengths = {0, 1, nbytes - 1, nbytes, depth - 1, depth, depth + 1, 3 * depth + 5}
        for n in sorted(lengths):
            data = rng.randbytes(n)
            for _ in range(3):
                register = rng.getrandbits(spec.width)
                assert engine.raw_register(data, register) == serial.raw_register(
                    data, register
                ), (n, hex(register))

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_batch_door_starts_where_raw_register_does(self, spec):
        """``raw_registers_batch`` clocks every message from ``spec.init``,
        as ``raw_register`` does by default: a group below the gather
        floor, an equal-length gathered group and a ragged gathered one
        (rows shorter than the register among them)."""
        engine = ByteSlicedCRC(spec)
        rng = random.Random(f"start/{spec.name}")
        nbytes = -(-spec.width // 8)
        below = [rng.randbytes(rng.randrange(0, 100)) for _ in range(GATHER_MIN_ROWS - 1)]
        equal = [rng.randbytes(SLICE_DEPTH + 3) for _ in range(GATHER_MIN_ROWS)]
        ragged = [rng.randbytes(rng.randrange(1, nbytes + 1)) for _ in range(3)]
        ragged += [rng.randbytes(rng.randrange(1, SLICE_DEPTH)) for _ in range(GATHER_MIN_ROWS)]
        for messages in (below, equal, ragged):
            single = [engine.raw_register(m) for m in messages]
            assert engine.raw_registers_batch(messages) == single
            assert engine.raw_registers_batch(messages, finalize=True) == [
                spec.finalize(r) for r in single
            ]

    @pytest.mark.parametrize(
        "name", ["CRC-32", "CRC-16/ARC", "CRC-12/DECT", "CRC-5/USB", "CRC-64/XZ", "CRC-15/CAN"]
    )
    def test_check_values(self, name):
        spec = get(name)
        assert ByteSlicedCRC(spec).compute(b"123456789") == spec.check

    def test_row_zero_is_the_aligned_byte_table(self):
        for name, dtype in (("CRC-32", np.uint32), ("CRC-12/DECT", np.uint32),
                            ("CRC-64/XZ", np.uint64)):
            spec = get(name)
            rows = build_slicing_tables(spec, 4)
            assert rows.shape == (4, 256) and rows.dtype == dtype
            shift = 0 if spec.refin else -spec.width % 8
            assert rows[0].tolist() == [t << shift for t in build_table(spec)]

    def test_wider_than_64_bits_keeps_the_byte_loop(self, messages):
        spec = CRCSpec(
            name="CRC-82/DARC", width=82, poly=0x0308C0111011401440411,
            refin=True, refout=True, check=0x09EA83F625023801FD612,
        )
        engine = ByteSlicedCRC(spec)
        assert not engine.supported
        assert engine.compute(b"123456789") == spec.check
        serial = BitwiseCRC(spec)
        for m in messages:
            assert engine.raw_register(m, 0x123456789) == serial.raw_register(m, 0x123456789)
        assert build_slicing_tables(spec, 2).dtype == object

    def test_stack_must_cover_the_register(self):
        with pytest.raises(ValueError):
            ByteSlicedCRC(ETHERNET_CRC32, build_slicing_tables(ETHERNET_CRC32, 3))
        with pytest.raises(ValueError):
            build_slicing_tables(ETHERNET_CRC32, 0)

    def test_accepts_any_bytes_like(self):
        engine, data = ByteSlicedCRC(ETHERNET_CRC32), bytes(range(256)) * 3
        expected = TableCRC(ETHERNET_CRC32).compute(data)
        for view in (data, bytearray(data), memoryview(data)):
            assert engine.compute(view) == expected


class TestMatrixEngines:
    @pytest.mark.parametrize("M", [1, 4, 8, 32, 64, 128])
    def test_lookahead_equals_bitwise_crc32(self, M, messages):
        bw, la = BitwiseCRC(ETHERNET_CRC32), LookaheadCRC(ETHERNET_CRC32, M)
        for m in messages:
            assert la.compute(m) == bw.compute(m)

    @pytest.mark.parametrize("M", [1, 4, 8, 32, 64, 128])
    def test_derby_equals_bitwise_crc32(self, M, messages):
        bw, db = BitwiseCRC(ETHERNET_CRC32), DerbyCRC(ETHERNET_CRC32, M)
        for m in messages:
            assert db.compute(m) == bw.compute(m)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_derby_all_specs(self, spec, messages):
        bw, db = BitwiseCRC(spec), DerbyCRC(spec, 16)
        for m in messages:
            assert db.compute(m) == bw.compute(m)

    def test_tail_not_multiple_of_m(self):
        """M = 24 never divides 8·len for odd lengths — exercises the
        serial tail path."""
        bw, db = BitwiseCRC(ETHERNET_CRC32), DerbyCRC(ETHERNET_CRC32, 24)
        assert db.compute(b"12345") == bw.compute(b"12345")

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            LookaheadCRC(ETHERNET_CRC32, 0)

    def test_streaming_api(self, messages):
        db = DerbyCRC(ETHERNET_CRC32, 32)
        bw = BitwiseCRC(ETHERNET_CRC32)
        m = messages[-1][:64]  # 512 bits = 16 chunks of 32
        bits = ETHERNET_CRC32.message_bits(m)
        state = db.stream_state(ETHERNET_CRC32.init)
        for off in range(0, len(bits), 32):
            state = db.stream_block(state, bits[off : off + 32])
        assert ETHERNET_CRC32.finalize(db.stream_finish(state)) == bw.compute(m)

    def test_paper_128bit_lookahead_exists(self):
        """§4: 'PiCoGA is able to elaborate up to 128 bit per cycle'."""
        db = DerbyCRC(ETHERNET_CRC32, 128)
        assert db.transform.A_Mt.is_companion()
        assert db.transform.B_Mt.shape == (32, 128)


class TestGFMAC:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("chunk", [8, 24, 32, 128])
    def test_equals_bitwise(self, spec, chunk, messages):
        bw, gm = BitwiseCRC(spec), GFMACCRC(spec, chunk)
        for m in messages:
            assert gm.compute(m) == bw.compute(m)

    def test_chunking_weights(self):
        chunks = chunk_message_bits([1, 0, 1, 1, 0], 2)
        assert chunks == [(0b10, 3), (0b11, 1), (0b0, 0)]

    def test_chunking_rejects_bad_size(self):
        with pytest.raises(ValueError):
            chunk_message_bits([1], 0)

    def test_beta_constants(self):
        gm = GFMACCRC(ETHERNET_CRC32, 32)
        # weight 0: x^32 mod G = G - x^32 = the low polynomial bits.
        assert gm.beta(0) == 0x04C11DB7

    def test_gfmac_count_tracks_work(self):
        gm = GFMACCRC(MPEG2_CRC32, 32)
        gm.compute(b"\x00" * 16)  # 128 bits -> 4 chunks + 1 init term
        assert gm.gfmac_count == 5

    def test_reference_cycle_claim_workload(self):
        """[10]: a 128-bit message needs N/M = 4 GFMACs at M = 32 — with 16
        units that is a couple of cycles, matching the cited 2-3 cycles."""
        gm = GFMACCRC(MPEG2_CRC32, 32)
        gm.compute(b"\xaa" * 16)
        assert gm.gfmac_count <= 16


class TestErrorDetectionProperties:
    """CRC behaviour guarantees that make it a *check* code."""

    def test_single_bit_errors_detected(self):
        bw = BitwiseCRC(ETHERNET_CRC32)
        data = bytearray(b"The quick brown fox")
        good = bw.compute(bytes(data))
        for byte_idx in range(len(data)):
            for bit in range(8):
                data[byte_idx] ^= 1 << bit
                assert bw.compute(bytes(data)) != good
                data[byte_idx] ^= 1 << bit

    def test_burst_errors_detected(self):
        """Any burst shorter than the width is caught."""
        bw = BitwiseCRC(ETHERNET_CRC32)
        data = bytearray(b"payload payload payload")
        good = bw.compute(bytes(data))
        for start in range(0, len(data) - 4):
            corrupted = bytearray(data)
            corrupted[start] ^= 0xFF
            corrupted[start + 3] ^= 0x81
            assert bw.compute(bytes(corrupted)) != good

    def test_linearity_over_gf2(self):
        """crc0(a ^ b) == crc0(a) ^ crc0(b) for the zero-preset raw CRC."""
        spec = get("CRC-16/XMODEM")  # init = 0, xorout = 0, no reflection
        bw = BitwiseCRC(spec)
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = bytes(rng.integers(0, 256, size=20).tolist())
            b = bytes(rng.integers(0, 256, size=20).tolist())
            ab = bytes(x ^ y for x, y in zip(a, b))
            assert bw.compute(ab) == bw.compute(a) ^ bw.compute(b)

    def test_verify_roundtrip(self):
        for engine_cls in (BitwiseCRC, TableCRC):
            engine = engine_cls(ETHERNET_CRC32)
            assert engine.verify(b"data", engine.compute(b"data"))
            assert not engine.verify(b"data", engine.compute(b"data") ^ 1)


DARC82 = CRCSpec(
    name="CRC-82/DARC", width=82, poly=0x0308C0111011401440411,
    refin=True, refout=True, check=0x09EA83F625023801FD612,
)


@pytest.fixture(scope="module")
def batch_cache():
    return CompileCache(capacity=128)


def _mixed_lengths(spec):
    """One call's byte lengths: empty, shorter than the register, around
    one, two, three and four blocks, three of them an equal ``D + 1``.
    Every block-count group here is smaller than ``GATHER_MIN_ROWS``, so
    each message runs on its own; ``test_groups_either_side_of_the_gather_floor``
    gathers groups."""
    D = SLICE_DEPTH
    return [0, 1, max(-(-spec.width // 8) - 1, 0), D - 1, D,
            D + 1, D + 1, D + 1, 2 * D + 1, 3 * D + 5]


class TestBatchGather:
    """``BatchCRC``: every call one grouped gather over the table stack."""

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_byte_door_mixes_lengths_in_one_call(self, spec, batch_cache):
        rng = random.Random(spec.name)
        messages = [rng.randbytes(n) for n in _mixed_lengths(spec)]
        engine = BatchCRC(spec, 32, cache=batch_cache)
        serial = BitwiseCRC(spec)
        assert engine.compute_batch(messages) == [serial.compute(m) for m in messages]
        assert engine.raw_registers(messages) == [
            serial.raw_register(m) for m in messages
        ]

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_groups_either_side_of_the_gather_floor(self, spec, batch_cache):
        """A block-count group of ``GATHER_MIN_ROWS`` messages gathers, and
        a smaller one runs message by message: a ragged two-block group
        gathers beside one message fewer of one block."""
        rng = random.Random(f"floor/{spec.name}")
        D = SLICE_DEPTH
        sizes = [D + rng.randrange(1, 17) for _ in range(GATHER_MIN_ROWS)]
        sizes += [rng.randrange(1, 65) for _ in range(GATHER_MIN_ROWS - 1)]
        rng.shuffle(sizes)
        messages = [rng.randbytes(n) for n in sizes]
        engine = BatchCRC(spec, 32, cache=batch_cache)
        serial = BitwiseCRC(spec)
        assert engine.compute_batch(messages) == [serial.compute(m) for m in messages]

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_equal_length_groups_at_the_edges(self, spec, batch_cache, monkeypatch):
        """Equal-length groups at the register's and the blocks' edges,
        of ``GATHER_MIN_ROWS`` rows and of one slab + 1 rows (on a 4-block
        slab, so the last slab holds one row), through both doors.  Rows
        cycle through five payloads, each checked once bit-serially."""
        rng = random.Random(f"edges/{spec.name}")
        D, nbytes = SLICE_DEPTH, -(-spec.width // 8)
        engine = BatchCRC(spec, 32, cache=batch_cache)
        serial = BitwiseCRC(spec)
        monkeypatch.setattr(slicing, "_SLAB_BLOCKS", 4)
        for n in sorted({1, max(nbytes - 1, 1), nbytes, D - 1, D, D + 1, 2 * D + 1}):
            pool = [rng.randbytes(n) for _ in range(5)]
            raws = {m: serial.raw_register(m) for m in pool}
            per_slab = slicing._SLAB_BLOCKS * D // n
            for rows in (GATHER_MIN_ROWS, max(GATHER_MIN_ROWS, per_slab) + 1):
                batch = [pool[i % len(pool)] for i in range(rows)]
                assert engine.compute_batch(batch) == [spec.finalize(raws[m]) for m in batch]
                assert engine.raw_registers(batch) == [raws[m] for m in batch]

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_ragged_init_folds_into_the_gathered_bytes(self, spec, batch_cache, monkeypatch):
        """Byte messages take the init in their first gathered bytes: a
        ragged batch whose every block-count group gathers, rows shorter
        than the register among them, clocks no single message."""
        rng = random.Random(f"ragged/{spec.name}")
        D, nbytes = SLICE_DEPTH, -(-spec.width // 8)
        sizes = [rng.randrange(1, nbytes + 1) for _ in range(4)]
        sizes += [rng.randrange(1, D + 1) for _ in range(GATHER_MIN_ROWS)]
        sizes += [rng.randrange(D + 1, 2 * D + 1) for _ in range(GATHER_MIN_ROWS)]
        rng.shuffle(sizes)
        messages = [rng.randbytes(n) for n in sizes]
        serial = BitwiseCRC(spec)
        raws = [serial.raw_register(m) for m in messages]
        engine = BatchCRC(spec, 32, cache=batch_cache)
        clocked = []
        single = ByteSlicedCRC.raw_register
        monkeypatch.setattr(
            ByteSlicedCRC, "raw_register",
            lambda self, data, register=None: clocked.append(len(data)) or single(self, data, register),
        )
        assert engine.compute_batch(messages) == [spec.finalize(r) for r in raws]
        assert engine.raw_registers(messages) == raws
        assert clocked == []

    def test_long_messages_gather_from_the_long_floor(self, monkeypatch):
        """Past ``_SHORT_BLOCKS`` blocks a group of ``GATHER_MIN_ROWS``
        messages runs message by message, and one of
        ``LONG_GATHER_MIN_ROWS`` gathers."""
        rng = random.Random("long-floor")
        short = slicing._SHORT_BLOCKS * SLICE_DEPTH
        engine = ByteSlicedCRC(ETHERNET_CRC32)
        table = TableCRC(ETHERNET_CRC32)
        clocked = []
        single = ByteSlicedCRC.raw_register
        monkeypatch.setattr(
            ByteSlicedCRC, "raw_register",
            lambda self, data, register=None: clocked.append(len(data)) or single(self, data, register),
        )
        for n, rows, alone in ((short, GATHER_MIN_ROWS, 0),
                               (short + 1, GATHER_MIN_ROWS, GATHER_MIN_ROWS),
                               (short + 1, slicing.LONG_GATHER_MIN_ROWS, 0)):
            messages = [rng.randbytes(n) for _ in range(rows)]
            clocked.clear()
            assert engine.raw_registers_batch(messages, finalize=True) == [
                table.compute(m) for m in messages
            ]
            assert len(clocked) == alone

    def test_wider_than_64_bits_runs_per_message(self, batch_cache):
        rng = random.Random(82)
        messages = [rng.randbytes(n) for n in _mixed_lengths(DARC82)]
        engine = BatchCRC(DARC82, 32, cache=batch_cache)
        serial = BitwiseCRC(DARC82)
        assert engine.compute(b"123456789") == DARC82.check
        assert engine.compute_batch(messages) == [serial.compute(m) for m in messages]
        assert engine.raw_registers(messages) == [serial.raw_register(m) for m in messages]

    @pytest.mark.parametrize("name", ["CRC-32", "CRC-16/ARC", "CRC-12/UMTS"])
    def test_row_and_block_slabs_at_a_shallow_stack(self, name):
        """300 rows of 7-block messages on a 16-row stack: the rows split
        into slabs, and each slab gathers several blocks at once."""
        spec = get(name)
        engine = ByteSlicedCRC(spec, build_slicing_tables(spec, 16))
        rng = random.Random(name)
        messages = [rng.randbytes(100) for _ in range(300)]
        messages += [rng.randbytes(rng.randrange(97, 113)) for _ in range(40)]
        table = TableCRC(spec)
        assert engine.raw_registers_batch(messages) == [
            table.raw_register(m) for m in messages
        ]

    def test_threads_sharing_one_engine_keep_their_own_slabs(self, batch_cache):
        """Thread shards share one serial engine: calls on several threads
        at once, switching every microsecond, each get their own batch's
        CRCs (the slab buffers are per thread)."""
        import sys
        import threading

        spec = get("CRC-32C")
        serial = BitwiseCRC(spec)
        rng = random.Random(5)
        pools = [[rng.randbytes(n) for _ in range(3)] for n in (40, 300, 600, 1000)]
        crcs = {m: serial.compute(m) for pool in pools for m in pool}
        engine = BatchCRC(spec, 32, cache=batch_cache)
        wrong, done = [], []

        def worker(pool):
            batch = [pool[i % len(pool)] for i in range(64)]
            for _ in range(30):
                if engine.compute_batch(batch) != [crcs[m] for m in batch]:
                    wrong.append(len(pool[0]))
            done.append(len(pool[0]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(pool,)) for pool in pools]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == [40, 300, 600, 1000] and wrong == []

    def test_never_reaches_the_packed_matvec(self, monkeypatch, batch_cache):
        from repro.gf2.backend import NumpyPackedBackend

        calls = []
        monkeypatch.setattr(
            NumpyPackedBackend, "matvec_batch", lambda *args: calls.append(args)
        )
        engine = BatchCRC(ETHERNET_CRC32, 128, cache=batch_cache)
        messages = [bytes(range(256))] * 64 + [b"", b"abc"]
        assert engine.compute_batch(messages)[-1] == BitwiseCRC(ETHERNET_CRC32).compute(b"abc")
        engine.raw_registers(messages)
        assert calls == []
