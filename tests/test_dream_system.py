"""Unit tests for repro.dream: system model, drivers, processor."""

import numpy as np
import pytest

from repro.crc import BitwiseCRC, ETHERNET_CRC32, MPEG2_CRC32, TableCRC
from repro.dream import (
    CRCAccelerator,
    DreamSystem,
    RiscControlModel,
    ScramblerAccelerator,
)
from repro.engine import BatchCRC, CompileCache, CRCPipeline
from repro.mapping import map_crc, map_scrambler
from repro.scrambler import AdditiveScrambler, IEEE80216E


@pytest.fixture(scope="module")
def system():
    return DreamSystem()


@pytest.fixture(scope="module")
def mapped128():
    return map_crc(ETHERNET_CRC32, 128)


@pytest.fixture(scope="module")
def mapped32():
    return map_crc(ETHERNET_CRC32, 32)


@pytest.fixture(scope="module")
def messages():
    rng = np.random.default_rng(2)
    return [bytes(rng.integers(0, 256, size=n).tolist()) for n in (46, 100, 1518)]


class TestExecutedCRC:
    def test_crc_correct(self, system, mapped128, messages):
        bw = BitwiseCRC(ETHERNET_CRC32)
        for m in messages:
            crc, _ = system.execute_crc(mapped128, m)
            assert crc == bw.compute(m)

    def test_non_reflected_with_init_correction(self, system, messages):
        mapped = map_crc(MPEG2_CRC32, 64)
        bw = BitwiseCRC(MPEG2_CRC32)
        for m in messages:
            crc, _ = system.execute_crc(mapped, m)
            assert crc == bw.compute(m)

    def test_partial_chunk_head_padding(self, system, mapped128):
        """46-byte minimum Ethernet frame: 368 bits, not a multiple of 128."""
        bw = BitwiseCRC(ETHERNET_CRC32)
        data = bytes(range(46))
        crc, _ = system.execute_crc(mapped128, data)
        assert crc == bw.compute(data)

    def test_empty_message_supported(self, system, mapped128):
        crc, perf = system.execute_crc(mapped128, b"")
        assert crc == BitwiseCRC(ETHERNET_CRC32).compute(b"")
        assert perf.payload_bits == 0

    def test_analytic_matches_executed(self, system, mapped128, messages):
        for m in messages:
            _, executed = system.execute_crc(mapped128, m)
            predicted = system.crc_single_performance(mapped128, 8 * len(m))
            assert executed.total_cycles == predicted.total_cycles, len(m)

    def test_analytic_matches_executed_direct_method(self, system, messages):
        mapped = map_crc(ETHERNET_CRC32, 32, method="direct")
        bw = BitwiseCRC(ETHERNET_CRC32)
        for m in messages:
            crc, executed = system.execute_crc(mapped, m)
            assert crc == bw.compute(m)
            predicted = system.crc_single_performance(mapped, 8 * len(m))
            assert executed.total_cycles == predicted.total_cycles


class TestExecutedInterleaved:
    def test_batch_correct(self, system, mapped128, messages):
        bw = BitwiseCRC(ETHERNET_CRC32)
        batch = messages * 4  # 12 messages, mixed lengths
        crcs, _ = system.execute_crc_interleaved(mapped128, batch)
        assert crcs == [bw.compute(m) for m in batch]

    def test_analytic_matches_executed_equal_lengths(self, system, mapped32):
        batch = [bytes(range(46))] * 8
        _, executed = system.execute_crc_interleaved(mapped32, batch)
        predicted = system.crc_interleaved_performance(mapped32, 368, 8)
        assert executed.total_cycles == predicted.total_cycles

    def test_interleaving_beats_single_for_short_messages(self, system, mapped128):
        single = system.crc_single_performance(mapped128, 368)
        batch = system.crc_interleaved_performance(mapped128, 368, 32)
        assert batch.throughput_bps > 3 * single.throughput_bps

    def test_empty_batch_rejected(self, system, mapped128):
        with pytest.raises(ValueError):
            system.execute_crc_interleaved(mapped128, [])


class TestExecutedScrambler:
    def test_bits_correct(self, system):
        mapped = map_scrambler(IEEE80216E, 64)
        rng = np.random.default_rng(4)
        bits = [int(b) for b in rng.integers(0, 2, size=999)]
        out, _ = system.execute_scrambler(mapped, bits)
        assert out == AdditiveScrambler(IEEE80216E).scramble_bits(bits)

    def test_analytic_matches_executed(self, system):
        mapped = map_scrambler(IEEE80216E, 64)
        bits = [1] * 640
        _, executed = system.execute_scrambler(mapped, bits)
        predicted = system.scrambler_performance(mapped, 640)
        assert executed.total_cycles == predicted.total_cycles


class TestAnalyticShapes:
    def test_peak_bandwidth_25gbps(self, system, mapped128):
        perf = system.crc_kernel_performance(mapped128, 128 * 100000)
        assert perf.throughput_gbps == pytest.approx(25.6)

    def test_throughput_monotone_in_length(self, system, mapped128):
        values = [
            system.crc_single_performance(mapped128, bits).throughput_bps
            for bits in (368, 1024, 4096, 12144, 65536)
        ]
        assert values == sorted(values)

    def test_gbps_inside_ethernet_window(self, system):
        """§5: Gbit/s speeds for M = 32/64/128 across 368..12144 bits."""
        for M in (32, 64, 128):
            mapped = map_crc(ETHERNET_CRC32, M)
            for bits in (368, 12144):
                perf = system.crc_single_performance(mapped, bits)
                assert perf.throughput_bps > 0.5e9, (M, bits)

    def test_larger_m_wins_at_long_messages(self, system, mapped32, mapped128):
        p32 = system.crc_single_performance(mapped32, 65536)
        p128 = system.crc_single_performance(mapped128, 65536)
        assert p128.throughput_bps > 2 * p32.throughput_bps

    def test_invalid_lengths(self, system, mapped32):
        with pytest.raises(ValueError):
            system.crc_single_performance(mapped32, 0)
        with pytest.raises(ValueError):
            system.crc_interleaved_performance(mapped32, 100, 0)


class TestLedgerEquivalenceSweep:
    """Randomized analytic-vs-executed equivalence: for any draw of
    (spec, M, message length, batch size) the Fig. 4/5/8 closed-form
    cycle totals must equal the co-simulated ledger exactly — the
    analytic mode is a shortcut, never an approximation."""

    SPECS = (ETHERNET_CRC32, MPEG2_CRC32)
    FACTORS = (8, 32, 64)

    def test_single_message_sweep(self, system):
        rng = np.random.default_rng(0x5EED)
        bw = {s.name: BitwiseCRC(s) for s in self.SPECS}
        for _ in range(12):
            spec = self.SPECS[int(rng.integers(len(self.SPECS)))]
            M = int(self.FACTORS[int(rng.integers(len(self.FACTORS)))])
            data = bytes(rng.integers(0, 256, size=int(rng.integers(1, 300))).tolist())
            mapped = system.compile_crc(spec, M)
            crc, executed = system.execute_crc(mapped, data)
            assert crc == bw[spec.name].compute(data), (spec.name, M)
            predicted = system.crc_single_performance(mapped, 8 * len(data))
            assert executed.total_cycles == predicted.total_cycles, (
                spec.name,
                M,
                len(data),
            )

    def test_interleaved_sweep(self, system):
        rng = np.random.default_rng(0xBA7C)
        for _ in range(8):
            spec = self.SPECS[int(rng.integers(len(self.SPECS)))]
            M = int(self.FACTORS[int(rng.integers(len(self.FACTORS)))])
            n = int(rng.integers(2, 13))
            nbytes = int(rng.integers(1, 200))
            batch = [
                bytes(rng.integers(0, 256, size=nbytes).tolist()) for _ in range(n)
            ]
            mapped = system.compile_crc(spec, M)
            crcs, executed = system.execute_crc_interleaved(mapped, batch)
            assert crcs == [BitwiseCRC(spec).compute(m) for m in batch]
            predicted = system.crc_interleaved_performance(mapped, 8 * nbytes, n)
            assert executed.total_cycles == predicted.total_cycles, (
                spec.name,
                M,
                n,
                nbytes,
            )

    def test_scrambler_sweep(self, system):
        rng = np.random.default_rng(0x5C2A)
        serial = AdditiveScrambler(IEEE80216E)
        for M in (16, 64):
            mapped = system.compile_scrambler(IEEE80216E, M)
            for _ in range(4):
                bits = [int(b) for b in rng.integers(0, 2, size=int(rng.integers(1, 700)))]
                out, executed = system.execute_scrambler(mapped, bits)
                assert out == serial.scramble_bits(bits)
                predicted = system.scrambler_performance(mapped, len(bits))
                assert executed.total_cycles == predicted.total_cycles, (M, len(bits))


class TestAccelerators:
    def test_crc_accelerator_end_to_end(self, messages):
        acc = CRCAccelerator(ETHERNET_CRC32, M=32)
        bw = BitwiseCRC(ETHERNET_CRC32)
        for m in messages:
            assert acc.compute(m) == bw.compute(m)

    def test_crc_accelerator_batch(self, messages):
        acc = CRCAccelerator(ETHERNET_CRC32, M=32)
        bw = BitwiseCRC(ETHERNET_CRC32)
        assert acc.compute_batch(messages) == [bw.compute(m) for m in messages]

    def test_kernel_bandwidth(self):
        acc = CRCAccelerator(ETHERNET_CRC32, M=128)
        assert acc.kernel_bandwidth_gbps() == pytest.approx(25.6)

    def test_scrambler_accelerator(self):
        acc = ScramblerAccelerator(IEEE80216E, M=32)
        bits = [1, 0, 1] * 50
        assert acc.scramble_bits(bits) == AdditiveScrambler(IEEE80216E).scramble_bits(bits)
        assert acc.kernel_bandwidth_gbps() == pytest.approx(6.4)


class TestHostEngines:
    """``batch_crc`` and ``crc_pipeline`` build the plain engines on the
    system's own compile cache."""

    # A reflected and a non-reflected 32-bit standard.
    SPECS = (ETHERNET_CRC32, MPEG2_CRC32)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_batch_crc_is_a_batch_engine(self, spec, messages):
        system = DreamSystem(cache=CompileCache())
        engine = system.batch_crc(spec.name, 128)
        assert type(engine) is BatchCRC
        assert engine.cache is system.cache
        table = TableCRC(spec)
        assert engine.compute_batch(messages) == [table.compute(m) for m in messages]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_crc_pipeline_is_a_plain_pipeline(self, spec, messages):
        system = DreamSystem(cache=CompileCache())
        pipe = system.crc_pipeline(spec, 32)
        assert type(pipe) is CRCPipeline
        assert pipe.cache is system.cache
        ids = [pipe.open() for _ in messages]
        for sid, message in zip(ids, messages):
            for at in range(0, len(message), 37):
                pipe.feed(sid, message[at : at + 37])
        table = TableCRC(spec)
        assert [pipe.finalize(sid) for sid in ids] == [
            table.compute(m) for m in messages
        ]

    @pytest.mark.parametrize("method", ("batch_crc", "crc_pipeline"))
    def test_m_is_required(self, method):
        with pytest.raises(TypeError):
            getattr(DreamSystem(cache=CompileCache()), method)(ETHERNET_CRC32)


class TestControlModel:
    def test_defaults(self):
        model = RiscControlModel()
        assert model.single_message_control() == 60
        assert model.interleaved_control(32) == 60 + 32 * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RiscControlModel(message_setup_cycles=-1)
        with pytest.raises(ValueError):
            RiscControlModel().interleaved_control(0)
