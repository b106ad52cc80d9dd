"""Tail edge cases across every parallel CRC/scrambler path.

The look-ahead recurrence only sees whole M-bit blocks, so the three
dangerous message shapes are: zero-length (no blocks at all), shorter
than M (a single partial block), and a non-multiple-of-M tail.  Each
engine handles them differently — ``DerbyCRC`` finishes serially,
``BatchCRC``/``DreamSystem`` head-zero-pad and fold the init in —
but all of them must agree with :class:`repro.crc.bitwise.BitwiseCRC`.
``BatchCRC`` has no blocks of M bits at all (it gathers bytes), so its
edge cases are checked against the look-ahead and Derby engines too.
"""

import pytest

from repro.crc import BitwiseCRC, DerbyCRC, LookaheadCRC, get as get_crc
from repro.dream.system import DreamSystem
from repro.engine import (
    BatchAdditiveScrambler,
    BatchCRC,
    BatchMultiplicativeScrambler,
    CompileCache,
    CRCPipeline,
)
from repro.gf2.bits import bits_to_bytes, bytes_to_bits
from repro.gf2.polynomial import GF2Polynomial
from repro.scrambler import AdditiveScrambler, IEEE80216E
from repro.scrambler.multiplicative import MultiplicativeScrambler

SPEC_NAMES = ("CRC-8", "CRC-16/CCITT-FALSE", "CRC-32")
# For M=32: b"" is empty, b"a"/b"abc" are shorter than one block, and the
# 5/9/13-byte messages leave 8/8/8-bit tails (40, 72, 104 bits mod 32).
EDGE_MESSAGES = (b"", b"a", b"abc", b"edge!", b"stressful", b"thirteen bytes"[:13])


@pytest.fixture(scope="module")
def cache():
    return CompileCache(capacity=128)


@pytest.mark.parametrize("name", SPEC_NAMES)
@pytest.mark.parametrize("M", [4, 8, 32])
def test_derby_crc_edges(name, M):
    spec = get_crc(name)
    serial = BitwiseCRC(spec)
    engine = DerbyCRC(spec, M)
    for m in EDGE_MESSAGES:
        assert engine.compute(m) == serial.compute(m), (name, M, m)


@pytest.mark.parametrize("name", SPEC_NAMES)
@pytest.mark.parametrize("method", ["lookahead", "derby"])
def test_batch_crc_edges(name, method, cache):
    """The batch engine against the bit-serial reference and the paper's
    ``method`` engine at the same M."""
    spec = get_crc(name)
    serial = BitwiseCRC(spec)
    for M in (4, 8, 32):
        paper = (LookaheadCRC if method == "lookahead" else DerbyCRC)(spec, M)
        engine = BatchCRC(spec, M, cache=cache)
        got = engine.compute_batch(list(EDGE_MESSAGES))
        assert got == [serial.compute(m) for m in EDGE_MESSAGES], (name, M)
        assert got == [paper.compute(m) for m in EDGE_MESSAGES], (name, M)
        # Singleton API agrees with the batch path.
        assert engine.compute(b"") == serial.compute(b"")


def test_batch_crc_empty_batch(cache):
    engine = BatchCRC(get_crc("CRC-32"), 8, cache=cache)
    assert engine.compute_batch([]) == []
    assert engine.raw_registers([]) == []


def test_crc_pipeline_edges(cache):
    spec = get_crc("CRC-32")
    serial = BitwiseCRC(spec)
    pipe = CRCPipeline(spec, 32, cache=cache)
    ids = [pipe.open() for _ in EDGE_MESSAGES]
    for sid, m in zip(ids, EDGE_MESSAGES):
        pipe.feed(sid, m)
    assert [pipe.finalize(sid) for sid in ids] == [
        serial.compute(m) for m in EDGE_MESSAGES
    ]
    # A stream finalized with no data at all is the CRC of b"".
    sid = pipe.open()
    assert pipe.finalize(sid) == serial.compute(b"")


def test_dream_executed_crc_edges(cache):
    system = DreamSystem(cache=cache)
    for name in SPEC_NAMES:
        spec = get_crc(name)
        serial = BitwiseCRC(spec)
        for M in (8, 32):
            mapped = system.compile_crc(spec, M)
            for m in EDGE_MESSAGES:
                crc, _ = system.execute_crc(mapped, m)
                assert crc == serial.compute(m), (name, M, m)


def test_dream_executed_interleaved_mixed_lengths(cache):
    system = DreamSystem(cache=cache)
    spec = get_crc("CRC-32")
    serial = BitwiseCRC(spec)
    mapped = system.compile_crc(spec, 32)
    messages = list(EDGE_MESSAGES) + [b"x" * 64]
    crcs, _ = system.execute_crc_interleaved(mapped, messages)
    assert crcs == [serial.compute(m) for m in messages]


def test_dream_executed_scrambler_edges(cache):
    system = DreamSystem(cache=cache)
    mapped = system.compile_scrambler(IEEE80216E, 16)
    serial = AdditiveScrambler(IEEE80216E)
    for nbits in (0, 1, 15, 16, 17, 100):
        bits = [(i * 5 + 1) % 2 for i in range(nbits)]
        out, _ = system.execute_scrambler(mapped, bits)
        assert out == serial.scramble_bits(bits), nbits


def test_batch_scrambler_edges(cache):
    engine = BatchAdditiveScrambler(IEEE80216E, 16, cache=cache)
    serial = AdditiveScrambler(IEEE80216E)
    messages = [b"", b"\x01", b"\xaa" * 2, b"\xff" * 3, bytes(17), b"\x55" * 50]
    got = engine.scramble_batch(messages)
    assert got == [serial.scramble_bytes(m) for m in messages]
    assert engine.descramble_batch(got) == messages
    assert engine.scramble_batch([]) == []


def test_multiplicative_scrambler_edges():
    poly = GF2Polynomial.from_exponents([7, 6, 0])
    engine = BatchMultiplicativeScrambler(poly)
    messages = [b"", b"\x01", bytes(1), b"\x7f", b"\x6d" * 5]
    got = engine.scramble_batch(messages)
    expected = [
        bits_to_bytes(
            MultiplicativeScrambler(poly).scramble_bits(bytes_to_bits(m, reflect=True)),
            reflect=True,
        )
        for m in messages
    ]
    assert got == expected
    assert engine.descramble_batch(got) == messages
    assert engine.scramble_batch([]) == []
