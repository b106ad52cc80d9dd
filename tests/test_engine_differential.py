"""Differential test harness: batch engine vs the serial ground truth.

Randomized draws of ``(spec, M, batch size, message length)`` must agree
bit-for-bit across every implementation chain:

* CRC: ``BatchCRC`` == ``BitwiseCRC`` == ``LookaheadCRC`` / ``DerbyCRC``
  (the paper's two bases, spot-checked);
* additive scrambler: ``BatchAdditiveScrambler`` == ``AdditiveScrambler``
  (including per-stream seeds) and the ``ScramblerPipeline``, on bytes;
* multiplicative scrambler: ``BatchMultiplicativeScrambler`` ==
  ``MultiplicativeScrambler`` with random initial states, each byte's
  bits taken lsb-first;
* streaming: ``CRCPipeline`` fed in random chunk sizes == ``BitwiseCRC``.

Message lengths deliberately cover the tail edge cases — zero-length,
shorter than M, and non-multiple-of-M — and every assertion is per-message,
so one run checks well over 200 randomized cases with zero tolerance.
"""

import numpy as np
import pytest

from repro.crc import BitwiseCRC, DerbyCRC, LookaheadCRC, get as get_crc
from repro.engine import (
    BatchAdditiveScrambler,
    BatchCRC,
    BatchMultiplicativeScrambler,
    CompileCache,
    CRCPipeline,
    ScramblerPipeline,
)
from repro.gf2.bits import bits_to_bytes, bytes_to_bits
from repro.gf2.polynomial import GF2Polynomial
from repro.scrambler import AdditiveScrambler
from repro.scrambler.multiplicative import MultiplicativeScrambler
from repro.scrambler.specs import CATALOG as SCRAMBLER_CATALOG

# Mixed widths and reflection conventions; all support the Derby transform
# at every factor below (DECT's non-cyclic generators are excluded).
CRC_NAMES = (
    "CRC-8",
    "CRC-16/CCITT-FALSE",
    "CRC-16/ARC",
    "CRC-32",
    "CRC-32/MPEG-2",
    "CRC-32C",
)
FACTORS = (4, 8, 16, 32)
N_DRAWS = 18
BATCH_RANGE = (1, 12)
MAX_BYTES = 24  # spans zero-length, < M, and non-multiple-of-M messages


@pytest.fixture(scope="module")
def cache():
    return CompileCache(capacity=256)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0xD1FF)


def _draw_messages(rng, batch):
    return [
        bytes(rng.integers(0, 256, size=int(n)).tolist())
        for n in rng.integers(0, MAX_BYTES + 1, size=batch)
    ]


@pytest.mark.parametrize("method", ["lookahead", "derby"])
def test_crc_differential(method, cache, rng):
    """>= 200 randomized messages per method, three engines, 0 mismatches."""
    serial_engines = {}
    paper_engines = {}
    paper = LookaheadCRC if method == "lookahead" else DerbyCRC
    checked = 0
    for _ in range(N_DRAWS):
        spec = get_crc(CRC_NAMES[int(rng.integers(len(CRC_NAMES)))])
        M = int(FACTORS[int(rng.integers(len(FACTORS)))])
        batch = int(rng.integers(*BATCH_RANGE)) + 8
        messages = _draw_messages(rng, batch)
        engine = BatchCRC(spec, M, cache=cache)
        got = engine.compute_batch(messages)
        serial = serial_engines.setdefault(spec.name, BitwiseCRC(spec))
        expected = [serial.compute(m) for m in messages]
        assert got == expected, (spec.name, M, method)
        # The matrix engines are the slow per-message references:
        # spot-check two messages per draw rather than the whole batch.
        matrix = paper_engines.setdefault((spec.name, M), paper(spec, M))
        for m, crc in zip(messages[:2], got):
            assert matrix.compute(m) == crc, (spec.name, M, method)
        checked += len(messages)
    assert checked >= 200


def test_crc_pipeline_differential(cache, rng):
    """Chunked feeds in random sizes must match the one-shot serial CRC."""
    spec = get_crc("CRC-32")
    pipe = CRCPipeline(spec, 32, cache=cache)
    serial = BitwiseCRC(spec)
    messages = _draw_messages(rng, 60)
    ids = [pipe.open() for _ in messages]
    cursors = {sid: (m, 0) for sid, m in zip(ids, messages)}
    # Interleave chunk deliveries across all streams in random order.
    while cursors:
        sid = list(cursors)[int(rng.integers(len(cursors)))]
        m, off = cursors[sid]
        step = int(rng.integers(1, 9))
        pipe.feed(sid, m[off : off + step])
        off += step
        if off >= len(m):
            del cursors[sid]
        else:
            cursors[sid] = (m, off)
    assert [pipe.finalize(sid) for sid in ids] == [
        serial.compute(m) for m in messages
    ]


def _lsb_first(scramble_bits, message: bytes) -> bytes:
    """A bit-level scrambler run over ``message``'s bits, lsb-first."""
    return bits_to_bytes(scramble_bits(bytes_to_bits(message, reflect=True)), reflect=True)


def test_additive_scrambler_differential(cache, rng):
    checked = 0
    additive_specs = [s for s in SCRAMBLER_CATALOG if s.degree >= 7]
    for _ in range(10):
        spec = additive_specs[int(rng.integers(len(additive_specs)))]
        M = int(FACTORS[int(rng.integers(len(FACTORS)))])
        batch = int(rng.integers(4, 12))
        messages = [rng.bytes(int(n)) for n in rng.integers(0, -(-5 * M // 8) + 1, size=batch)]
        seeds = [int(s) or 1 for s in rng.integers(1, 1 << spec.degree, size=batch)]
        engine = BatchAdditiveScrambler(spec, M, cache=cache)
        got = engine.scramble_batch(messages, seeds=seeds)
        expected = [
            AdditiveScrambler(spec, seed).scramble_bytes(m)
            for m, seed in zip(messages, seeds)
        ]
        assert got == expected, (spec.name, M)
        # Involution: descrambling recovers the plaintext byte-for-byte.
        assert engine.descramble_batch(got, seeds=seeds) == messages
        checked += batch
    assert checked >= 40


def test_scrambler_pipeline_differential(cache, rng):
    spec = next(s for s in SCRAMBLER_CATALOG if s.name == "IEEE-802.16e")
    pipe = ScramblerPipeline(spec, 16, cache=cache)
    for _ in range(6):
        message = rng.bytes(int(rng.integers(1, 38)))
        sid = pipe.open()
        out = b""
        off = 0
        while off < len(message):
            step = int(rng.integers(1, 4))
            out += pipe.feed(sid, message[off : off + step])
            off += step
        pipe.close(sid)
        assert out == AdditiveScrambler(spec).scramble_bytes(message)


def test_multiplicative_scrambler_differential(rng):
    polys = [
        GF2Polynomial.from_exponents(e)
        for e in ([7, 6, 0], [15, 14, 0], [23, 18, 0], [43, 0])
    ]
    checked = 0
    for _ in range(8):
        poly = polys[int(rng.integers(len(polys)))]
        batch = int(rng.integers(4, 10))
        messages = [rng.bytes(int(n)) for n in rng.integers(0, 19, size=batch)]
        states = [int(s) for s in rng.integers(0, 1 << min(poly.degree, 30), size=batch)]
        engine = BatchMultiplicativeScrambler(poly)
        got = engine.scramble_batch(messages, states=states)
        expected = [
            _lsb_first(MultiplicativeScrambler(poly, state=st).scramble_bits, m)
            for m, st in zip(messages, states)
        ]
        assert got == expected, poly
        back = engine.descramble_batch(got, states=states)
        assert back == messages, poly
        checked += batch
    assert checked >= 32
