"""The batch and streaming scrambler doors take and return bytes.

Message bit i is bit ``i % 8`` of byte ``i // 8`` (lsb-first), the order
of :meth:`~repro.scrambler.AdditiveScrambler.scramble_bytes`.  Lengths
sit around the keystream block of D = ``SLICE_DEPTH`` bytes, where a
batch row, a pipeline feed or a carried-over keystream crosses from one
gathered block into the next.  Every byte door of :mod:`repro.engine`
rejects a bit list.
"""

import random

import pytest

from repro.crc import ETHERNET_CRC32
from repro.engine import (
    BatchAdditiveScrambler,
    BatchCRC,
    BatchMultiplicativeScrambler,
    CompileCache,
    CRCPipeline,
    ScramblerPipeline,
    ShardedCRCPipeline,
)
from repro.errors import ValidationError
from repro.gf2.bits import bits_to_bytes, bytes_to_bits
from repro.gf2.polynomial import GF2Polynomial
from repro.lfsr.slicing import SLICE_DEPTH
from repro.scrambler import DVB, IEEE80216E, PRBS31, AdditiveScrambler
from repro.scrambler.multiplicative import MultiplicativeScrambler

D = SLICE_DEPTH
LENGTHS = (0, 1, D - 1, D, D + 1, 2 * D + 1)
SPECS = (IEEE80216E, DVB, PRBS31)
MULT_POLY = GF2Polynomial.from_exponents([7, 6, 0])


@pytest.fixture(scope="module")
def cache():
    return CompileCache()


def _seeds(spec, count):
    rng = random.Random(spec.name)
    return [rng.randrange(1, 1 << spec.degree) for _ in range(count)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_additive_batch_matches_the_single_stream_byte_door(spec, cache):
    """One call over every length, one seed per stream: each output is
    ``AdditiveScrambler(spec, seed).scramble_bytes``, and descrambling
    gives the messages back."""
    rng = random.Random(f"additive/{spec.name}")
    messages = [rng.randbytes(n) for n in LENGTHS]
    seeds = _seeds(spec, len(messages))
    engine = BatchAdditiveScrambler(spec, 16, cache=cache)
    got = engine.scramble_batch(messages, seeds=seeds)
    assert got == [
        AdditiveScrambler(spec, seed).scramble_bytes(m) for m, seed in zip(messages, seeds)
    ]
    assert engine.descramble_batch(got, seeds=seeds) == messages
    keystream = engine.keystream_batch(max(LENGTHS), len(seeds), seeds)
    assert keystream.shape == (len(seeds), max(LENGTHS))
    zeros = engine.scramble_batch([bytes(n) for n in LENGTHS], seeds=seeds)
    assert zeros == [keystream[b, :n].tobytes() for b, n in enumerate(LENGTHS)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_pipeline_chunks_are_invisible_around_the_block(spec, cache):
    """A message fed in two chunks, cut at every offset from D - 2 to
    D + 2, scrambles to the bytes of one whole feed."""
    rng = random.Random(f"pipeline/{spec.name}")
    message = rng.randbytes(2 * D + 1)
    (seed,) = _seeds(spec, 1)
    pipe = ScramblerPipeline(spec, 16, cache=cache)
    whole = pipe.open(seed=seed)
    expected = pipe.feed(whole, message)
    pipe.close(whole)
    assert expected == AdditiveScrambler(spec, seed).scramble_bytes(message)
    for cut in range(D - 2, D + 3):
        sid = pipe.open(seed=seed)
        got = pipe.feed(sid, message[:cut]) + pipe.feed(sid, memoryview(message)[cut:])
        pipe.close(sid)
        assert got == expected, cut


def test_multiplicative_batch_matches_the_serial_scrambler():
    """Messages of different lengths, one state each: the serial
    scrambler's bits, packed lsb-first; descrambling round-trips."""
    rng = random.Random("multiplicative")
    messages = [rng.randbytes(n) for n in (0, 1, 2, 9, 33, 70)]
    states = [rng.randrange(1 << MULT_POLY.degree) for _ in messages]
    engine = BatchMultiplicativeScrambler(MULT_POLY)
    got = engine.scramble_batch(messages, states=states)
    assert got == [
        bits_to_bytes(
            MultiplicativeScrambler(MULT_POLY, state=st).scramble_bits(
                bytes_to_bits(m, reflect=True)
            ),
            reflect=True,
        )
        for m, st in zip(messages, states)
    ]
    assert engine.descramble_batch(got, states=states) == messages


#: A clean bit list: every value a bit, and still not bytes.
BIT_LIST = [0, 1, 1, 0, 1, 0, 0, 1]
DOORS = (
    "BatchCRC.compute_batch",
    "BatchCRC.raw_registers",
    "BatchCRC.compute",
    "BatchAdditiveScrambler.scramble_batch",
    "BatchAdditiveScrambler.descramble_batch",
    "BatchMultiplicativeScrambler.scramble_batch",
    "BatchMultiplicativeScrambler.descramble_batch",
    "CRCPipeline.feed",
    "ShardedCRCPipeline.feed",
    "ScramblerPipeline.feed",
)


@pytest.mark.parametrize("door", DOORS)
def test_every_byte_door_rejects_a_bit_list(door, cache):
    crc = BatchCRC(ETHERNET_CRC32, 32, cache=cache)
    additive = BatchAdditiveScrambler(IEEE80216E, 16, cache=cache)
    multiplicative = BatchMultiplicativeScrambler(MULT_POLY)
    crc_pipe = CRCPipeline(ETHERNET_CRC32, 32, cache=cache)
    scrambler_pipe = ScramblerPipeline(IEEE80216E, 16, cache=cache)
    with ShardedCRCPipeline(ETHERNET_CRC32, 32, workers=2, cache=cache) as sharded:
        calls = {
            "BatchCRC.compute_batch": lambda: crc.compute_batch([BIT_LIST]),
            "BatchCRC.raw_registers": lambda: crc.raw_registers([BIT_LIST]),
            "BatchCRC.compute": lambda: crc.compute(BIT_LIST),
            "BatchAdditiveScrambler.scramble_batch":
                lambda: additive.scramble_batch([BIT_LIST]),
            "BatchAdditiveScrambler.descramble_batch":
                lambda: additive.descramble_batch([BIT_LIST]),
            "BatchMultiplicativeScrambler.scramble_batch":
                lambda: multiplicative.scramble_batch([BIT_LIST]),
            "BatchMultiplicativeScrambler.descramble_batch":
                lambda: multiplicative.descramble_batch([BIT_LIST]),
            "CRCPipeline.feed": lambda: crc_pipe.feed(crc_pipe.open(), BIT_LIST),
            "ShardedCRCPipeline.feed": lambda: sharded.feed(sharded.open(), BIT_LIST),
            "ScramblerPipeline.feed":
                lambda: scrambler_pipe.feed(scrambler_pipe.open(), BIT_LIST),
        }
        with pytest.raises(ValidationError):
            calls[door]()
    assert crc_pipe.pending_bits() == 0  # nothing buffered from a rejected feed
