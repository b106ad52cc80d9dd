"""The GF(2) batch kernels, and the engines that multiply on GF2Matrix.

The packed batch kernel is only useful if it is *indistinguishable* from
the pure-Python reference kernel, so the kernel tests compare the two.
The matrix CRC engines and the multiplicative scramblers are checked
against the bit-serial engines.
"""

import random

import numpy as np
import pytest

from repro.crc import BitwiseCRC, DerbyCRC, LookaheadCRC, get as get_crc
from repro.engine import BatchCRC, BatchMultiplicativeScrambler
from repro.gf2.backend import NumpyPackedBackend, ReferenceBackend
from repro.gf2.bits import bits_to_bytes, bytes_to_bits
from repro.gf2.polynomial import GF2Polynomial
from repro.scrambler.galois import GaloisMultiplicativeScrambler
from repro.scrambler.multiplicative import MultiplicativeScrambler


# ----------------------------------------------------------------------
# Kernel parity against the reference kernel
# ----------------------------------------------------------------------
@pytest.fixture(params=[NumpyPackedBackend], ids=["packed"])
def packed_backend(request):
    return request.param()


class TestKernelParity:
    @pytest.fixture(scope="class")
    def rng(self):
        return np.random.default_rng(0xC0FFEE)

    def _random(self, rng, *shape):
        return rng.integers(0, 2, size=shape).astype(np.uint8)

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 1000])
    def test_pack_unpack_round_trip(self, packed_backend, rng, batch):
        bits = self._random(rng, 24, batch)
        packed = packed_backend.pack(bits)
        assert packed_backend.unpack(packed, batch).tolist() == bits.tolist()

    @pytest.mark.parametrize("batch", [1, 64, 200])
    def test_matvec_batch(self, packed_backend, rng, batch):
        ref = ReferenceBackend()
        a = self._random(rng, 32, 48)
        block = self._random(rng, 48, batch)
        got = packed_backend.unpack(
            packed_backend.matvec_batch(a, packed_backend.pack(block)), batch
        )
        expected = ref.unpack(ref.matvec_batch(a, ref.pack(block)), batch)
        assert got.tolist() == expected.tolist()

    def test_from_rows(self, packed_backend, rng):
        bits = self._random(rng, 8, 70)
        packed = packed_backend.pack(bits)
        rebuilt = packed_backend.from_rows([row for row in packed])
        assert packed_backend.unpack(rebuilt, 70).tolist() == bits.tolist()


# ----------------------------------------------------------------------
# The matrix CRC engines against the bit-serial one
# ----------------------------------------------------------------------
MESSAGES = [b"", b"\x00", b"123456789", bytes(range(64)), b"\xff" * 17]


@pytest.mark.parametrize("standard", ["CRC-32", "CRC-16/CCITT-FALSE", "CRC-8"])
class TestMatrixCRCEngines:
    def test_derby_crc_matches_bitwise(self, standard):
        spec = get_crc(standard)
        serial = BitwiseCRC(spec)
        engine = DerbyCRC(spec, 8)
        for msg in MESSAGES:
            assert engine.compute(msg) == serial.compute(msg)

    def test_lookahead_crc_matches_bitwise(self, standard):
        spec = get_crc(standard)
        serial = BitwiseCRC(spec)
        engine = LookaheadCRC(spec, 16)
        for msg in MESSAGES:
            assert engine.compute(msg) == serial.compute(msg)

    def test_batch_crc_matches_bitwise(self, standard):
        """The batch CRC gathers bytes and the look-ahead engine multiplies
        matrices: both must match the serial reference."""
        spec = get_crc(standard)
        serial = BitwiseCRC(spec)
        lookahead = LookaheadCRC(spec, 32)
        got = BatchCRC(spec, 32).compute_batch(list(MESSAGES))
        assert got == [serial.compute(m) for m in MESSAGES]
        assert got == [lookahead.compute(m) for m in MESSAGES]


# ----------------------------------------------------------------------
# Multiplicative scramblers against the bit-serial Galois twin
# ----------------------------------------------------------------------
MULT_GENERATORS = {
    "x7+x4+1": (7, 4, 0),
    "x7+x6+1": (7, 6, 0),
    "x23+x18+1": (23, 18, 0),
    "x43+1": (43, 0),
}


class TestScramblers:
    @pytest.mark.parametrize("exponents", MULT_GENERATORS.values(), ids=MULT_GENERATORS)
    def test_multiplicative_descramble_and_state(self, exponents):
        """The big-integer descramble equals the bit-serial Galois engine
        on output and final delay line, from random states, at lengths
        around the register width, and across a split stream."""
        poly = GF2Polynomial.from_exponents(list(exponents))
        k = poly.degree
        rng = random.Random(k)
        for n in (0, 1, k - 1, k, k + 1, 200):
            state = rng.randrange(1 << k)
            bits = [rng.randrange(2) for _ in range(n)]
            engine = MultiplicativeScrambler(poly, state)
            serial = GaloisMultiplicativeScrambler(poly, state)
            assert engine.descramble_bits(bits) == serial.descramble_bits(bits), n
            assert engine.state == serial.state, n

        state = rng.randrange(1 << k)
        bits = [rng.randrange(2) for _ in range(200)]
        engine = MultiplicativeScrambler(poly, state)
        serial = GaloisMultiplicativeScrambler(poly, state)
        split = engine.descramble_bits(bits[:77]) + engine.descramble_bits(bits[77:])
        assert split == serial.descramble_bits(bits)
        assert engine.state == serial.state

    def test_batch_multiplicative_matches_serial(self):
        poly = GF2Polynomial((1 << 5) | (1 << 2) | 1)
        engine = BatchMultiplicativeScrambler(poly)
        messages = [b"\xbb" * 4, b"\xaa"]
        states = [0b10101, 0]
        expected = [
            bits_to_bytes(
                MultiplicativeScrambler(poly, state=st).scramble_bits(
                    bytes_to_bits(m, reflect=True)
                ),
                reflect=True,
            )
            for m, st in zip(messages, states)
        ]
        assert engine.scramble_batch(messages, states=states) == expected
