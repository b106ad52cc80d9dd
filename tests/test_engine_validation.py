"""Input validation across the engine stack.

Every public engine/pipeline entry point must reject bad input — non-bit
values at the bit-level engines, anything but bytes at the batch and
streaming engines, wrong-width seeds and registers, unknown stream ids,
bad block factors — with a typed :mod:`repro.errors` exception, and must
do so *before* any work (or any early return) happens.
"""

import pytest

from repro.crc import BitwiseCRC, ETHERNET_CRC32, get as get_crc
from repro.engine import (
    BatchAdditiveScrambler,
    BatchCRC,
    BatchMultiplicativeScrambler,
    CRCPipeline,
    ScramblerPipeline,
)
from repro.errors import SpecError, StreamError, ValidationError
from repro.gf2.polynomial import GF2Polynomial
from repro.scrambler import AdditiveScrambler
from repro.scrambler.multiplicative import MultiplicativeScrambler
from repro.scrambler.specs import get as get_scrambler

IEEE = get_scrambler("IEEE-802.16e")
MULT_POLY = GF2Polynomial.from_exponents([7, 6, 0])


class TestFactorAndMethod:
    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "8"])
    def test_bad_factor_rejected(self, bad):
        with pytest.raises(ValidationError):
            BatchCRC(ETHERNET_CRC32, bad)

    def test_bad_method_rejected(self):
        """The batch engine has one method, the byte-sliced gather: a
        ``method=`` argument is no longer accepted at all."""
        with pytest.raises(TypeError, match="method"):
            BatchCRC(ETHERNET_CRC32, 8, method="quantum")

    def test_pipeline_bad_factor(self):
        with pytest.raises(ValidationError):
            CRCPipeline(ETHERNET_CRC32, 0)


class TestBitValidation:
    def test_bitwise_crc_rejects_non_bits(self):
        with pytest.raises(ValidationError, match=r"bits\[1\] is 2"):
            BitwiseCRC(ETHERNET_CRC32).compute_bits([1, 2, 0])

    def test_additive_scrambler_rejects_non_bits(self):
        with pytest.raises(ValidationError):
            AdditiveScrambler(IEEE).scramble_bits([0, 1, 7])

    def test_multiplicative_scrambler_rejects_non_bits(self):
        with pytest.raises(ValidationError):
            MultiplicativeScrambler(MULT_POLY).scramble_bits([0, -1])

    def test_batch_crc_rejects_non_bit_stream(self):
        """The batch door takes bytes only: bit streams, valid or not, are
        rejected."""
        with pytest.raises(ValidationError, match=r"messages\[0\]"):
            BatchCRC(ETHERNET_CRC32, 8).compute_batch([[0, 1], [1, 9]])

    def test_pipeline_feed_rejects_non_bits(self):
        """The pipeline door takes bytes only, and buffers nothing from a
        rejected feed."""
        pipe = CRCPipeline(ETHERNET_CRC32, 8)
        sid = pipe.open()
        with pytest.raises(ValidationError):
            pipe.feed(sid, [0, 1, "x"])
        assert pipe.pending_bits(sid) == 0


class TestSeedsAndRegisters:
    def test_additive_scrambler_zero_seed(self):
        with pytest.raises(ValidationError, match="zero"):
            AdditiveScrambler(IEEE, seed=0)

    def test_additive_scrambler_wide_seed(self):
        with pytest.raises(ValidationError):
            AdditiveScrambler(IEEE, seed=1 << IEEE.degree)

    def test_multiplicative_state_width(self):
        with pytest.raises(ValidationError):
            MultiplicativeScrambler(MULT_POLY, state=1 << 7)

    def test_crc_pipeline_register_width(self):
        pipe = CRCPipeline(ETHERNET_CRC32, 8)
        with pytest.raises(ValidationError):
            pipe.open(register=1 << 32)

    def test_scrambler_pipeline_zero_seed(self):
        pipe = ScramblerPipeline(IEEE, 8)
        with pytest.raises(ValidationError):
            pipe.open(seed=0)

    def test_crc_spec_rejects_non_bytes(self):
        with pytest.raises(ValidationError):
            get_crc("CRC-32").message_bits([1, 2, 3])

    def test_finalize_register_range(self):
        with pytest.raises(ValidationError):
            ETHERNET_CRC32.finalize(1 << 32)


class TestStreamIds:
    def test_crc_pipeline_unknown_stream(self):
        pipe = CRCPipeline(ETHERNET_CRC32, 8)
        with pytest.raises(StreamError, match="unknown CRC stream"):
            pipe.feed(99, b"data")
        with pytest.raises(KeyError):  # historical contract
            pipe.finalize("nope")

    def test_crc_pipeline_double_open(self):
        pipe = CRCPipeline(ETHERNET_CRC32, 8)
        pipe.open("s")
        with pytest.raises(StreamError, match="already open"):
            pipe.open("s")

    def test_crc_pipeline_auto_ids_skip_open_ids(self):
        pipe = CRCPipeline(ETHERNET_CRC32, 8)
        pipe.open(0)
        pipe.open(2)
        assert [pipe.open(), pipe.open()] == [1, 3]

    def test_scrambler_pipeline_auto_ids_skip_open_ids(self):
        pipe = ScramblerPipeline(IEEE, 8)
        pipe.open(0)
        pipe.open(2)
        assert [pipe.open(), pipe.open()] == [1, 3]

    def test_scrambler_pipeline_unknown_stream(self):
        pipe = ScramblerPipeline(IEEE, 8)
        with pytest.raises(StreamError):
            pipe.feed("ghost", b"\x01")

    def test_abort_unknown_stream(self):
        pipe = CRCPipeline(ETHERNET_CRC32, 8)
        with pytest.raises(StreamError):
            pipe.abort("ghost")


class TestValidateBeforeEarlyReturn:
    """Regression tests for the all-empty-streams early-return bug: bad
    seed/state lists must be rejected even when there is no payload to
    scramble."""

    def test_additive_empty_streams_bad_seed_count(self):
        engine = BatchAdditiveScrambler(IEEE, 8)
        with pytest.raises(ValidationError, match="seeds"):
            engine.scramble_batch([b"", b""], seeds=[1])

    def test_additive_empty_streams_zero_seed(self):
        engine = BatchAdditiveScrambler(IEEE, 8)
        with pytest.raises(ValidationError):
            engine.scramble_batch([b"", b""], seeds=[0, 1])

    def test_additive_zero_batch_bad_seeds(self):
        engine = BatchAdditiveScrambler(IEEE, 8)
        with pytest.raises(ValidationError):
            engine.scramble_batch([], seeds=[1])

    def test_multiplicative_empty_streams_bad_state_count(self):
        engine = BatchMultiplicativeScrambler(MULT_POLY)
        with pytest.raises(ValidationError, match="states"):
            engine.scramble_batch([b"", b""], states=[0])

    def test_multiplicative_empty_streams_wide_state(self):
        engine = BatchMultiplicativeScrambler(MULT_POLY)
        with pytest.raises(ValidationError):
            engine.scramble_batch([b""], states=[1 << 7])

    def test_valid_empty_streams_still_work(self):
        add = BatchAdditiveScrambler(IEEE, 8)
        assert add.scramble_batch([b"", b""]) == [b"", b""]
        assert add.scramble_batch([]) == []
        mult = BatchMultiplicativeScrambler(MULT_POLY)
        assert mult.scramble_batch([b"", b""]) == [b"", b""]


class TestSpecErrors:
    def test_mult_scrambler_degree(self):
        with pytest.raises(SpecError):
            MultiplicativeScrambler(GF2Polynomial.from_exponents([0]))

    def test_batch_mult_scrambler_degree(self):
        with pytest.raises(SpecError):
            BatchMultiplicativeScrambler(GF2Polynomial.from_exponents([0]))
