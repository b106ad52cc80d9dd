"""Unit tests for repro.scrambler.parallel (the Fig. 8 block engine)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.scrambler import AdditiveScrambler, IEEE80211, IEEE80216E, ParallelScrambler


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestBlockKeystream:
    @pytest.mark.parametrize("M", [1, 2, 8, 16, 32, 64, 128])
    def test_matches_serial_keystream(self, M):
        serial = AdditiveScrambler(IEEE80216E).keystream(512)
        block = ParallelScrambler(IEEE80216E, M).keystream(512)
        assert block == serial

    def test_non_multiple_length(self):
        """Keystream lengths that are not multiples of M are truncated."""
        serial = AdditiveScrambler(IEEE80211).keystream(100)
        block = ParallelScrambler(IEEE80211, 32).keystream(100)
        assert block == serial

    def test_scramble_descramble(self, rng):
        bits = [int(b) for b in rng.integers(0, 2, size=300)]
        ps = ParallelScrambler(IEEE80216E, 64)
        assert ParallelScrambler(IEEE80216E, 64).descramble_bits(ps.scramble_bits(bits)) == bits

    def test_block_equals_serial_scramble(self, rng):
        bits = [int(b) for b in rng.integers(0, 2, size=256)]
        assert (
            ParallelScrambler(IEEE80216E, 128).scramble_bits(bits)
            == AdditiveScrambler(IEEE80216E).scramble_bits(bits)
        )

    def test_seed_override(self):
        a = ParallelScrambler(IEEE80216E, 16, seed=0x0001)
        b = AdditiveScrambler(IEEE80216E, seed=0x0001)
        assert a.keystream(64) == b.keystream(64)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            ParallelScrambler(IEEE80216E, 0)

    @pytest.mark.parametrize("M", [0, 1.5, True, "8"], ids=repr)
    def test_bad_factor_is_a_validation_error(self, M):
        """A fractional, boolean or string M is rejected up front, as
        every engine rejects it, not deep inside the matrix power."""
        with pytest.raises(ValidationError, match="block factor M"):
            ParallelScrambler(IEEE80216E, M)

    @pytest.mark.parametrize("seed", [0, True, 1 << 15, 2.0], ids=repr)
    def test_bad_seed_is_a_validation_error(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            ParallelScrambler(IEEE80216E, 16, seed=seed)


class TestStructure:
    def test_matrix_shapes(self):
        ps = ParallelScrambler(IEEE80216E, 128)
        assert ps.state_update.shape == (15, 15)
        assert ps.output_matrix.shape == (128, 15)

    def test_m1_output_matrix_is_selector(self):
        ps = ParallelScrambler(IEEE80216E, 1)
        row = ps.output_matrix.to_array()[0]
        assert row.sum() == 1
        assert row[14] == 1  # default tap x_{k-1}

    def test_single_pgaop_no_feedthrough(self):
        """The scrambler block circuit has no input-dependent feedback:
        the state update depends only on the state (paper: one PGAOP,
        no pipeline break)."""
        ps = ParallelScrambler(IEEE80216E, 64)
        assert ps.state_update.is_square()
        # Complexity is all in feed-forward Y + autonomous A^M.
        assert ps.logic_complexity() == ps.state_update.nnz() + ps.output_matrix.nnz()

    def test_complexity_grows_with_m(self):
        c8 = ParallelScrambler(IEEE80216E, 8).logic_complexity()
        c128 = ParallelScrambler(IEEE80216E, 128).logic_complexity()
        assert c128 > c8

    def test_paper_max_factor(self):
        """§5: scrambler 'working with up to 128 bit in parallel'."""
        ps = ParallelScrambler(IEEE80216E, 128)
        assert ps.keystream(128) == AdditiveScrambler(IEEE80216E).keystream(128)
