"""Galois-form and word-oriented scramblers, catalog-wide.

Property battery over every spec in `repro.scrambler.specs.CATALOG`:
the shallow-feedback Galois forms must be bit-exact against their
Fibonacci/delay-line references (THEORY.md §7), and the word-oriented
additive path must round-trip and agree with its underlying σ-LFSR.
"""

import numpy as np
import pytest

from repro.errors import SpecError, ValidationError
from repro.lfsr import (
    WORD8,
    WORD32,
    WORD64,
    FibonacciLFSR,
    WordLFSR,
    galois_to_fibonacci_state,
    seed_words_from_bytes,
)
from repro.scrambler import (
    CATALOG,
    AdditiveScrambler,
    FibonacciAdditiveScrambler,
    GaloisFormAdditiveScrambler,
    GaloisMultiplicativeScrambler,
    MultiplicativeScrambler,
    WordAdditiveScrambler,
)

PAYLOADS = [b"", b"\x00", b"123456789", bytes(range(64)), b"\xff" * 17]


class TestGaloisFormAdditive:
    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_keystream_matches_fibonacci(self, spec):
        fib = FibonacciAdditiveScrambler(spec)
        gal = GaloisFormAdditiveScrambler(spec)
        assert gal.keystream(6 * spec.poly.degree) == fib.keystream(
            6 * spec.poly.degree
        )

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_catalog_engine_bridges_via_matching_state(self, spec):
        # The catalog `AdditiveScrambler` clocks `GaloisLFSR(poly, seed)`
        # directly; the matching-state machinery must connect it to its
        # Fibonacci twin (the reciprocal register, per library convention).
        reference = AdditiveScrambler(spec)
        fib = FibonacciLFSR(
            spec.poly.reciprocal(),
            galois_to_fibonacci_state(spec.poly, spec.seed),
        )
        assert fib.keystream(96) == reference.keystream(96)

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_involution(self, spec):
        gal = GaloisFormAdditiveScrambler(spec)
        for payload in PAYLOADS:
            assert gal.descramble_bytes(gal.scramble_bytes(payload)) == payload

    def test_custom_seed_threads_through(self):
        spec = CATALOG[0]
        for seed in (1, 2, (1 << spec.poly.degree) - 1):
            fib = FibonacciAdditiveScrambler(spec, seed=seed)
            gal = GaloisFormAdditiveScrambler(spec, seed=seed)
            assert gal.keystream(48) == fib.keystream(48)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValidationError):
            GaloisFormAdditiveScrambler(CATALOG[0], seed=0)


class TestGaloisMultiplicative:
    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_scramble_and_state_match_delay_line(self, spec):
        rng = np.random.default_rng(spec.poly.coeffs & 0xFFFF)
        bits = [int(b) for b in rng.integers(0, 2, 160)]
        m = MultiplicativeScrambler(spec.poly)
        g = GaloisMultiplicativeScrambler(spec.poly)
        assert g.scramble_bits(bits) == m.scramble_bits(bits)
        assert g.state == m.state  # mid-stream delay-line coordinates agree

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.name)
    def test_descramble_round_trip(self, spec):
        rng = np.random.default_rng(spec.poly.degree)
        bits = [int(b) for b in rng.integers(0, 2, 96)]
        scrambled = GaloisMultiplicativeScrambler(spec.poly).scramble_bits(bits)
        assert GaloisMultiplicativeScrambler(spec.poly).descramble_bits(
            scrambled
        ) == bits

    def test_self_synchronization(self):
        # A receiver seeded with garbage recovers after sync_length bits.
        poly = CATALOG[0].poly
        bits = [1, 0, 1, 1, 1, 0, 0, 1] * 8
        scrambled = GaloisMultiplicativeScrambler(poly).scramble_bits(bits)
        rx = GaloisMultiplicativeScrambler(poly, state=0x5A5A % (1 << poly.degree))
        out = rx.descramble_bits(scrambled)
        k = rx.sync_length()
        assert out[k:] == bits[k:]

    def test_state_round_trips_through_setter(self):
        poly = CATALOG[0].poly
        g = GaloisMultiplicativeScrambler(poly)
        for state in (0, 1, (1 << poly.degree) - 1):
            g.state = state
            assert g.state == state


class TestWordAdditiveScrambler:
    @pytest.mark.parametrize("spec", (WORD8, WORD32, WORD64), ids=lambda s: s.name)
    def test_round_trip(self, spec):
        w = WordAdditiveScrambler(spec, seed=b"round-trip")
        for payload in PAYLOADS:
            assert w.descramble_bytes(w.scramble_bytes(payload)) == payload

    def test_keystream_is_the_wordlfsr_stream(self):
        seed = seed_words_from_bytes(WORD64, b"agree")
        w = WordAdditiveScrambler(WORD64, seed=seed)
        assert w.keystream_bytes(48) == WordLFSR(WORD64, seed).keystream_bytes(48)

    def test_frame_synchronous(self):
        # Every scramble call restarts the keystream, like AdditiveScrambler.
        w = WordAdditiveScrambler(WORD32, seed=b"frames")
        assert w.scramble_bytes(b"payload") == w.scramble_bytes(b"payload")

    def test_scramble_accepts_memoryview_and_bytearray(self):
        w = WordAdditiveScrambler(WORD64, seed=b"views")
        data = bytearray(b"zero-copy input buffer \x00\xff\x80")
        want = w.scramble_bytes(bytes(data))
        assert w.scramble_bytes(data) == want
        assert w.scramble_bytes(memoryview(data)) == want

    def test_bad_seed_rejected(self):
        with pytest.raises(SpecError):
            WordAdditiveScrambler(WORD32, seed=b"")
        with pytest.raises(SpecError):
            WordAdditiveScrambler(WORD32, seed=[0, 0])

