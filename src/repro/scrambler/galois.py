"""Shallow-feedback (Galois-form) scramblers, bit-exact vs the Fibonacci
reference.

The scrambler standards in :mod:`repro.scrambler.specs` draw *Fibonacci*
registers: a many-to-one XOR tree feeding one flip-flop.  Dubrova's
equivalence-preserving transformation (see :mod:`repro.lfsr.galois`)
rewrites each of them as a *Galois* register — the feedback fans out as
2-input XORs, the software analogue of the Derby shallow-feedback trick
the paper plays in hardware (§2).  Same output, shallower loop.

The output sequence only stays identical if the initial state is mapped
through the observability matrices; the classes here wrap that bookkeeping
so callers keep thinking in the standards' Fibonacci terms:

* :class:`FibonacciAdditiveScrambler` — the literal standards diagram:
  keystream straight from :class:`~repro.lfsr.reference.FibonacciLFSR`.
  Slow, auditable, the reference the Galois form is tested against.
* :class:`GaloisFormAdditiveScrambler` — same spec, same seed semantics,
  but the keystream engine is ``GaloisLFSR(poly.reciprocal(), ·)`` seeded
  with :func:`~repro.lfsr.galois.fibonacci_to_galois_state`.  Bit-exact
  vs the Fibonacci reference for every catalog spec (property-tested in
  ``tests/test_scrambler_galois.py`` and fuzzed by the
  ``galois:fibonacci-vs-galois`` oracle).
* :class:`GaloisMultiplicativeScrambler` — the self-synchronizing
  scrambler run in Galois form.  The constructor accepts the *Fibonacci
  delay-line* preset of :class:`~repro.scrambler.multiplicative.MultiplicativeScrambler`
  and converts it with
  :func:`~repro.lfsr.galois.multiplicative_fibonacci_to_galois_state`,
  making the two drop-in interchangeable mid-stream.

For the word-oriented (one machine word per clock) keystream engine see
:class:`repro.scrambler.additive.WordAdditiveScrambler`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import SpecError
from repro.gf2.bits import bits_to_bytes, bytes_to_bits
from repro.gf2.polynomial import GF2Polynomial
from repro.lfsr.galois import (
    fibonacci_to_galois_state,
    multiplicative_fibonacci_to_galois_state,
    multiplicative_galois_to_fibonacci_state,
)
from repro.lfsr.reference import FibonacciLFSR, GaloisLFSR
from repro.scrambler.specs import ScramblerSpec
from repro.validation import check_bits, check_register, check_seed

__all__ = [
    "FibonacciAdditiveScrambler",
    "GaloisFormAdditiveScrambler",
    "GaloisMultiplicativeScrambler",
]


class _AdditiveBase:
    """Shared XOR plumbing for the two additive forms."""

    def __init__(self, spec: ScramblerSpec, seed: Optional[int] = None):
        self._spec = spec
        self._seed = check_seed(
            spec.seed if seed is None else seed, spec.degree, allow_zero=False
        )

    @property
    def spec(self) -> ScramblerSpec:
        """The scrambler standard (polynomial + default seed)."""
        return self._spec

    @property
    def seed(self) -> int:
        """The Fibonacci-register seed (the standards' framing word)."""
        return self._seed

    def keystream(self, nbits: int) -> List[int]:
        """The raw pseudo-random sequence XORed onto the data."""
        raise NotImplementedError

    def scramble_bits(self, bits: Sequence[int]) -> List[int]:
        """XOR the data bits with the keystream from the seeded register."""
        checked = check_bits(bits, what="bits")
        ks = self.keystream(len(checked))
        return [(int(b) ^ k) & 1 for b, k in zip(checked, ks)]

    def descramble_bits(self, bits: Sequence[int]) -> List[int]:
        """Identical to scrambling — XOR with the same keystream."""
        return self.scramble_bits(bits)

    def scramble_bytes(self, data: bytes, lsb_first: bool = True) -> bytes:
        """Byte-stream convenience wrapper (serial order selectable)."""
        bits = bytes_to_bits(data, reflect=lsb_first)
        return bits_to_bytes(self.scramble_bits(bits), reflect=lsb_first)

    def descramble_bytes(self, data: bytes, lsb_first: bool = True) -> bytes:
        """Identical to :meth:`scramble_bytes` (XOR is an involution)."""
        return self.scramble_bytes(data, lsb_first)


class FibonacciAdditiveScrambler(_AdditiveBase):
    """The standards diagram taken literally: a Fibonacci keystream register.

    This is the many-to-one form the 802.16e / DVB / PRBS figures draw.
    It exists as the auditable reference for
    :class:`GaloisFormAdditiveScrambler`; production code should use
    :class:`~repro.scrambler.additive.AdditiveScrambler` (byte-sliced) or
    the Galois form below.
    """

    def keystream(self, nbits: int) -> List[int]:
        """Bit-serial keystream from ``FibonacciLFSR(spec.poly, seed)``."""
        return FibonacciLFSR(self._spec.poly, self._seed).keystream(nbits)


class GaloisFormAdditiveScrambler(_AdditiveBase):
    """The same scrambler run on a shallow-feedback Galois register.

    The engine is ``GaloisLFSR(spec.poly.reciprocal(), g)`` — the register
    conventions of this library pair reciprocal polynomials across the two
    forms (see :mod:`repro.lfsr.galois`) — with ``g`` the matching initial
    state computed from the Fibonacci seed.  Output is bit-for-bit the
    sequence of :class:`FibonacciAdditiveScrambler` with the same seed.
    """

    def __init__(self, spec: ScramblerSpec, seed: Optional[int] = None):
        super().__init__(spec, seed)
        self._galois_poly = spec.poly.reciprocal()
        self._galois_seed = fibonacci_to_galois_state(spec.poly, self._seed)

    @property
    def galois_seed(self) -> int:
        """The matched Galois-register state actually clocked."""
        return self._galois_seed

    def keystream(self, nbits: int) -> List[int]:
        """Keystream from the matched shallow-feedback register."""
        return GaloisLFSR(self._galois_poly, self._galois_seed).keystream(nbits)


class GaloisMultiplicativeScrambler:
    """Self-synchronizing scrambler in one-to-many (Galois) form.

    A drop-in twin of :class:`~repro.scrambler.multiplicative.MultiplicativeScrambler`:
    same generator ``poly``, same delay-line ``state`` semantics, same
    transfer functions (``1/g(x)`` scrambling, ``g(x)`` descrambling) — but
    each clock is one shift plus one conditional XOR of the tap word
    instead of a tap-by-tap XOR fan-in.  The constructor converts the
    Fibonacci delay-line preset to the matching Galois register, so both
    engines emit identical bits for *every* input stream.
    """

    def __init__(self, poly: GF2Polynomial, state: int = 0):
        if poly.degree < 1:
            raise SpecError("polynomial degree must be >= 1")
        self._poly = poly
        self._k = poly.degree
        self._mask = (1 << self._k) - 1
        galois_poly = poly.reciprocal()
        self._taps = galois_poly.coeffs & self._mask
        self.state = state

    @property
    def poly(self) -> GF2Polynomial:
        """The generator polynomial ``g(x)`` (Fibonacci-side convention)."""
        return self._poly

    @property
    def degree(self) -> int:
        """Register length ``k`` (= the resynchronization horizon)."""
        return self._k

    @property
    def state(self) -> int:
        """Equivalent Fibonacci delay-line state (converted on read)."""
        return multiplicative_galois_to_fibonacci_state(
            self._poly.reciprocal(), self._galois_state
        )

    @state.setter
    def state(self, value: int) -> None:
        value = check_register(value, self._k, what="state")
        self._galois_state = multiplicative_fibonacci_to_galois_state(
            self._poly, value
        )

    @property
    def galois_state(self) -> int:
        """The raw Galois-register contents actually clocked."""
        return self._galois_state

    # ------------------------------------------------------------------
    def _clock(self, scrambled_bit: int) -> None:
        """Shift once; the scrambled stream bit drives the tap injection."""
        self._galois_state = ((self._galois_state << 1) & self._mask) ^ (
            self._taps if scrambled_bit else 0
        )

    def scramble_bits(self, bits: Sequence[int]) -> List[int]:
        """``s = u ^ msb(state)``, feeding back ``s`` (1/g(x) transfer)."""
        out = []
        msb = self._k - 1
        for u in check_bits(bits, what="bits").tolist():
            s = u ^ ((self._galois_state >> msb) & 1)
            self._clock(s)
            out.append(s)
        return out

    def descramble_bits(self, bits: Sequence[int]) -> List[int]:
        """``u = s ^ msb(state)``, feeding forward ``s`` (g(x) transfer)."""
        out = []
        msb = self._k - 1
        for s in check_bits(bits, what="bits").tolist():
            u = s ^ ((self._galois_state >> msb) & 1)
            self._clock(s)
            out.append(u)
        return out

    def sync_length(self) -> int:
        """Bits of correct input after which a descrambler with arbitrary
        initial state produces correct output."""
        return self._k
