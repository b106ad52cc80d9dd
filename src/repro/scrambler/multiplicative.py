"""Multiplicative (self-synchronizing) scrambler.

Unlike the additive scrambler, the shift register is fed by the *scrambled*
bit stream itself, so the descrambler resynchronizes automatically after
``degree`` correct bits — no frame alignment needed.  Used by SONET/SDH
payload scrambling (x^43 + 1) and V-series modems.

Scrambler:   s(n) = u(n) ^ taps(state);  state <- shift in s(n)
Descrambler: u(n) = s(n) ^ taps(state);  state <- shift in s(n)

Taps read the state at delay t for every generator exponent t >= 1, i.e.
the transfer function is 1/g(x) on the scramble side and g(x) on the
descramble side.

The descramble direction is pure feed-forward (``u(n) = s(n) ^ sum_t
s(n-t)``), so it runs as a handful of big-integer shift/XOR operations
over the whole stream at once.  The scramble direction has a
data-dependent feedback loop and runs serially.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import SpecError
from repro.gf2.bits import bits_to_int, int_to_bits, reflect_bits
from repro.gf2.polynomial import GF2Polynomial
from repro.validation import check_bits, check_register


class MultiplicativeScrambler:
    """Self-synchronizing scrambler/descrambler pair."""

    def __init__(self, poly: GF2Polynomial, state: int = 0):
        if poly.degree < 1:
            raise SpecError("polynomial degree must be >= 1")
        self._poly = poly
        self._k = poly.degree
        self._mask = (1 << self._k) - 1
        # Delay-line positions read by the feedback: exponent t -> bit t-1
        # (bit j holds the stream bit from j+1 clocks ago).
        self._taps = [t - 1 for t in range(1, self._k + 1) if t == self._k or poly.coefficient(t)]
        self.state = state

    @property
    def poly(self) -> GF2Polynomial:
        return self._poly

    @property
    def degree(self) -> int:
        return self._k

    @property
    def state(self) -> int:
        return self._state

    @state.setter
    def state(self, value: int) -> None:
        self._state = check_register(value, self._k, what="state")

    # ------------------------------------------------------------------
    def _feedback(self) -> int:
        fb = 0
        for pos in self._taps:
            fb ^= (self._state >> pos) & 1
        return fb

    def _shift_in(self, bit: int) -> None:
        self._state = ((self._state << 1) & self._mask) | (bit & 1)

    def scramble_bits(self, bits: Sequence[int]) -> List[int]:
        out = []
        for u in check_bits(bits, what="bits").tolist():
            s = u ^ self._feedback()
            self._shift_in(s)
            out.append(s)
        return out

    def descramble_bits(self, bits: Sequence[int]) -> List[int]:
        """Feed-forward descramble as big-integer shift/XOR operations.

        The scrambled stream (bit ``n`` = ``s(n)``) is extended below bit 0
        with the delay line (``ext`` bit ``j < k`` holds ``s(j-k)``, i.e. the
        reflected register), so every tap read becomes one right shift of
        ``ext``; the final register is read back off the top of ``ext``.
        """
        bits = check_bits(bits, what="bits").tolist()
        n = len(bits)
        k = self._k
        ext = (bits_to_int(bits) << k) | reflect_bits(self._state, k)
        out = ext >> k  # the s(n) term itself
        for pos in self._taps:
            out ^= ext >> (k - (pos + 1))
        self._state = reflect_bits((ext >> n) & self._mask, k)
        return int_to_bits(out & ((1 << n) - 1), n)

    # ------------------------------------------------------------------
    def sync_length(self) -> int:
        """Bits of correct input after which a descrambler with arbitrary
        initial state produces correct output."""
        return self._k
