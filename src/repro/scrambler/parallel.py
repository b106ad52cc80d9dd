"""M-bit block-parallel additive scrambler (paper §5, Fig. 8).

The additive scrambler parallelizes more gently than the CRC: the register
is autonomous, so the block update is just ``x(n+M) = A^M x(n)`` and the M
keystream bits of a block are ``Y x(n)`` with row *j* of ``Y`` equal to
``C A^j``.  There is no input-dependent feedback at all — a single PGAOP
suffices on PiCoGA (no anti-transformation, no configuration switch), which
is why the paper's scrambler reaches the full output bandwidth at every
block length.

For completeness the module also exposes the Derby-transformed variant of
the autonomous update, used by the mapper ablation benches; for the
scrambler it is optional because ``A^M`` never sits in an input feedback
path (outputs can be pipelined).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.gf2.matrix import GF2Matrix
from repro.lfsr.lookahead import scrambler_output_matrix
from repro.lfsr.statespace import scrambler_statespace
from repro.scrambler.additive import AdditiveScrambler
from repro.scrambler.specs import ScramblerSpec
from repro.validation import check_factor, check_seed


class ParallelScrambler:
    """Generates/applies the keystream M bits per block step."""

    def __init__(self, spec: ScramblerSpec, M: int, seed: Optional[int] = None):
        self._spec = spec
        self._M = check_factor(M)
        self._seed = check_seed(
            spec.seed if seed is None else seed, spec.degree, allow_zero=False
        )
        self._statespace = scrambler_statespace(spec.poly)
        self._A_M: GF2Matrix = self._statespace.A ** M
        self._Y: GF2Matrix = scrambler_output_matrix(self._statespace, M)
        self._serial = AdditiveScrambler(spec, self._seed)

    @property
    def spec(self) -> ScramblerSpec:
        return self._spec

    @property
    def M(self) -> int:
        return self._M

    @property
    def state_update(self) -> GF2Matrix:
        """``A^M`` — the autonomous block state update."""
        return self._A_M

    @property
    def output_matrix(self) -> GF2Matrix:
        """``Y`` (M×k): block keystream = ``Y @ state``."""
        return self._Y

    # ------------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        return self._statespace.state_from_int(self._seed)

    def keystream(self, nbits: int) -> List[int]:
        """Block-generated keystream, identical to the serial scrambler's."""
        out: List[int] = []
        state = self.initial_state()
        while len(out) < nbits:
            block = self._Y @ state
            out.extend(int(b) for b in block)
            state = (self._A_M @ state).astype(np.uint8)
        return out[:nbits]

    def scramble_bits(self, bits: Sequence[int]) -> List[int]:
        ks = self.keystream(len(bits))
        return [(b ^ k) & 1 for b, k in zip(bits, ks)]

    def descramble_bits(self, bits: Sequence[int]) -> List[int]:
        return self.scramble_bits(bits)

    # ------------------------------------------------------------------
    def serial_reference(self) -> AdditiveScrambler:
        """The bit-serial engine this block engine must match."""
        return self._serial

    def logic_complexity(self) -> int:
        """Total XOR taps of the block circuit (state update + output)."""
        return self._A_M.nnz() + self._Y.nnz()
