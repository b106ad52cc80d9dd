"""Matrix-based M-bit-parallel CRC engines (the paper's core algorithm).

Two functionally identical engines:

* :class:`LookaheadCRC` — the direct M-level look-ahead,
  ``x(n+M) = A^M x(n) + B_M u_M(n)`` (Pei–Zukowski style feedback);
* :class:`DerbyCRC` — the same recurrence in Derby's transformed basis,
  where the feedback matrix is back in companion form and the final state
  is recovered through the anti-transformation ``T`` (the implementation
  the paper maps onto PiCoGA, §4).

Both consume :class:`~repro.crc.spec.CRCSpec` conventions through the same
hooks as the software engines, so the entire equivalence chain —
bitwise == table == slicing == look-ahead == Derby — is checkable on any
published standard.  Message bit counts that are not a multiple of M are
handled by finishing the tail serially (in hardware the paper leaves such
framing to the RISC core).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.crc.bitwise import BitwiseCRC
from repro.crc.spec import CRCSpec
from repro.lfsr.statespace import LFSRStateSpace, crc_statespace
from repro.lfsr.lookahead import LookaheadSystem, expand_lookahead
from repro.lfsr.transform import DerbyTransform, derby_transform
from repro.validation import check_factor


class _MatrixCRCBase:
    """Shared spec plumbing for the matrix engines."""

    def __init__(self, spec: CRCSpec, M: int):
        self._spec = spec
        self._M = check_factor(M, what="look-ahead factor M")
        self._statespace = crc_statespace(spec.generator())
        self._serial = BitwiseCRC(spec)

    @property
    def spec(self) -> CRCSpec:
        return self._spec

    @property
    def M(self) -> int:
        return self._M

    @property
    def statespace(self) -> LFSRStateSpace:
        return self._statespace

    # ------------------------------------------------------------------
    def _run_blocks(self, state: np.ndarray, bits: Sequence[int]) -> np.ndarray:
        raise NotImplementedError

    def raw_register(self, data: bytes, register: Optional[int] = None) -> int:
        spec = self._spec
        bits = spec.message_bits(data)
        reg = spec.init if register is None else register
        full = len(bits) - (len(bits) % self._M)
        state = self._statespace.state_from_int(reg)
        if full:
            state = self._run_blocks(state, bits[:full])
        reg = self._statespace.state_to_int(state)
        # Serial tail for the non-multiple-of-M remainder.
        return self._serial.process_bits(reg, bits[full:])

    def compute(self, data: bytes) -> int:
        return self._spec.finalize(self.raw_register(data))

    def verify(self, data: bytes, crc: int) -> bool:
        return self.compute(data) == crc


class LookaheadCRC(_MatrixCRCBase):
    """Direct (untransformed) M-bit parallel CRC."""

    def __init__(self, spec: CRCSpec, M: int):
        super().__init__(spec, M)
        self._system: LookaheadSystem = expand_lookahead(self._statespace, M)

    @property
    def system(self) -> LookaheadSystem:
        """The expanded ``(A^M, B_M)`` block system."""
        return self._system

    def _run_blocks(self, state: np.ndarray, bits: Sequence[int]) -> np.ndarray:
        return self._system.run(state, bits)


class DerbyCRC(_MatrixCRCBase):
    """Derby-transformed M-bit parallel CRC (the paper's PiCoGA mapping).

    The per-block loop uses the companion-form ``A_Mt`` and dense ``B_Mt``;
    the natural-basis state is only materialized at message end via ``T``
    (the paper's second PGAOP, triggered once per message).
    """

    def __init__(self, spec: CRCSpec, M: int, f: Optional[np.ndarray] = None):
        super().__init__(spec, M)
        self._transform: DerbyTransform = derby_transform(self._statespace, M, f=f)

    @property
    def transform(self) -> DerbyTransform:
        """The Derby similarity transform this engine runs in."""
        return self._transform

    def _run_blocks(self, state: np.ndarray, bits: Sequence[int]) -> np.ndarray:
        return self._transform.run(state, bits)

    # ------------------------------------------------------------------
    def stream_state(self, register: int) -> np.ndarray:
        """Enter streaming mode: the transformed state for ``register``."""
        return self._transform.to_transformed(self._statespace.state_from_int(register))

    def stream_block(self, state_t: np.ndarray, chunk: Sequence[int]) -> np.ndarray:
        """Process one M-bit chunk fully in the transformed basis."""
        return self._transform.block_step(state_t, chunk)

    def stream_finish(self, state_t: np.ndarray) -> int:
        """Anti-transform and return the raw register (pre-finalize)."""
        return self._statespace.state_to_int(self._transform.from_transformed(state_t))
