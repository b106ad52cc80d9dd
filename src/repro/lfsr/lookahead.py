"""M-level look-ahead expansion (paper §2, Fig. 2).

Unrolling the serial recurrence M times gives::

    x(n+M) = A^M x(n) + B_M u_M(n)
    y(n+M) = C_M x(n) + D_M u_M(n)        (per-block output form)

with ``u_M(n) = [u(n+M-1), ..., u(n)]^T`` (latest bit first, exactly the
paper's convention) and::

    B_M = [ b  Ab  A^2 b  ...  A^{M-1} b ]
    D_M = [ d  Cd  C^2 d  ...  C^{M-1} d ]

:class:`LookaheadSystem` packages the expanded matrices with block stepping
helpers.  Chunks may be supplied in natural *stream order* (``u(n)`` first);
the class reverses them internally to form ``u_M``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.gf2.matrix import GF2Matrix
from repro.lfsr.statespace import LFSRStateSpace


@dataclass(frozen=True)
class LookaheadSystem:
    """The M-bit block-parallel form of an LFSR application."""

    base: LFSRStateSpace
    M: int
    A_M: GF2Matrix
    B_M: GF2Matrix  # k x M, columns ordered latest-bit-first (paper order)

    @property
    def order(self) -> int:
        """State dimension k of the base register."""
        return self.base.order

    # ------------------------------------------------------------------
    def input_vector(self, chunk: Sequence[int]) -> np.ndarray:
        """Form ``u_M`` from a chunk given in stream order (u(n) first)."""
        if len(chunk) != self.M:
            raise ValueError(f"chunk length {len(chunk)} != M = {self.M}")
        return np.array(list(chunk)[::-1], dtype=np.uint8)

    def block_step(self, state: np.ndarray, chunk: Sequence[int]) -> np.ndarray:
        """Advance M serial steps in one block operation."""
        return (self.A_M @ state) ^ (self.B_M @ self.input_vector(chunk))

    def run(self, state: np.ndarray, bits: Sequence[int]) -> np.ndarray:
        """Process a bit sequence whose length is a multiple of M."""
        if len(bits) % self.M:
            raise ValueError(f"bit count {len(bits)} is not a multiple of M = {self.M}")
        s = np.asarray(state, dtype=np.uint8)
        for off in range(0, len(bits), self.M):
            s = self.block_step(s, bits[off : off + self.M])
        return s

    # ------------------------------------------------------------------
    def feedback_complexity(self) -> Tuple[int, float]:
        """(non-zeros, density) of ``A^M`` — the loop-complexity measure the
        paper uses to motivate the Derby transform."""
        return self.A_M.nnz(), self.A_M.density()


def input_matrix(base: LFSRStateSpace, M: int) -> GF2Matrix:
    """``B_M = [b  Ab ... A^{M-1} b]`` with the paper's column ordering."""
    columns: List[np.ndarray] = []
    v = base.b.astype(np.uint8)
    for _ in range(M):
        columns.append(v.copy())
        v = (base.A @ v).astype(np.uint8)
    return GF2Matrix.from_columns(columns)


def output_matrices(base: LFSRStateSpace, M: int) -> Tuple[GF2Matrix, GF2Matrix]:
    """``C_M = C^M`` (square C only) and ``D_M = [d Cd ... C^{M-1} d]``.

    Only meaningful when ``C`` is square (the CRC case, where C = I and the
    expansion is trivial); the scrambler's 1-bit output is handled by
    evaluating outputs per serial position instead.
    """
    if not base.C.is_square():
        raise ValueError("output look-ahead expansion requires square C")
    C_M = base.C ** M
    columns: List[np.ndarray] = []
    v = base.d.astype(np.uint8)
    for _ in range(M):
        columns.append(v.copy())
        v = (base.C @ v).astype(np.uint8)
    return C_M, GF2Matrix.from_columns(columns)


def expand_lookahead(base: LFSRStateSpace, M: int) -> LookaheadSystem:
    """Build the M-level look-ahead system for any LFSR application."""
    if M < 1:
        raise ValueError("look-ahead factor M must be >= 1")
    return LookaheadSystem(base=base, M=M, A_M=base.A ** M, B_M=input_matrix(base, M))


def scrambler_output_matrix(base: LFSRStateSpace, M: int) -> GF2Matrix:
    """M×k matrix Y with ``y_block = Y x(n) (+ u_block)`` for an additive
    scrambler: row j selects the keystream bit at serial offset j, i.e.
    ``C A^j``.  Rows are in stream order (offset 0 first)."""
    rows = []
    power = GF2Matrix.identity(base.order)
    for _ in range(M):
        rows.append((base.C @ power).to_array()[0])
        power = base.A @ power
    return GF2Matrix(np.array(rows, dtype=np.uint8))
