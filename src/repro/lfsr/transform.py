"""Derby's state-space transformation (paper §2, method [7]).

The look-ahead feedback matrix ``A^M`` is dense, and because it sits inside
the combinatorial feedback loop its depth bounds the clock.  Derby observed
that ``A^M`` is *similar* to a companion matrix: choose a vector ``f`` such
that ``f, A^M f, A^{2M} f, ..., A^{(k-1)M} f`` are linearly independent and
use them as the columns of ``T``.  In that basis::

    x_t(n+M) = A_Mt x_t(n) + B_Mt u_M(n)     A_Mt = T^-1 A^M T  (companion!)
    y(n+M)   = T x_t(n+M)                    B_Mt = T^-1 B_M

The loop logic collapses to a single XOR column (minimal depth); all the
complexity moves to the feed-forward ``B_Mt`` and the final
anti-transformation ``T``, both of which pipeline freely.  This is the
method the paper selects for the PiCoGA implementation (§4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import CompileError
from repro.gf2.matrix import GF2Matrix
from repro.lfsr.lookahead import LookaheadSystem, expand_lookahead
from repro.lfsr.statespace import LFSRStateSpace


class TransformError(CompileError, ValueError):
    """Raised when no valid transformation vector ``f`` exists.

    A :class:`~repro.errors.CompileError`: the Derby change of basis is a
    compile-time artifact, and specs with non-cyclic generators have none.
    Still a ``ValueError`` for backward compatibility.
    """


def krylov_matrix(A_M: GF2Matrix, f: np.ndarray) -> GF2Matrix:
    """``T = [f  A^M f  A^{2M} f ... A^{(k-1)M} f]`` (columns)."""
    k = A_M.nrows
    columns = []
    v = np.asarray(f, dtype=np.uint8)
    for _ in range(k):
        columns.append(v.copy())
        v = (A_M @ v).astype(np.uint8)
    return GF2Matrix.from_columns(columns)


def _candidate_vectors(k: int) -> Iterator[np.ndarray]:
    """Candidate ``f`` vectors: unit vectors first (the paper found
    ``f = e_0`` adequate), then a deterministic pseudo-random sweep."""
    for i in range(k):
        v = np.zeros(k, dtype=np.uint8)
        v[i] = 1
        yield v
    rng = np.random.default_rng(0xD5)
    for _ in range(4 * k):
        v = rng.integers(0, 2, size=k, dtype=np.uint8)
        if v.any():
            yield v


@dataclass(frozen=True)
class DerbyTransform:
    """The transformed look-ahead system plus its change-of-basis data."""

    lookahead: LookaheadSystem
    f: np.ndarray
    T: GF2Matrix
    T_inv: GF2Matrix
    A_Mt: GF2Matrix
    B_Mt: GF2Matrix

    @property
    def M(self) -> int:
        """Look-ahead block factor."""
        return self.lookahead.M

    @property
    def order(self) -> int:
        """State dimension k."""
        return self.lookahead.order

    # ------------------------------------------------------------------
    def to_transformed(self, state: np.ndarray) -> np.ndarray:
        """Map a natural-basis state into the transformed basis."""
        return self.T_inv @ state

    def from_transformed(self, state_t: np.ndarray) -> np.ndarray:
        """The anti-transformation ``x = T x_t`` (the paper's 2nd PGAOP)."""
        return self.T @ state_t

    def block_step(self, state_t: np.ndarray, chunk: Sequence[int]) -> np.ndarray:
        """One M-bit update entirely in the transformed basis."""
        return (self.A_Mt @ state_t) ^ (self.B_Mt @ self.lookahead.input_vector(chunk))

    def run(self, state: np.ndarray, bits: Sequence[int]) -> np.ndarray:
        """Process bits (multiple of M) and return the *natural* final state."""
        if len(bits) % self.M:
            raise ValueError(f"bit count {len(bits)} is not a multiple of M = {self.M}")
        s = self.to_transformed(state)
        for off in range(0, len(bits), self.M):
            s = self.block_step(s, bits[off : off + self.M])
        return self.from_transformed(s)

    # ------------------------------------------------------------------
    def loop_complexity(self) -> int:
        """Non-zeros in the feedback matrix — k-1 sub-diagonal ones plus the
        tap column for a companion matrix, versus O(k^2/2) for raw A^M."""
        return self.A_Mt.nnz()

    def feedforward_complexity(self) -> int:
        """Non-zeros in B_Mt plus T (pipelineable logic)."""
        return self.B_Mt.nnz() + self.T.nnz()


def derby_transform(
    base: LFSRStateSpace,
    M: int,
    f: Optional[np.ndarray] = None,
) -> DerbyTransform:
    """Construct the Derby-transformed M-level look-ahead system.

    If ``f`` is given it must make the Krylov matrix invertible; otherwise
    candidates are tried starting from ``f = e_0``.
    """
    la = expand_lookahead(base, M)
    k = base.order

    def build(fv: np.ndarray) -> Optional[DerbyTransform]:
        T = krylov_matrix(la.A_M, fv)
        if not T.is_invertible():
            return None
        T_inv = T.inverse()
        A_Mt = T_inv @ la.A_M @ T
        if not A_Mt.is_companion():
            # By construction the Krylov basis always yields companion form
            # when T is invertible; reaching this means a library bug.
            raise AssertionError("similar matrix is not companion despite invertible T")
        return DerbyTransform(
            lookahead=la,
            f=fv.copy(),
            T=T,
            T_inv=T_inv,
            A_Mt=A_Mt,
            B_Mt=T_inv @ la.B_M,
        )

    if f is not None:
        fv = np.asarray(f, dtype=np.uint8)
        if fv.shape != (k,):
            raise ValueError(f"f must have shape ({k},)")
        result = build(fv)
        if result is None:
            raise TransformError("supplied f does not yield an invertible Krylov matrix")
        return result

    for candidate in _candidate_vectors(k):
        result = build(candidate)
        if result is not None:
            return result
    raise TransformError(
        f"no transformation vector found for M={M}: A^M is not cyclic "
        "(its minimal polynomial has degree < k)"
    )
