"""B-stream GF(2) block kernels — the word-packed batch substrate.

Every single-vector GF(2) product (Derby's ``A_Mt x``, ``B_Mt u``, the
anti-transform ``T``) runs on :class:`~repro.gf2.matrix.GF2Matrix`.  This
module holds the one *batched* kernel: apply a matrix to B independent
column vectors at once.  Two implementations share that contract:

:class:`ReferenceBackend`
    The pure-Python bit loop: matrix rows as Python ints, one AND +
    parity per output bit per stream.  Slow by construction, trivially
    auditable — the ground truth the packed kernel is fuzzed against.
:class:`NumpyPackedBackend`
    Word-packed bit-slicing: the B streams live in 64-bit machine words
    (numpy ``uint64``), so one XOR advances 64 of them — the software
    analogue of the paper's "wide and flat" PiCoGA datapath.  Its word
    packing carries :class:`~repro.engine.batch.BatchMultiplicativeScrambler`.

Both are bit-exact by construction (enforced by the
``gf2:reference-vs-packed`` fuzz oracle in :mod:`repro.verify.oracles`
and the parity suite in ``tests/test_gf2_backend.py``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.gf2.bits import parity
from repro.telemetry import bind_families, default_registry

#: Bits per packed machine word in the numpy backend.
WORD_BITS = 64

# Bound lazily (see repro.telemetry.bind_families) so swapping the
# default registry after import is observed.
_METRICS = bind_families(lambda reg: {
    "batch_bits": reg.histogram(
        "gf2_backend_matvec_batch_bits",
        "Bits moved per batched GF(2) block application (rows x batch)",
        labels=("backend",),
        buckets=(64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 1 << 22),
    ),
})


def _n_words(batch: int) -> int:
    """Packed words needed for a batch of the given width."""
    return (batch + WORD_BITS - 1) // WORD_BITS


def _as_matrix(matrix) -> np.ndarray:
    """Coerce a matrix argument (array / nested sequence) to 2-D uint8."""
    a = np.asarray(matrix, dtype=np.uint8)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D GF(2) matrix, got shape {a.shape}")
    return a


def _rows_as_ints(matrix: np.ndarray) -> List[int]:
    """Matrix rows packed into Python ints (bit j = column j)."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class GF2Backend:
    """The batched GF(2) kernel contract; concrete kernels override it.

    Matrices and bit blocks cross the API as 0/1 ``uint8`` numpy arrays
    (or nested sequences); the *batched* representation returned by
    :meth:`pack` is kernel-private — callers may only slice it by row,
    pass it back to :meth:`matvec_batch`, or decode it with
    :meth:`unpack`.
    """

    #: Kernel name, the ``backend`` label of its telemetry.
    name: str = "abstract"

    def pack(self, bits):
        """Encode a ``(n, B)`` 0/1 bit matrix into the batch representation."""
        raise NotImplementedError

    def unpack(self, packed, batch: int) -> np.ndarray:
        """Decode :meth:`pack` output back to a ``(n, batch)`` uint8 array."""
        raise NotImplementedError

    def matvec_batch(self, matrix, packed):
        """Apply an ``(r, c)`` matrix to all B packed column vectors at once.

        ``packed`` holds c packed rows; the result holds r packed rows —
        row i is the XOR of the input rows selected by matrix row i.
        """
        raise NotImplementedError

    def _observe(self, batch_bits: int) -> None:
        """Publish one block application (no-op while telemetry is off)."""
        if default_registry().enabled:
            _METRICS()["batch_bits"].labels(backend=self.name).observe(batch_bits)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ReferenceBackend(GF2Backend):
    """The pure-Python bit loop: rows as ints, one parity per output bit.

    The batch representation is the unpacked ``(n, B)`` uint8 array
    itself; :meth:`matvec_batch` walks every stream with Python-int
    AND/parity operations — O(r·B) interpreter steps per block, which is
    exactly the per-bit cost profile the word-packed kernel removes.
    """

    name = "reference"

    def pack(self, bits):
        """Identity packing: a defensive copy of the bit matrix."""
        a = np.ascontiguousarray(bits, dtype=np.uint8)
        if a.ndim != 2:
            raise ValidationError(f"expected a 2-D (n_bits, batch) array, got shape {a.shape}")
        return a.copy()

    def unpack(self, packed, batch: int) -> np.ndarray:
        """Return the bit matrix truncated to ``batch`` columns."""
        return np.ascontiguousarray(packed, dtype=np.uint8)[:, :batch]

    def matvec_batch(self, matrix, packed):
        """Per-stream Python bit loop (the cost baseline)."""
        a = _as_matrix(matrix)
        p = np.asarray(packed, dtype=np.uint8)
        if a.shape[1] != p.shape[0]:
            raise ValidationError(f"shape mismatch: {a.shape} @ packed {p.shape}")
        batch = p.shape[1]
        self._observe(a.shape[0] * batch)
        row_ints = _rows_as_ints(a)
        out = np.zeros((a.shape[0], batch), dtype=np.uint8)
        columns = p.T.tolist()
        for b, column in enumerate(columns):
            x = 0
            for j, bit in enumerate(column):
                if bit:
                    x |= 1 << j
            for i, row in enumerate(row_ints):
                out[i, b] = parity(row & x)
        return out


class NumpyPackedBackend(GF2Backend):
    """numpy ``uint64`` bit-slicing — the word-packed batch kernel.

    The batch occupies ``ceil(B/64)`` words per row; a block application
    is one vectorized select-and-XOR-reduce (:meth:`matvec_batch`), so a
    single numpy call advances all B streams.
    """

    name = "packed"

    def pack(self, bits) -> np.ndarray:
        """``np.packbits`` each row into little-endian ``uint64`` words."""
        a = np.ascontiguousarray(bits, dtype=np.uint8)
        if a.ndim != 2:
            raise ValidationError(f"expected a 2-D (n_bits, batch) array, got shape {a.shape}")
        n, batch = a.shape
        words = _n_words(batch)
        packed8 = np.packbits(a, axis=1, bitorder="little")
        padded = np.zeros((n, words * 8), dtype=np.uint8)
        padded[:, : packed8.shape[1]] = packed8
        return padded.view("<u8")

    def unpack(self, packed, batch: int) -> np.ndarray:
        """``np.unpackbits`` the word view back to ``batch`` bit columns."""
        p = np.ascontiguousarray(packed, dtype="<u8")
        if p.ndim != 2:
            raise ValidationError(f"expected a 2-D (n_bits, words) array, got shape {p.shape}")
        as_bytes = p.view(np.uint8)
        return np.unpackbits(as_bytes, axis=1, count=batch, bitorder="little")

    def from_rows(self, rows: Sequence) -> np.ndarray:
        """Stack single packed word rows into one batch."""
        return np.vstack([np.atleast_2d(r) for r in rows])

    def matvec_batch(self, matrix, packed) -> np.ndarray:
        """Vectorized select-and-XOR-reduce over the word array."""
        mask = np.ascontiguousarray(matrix, dtype=bool)
        p = np.asarray(packed)
        if mask.ndim != 2 or p.ndim != 2 or mask.shape[1] != p.shape[0]:
            raise ValidationError(f"shape mismatch: matrix {mask.shape} @ packed {p.shape}")
        self._observe(mask.shape[0] * p.shape[1] * WORD_BITS)
        selected = np.where(mask[:, :, None], p[None, :, :], np.uint64(0))
        return np.bitwise_xor.reduce(selected, axis=1)
