"""Pluggable GF(2) kernel backends — the word-packed execution substrate.

Derby's state-space transform turns the M-bit look-ahead update into dense
GF(2) matrix products (``A_Mt x``, ``B_Mt u``, the anti-transform ``T``).
The *math* is fixed; how fast it runs depends entirely on the data layout.
This module makes that layout a pluggable choice behind one registry:

``"reference"``
    The historical pure-Python bit loop: matrix rows as Python ints, one
    AND + parity per output bit.  Slow by construction, trivially
    auditable — the ground truth the fast backends are fuzzed against.
``"packed"``
    Word-packed bit-slicing: states and matrix columns live in 64-bit
    machine words (numpy ``uint64``), so one XOR advances 64 independent
    streams — the software analogue of the paper's "wide and flat"
    PiCoGA datapath.  (Tsaban & Vishne's word-oriented σ-LFSR construction
    proper lives in :mod:`repro.lfsr.wordlfsr`; this backend word-packs the
    *batch* dimension instead of the register.)

Every backend implements the same five kernels — ``matvec``, ``matmul``,
``matpow``, and the batched ``pack``/``matvec_batch``/``unpack`` block
application — and all are bit-exact by construction (enforced by the
``gf2:reference-vs-packed`` fuzz oracle in :mod:`repro.verify.oracles`
and the parity suite in ``tests/test_gf2_backend.py``).

Selection order: an explicit ``backend=`` argument anywhere in the stack,
else the ``REPRO_GF2_BACKEND`` environment variable, else the process
default (``"packed"``).  See ``docs/ARCHITECTURE.md`` for where the
backends plug into the engine layers.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ValidationError
from repro.gf2.bits import parity
from repro.telemetry import bind_families, default_registry

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV = "REPRO_GF2_BACKEND"

#: Bits per packed machine word in the numpy backend.
WORD_BITS = 64

# Bound lazily (see repro.telemetry.bind_families) so swapping the
# default registry after import is observed.
_METRICS = bind_families(lambda reg: {
    "ops": reg.counter(
        "gf2_backend_ops_total",
        "GF(2) kernel invocations by backend and operation",
        labels=("backend", "op"),
    ),
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


def _as_vector(vec, length: int) -> np.ndarray:
    """Coerce a vector argument to 1-D uint8 of the required length."""
    v = np.asarray(vec, dtype=np.uint8)
    if v.ndim != 1 or v.size != length:
        raise ValidationError(f"expected a length-{length} GF(2) vector, got shape {v.shape}")
    return v


def _rows_as_ints(matrix: np.ndarray) -> List[int]:
    """Matrix rows packed into Python ints (bit j = column j)."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _ints_to_bits(rows: Sequence[int], width: int) -> np.ndarray:
    """Inverse of :func:`_rows_as_ints` — ``(len(rows), width)`` uint8."""
    nbytes = (width + 7) // 8
    raw = b"".join(int(r).to_bytes(nbytes, "little") for r in rows)
    as_bytes = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(as_bytes, axis=1, count=width, bitorder="little")


class GF2Backend:
    """Abstract GF(2) kernel set; concrete backends override the kernels.

    Matrices and vectors cross the API as 0/1 ``uint8`` numpy arrays (or
    nested sequences); the *batched* representation returned by
    :meth:`pack` is backend-private — callers may only slice it by row,
    pass it back to :meth:`matvec_batch`/:meth:`concat`, or decode it
    with :meth:`unpack`.
    """

    #: Registry name of the backend (set per instance).
    name: str = "abstract"

    # -- dense single-operand kernels ----------------------------------
    def matvec(self, matrix, vec) -> np.ndarray:
        """``y = A @ x`` over GF(2); returns a 1-D uint8 array."""
        raise NotImplementedError

    def matmul(self, a, b) -> np.ndarray:
        """``C = A @ B`` over GF(2); returns a 2-D uint8 array."""
        raise NotImplementedError

    def matpow(self, matrix, exponent: int) -> np.ndarray:
        """``A ** e`` by square-and-multiply (e >= 0) over GF(2)."""
        a = _as_matrix(matrix)
        if a.shape[0] != a.shape[1]:
            raise ValidationError("matrix power requires a square matrix")
        if exponent < 0:
            raise ValidationError("backend matpow requires a non-negative exponent")
        self._observe("matpow")
        result = np.eye(a.shape[0], dtype=np.uint8)
        base = a
        e = exponent
        while e:
            if e & 1:
                result = self.matmul(result, base)
            base = self.matmul(base, base)
            e >>= 1
        return result

    # -- batched (B-stream) kernels ------------------------------------
    def pack(self, bits):
        """Encode a ``(n, B)`` 0/1 bit matrix into the batch representation."""
        raise NotImplementedError

    def unpack(self, packed, batch: int) -> np.ndarray:
        """Decode :meth:`pack` output back to a ``(n, batch)`` uint8 array."""
        raise NotImplementedError

    def concat(self, parts: Sequence):
        """Row-wise concatenation of packed batches (same batch width)."""
        raise NotImplementedError

    def from_rows(self, rows: Sequence):
        """Reassemble a packed batch from individual packed rows."""
        raise NotImplementedError

    def matvec_batch(self, matrix, packed):
        """Apply an ``(r, c)`` matrix to all B packed column vectors at once.

        ``packed`` holds c packed rows; the result holds r packed rows —
        row i is the XOR of the input rows selected by matrix row i.
        """
        raise NotImplementedError

    # -- telemetry ------------------------------------------------------
    def _observe(self, op: str, batch_bits: Optional[int] = None) -> None:
        """Publish one kernel invocation (no-op while telemetry is off)."""
        if not default_registry().enabled:
            return
        metrics = _METRICS()
        metrics["ops"].labels(backend=self.name, op=op).inc()
        if batch_bits is not None:
            metrics["batch_bits"].labels(backend=self.name).observe(batch_bits)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ReferenceBackend(GF2Backend):
    """The pure-Python bit loop: rows as ints, one parity per output bit.

    The batch representation is the unpacked ``(n, B)`` uint8 array
    itself; :meth:`matvec_batch` walks every stream with Python-int
    AND/parity operations — O(r·B) interpreter steps per block, which is
    exactly the per-bit cost profile the word-packed backends remove.
    """

    name = "reference"

    def matvec(self, matrix, vec) -> np.ndarray:
        """One AND + parity per output bit, rows as Python ints."""
        a = _as_matrix(matrix)
        x = _as_vector(vec, a.shape[1])
        self._observe("matvec")
        xi = int.from_bytes(np.packbits(x, bitorder="little").tobytes(), "little")
        return np.array(
            [parity(r & xi) for r in _rows_as_ints(a)], dtype=np.uint8
        )

    def matmul(self, a, b) -> np.ndarray:
        """Accumulate the rows of ``b`` selected by each row of ``a``."""
        am = _as_matrix(a)
        bm = _as_matrix(b)
        if am.shape[1] != bm.shape[0]:
            raise ValidationError(f"inner dimension mismatch: {am.shape} @ {bm.shape}")
        self._observe("matmul")
        brows = _rows_as_ints(bm)
        out_rows = []
        for i in range(am.shape[0]):
            acc = 0
            for j in range(am.shape[1]):
                if am[i, j]:
                    acc ^= brows[j]
            out_rows.append(acc)
        return _ints_to_bits(out_rows, bm.shape[1])

    def pack(self, bits):
        """Identity packing: a defensive copy of the bit matrix."""
        a = np.ascontiguousarray(bits, dtype=np.uint8)
        if a.ndim != 2:
            raise ValidationError(f"expected a 2-D (n_bits, batch) array, got shape {a.shape}")
        return a.copy()

    def unpack(self, packed, batch: int) -> np.ndarray:
        """Return the bit matrix truncated to ``batch`` columns."""
        return np.ascontiguousarray(packed, dtype=np.uint8)[:, :batch]

    def concat(self, parts: Sequence):
        """Stack bit-row blocks vertically."""
        return np.vstack(list(parts))

    def from_rows(self, rows: Sequence):
        """Stack individual bit rows back into a matrix."""
        return np.vstack([np.atleast_2d(r) for r in rows])

    def matvec_batch(self, matrix, packed):
        """Per-stream Python bit loop (the cost baseline)."""
        a = _as_matrix(matrix)
        p = np.asarray(packed, dtype=np.uint8)
        if a.shape[1] != p.shape[0]:
            raise ValidationError(f"shape mismatch: {a.shape} @ packed {p.shape}")
        batch = p.shape[1]
        self._observe("matvec_batch", batch_bits=a.shape[0] * batch)
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
    """numpy ``uint64`` bit-slicing — the production word-packed backend.

    The batch occupies ``ceil(B/64)`` words per row; a block application
    is one vectorized select-and-XOR-reduce (`matvec_batch`), so a
    single numpy call advances all B streams M bits.  ``matmul`` reuses
    the same kernel with the right operand's rows as the "batch".
    """

    name = "packed"

    def matvec(self, matrix, vec) -> np.ndarray:
        """GF(2) matvec as an integer matmul reduced mod 2."""
        a = _as_matrix(matrix)
        x = _as_vector(vec, a.shape[1])
        self._observe("matvec")
        return ((a.astype(np.int64) @ x.astype(np.int64)) & 1).astype(np.uint8)

    def matmul(self, a, b) -> np.ndarray:
        """``A @ B`` via :meth:`matvec_batch` with ``B`` packed as the batch."""
        am = _as_matrix(a)
        bm = _as_matrix(b)
        if am.shape[1] != bm.shape[0]:
            raise ValidationError(f"inner dimension mismatch: {am.shape} @ {bm.shape}")
        self._observe("matmul")
        return self.unpack(self.matvec_batch(am, self.pack(bm)), bm.shape[1])

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

    def concat(self, parts: Sequence) -> np.ndarray:
        """Stack packed word blocks vertically."""
        return np.vstack(list(parts))

    def from_rows(self, rows: Sequence) -> np.ndarray:
        """Stack single packed word rows into one batch."""
        return np.vstack([np.atleast_2d(r) for r in rows])

    def matvec_batch(self, matrix, packed) -> np.ndarray:
        """Vectorized select-and-XOR-reduce over the word array."""
        mask = np.ascontiguousarray(matrix, dtype=bool)
        p = np.asarray(packed)
        if mask.ndim != 2 or p.ndim != 2 or mask.shape[1] != p.shape[0]:
            raise ValidationError(f"shape mismatch: matrix {mask.shape} @ packed {p.shape}")
        self._observe("matvec_batch", batch_bits=mask.shape[0] * p.shape[1] * WORD_BITS)
        selected = np.where(mask[:, :, None], p[None, :, :], np.uint64(0))
        return np.bitwise_xor.reduce(selected, axis=1)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: Dict[str, Callable[[], GF2Backend]] = {
    "reference": ReferenceBackend,
    "packed": NumpyPackedBackend,
}
_INSTANCES: Dict[str, GF2Backend] = {}
_DEFAULT_NAME = "packed"


def register_backend(
    name: str, factory: Callable[[], GF2Backend], replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    Refuses to shadow an existing registration unless ``replace`` is set,
    so test doubles can't silently leak into production selection.
    """
    if name in _FACTORIES and not replace:
        raise ValidationError(f"backend {name!r} is already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def set_default_backend(name: str) -> None:
    """Set the process-wide default used when nothing else selects one."""
    global _DEFAULT_NAME
    if name not in _FACTORIES:
        raise ValidationError(
            f"unknown GF(2) backend {name!r}; available: {', '.join(available_backends())}"
        )
    _DEFAULT_NAME = name


def default_backend_name() -> str:
    """The effective default: ``$REPRO_GF2_BACKEND`` else the process default."""
    return os.environ.get(BACKEND_ENV) or _DEFAULT_NAME


def get_backend(name: Optional[str] = None) -> GF2Backend:
    """Resolve a backend by name (``None`` follows the selection order).

    Instances are memoized per name, so engines constructed with the same
    selection share one (stateless) backend object.
    """
    resolved = name or default_backend_name()
    if resolved not in _FACTORIES:
        raise ValidationError(
            f"unknown GF(2) backend {resolved!r}; available: {', '.join(available_backends())}"
        )
    instance = _INSTANCES.get(resolved)
    if instance is None:
        instance = _INSTANCES[resolved] = _FACTORIES[resolved]()
    return instance


def resolve_backend(backend: Union[None, str, GF2Backend]) -> GF2Backend:
    """Accept ``None`` / a registry name / a backend instance uniformly."""
    if isinstance(backend, GF2Backend):
        return backend
    return get_backend(backend)
