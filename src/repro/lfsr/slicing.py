"""Byte-sliced keystream: an additive scrambler one table gather per block.

The scrambler twin of :class:`repro.crc.slicing.ByteSlicedCRC`.  The
paper's additive scrambler (Fig. 1) is the autonomous system
``x(n+M) = A^M x(n)`` with block keystream ``Y x(n)``, row ``i`` of ``Y``
being ``C A^i``.  Both maps are linear in the state, so grouping their
columns per state byte turns each into a lookup table.  For state byte
``j`` (bits ``8j .. 8j+7``) and value ``b``:

* ``T[j][b]`` holds the ``D`` keystream bytes (``M = 8D`` bits, packed
  lsb-first: bit ``i`` of the stream is bit ``i % 8`` of byte ``i // 8``)
  that the state ``b << 8j`` produces — ``Y``'s columns ``8j .. 8j+7``;
* ``S[j][b]`` holds ``A^{8D} (b << 8j)`` — the same columns of
  ``A^{8D}``.

A block's keystream is the XOR of ``ceil(k / 8)`` rows of ``T``, and the
next block's state the XOR of as many entries of ``S``.  Only that state
fold is serial, the loop Derby's transformation keeps shallow in
hardware; the keystream rows of every block, of one stream or of a
batch, gather in one numpy call.  ``D`` is :data:`SLICE_DEPTH`, the same
block the CRC's table stack gathers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gf2.polynomial import GF2Polynomial
from repro.lfsr.reference import GaloisLFSR

#: Bytes one gather covers in both byte-sliced engines: the rows of
#: :class:`~repro.crc.slicing.ByteSlicedCRC`'s table stack and the
#: keystream bytes of one :class:`ByteSlicedScrambler` block.  Read off
#: the CRC's depth sweep in ``benchmarks/results/pipeline_crossover.txt``:
#: 64 rows cost ~1.4x 256 at 1518 B and ~2.5x at 1 MiB; 512 rows gain
#: 6-7 % for twice the memory (256 KiB per 32-bit spec at 256 rows).
SLICE_DEPTH = 256


def _combine(rows: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Row ``i``: the XOR of ``parts[l]`` over the set bits ``l`` of
    ``rows[i]`` — the GF(2) product of the 0/1 matrix ``rows`` with
    ``parts``."""
    picked = np.where(rows[:, :, None] != 0, parts[None], np.uint8(0))
    return np.bitwise_xor.reduce(picked, axis=1)


def _one_byte(poly: GF2Polynomial) -> Tuple[np.ndarray, np.ndarray]:
    """Each basis state's first keystream byte (a ``(k, 1)`` column) and
    its state 8 clocks on (``(k, k)`` 0/1 rows), clocked bit-serially."""
    k = poly.degree
    keystream = np.zeros((k, 1), dtype=np.uint8)
    advance = np.zeros((k, k), dtype=np.uint8)
    for i in range(k):
        lfsr = GaloisLFSR(poly, 1 << i)
        keystream[i, 0] = sum(bit << t for t, bit in enumerate(lfsr.keystream(8)))
        advance[i] = [(lfsr.state >> l) & 1 for l in range(k)]
    return keystream, advance


def build_scrambler_tables(
    poly: GF2Polynomial, depth: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(T, S)`` for ``depth``-byte blocks of ``poly``'s keystream.

    ``T`` is ``(ceil(k / 8), 256, depth)`` ``uint8``; ``S`` is
    ``(ceil(k / 8), 256)``, ``uint32`` up to 32 state bits, ``uint64`` up
    to 64 and Python ints beyond.  Built by doubling: with every basis
    state's keystream over ``n`` bytes and its state ``8n`` clocks on,
    the next ``n`` bytes are those rows combined through the states, so
    ``log2(depth)`` combines cover the block.
    """
    if depth < 1:
        raise ValueError("keystream depth must be >= 1")
    k = poly.degree
    unit = _one_byte(poly)
    keystream, advance = unit
    for bit in bin(depth)[3:]:
        keystream = np.hstack((keystream, _combine(advance, keystream)))
        advance = _combine(advance, advance)
        if bit == "1":
            keystream = np.hstack((keystream, _combine(advance, unit[0])))
            advance = _combine(advance, unit[1])
    words = [sum(1 << l for l in np.flatnonzero(row).tolist()) for row in advance]
    n = -(-k // 8)
    T = np.zeros((n, 256, depth), dtype=np.uint8)
    S = np.zeros((n, 256), dtype=np.uint32 if k <= 32 else np.uint64 if k <= 64 else object)
    for i in range(k):
        j, t = divmod(i, 8)
        T[j, 1 << t:2 << t] = T[j, :1 << t] ^ keystream[i]
        S[j, 1 << t:2 << t] = S[j, :1 << t] ^ words[i]
    return T, S


def _ordered(keystream: np.ndarray, lsb_first: bool) -> np.ndarray:
    """``keystream`` bytes as packed lsb-first, or with each byte's bits
    reversed for msb-first serial order."""
    if lsb_first:
        return keystream
    bits = np.unpackbits(keystream, axis=-1, bitorder="little")
    return np.packbits(bits, axis=-1)


class ByteSlicedScrambler:
    """Additive-scrambler keystream, one gather per :data:`SLICE_DEPTH` bytes.

    The engine has two doors.  :meth:`run` (and :meth:`keystream_bytes`
    on top of it) is the single-stream door: the state steps through
    ``S`` as Python ints, then every block's ``T`` rows gather in one
    call.  :meth:`keystream_batch` is the batch door: B per-stream states
    step through ``S`` together, and every stream's blocks gather at
    once.  The keystream is :class:`~repro.lfsr.reference.GaloisLFSR`'s,
    bit for bit: the register's top bit, then one clock, per bit.

    ``tables`` takes a stack from :func:`build_scrambler_tables` (any
    depth), e.g. the one :meth:`repro.engine.CompileCache.scrambler_tables`
    shares; by default the engine builds its own at :data:`SLICE_DEPTH`.
    States are taken as given: the scrambler classes validate theirs.
    """

    def __init__(
        self,
        poly: GF2Polynomial,
        tables: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ):
        if tables is None:
            tables = build_scrambler_tables(poly, SLICE_DEPTH)
        keystream, advance = tables
        self._depth = keystream.shape[2]
        # Whole 8-byte words gather 8 keystream bytes a lookup.
        self._rows = keystream.view(np.uint64) if self._depth % 8 == 0 else keystream
        self._advance = advance
        # The single-stream door steps Python ints through these.
        self._fold = [(row, 8 * j) for j, row in enumerate(advance.tolist())]

    @property
    def depth(self) -> int:
        """Keystream bytes per block (the stack's ``D``)."""
        return self._depth

    # ------------------------------------------------------------------
    def run(self, state: int, blocks: int) -> Tuple[np.ndarray, int]:
        """``blocks`` whole blocks of lsb-first keystream bytes from
        ``state``, and the state after them."""
        starts: List[int] = []
        for _ in range(blocks):
            starts.append(state)
            following = 0
            for row, shift in self._fold:
                following ^= row[(state >> shift) & 0xFF]
            state = following
        grid = np.array([starts], dtype=self._advance.dtype).reshape(1, blocks)
        return self._gather(grid)[0], state

    def keystream_bytes(self, state: int, nbytes: int, lsb_first: bool = True) -> bytes:
        """The first ``nbytes`` keystream bytes from ``state``; bits fill
        each byte from its least significant end unless ``lsb_first`` is
        false."""
        keystream, _ = self.run(state, -(-nbytes // self._depth))
        return _ordered(keystream[:nbytes], lsb_first).tobytes()

    def keystream_batch(
        self, states: Sequence[int], nbytes: int, lsb_first: bool = True
    ) -> np.ndarray:
        """``(len(states), nbytes)`` keystream bytes, row ``b`` from
        ``states[b]``, in :meth:`keystream_bytes`' bit order."""
        blocks = -(-nbytes // self._depth)
        state = np.array(states, dtype=self._advance.dtype).reshape(-1)
        grid = np.empty((len(state), blocks), dtype=state.dtype)
        for t in range(blocks):
            grid[:, t] = state
            if t + 1 < blocks:
                state = self._lookup(self._advance, state)
        return _ordered(self._gather(grid)[:, :nbytes], lsb_first)

    def _gather(self, grid: np.ndarray) -> np.ndarray:
        """Keystream bytes of a ``(B, K)`` grid of block start states:
        ``(B, K * D)``, each row's blocks in order."""
        words = self._lookup(self._rows, grid)
        return words.view(np.uint8).reshape(grid.shape[0], grid.shape[1] * self._depth)

    @staticmethod
    def _lookup(tables: np.ndarray, state: np.ndarray) -> np.ndarray:
        """The XOR over state bytes ``j`` of ``tables[j]`` indexed by byte
        ``j`` of every entry of ``state``."""
        out = tables[0][(state & 0xFF).astype(np.intp)]
        for j in range(1, len(tables)):
            out ^= tables[j][((state >> 8 * j) & 0xFF).astype(np.intp)]
        return out
