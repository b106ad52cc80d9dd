"""Slicing-by-N CRC and the byte-sliced look-ahead: many bytes per step.

Both engines rest on one table stack: row ``d`` is the byte table pushed
past ``d`` zero bytes, i.e. the contribution of one input byte to the
register ``d`` bytes later.  A run of bytes is then the XOR of one row
lookup per byte, with the register folded into the indices of the run's
first ``ceil(width / 8)`` bytes.

* :class:`SlicingCRC` (slicing-by-N) walks the message N bytes per Python
  iteration.  It is the strongest pure-software CRC baseline in the
  Table 1 comparison (slicing-by-8 is what high-end network stacks use),
  supported for byte-multiple widths with ``N >= width/8`` and matching
  reflection; other specs fall back to the plain table engine.
* :class:`ByteSlicedCRC` is the same identity at depth
  :data:`SLICE_DEPTH`, evaluated by numpy: every D-byte block of a run is
  one gather plus one XOR-reduce, so the input term ``B_M u_M`` of the
  M = 8D look-ahead is feed-forward work done for all blocks at once.
  Only the register's fold through ``A^{8D}`` (``ceil(width / 8)``
  lookups per block) stays serial — the split of Derby's look-ahead,
  whose feed-forward part PiCoGA pipelines.  Widths up to 64 bits; wider
  specs keep :class:`~repro.crc.table.TableCRC`'s per-byte loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.crc.bitwise import BitwiseCRC
from repro.crc.spec import CRCSpec
from repro.crc.table import TableCRC, build_table
from repro.gf2.bits import reflect_bits
from repro.lfsr.slicing import SLICE_DEPTH  # the stack's rows, one gather's bytes

#: Blocks gathered per numpy call (a batch slab: rows x blocks of about
#: this many): a long run's index and gathered words stay ~1 MiB whatever
#: its length, and cache-resident (the gathers of a 1 MiB run measured
#: ~35 % faster than one gather over all of it).
_SLAB_BLOCKS = 256

#: A batch group of fewer messages than this runs each one through
#: :meth:`ByteSlicedCRC.raw_register`: the group's vectorized fold steps
#: block by block with numpy calls on arrays of one row per message, and
#: for a few rows that overhead outweighs the work.  Read off the rows x
#: length sweep in ``benchmarks/results/engine_batch.txt``.
GATHER_MIN_ROWS = 16


def _register_shift(spec: CRCSpec) -> int:
    """Bits a forward register is left-aligned by so its top byte is whole."""
    return 0 if spec.refin else (-spec.width) % 8


def build_slicing_tables(spec: CRCSpec, n: int) -> np.ndarray:
    """``(n, 256)`` table stack; row ``d`` advances a byte past ``d`` zero bytes.

    Row 0 is :func:`~repro.crc.table.build_table`.  Forward (non-reflected)
    registers are left-aligned by ``(-width) % 8`` bits, so every row is
    indexed by the register's top whole byte; byte-multiple widths are
    unchanged by that.  Entries are ``uint32`` up to 32 aligned bits,
    ``uint64`` up to 64 and Python ints beyond.
    """
    if n < 1:
        raise ValueError("slice count must be >= 1")
    bits = spec.width + _register_shift(spec)
    dtype = np.uint32 if bits <= 32 else np.uint64 if bits <= 64 else object
    rows = np.empty((n, 256), dtype=dtype)
    rows[0] = [t << _register_shift(spec) for t in build_table(spec)]
    base, mask, top = rows[0], (1 << bits) - 1, bits - 8
    for d in range(1, n):
        prev = rows[d - 1]
        if spec.refin:
            rows[d] = (prev >> 8) ^ base[(prev & 0xFF).astype(np.intp)]
        else:
            rows[d] = ((prev << 8) & mask) ^ base[(prev >> top).astype(np.intp)]
    return rows


class SlicingCRC:
    """Slicing-by-N engine (default N = 8)."""

    def __init__(self, spec: CRCSpec, slices: int = 8):
        if slices < 1:
            raise ValueError("slice count must be >= 1")
        self._spec = spec
        self._n = slices
        self._supported = (
            spec.width % 8 == 0
            and spec.width >= 8
            and slices * 8 >= spec.width
            and spec.refin == spec.refout
        )
        self._fallback = TableCRC(spec)
        self._tables = (
            build_slicing_tables(spec, slices).tolist() if self._supported else None
        )

    @property
    def spec(self) -> CRCSpec:
        """The :class:`CRCSpec` this engine realizes."""
        return self._spec

    @property
    def slices(self) -> int:
        """Slice count N — bytes folded per block step."""
        return self._n

    @property
    def supported(self) -> bool:
        """False when this spec routes through the plain table engine."""
        return self._supported

    # ------------------------------------------------------------------
    def raw_register(self, data: bytes, register: int = None) -> int:
        """Register contents after clocking ``data`` (no finalization)."""
        spec = self._spec
        reg = spec.init if register is None else register
        if not self._supported:
            return self._fallback.raw_register(data, reg)
        n = self._n
        blocks_end = len(data) - (len(data) % n)
        if spec.refin:
            rw = reflect_bits(reg, spec.width)
            for off in range(0, blocks_end, n):
                acc = 0
                x = rw
                for j in range(n):
                    acc ^= self._tables[n - 1 - j][(data[off + j] ^ x) & 0xFF]
                    x >>= 8
                rw = acc
            reg = reflect_bits(rw, spec.width)
        else:
            shift = spec.width - 8
            for off in range(0, blocks_end, n):
                acc = 0
                x = reg
                for j in range(n):
                    acc ^= self._tables[n - 1 - j][(data[off + j] ^ (x >> shift)) & 0xFF]
                    x = (x << 8) & spec.mask
                reg = acc
        if blocks_end < len(data):
            reg = self._fallback.raw_register(data[blocks_end:], reg)
        return reg

    def compute(self, data: bytes) -> int:
        """The published CRC value of ``data``."""
        return self._spec.finalize(self.raw_register(data))

    def verify(self, data: bytes, crc: int) -> bool:
        """True iff ``crc`` is the published CRC of ``data``."""
        return self.compute(data) == crc


class ByteSlicedCRC:
    """Byte-sliced look-ahead: one numpy gather per :data:`SLICE_DEPTH` bytes.

    A run of n bytes splits into ``ceil(n / D)`` blocks, the first one
    short.  Byte ``i`` of a block of length L indexes row ``L - 1 - i``;
    the first block is one gather and XOR-reduce, and every full block
    after it gathers in one call (per slab) and reduces to one word
    each.  The register enters the first block through its first
    ``ceil(width / 8)`` indices, and every later block by
    ``ceil(width / 8)`` lookups of the register's bytes in the last rows
    — ``A^{8D}`` applied to the state.  :meth:`raw_registers_batch` runs
    many messages through the same steps at once.  ``tables`` takes a
    stack from :func:`build_slicing_tables` (any depth), e.g. the one
    :meth:`repro.engine.CompileCache.slicing_tables` shares; by default
    the engine builds its own at :data:`SLICE_DEPTH`.
    """

    def __init__(self, spec: CRCSpec, tables: Optional[np.ndarray] = None):
        self._spec = spec
        self._supported = spec.width <= 64
        if not self._supported:
            self._fallback = TableCRC(spec)
            return
        if tables is None:
            tables = build_slicing_tables(spec, SLICE_DEPTH)
        depth = len(tables)
        self._nbytes = -(-spec.width // 8)
        if depth < self._nbytes:
            raise ValueError(
                f"a {depth}-row stack cannot fold a {spec.width}-bit register"
            )
        self._depth = depth
        self._flat = tables.reshape(-1)
        # Row offset of byte i of a block into the flattened stack.
        self._offsets = (depth - 1 - np.arange(depth)) * 256
        self._shift = _register_shift(spec)
        self._bits = spec.width + self._shift
        # (row, shift of the register byte it takes) for the fold through
        # A^{8D}: reflected registers meet the message low byte first,
        # aligned forward registers top byte first.
        self._fold_rows = [
            (tables[depth - 1 - i],
             8 * i if spec.refin else self._bits - 8 - 8 * i)
            for i in range(self._nbytes)
        ]
        # The same rows as lists: one message's fold indexes them by int.
        self._fold = [(row.tolist(), shift) for row, shift in self._fold_rows]

    @property
    def spec(self) -> CRCSpec:
        """The :class:`CRCSpec` this engine realizes."""
        return self._spec

    @property
    def supported(self) -> bool:
        """False when the spec is wider than 64 bits and takes the byte loop."""
        return self._supported

    # ------------------------------------------------------------------
    def raw_register(self, data: bytes, register: int = None) -> int:
        """Register contents after clocking ``data`` (no finalization)."""
        spec = self._spec
        reg = spec.init if register is None else register
        if not self._supported:
            return self._fallback.raw_register(data, reg)
        n = len(data)
        if n == 0:
            return reg
        depth, nbytes, bits = self._depth, self._nbytes, self._bits
        head = (n - 1) % depth + 1  # the first block's length, 1..D
        k = min(nbytes, head)
        # Fold the register into the head's first k bytes: the low bytes
        # of a reflected register, the top bytes of an aligned forward one.
        if spec.refin:
            r = reflect_bits(reg, spec.width)
            first = int.from_bytes(data[:k], "little") ^ (r & ((1 << 8 * k) - 1))
            first = first.to_bytes(k, "little")
        else:
            r = reg << self._shift
            first = int.from_bytes(data[:k], "big") ^ (r >> (bits - 8 * k))
            first = first.to_bytes(k, "big")
        # A head shorter than the register leaves its upper part unfolded.
        if head >= nbytes:
            r = 0
        elif spec.refin:
            r >>= 8 * head
        else:
            r = (r << 8 * head) & ((1 << bits) - 1)
        lead = np.frombuffer(b"".join((first, memoryview(data)[k:head])), dtype=np.uint8)
        r ^= int(np.bitwise_xor.reduce(self._flat[self._offsets[depth - head:] + lead]))
        if n == head:
            return self._unalign(r)
        body = np.frombuffer(data, dtype=np.uint8, offset=head).reshape(-1, depth)
        fold = self._fold
        for start in range(0, len(body), _SLAB_BLOCKS):
            words = np.bitwise_xor.reduce(
                self._flat[self._offsets + body[start:start + _SLAB_BLOCKS]], axis=1
            ).tolist()
            for word in words:
                for row, shift in fold:
                    word ^= row[(r >> shift) & 0xFF]
                r = word
        return self._unalign(r)

    def raw_registers_batch(
        self,
        messages: Sequence[bytes],
        fold_init: bool = False,
        bit_lengths: Optional[Sequence[int]] = None,
        finalize: bool = False,
    ) -> List[int]:
        """Registers of many messages, each clocked from a zero register,
        or from ``spec.init`` with ``fold_init=True``.

        Messages group by block count ``K = ceil(n / D)``, and each group
        is one byte matrix: every message is zero-padded at the head to
        ``K * D`` bytes, which a zero register makes transparent, unless
        the group's lengths are equal, when its first block is simply
        short.  The input term does not depend on the register, so a
        group's blocks gather in slabs of about :data:`_SLAB_BLOCKS`; only
        the ``ceil(width / 8)``-lookup fold through ``A^{8D}`` steps from
        block to block, vectorized across the group.  A group of fewer
        than :data:`GATHER_MIN_ROWS` messages runs each one through
        :meth:`raw_register` instead.

        ``fold_init`` XORs in the spec's init clocked over each message's
        length (:meth:`_init_after`), once per distinct length in the
        call, which by linearity is the register clocked from ``init``;
        the byte messages of a group below :data:`GATHER_MIN_ROWS` clock
        from ``init`` itself instead.
        ``bit_lengths`` are the true lengths of head-padded bit streams
        (default: 8 bits per byte).  With ``finalize=True`` the result is
        the published CRCs.  Specs wider than 64 bits run
        :class:`~repro.crc.table.TableCRC` per message.
        """
        spec = self._spec
        fold_init = fold_init and spec.init != 0
        lengths = np.fromiter(map(len, messages), np.intp, len(messages))
        bits = 8 * lengths if bit_lengths is None else np.asarray(bit_lengths, np.intp)
        if not self._supported:
            regs = [self._fallback.raw_register(m, 0) for m in messages]
            if fold_init:
                regs = [r ^ self._init_after(n) for r, n in zip(regs, bits.tolist())]
            return [spec.finalize(r) for r in regs] if finalize else regs
        # Byte messages of a group below GATHER_MIN_ROWS clock from the init
        # itself; gathered rows and head-padded bit streams fold it in after.
        start = spec.init if fold_init and bit_lengths is None else 0
        work, from_zero = self._gather_batch(messages, lengths, start)
        if fold_init and from_zero.any():
            # Sets, not np.unique: its first call imports numpy.ma (~35 ms).
            owing = bits[from_zero]
            distinct = np.array(sorted(set(owing.tolist())))
            aligned = [self._align(self._init_after(n)) for n in distinct.tolist()]
            work[from_zero] ^= np.array(aligned, dtype=work.dtype)[
                np.searchsorted(distinct, owing)
            ]
        if finalize and spec.refin == spec.refout:
            return ((work >> self._shift) ^ spec.xorout).tolist()
        regs = [self._unalign(r) for r in work.tolist()]
        return [spec.finalize(r) for r in regs] if finalize else regs

    def _init_after(self, n_bits: int) -> int:
        """``spec.init`` clocked through ``n_bits`` zero bits (natural order):
        ``n_bits // 8`` zero bytes through this engine, the rest bit-serially."""
        reg = self.raw_register(bytes(n_bits // 8), self._spec.init)
        return BitwiseCRC(self._spec).process_bits(reg, [0] * (n_bits % 8))

    def _gather_batch(
        self, messages: Sequence[bytes], lengths: np.ndarray, start: int
    ):
        """Working registers of ``messages``, one group per K, and a mask of
        the rows clocked from zero.

        A group of fewer than :data:`GATHER_MIN_ROWS` messages runs each
        through :meth:`raw_register` from ``start``; the others gather from
        zero.
        """
        blocks = -(-lengths // self._depth)
        work = np.zeros(len(messages), dtype=self._flat.dtype)
        from_zero = np.ones(len(messages), dtype=bool)
        for k in sorted(set(blocks.tolist())):
            if k == 0:
                continue  # an empty message leaves the register at zero
            rows = np.flatnonzero(blocks == k)
            if len(rows) < GATHER_MIN_ROWS:
                work[rows] = [
                    self._align(self.raw_register(messages[i], start))
                    for i in rows.tolist()
                ]
                from_zero[rows] = start == 0
                continue
            group = (messages if len(rows) == len(messages)
                     else [messages[i] for i in rows.tolist()])
            work[rows] = self._gather_group(group, lengths[rows], k)
        return work, from_zero

    def _gather_group(self, group: Sequence[bytes], lengths: np.ndarray, k: int) -> np.ndarray:
        """Working registers of one group of ``k``-block messages."""
        depth, flat, offsets = self._depth, self._flat, self._offsets
        data = np.frombuffer(b"".join(group), dtype=np.uint8)
        if lengths.min() == lengths.max():
            data = data.reshape(len(group), -1)
        else:
            # Head-pad: row j's last lengths[j] bytes, in row order, take
            # message j, so one masked store places the joined bytes.
            width = k * depth
            padded = np.zeros((len(group), width), dtype=np.uint8)
            padded[np.arange(width) >= (width - lengths)[:, None]] = data
            data = padded
        head = data.shape[1] - (k - 1) * depth
        out = np.empty(len(group), dtype=flat.dtype)
        for start in range(0, len(group), _SLAB_BLOCKS):
            part = data[start:start + _SLAB_BLOCKS]
            r = np.bitwise_xor.reduce(flat[offsets[depth - head:] + part[:, :head]], axis=1)
            body = part[:, head:].reshape(len(part), k - 1, depth)
            step = max(1, _SLAB_BLOCKS // len(part))
            for b0 in range(0, k - 1, step):
                words = np.bitwise_xor.reduce(flat[offsets + body[:, b0:b0 + step]], axis=2)
                for word in words.T:
                    for row, shift in self._fold_rows:
                        word ^= row[(r >> shift) & 0xFF]
                    r = word
            out[start:start + len(part)] = r
        return out

    def _align(self, r: int) -> int:
        """The working (reflected or aligned) register of a natural-order one."""
        if self._spec.refin:
            return reflect_bits(r, self._spec.width)
        return r << self._shift

    def _unalign(self, r: int) -> int:
        """The natural-order register of a working (reflected or aligned) one."""
        if self._spec.refin:
            return reflect_bits(r, self._spec.width)
        return r >> self._shift

    def compute(self, data: bytes) -> int:
        """The published CRC value of ``data``."""
        return self._spec.finalize(self.raw_register(data))

    def verify(self, data: bytes, crc: int) -> bool:
        """True iff ``crc`` is the published CRC of ``data``."""
        return self.compute(data) == crc
