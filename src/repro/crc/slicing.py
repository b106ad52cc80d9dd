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

import sys
import threading
from itertools import chain
from typing import List, Optional, Sequence

import numpy as np

from repro.crc.spec import CRCSpec
from repro.crc.table import TableCRC, build_table
from repro.gf2.bits import reflect_bits
from repro.lfsr.slicing import SLICE_DEPTH  # the stack's rows, one gather's bytes

#: Blocks gathered per numpy call (a batch slab: whole rows of about this
#: many blocks): a long run's index and gathered words stay ~1 MiB whatever
#: its length, and cache-resident (the gathers of a 1 MiB run measured
#: ~35 % faster than one gather over all of it).
_SLAB_BLOCKS = 256

#: A batch group of fewer messages than this runs each one through
#: :meth:`ByteSlicedCRC.raw_register`: the group's vectorized fold steps
#: block by block with numpy calls on arrays of one row per message, and
#: for a few rows that overhead outweighs the work.  Read off the rows x
#: length sweep in ``benchmarks/results/engine_batch.txt``: the gather
#: wins from 8 rows up to 4 KiB (:data:`_SHORT_BLOCKS` blocks).
GATHER_MIN_ROWS = 8
_SHORT_BLOCKS = 16
#: The floor for groups of longer messages: at 64 KiB the same sweep has
#: the gather win from 16 rows, and 8 rows lose from about 8 KiB.
LONG_GATHER_MIN_ROWS = 16


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
        # The same offsets as the batch gather's indices: 16 bits while the
        # stack fits.  Computing them narrow and widening them for np.take
        # beats computing intp ones, which made a 1024 x 256 B call 11-15 %
        # slower.
        self._narrow = self._offsets.astype(np.uint16 if depth <= 256 else np.intp)
        self._shift = _register_shift(spec)
        self._bits = spec.width + self._shift
        # (row, shift of the register byte it takes) for the fold through
        # A^{8D}: reflected registers meet the message low byte first,
        # aligned forward registers top byte first.  One message's fold
        # indexes the rows as lists by int.
        self._fold = [
            (tables[depth - 1 - i].tolist(),
             8 * i if spec.refin else self._bits - 8 - 8 * i)
            for i in range(self._nbytes)
        ]
        # A batch's fold reads each byte in place from the registers'
        # memory: (row, the byte's index within one register).
        size = self._flat.itemsize
        self._fold_rows = [
            (tables[depth - 1 - i],
             shift // 8 if sys.byteorder == "little" else size - 1 - shift // 8)
            for i, (_, shift) in enumerate(self._fold)
        ]
        self._local = threading.local()  # per-thread slab buffers (_buffers)

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
        self, messages: Sequence[bytes], finalize: bool = False
    ) -> List[int]:
        """Registers of many messages, each clocked from ``spec.init`` as
        :meth:`raw_register` clocks one, or with ``finalize=True`` their
        published CRCs.

        Messages group by block count ``K = ceil(n / D)``, and a group's
        rows are head-padded with zeros to its longest message, which a
        zero register makes transparent; an equal-length group needs no
        pad, and its first block is simply short.  The init enters each
        row's first ``ceil(width / 8)`` message bytes, as in
        :meth:`raw_register`; a message shorter than that keeps the rest
        of the init.  The input term does not depend on the register, so a
        group's blocks gather slab by slab: whole rows, about
        :data:`_SLAB_BLOCKS` blocks a slab, joined when the loop reaches
        them and gathered through buffers each thread keeps, so a call's
        temporaries stay bounded.  Only the ``ceil(width / 8)``-lookup fold
        through ``A^{8D}`` steps from block to block, vectorized across the
        group.  A group of fewer than :data:`GATHER_MIN_ROWS` messages
        (:data:`LONG_GATHER_MIN_ROWS` for messages over 4 KiB), or of
        messages longer than one slab, runs each one through
        :meth:`raw_register` instead.  Specs wider than 64 bits run
        :class:`~repro.crc.table.TableCRC` per message.
        """
        return self._registers_batch(messages, list(map(len, messages)), finalize)

    def _registers_batch(
        self, messages: Sequence[bytes], lengths: List[int], finalize: bool
    ) -> List[int]:
        """:meth:`raw_registers_batch` of messages whose byte lengths the
        caller has taken (:class:`~repro.engine.batch.BatchCRC` counts
        them for its telemetry too)."""
        spec = self._spec
        if not self._supported:
            regs = [self._fallback.raw_register(m, spec.init) for m in messages]
            return [spec.finalize(r) for r in regs] if finalize else regs
        work = self._gather_batch(messages, lengths, spec.init)
        if finalize and spec.refin == spec.refout:
            return ((work >> self._shift) ^ spec.xorout).tolist()
        regs = [self._unalign(r) for r in work.tolist()]
        return [spec.finalize(r) for r in regs] if finalize else regs

    def _gather_batch(
        self, messages: Sequence[bytes], lengths: List[int], start: int
    ) -> np.ndarray:
        """Working registers of ``messages`` clocked from ``start``, one
        group per block count; a batch of one group is gathered whole."""
        depth = self._depth
        sizes = {}  # block count -> its distinct lengths
        for n in set(lengths):
            sizes.setdefault(-(-n // depth), []).append(n)
        if len(sizes) == 1:
            (k, distinct), = sizes.items()
            if self._gathers(len(messages), k):
                return self._gather_group(messages, lengths, distinct, start)
        work = np.empty(len(messages), dtype=self._flat.dtype)
        blocks = -(-np.array(lengths) // depth)
        for k in sorted(sizes):
            rows = np.flatnonzero(blocks == k)
            picked = rows.tolist()
            if self._gathers(len(picked), k):
                work[rows] = self._gather_group(
                    [messages[i] for i in picked], [lengths[i] for i in picked], sizes[k], start
                )
            else:
                work[rows] = [self._align(self.raw_register(messages[i], start)) for i in picked]
        return work

    @staticmethod
    def _gathers(rows: int, k: int) -> bool:
        """Whether a group of ``rows`` messages of ``k`` blocks gathers: at
        least :data:`GATHER_MIN_ROWS` of them (:data:`LONG_GATHER_MIN_ROWS`
        past :data:`_SHORT_BLOCKS` blocks), each fitting in one slab."""
        floor = GATHER_MIN_ROWS if k <= _SHORT_BLOCKS else LONG_GATHER_MIN_ROWS
        return rows >= floor and 0 < k <= _SLAB_BLOCKS

    def _gather_group(
        self, group: Sequence[bytes], lengths: List[int], distinct: List[int], start: int
    ) -> np.ndarray:
        """Working registers of one group of messages of one block count
        (``distinct`` lengths) clocked from ``start``, gathered slab by slab
        and folded across the group."""
        depth, flat, nbytes = self._depth, self._flat, self._nbytes
        rows, longest = len(group), max(distinct)
        ragged = len(distinct) > 1
        k = -(-longest // depth)
        head = longest - (k - 1) * depth  # the first block of a padded row
        reg = self._align(start)
        # The register's bytes in message order, XORed into the indices of
        # each row's first bytes (a row offset is a multiple of 256).
        fill = np.array([(reg >> shift) & 0xFF for _, shift in self._fold], self._narrow.dtype)
        words = np.empty((k, rows), dtype=flat.dtype)  # one row per block
        per = _SLAB_BLOCKS * depth // longest  # rows a slab
        narrow, index, gathered = self._buffers(min(rows, per) * longest)
        zeros = bytes(longest) if ragged else b""
        for r0 in range(0, rows, per):
            part, sizes = group[r0:r0 + per], lengths[r0:r0 + per]
            slab, cells = len(part), len(part) * longest
            if ragged:
                part = chain.from_iterable(zip([zeros[n:] for n in sizes], part))
            data = np.frombuffer(b"".join(part), dtype=np.uint8).reshape(slab, longest)
            idx = narrow[:cells].reshape(slab, longest)
            np.add(self._narrow[depth - head:], data[:, :head], out=idx[:, :head])
            if k > 1:
                np.add(self._narrow, data[:, head:].reshape(slab, k - 1, depth),
                       out=idx[:, head:].reshape(slab, k - 1, depth))
            if reg and ragged:
                sizes = np.array(sizes)
                at = (np.arange(slab) * longest + longest - sizes)[:, None] + np.arange(nbytes)
                owed = np.arange(nbytes) < sizes[:, None]
                narrow[at[owed]] ^= np.broadcast_to(fill, at.shape)[owed]
            elif reg:
                idx[:, :nbytes] ^= fill[:longest]
            # np.take would widen other indices into a fresh array, and
            # with out= its default mode gathers into one as well.
            np.copyto(index[:cells], narrow[:cells])
            np.take(flat, index[:cells], out=gathered[:cells], mode="clip")
            got = gathered[:cells].reshape(slab, longest)
            np.bitwise_xor.reduce(got[:, :head], axis=1, out=words[0, r0:r0 + slab])
            if k > 1:
                np.bitwise_xor.reduce(got[:, head:].reshape(slab, k - 1, depth), axis=2,
                                      out=words[1:, r0:r0 + slab].T)
        size = flat.itemsize
        r = words[0]
        for word in words[1:]:
            for row, byte in self._fold_rows:
                word ^= row.take(r.view(np.uint8)[byte::size])
            r = word
        # A message shorter than the register leaves the init's rest unfolded.
        if reg and min(distinct) < nbytes:
            rows_of = np.array(lengths)
            for n in (n for n in distinct if n < nbytes):
                rest = reg >> 8 * n if self._spec.refin else (reg << 8 * n) & ((1 << self._bits) - 1)
                r[rows_of == n] ^= rest
        return r

    def _buffers(self, cells: int):
        """This thread's slab buffers of at least ``cells`` entries: narrow
        and ``intp`` gather indices and the gathered words.  Every call
        reuses them, so its heap peak does not depend on what the process
        allocated before (a call that allocates them afresh can land on
        glibc's trim threshold and fault its pages in again every time)."""
        held = getattr(self._local, "buffers", None)
        if held is None or len(held[0]) < cells:
            held = self._local.buffers = tuple(
                np.empty(cells, dtype=dtype)
                for dtype in (self._narrow.dtype, np.intp, self._flat.dtype)
            )
        return held

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
