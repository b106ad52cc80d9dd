"""Chunked streaming front-end over the CRC and scrambler engines.

Production traffic rarely arrives as neatly pre-collected batches: frames
stream in, interleaved across thousands of connections, and each message
may span many chunks.  :class:`CRCPipeline` and :class:`ScramblerPipeline`
expose the classic feed/finalize interface per stream while sharing the
compile cache underneath.

Every door takes and returns bytes.  A :class:`CRCPipeline` stream
holds its register, the bytes it has been fed and not yet clocked in,
and a count of the buffered bits (8 a byte) no pump has counted yet.  A
``pump`` takes every whole M-bit block from every stream holding one and
clocks that stream's counted whole bytes through a byte engine in one
call:

* a run of fewer than :data:`SHORT_RUN_BYTES` bytes through the byte
  table (:meth:`repro.crc.TableCRC.raw_register`, the software CRC the
  paper cites as [8]);
* a longer one through the byte-sliced look-ahead
  (:class:`repro.crc.ByteSlicedCRC`: one numpy gather per
  :data:`~repro.crc.slicing.SLICE_DEPTH` bytes, the register folded
  through ``A^{8D}`` between them).  Its table rows are the columns of
  the paper's input matrix ``B_M`` grouped per byte.

The threshold was read off ``benchmarks/results/pipeline_crossover.txt``
(docs/ENGINE.md).  Every spec takes both engines, whatever its width
and reflection.  When M % 8 != 0 a block can end inside a byte: the
pump still counts the whole block, and its last few bits wait in the
buffer for the next pump or ``finalize``.  ``finalize`` clocks the
remaining bytes through the byte engines.

Error semantics: unknown / duplicate stream ids raise
:class:`repro.errors.StreamError`; malformed arguments (data that is not
bytes-like, wrong-width registers or seeds, bad factors) raise
:class:`repro.errors.ValidationError`.

Telemetry is read, not pushed: each pipeline adds itself to its kind's
:class:`~repro.telemetry.Owners` once, at construction, and the
registry reads ``engine_pipeline_streams`` / ``engine_pipeline_pending_bits``
(:attr:`~CRCPipeline.stream_count`, :meth:`~CRCPipeline.pending_bits`)
and the block and pump counts the pipeline keeps whenever it is read.
No stream operation makes a registry call, and no toggle of the
registry can leave a gauge drifted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.crc.slicing import ByteSlicedCRC
from repro.crc.spec import CRCSpec
from repro.crc.table import TableCRC
from repro.engine.cache import CompileCache, default_cache
from repro.errors import StreamError, ValidationError
from repro.lfsr.slicing import ByteSlicedScrambler
from repro.scrambler.specs import ScramblerSpec
from repro.telemetry import Owners, bind_families, default_registry
from repro.validation import check_factor, check_message, check_register, check_seed


def _bind(reg) -> Dict[str, Owners]:
    """Bind the pipeline families to the live pipelines of each kind."""
    owners = {"crc": Owners(), "scrambler": Owners()}
    crc = owners["crc"]
    streams = reg.gauge(
        "engine_pipeline_streams", "Streams currently open across pipelines",
        labels=("kind",),
    )
    blocks = reg.counter(
        "engine_pipeline_blocks_total", "M-bit blocks advanced by pump rounds",
        labels=("kind",),
    )
    for kind, live in owners.items():
        streams.labels(kind=kind).bind(lambda live=live: live.sum(len))
        blocks.labels(kind=kind).bind(lambda live=live: live.total("blocks"))
    reg.gauge(
        "engine_pipeline_pending_bits",
        "Input bits buffered and awaiting a full M-bit block",
        labels=("kind",),
    ).labels(kind="crc").bind(lambda: crc.sum(CRCPipeline.pending_bits))
    reg.counter(
        "engine_pipeline_pumps_total", "pump() calls across pipelines",
        labels=("kind",),
    ).labels(kind="crc").bind(lambda: crc.total("pumps"))
    return owners


# Bound lazily per registry (see repro.telemetry.bind_families).
_OWNERS = bind_families(_bind)


#: Runs shorter than this many whole bytes take the byte table's
#: per-byte loop; longer ones the byte-sliced gather, whose ~9-10 µs of
#: fixed numpy calls the table's ~0.15 µs per byte overtakes here
#: (short-run sweep: the gather costs ~1.7x the table at 16 bytes,
#: ~1.2x at 32 and ~0.85x at 48).
SHORT_RUN_BYTES = 48


@dataclass
class _CRCStream:
    register: int  # natural-basis raw register, as the byte engines use it
    data: bytearray = field(default_factory=bytearray)  # bytes not yet clocked in
    pending: int = 0  # buffered bits no pump has counted into a block yet


class CRCPipeline:
    """Many concurrent CRC streams sharing one compiled table stack."""

    def __init__(
        self,
        spec: CRCSpec,
        M: int,
        cache: Optional[CompileCache] = None,
    ):
        self._spec = spec
        self._M = check_factor(M, what="look-ahead factor M")
        self._cache = cache if cache is not None else default_cache()
        self._table = TableCRC(spec)
        self._sliced = ByteSlicedCRC(spec, self._cache.slicing_tables(spec))
        # Tests and the fuzz oracle override this per instance to pin one
        # engine: sys.maxsize sends every run to the table, 0 to the gather.
        self._short_run = SHORT_RUN_BYTES
        self._streams: Dict[Hashable, _CRCStream] = {}
        self._auto_ids = count()
        self._counts = {"blocks": 0, "pumps": 0}
        if default_registry().enabled:
            _OWNERS()["crc"].add(self, self._counts)

    @property
    def spec(self) -> CRCSpec:
        """The CRC standard every stream in this pipeline computes."""
        return self._spec

    @property
    def M(self) -> int:
        """Block factor: bits consumed per stream per pump step."""
        return self._M

    @property
    def cache(self) -> CompileCache:
        """The compile cache the byte-sliced table stack comes from."""
        return self._cache

    def __len__(self) -> int:
        return len(self._streams)

    @property
    def stream_count(self) -> int:
        """Number of streams currently open."""
        return len(self._streams)

    def _stream(self, stream_id: Hashable) -> _CRCStream:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise StreamError(
                f"unknown CRC stream {stream_id!r}: open() it first "
                f"({len(self._streams)} streams currently open)"
            ) from None

    def pending_bits(self, stream_id: Optional[Hashable] = None) -> int:
        """Buffered input bits awaiting processing — the pipeline backlog.

        With ``stream_id`` the count is that stream's alone; without it,
        the total across every open stream.  Bits below one full M-bit
        block stay pending until ``finalize`` drains them.
        """
        if stream_id is not None:
            return self._stream(stream_id).pending
        # One C-level pass: a scrape on another thread reads this too.
        return sum(map(attrgetter("pending"), self._streams.values()))

    # ------------------------------------------------------------------
    def open(self, stream_id: Optional[Hashable] = None, register: Optional[int] = None) -> Hashable:
        """Start a stream; returns its id (the first free 0, 1, … when omitted)."""
        if stream_id is None:
            stream_id = next(i for i in self._auto_ids if i not in self._streams)
        if stream_id in self._streams:
            raise StreamError(f"stream {stream_id!r} is already open")
        if register is None:
            register = self._spec.init
        else:
            register = check_register(register, self._spec.width, what="register")
        self._streams[stream_id] = _CRCStream(register)
        return stream_id

    def feed(self, stream_id: Hashable, data: bytes, pump: bool = True) -> None:
        """Append message bytes to a stream (chunked calls compose)."""
        stream = self._stream(stream_id)
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise ValidationError(
                f"message must be bytes-like, got {type(data).__name__}"
            )
        before = len(stream.data)
        stream.data += data
        stream.pending += 8 * (len(stream.data) - before)
        if pump:
            self.pump()

    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Advance every stream with at least one full M-bit block buffered.

        Each ready stream's whole blocks are counted at once, and its
        counted whole bytes go through one byte engine call (the table
        below :data:`SHORT_RUN_BYTES`, the gather above).  Returns the
        number of blocks processed.
        """
        M = self._M
        processed = 0
        for stream in self._streams.values():
            if stream.pending >= M:
                blocks = stream.pending // M
                stream.pending -= blocks * M
                processed += blocks
                self._absorb(stream, (8 * len(stream.data) - stream.pending) // 8)
        counts = self._counts
        counts["blocks"] += processed
        counts["pumps"] += 1
        return processed

    def _absorb(self, stream: _CRCStream, nbytes: int) -> None:
        """Clock a stream's first ``nbytes`` buffered bytes into its register."""
        if nbytes:
            data = stream.data[:nbytes]
            del stream.data[:nbytes]
            engine = self._table if nbytes < self._short_run else self._sliced
            stream.register = engine.raw_register(data, stream.register)

    def finalize(self, stream_id: Hashable) -> int:
        """Drain the stream (its sub-block bytes) and return its CRC.

        An unknown id raises before the pump, so no other stream moves.
        """
        self._stream(stream_id)
        self.pump()
        return self._finalize_drained(stream_id)

    def finalize_many(self, stream_ids: Sequence[Hashable]) -> List[int]:
        """Finalize several streams behind **one** pump round.

        ``finalize`` costs one :meth:`pump` per call, so B individual
        finalizes pay B pumps where one would do.  This entry point
        validates every id up front (all-or-nothing: an unknown or
        duplicated id raises before any stream is consumed), pumps once
        to advance all of them together, then drains each stream's
        remaining bytes.  Results align with ``stream_ids`` order.
        """
        ids = list(stream_ids)
        if len(set(ids)) != len(ids):
            raise ValidationError(
                f"finalize_many got duplicate stream ids in {ids!r}"
            )
        for sid in ids:
            self._stream(sid)
        self.pump()
        return [self._finalize_drained(sid) for sid in ids]

    def _finalize_drained(self, stream_id: Hashable) -> int:
        """Consume an already-pumped stream: drain its bytes + final XOR.

        The caller runs :meth:`pump` beforehand.
        """
        stream = self._stream(stream_id)
        del self._streams[stream_id]
        self._absorb(stream, len(stream.data))
        return self._spec.finalize(stream.register)

    def abort(self, stream_id: Hashable) -> None:
        """Drop a stream without computing its CRC."""
        self._stream(stream_id)
        del self._streams[stream_id]


@dataclass
class _ScramblerStream:
    state: int  # register at the start of the next keystream block
    keystream: np.ndarray  # generated keystream bytes no feed has used yet
    fed: int = 0  # bits fed so far (8 a byte)


class ScramblerPipeline:
    """Many concurrent additive-scrambler streams on one cached table stack.

    ``feed`` returns the scrambled bytes immediately (the keystream never
    depends on the data, so there is nothing to buffer).  Message bit i is
    bit ``i % 8`` of byte ``i // 8``, as in
    :meth:`~repro.scrambler.AdditiveScrambler.scramble_bytes`.  A stream's
    keystream comes whole blocks at a time from
    :class:`~repro.lfsr.slicing.ByteSlicedScrambler`'s single-stream door,
    and the bytes a feed leaves unused carry over to the next one, so
    chunk boundaries are invisible.  A stream counts ``ceil(bits fed / M)``
    blocks on ``engine_pipeline_blocks_total``, at 8 bits a byte.
    Descrambling is the same operation.
    """

    def __init__(
        self,
        spec: ScramblerSpec,
        M: int,
        cache: Optional[CompileCache] = None,
    ):
        self._spec = spec
        self._M = check_factor(M, what="block factor M")
        self._cache = cache if cache is not None else default_cache()
        self._engine = ByteSlicedScrambler(spec.poly, self._cache.scrambler_tables(spec))
        self._streams: Dict[Hashable, _ScramblerStream] = {}
        self._auto_ids = count()
        self._counts = {"blocks": 0}
        if default_registry().enabled:
            _OWNERS()["scrambler"].add(self, self._counts)

    @property
    def spec(self) -> ScramblerSpec:
        """The scrambler standard every stream applies."""
        return self._spec

    @property
    def M(self) -> int:
        """Block factor: input bits per counted block."""
        return self._M

    def __len__(self) -> int:
        return len(self._streams)

    @property
    def stream_count(self) -> int:
        """Number of streams currently open."""
        return len(self._streams)

    def _stream(self, stream_id: Hashable) -> _ScramblerStream:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise StreamError(
                f"unknown scrambler stream {stream_id!r}: open() it first "
                f"({len(self._streams)} streams currently open)"
            ) from None

    # ------------------------------------------------------------------
    def open(self, stream_id: Optional[Hashable] = None, seed: Optional[int] = None) -> Hashable:
        """Open a stream with its own seed; returns the stream id (the
        first free 0, 1, … when omitted)."""
        if stream_id is None:
            stream_id = next(i for i in self._auto_ids if i not in self._streams)
        if stream_id in self._streams:
            raise StreamError(f"stream {stream_id!r} is already open")
        if seed is None:
            seed = self._spec.seed
        else:
            seed = check_seed(seed, self._spec.degree, allow_zero=False)
        self._streams[stream_id] = _ScramblerStream(seed, np.zeros(0, dtype=np.uint8))
        return stream_id

    def feed(self, stream_id: Hashable, data: bytes) -> bytes:
        """Scramble (or descramble) one chunk; returns the output bytes."""
        stream = self._stream(stream_id)
        chunk = np.frombuffer(check_message(data), dtype=np.uint8)
        n = len(chunk)
        short = n - len(stream.keystream)
        if short > 0:
            blocks = -(-short // self._engine.depth)
            fresh, stream.state = self._engine.run(stream.state, blocks)
            stream.keystream = np.concatenate((stream.keystream, fresh))
        out = chunk ^ stream.keystream[:n]
        stream.keystream = stream.keystream[n:]
        counted = -(-stream.fed // self._M)
        stream.fed += 8 * n
        self._counts["blocks"] += -(-stream.fed // self._M) - counted
        return out.tobytes()

    def close(self, stream_id: Hashable) -> None:
        """Close a stream and discard its state."""
        self._stream(stream_id)
        del self._streams[stream_id]
