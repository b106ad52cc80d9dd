"""Chunked streaming front-end over the batch kernels.

Production traffic rarely arrives as neatly pre-collected batches: frames
stream in, interleaved across thousands of connections, and each message
may span many chunks.  :class:`CRCPipeline` and :class:`ScramblerPipeline`
expose the classic feed/finalize interface per stream while sharing the
compile cache and the bit-packed kernels underneath.

A :class:`CRCPipeline` stream buffers the bytes ``feed`` hands it as they
are.  A ``pump`` round takes one M-bit block from every stream that has
one buffered, and the pipeline picks the engine per round:

* a round with at least :data:`PACKED_MIN_STREAMS` ready streams and at
  most :data:`PACKED_MAX_BYTES` whole bytes per ready stream advances them
  all with a single packed matrix product, exactly the Kong–Parhi
  interleaving the paper uses to hide the loop latency (Fig. 5),
  re-enacted in numpy; the gathered bytes unpack to bits once per slab;
* any other round advances each ready stream by itself: a run of fewer
  than :data:`SHORT_RUN_BYTES` whole bytes through the byte table
  (:meth:`repro.crc.TableCRC.raw_register`, the software CRC the paper
  cites as [8]), a longer one through the byte-sliced look-ahead
  (:class:`repro.crc.ByteSlicedCRC`: one numpy gather per
  :data:`~repro.crc.slicing.SLICE_DEPTH` bytes, the register folded
  through ``A^{8D}`` between them).

Both rules were read off ``benchmarks/results/pipeline_crossover.txt``
(docs/ENGINE.md).  The byte engines need the spec and M to admit them:
M % 8 == 0, equal input/output reflection, and a width of at least 8
unless reflected.  Otherwise streams buffer bits from ``open`` and every
round is packed; so does any stream that was ever fed through
``feed_bits``, which switches it to bits for the rest of its life.

Each CRC stream keeps its state as its natural-basis register int, which
is what the byte engines consume; a packed round converts its ready
streams into the engine's working basis (transformed for ``"derby"``) and
back in one vectorized step.  Sub-block tails wait for ``finalize``:
whole bytes go through the byte engines, the last few bits of a bit
stream through the bit-serial core.

Error semantics: unknown / duplicate stream ids raise
:class:`repro.errors.StreamError`; malformed arguments (non-bit values,
wrong-width registers or seeds, bad factors) raise
:class:`repro.errors.ValidationError`.

Telemetry: the ``engine_pipeline_streams`` / ``engine_pipeline_pending_bits``
gauges are published by *reconciliation* — after every mutation each
pipeline pushes the delta between its true totals and what it last
published.  That keeps increments and decrements symmetric even when the
registry is toggled mid-stream (a naive inc-on-feed/dec-on-pump pairing
drifts permanently if telemetry flips between the two calls).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.crc.bitwise import BitwiseCRC
from repro.crc.slicing import ByteSlicedCRC
from repro.crc.spec import CRCSpec
from repro.crc.table import TableCRC
from repro.engine.batch import _registers_from_bits, gf2_mul_packed, pack_bits, unpack_bits
from repro.engine.cache import CompileCache, default_cache
from repro.errors import StreamError, ValidationError
from repro.gf2.backend import WORD_BITS
from repro.scrambler.specs import ScramblerSpec
from repro.telemetry import bind_families, default_registry
from repro.validation import check_bits, check_factor, check_method, check_register, check_seed

# Aggregate gauges: published by per-instance deltas so any number of
# concurrent pipeline instances sum correctly into one series per kind.
# Bound lazily so a registry swapped in via set_default_registry() after
# import is still observed.  The second element caches labelled children:
# ``labels()`` validates and canonicalizes its arguments on every call,
# which cost more than the rest of a lone stream's pump.
_FAMILIES = bind_families(lambda reg: ({
    "streams": reg.gauge(
        "engine_pipeline_streams", "Streams currently open across pipelines",
        labels=("kind",),
    ),
    "pending": reg.gauge(
        "engine_pipeline_pending_bits",
        "Input bits buffered and awaiting a full M-bit block",
        labels=("kind",),
    ),
    "blocks": reg.counter(
        "engine_pipeline_blocks_total", "M-bit blocks advanced by pump rounds",
        labels=("kind",),
    ),
    "pump_blocks": reg.histogram(
        "engine_pipeline_blocks_per_pump", "Blocks advanced per pump() call",
        labels=("kind",),
        buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024),
    ),
}, {}))


def _metric(name: str, kind: str):
    """The ``kind``-labelled child of one pipeline family."""
    families, children = _FAMILIES()
    child = children.get((name, kind))
    if child is None:
        child = children[name, kind] = families[name].labels(kind=kind)
    return child


class _GaugePublisher:
    """Reconciles one pipeline's stream/pending totals into the gauges.

    Remembers what this instance last pushed and publishes only the
    difference, so toggling the registry between a feed and the matching
    pump can never leave the shared gauges negative or inflated: the next
    mutation while telemetry is enabled re-syncs them.
    """

    __slots__ = ("_kind", "_streams", "_pending")

    def __init__(self, kind: str):
        self._kind = kind
        self._streams = 0
        self._pending = 0

    def publish(self, streams: int, pending: int) -> None:
        if not default_registry().enabled:
            return
        if streams != self._streams:
            _metric("streams", self._kind).inc(streams - self._streams)
            self._streams = streams
        if pending != self._pending:
            _metric("pending", self._kind).inc(pending - self._pending)
            self._pending = pending


class _BitBuffer:
    """FIFO of pending message bits held as uint8 numpy chunks.

    Streams that take raw bits (``feed_bits``, or a spec or M the byte
    engines do not admit) buffer here.  Keeping the bits as the uint8
    arrays ``np.unpackbits`` / ``check_bits`` already produced makes feed
    O(1) appends and pump gathers single vectorized copies, where a
    ``List[int]`` would pay one Python object per bit.
    """

    __slots__ = ("_chunks", "_length")

    def __init__(self):
        self._chunks: deque = deque()
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def append(self, bits: np.ndarray) -> None:
        """Queue a 1-D uint8 bit array (kept by reference, not copied)."""
        if len(bits):
            self._chunks.append(bits)
            self._length += len(bits)

    def take(self, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Pop the first ``n`` bits (into ``out`` when given)."""
        if out is None:
            out = np.empty(n, dtype=np.uint8)
        pos = 0
        while pos < n:
            chunk = self._chunks[0]
            need = n - pos
            if len(chunk) <= need:
                out[pos:pos + len(chunk)] = chunk
                pos += len(chunk)
                self._chunks.popleft()
            else:
                out[pos:] = chunk[:need]
                self._chunks[0] = chunk[need:]
                pos = n
        self._length -= n
        return out

    def drain(self) -> np.ndarray:
        """Pop every remaining bit as one array (the finalize tail)."""
        if not self._chunks:
            return np.empty(0, dtype=np.uint8)
        if len(self._chunks) == 1:
            tail = self._chunks.popleft()
        else:
            tail = np.concatenate(self._chunks)
            self._chunks.clear()
        self._length = 0
        return tail


#: Ready streams from which a pump round may run as one packed product.
#: Read off ``benchmarks/results/pipeline_crossover.txt`` (docs/ENGINE.md):
#: at 32 bytes per stream the packed round costs ~1.4x the per-stream
#: side at 16 ready streams and ~0.7x at 64, a full word of lanes.
PACKED_MIN_STREAMS = 64

#: Whole bytes per ready stream (on average) above which even a wide
#: round advances stream by stream: the per-stream side's cost barely
#: grows with the run, the packed product's grows with every block
#: (~1.4x the per-stream side at 64 streams of 256 bytes).
PACKED_MAX_BYTES = 32

#: Runs shorter than this many whole bytes take the byte table's
#: per-byte loop; longer ones the byte-sliced gather, whose ~9-10 µs of
#: fixed numpy calls the table's ~0.15 µs per byte overtakes here
#: (short-run sweep: the gather costs ~1.7x the table at 16 bytes,
#: ~1.2x at 32 and ~0.85x at 48).
SHORT_RUN_BYTES = 48

#: Input bits one packed gather copies out of the stream buffers: a pump
#: over a deep backlog runs its packed rounds in slabs of at most this
#: many bits, so the transient copy stays a few MiB whatever the backlog.
_GATHER_BITS = 1 << 21


def _state_bits(registers: Sequence[int], width: int) -> np.ndarray:
    """``(width, B)`` state bits of B registers (bit i of column b = x_i)."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(
        b"".join(r.to_bytes(nbytes, "little") for r in registers), dtype=np.uint8
    ).reshape(len(registers), nbytes)
    return np.unpackbits(raw, axis=1, count=width, bitorder="little").T


@dataclass
class _CRCStream:
    register: int  # natural-basis raw register, as the byte engines use it
    data: bytearray = field(default_factory=bytearray)  # buffered bytes
    bits: Optional[_BitBuffer] = None  # set once the stream buffers bits

    @property
    def pending(self) -> int:
        """Buffered input bits (a bit stream's byte buffer stays empty)."""
        return 8 * len(self.data) + (len(self.bits) if self.bits is not None else 0)


class CRCPipeline:
    """Many concurrent CRC streams sharing one compiled recurrence."""

    def __init__(
        self,
        spec: CRCSpec,
        M: int,
        method: str = "lookahead",
        cache: Optional[CompileCache] = None,
    ):
        self._spec = spec
        self._M = check_factor(M, what="look-ahead factor M")
        self._method = check_method(method)
        self._cache = cache if cache is not None else default_cache()
        if method == "derby":
            dt = self._cache.derby(spec, M)
            update, inject = dt.A_Mt, dt.B_Mt
            self._into_basis = dt.T_inv.to_array().astype(np.int64)
            self._from_basis = dt.T.to_array().astype(np.int64)
        else:
            la = self._cache.lookahead(spec, M)
            update, inject = la.A_M, la.B_M
            self._into_basis = self._from_basis = None
        self._step = np.hstack([update.to_array(), inject.to_array()[:, ::-1]])
        self._serial = BitwiseCRC(spec)
        # Byte engines: any 8 consecutive transmission-order bits regroup
        # into one byte under the spec's input reflection.  Mixed-reflection
        # and narrow non-reflected specs keep the bit-serial path (mirrors
        # TableCRC's routing).
        if spec.refin == spec.refout and (spec.refin or spec.width >= 8):
            self._table = TableCRC(spec)
            self._sliced = ByteSlicedCRC(spec, self._cache.slicing_tables(spec))
        else:
            self._table = self._sliced = None
        self._bitorder = "little" if spec.refin else "big"
        # Whole M-blocks are whole bytes only when M % 8 == 0: then streams
        # buffer bytes and rounds may advance stream by stream.
        self._byte_rounds = self._table is not None and self._M % 8 == 0
        # Tests and the fuzz oracle override these per instance; nothing
        # else should.  ``_byte_streams`` False opens bit streams.  ``_rule``
        # is (min ready streams, max whole bytes per ready stream) of a
        # packed round plus the shortest run on the gather:
        # (0, sys.maxsize, _) packs every round, (sys.maxsize, 0, 0) sends
        # every run to the gather.
        self._byte_streams = self._byte_rounds
        self._rule = (PACKED_MIN_STREAMS, PACKED_MAX_BYTES, SHORT_RUN_BYTES)
        self._streams: Dict[Hashable, _CRCStream] = {}
        self._auto_ids = count()
        self._gauges = _GaugePublisher("crc")

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
        """The compile cache block matrices come from."""
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

    def _publish(self) -> None:
        self._gauges.publish(
            len(self._streams),
            sum(s.pending for s in self._streams.values()),
        )

    def pending_bits(self, stream_id: Optional[Hashable] = None) -> int:
        """Buffered input bits awaiting processing — the pipeline backlog.

        With ``stream_id`` the count is that stream's alone; without it,
        the total across every open stream.  Bits below one full M-bit
        block stay pending until ``finalize`` drains them.
        """
        if stream_id is not None:
            return self._stream(stream_id).pending
        return sum(s.pending for s in self._streams.values())

    # ------------------------------------------------------------------
    def open(self, stream_id: Optional[Hashable] = None, register: Optional[int] = None) -> Hashable:
        """Start a stream; returns its id (auto-allocated when omitted)."""
        if stream_id is None:
            stream_id = next(self._auto_ids)
        if stream_id in self._streams:
            raise StreamError(f"stream {stream_id!r} is already open")
        if register is None:
            register = self._spec.init
        else:
            register = check_register(register, self._spec.width, what="register")
        self._streams[stream_id] = _CRCStream(
            register=register, bits=None if self._byte_streams else _BitBuffer()
        )
        self._publish()
        return stream_id

    def _unpack(self, data) -> np.ndarray:
        """Transmission-order bits of ``data`` under the input reflection."""
        return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder=self._bitorder)

    def feed(self, stream_id: Hashable, data: bytes, pump: bool = True) -> None:
        """Append message bytes to a stream (chunked calls compose).

        A byte stream keeps the bytes as they are; a bit stream expands
        them vectorized (``np.unpackbits`` honouring the spec's input
        reflection), never through the per-bit ``message_bits`` path.
        """
        stream = self._stream(stream_id)
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise ValidationError(
                f"message must be bytes-like, got {type(data).__name__}"
            )
        if len(data):
            if stream.bits is None:
                stream.data += data
            else:
                stream.bits.append(self._unpack(data))
            self._publish()
        if pump:
            self.pump()

    def feed_bits(self, stream_id: Hashable, bits: Sequence[int], pump: bool = True) -> None:
        """Append raw message bits to a stream (chunked calls compose).

        The stream holds bits from then on (its buffered bytes expand
        once); rounds still advance it on either side, packing its whole
        bytes back for the byte engines.
        """
        stream = self._stream(stream_id)
        checked = check_bits(bits)
        if stream.bits is None:
            stream.bits = _BitBuffer()
            stream.bits.append(self._unpack(bytes(stream.data)))
            stream.data.clear()
        stream.bits.append(checked)
        self._publish()
        if pump:
            self.pump()

    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Advance every stream with at least one full M-bit block buffered.

        A round takes one M-bit block from every ready stream.  Rounds
        with at least :data:`PACKED_MIN_STREAMS` ready streams holding at
        most :data:`PACKED_MAX_BYTES` whole bytes each on average step
        them all through one packed matrix product (numpy's re-enactment
        of interleaved issue); otherwise each ready stream's whole blocks
        go through the byte engines by themselves, where the spec and M
        admit them.  Returns the number of blocks processed.
        """
        M = self._M
        ready = [s for s in self._streams.values() if s.pending >= M]
        processed = sum(s.pending // M for s in ready)
        min_streams, max_bytes, _ = self._rule
        if ready and (
            not self._byte_rounds
            or (len(ready) >= min_streams and processed * M <= 8 * max_bytes * len(ready))
        ):
            # Longest backlog first, so every round's streams are a prefix.
            ready.sort(key=lambda s: s.pending, reverse=True)
            # Packed rounds run while ``min_streams`` streams are still ready.
            last = max(min_streams, 1) - 1 if self._byte_rounds else 0
            rounds = ready[last].pending // M
            slab = max(1, _GATHER_BITS // (len(ready) * M))
            for first in range(0, rounds, slab):
                self._packed_rounds(ready, min(slab, rounds - first))
        if self._byte_rounds:
            for s in ready:
                if s.pending >= M:
                    self._advance(s, s.pending // M * M // 8)
        self._publish()
        if default_registry().enabled:
            _metric("blocks", "crc").inc(processed)
            _metric("pump_blocks", "crc").observe(processed)
        return processed

    def _packed_rounds(self, ready: List[_CRCStream], rounds: int) -> None:
        """Advance ``rounds`` rounds of packed products over ``ready``.

        ``ready`` is sorted longest backlog first, so round *r* steps the
        prefix of streams holding more than *r* blocks.  Byte streams'
        blocks gather into one byte matrix that unpacks to bits in one
        call.  The registers convert into the working basis once on the
        way in and back once on the way out; in between the states stay
        packed.
        """
        M, B = self._M, len(ready)
        taken = [min(s.pending // M, rounds) for s in ready]
        if self._byte_rounds:
            raw = np.zeros((B, rounds * M // 8), dtype=np.uint8)
            for row, s, n in zip(raw, ready, taken):
                if s.bits is None and n:
                    nbytes = n * M // 8
                    row[:nbytes] = np.frombuffer(s.data, dtype=np.uint8, count=nbytes)
                    del s.data[:nbytes]
            rows = np.unpackbits(raw, axis=1, bitorder=self._bitorder)
        else:
            rows = np.zeros((B, rounds * M), dtype=np.uint8)
        for row, s, n in zip(rows, ready, taken):
            if s.bits is not None:
                s.bits.take(n * M, out=row[: n * M])
        blocks = pack_bits(rows.T)
        bits = _state_bits([s.register for s in ready], self._spec.width)
        if self._into_basis is not None:
            bits = (self._into_basis @ bits) & 1
        state = pack_bits(bits)
        active = B
        for r in range(rounds):
            while taken[active - 1] <= r:
                active -= 1
            words = -(-active // WORD_BITS)
            new = gf2_mul_packed(
                self._step,
                np.vstack([state[:, :words], blocks[r * M:(r + 1) * M, :words]]),
            )
            if active < B and active % WORD_BITS:
                # Lanes past ``active`` in the last word are finished
                # streams: keep their states.
                keep = np.uint64((1 << (active % WORD_BITS)) - 1)
                new[:, -1] = (new[:, -1] & keep) | (state[:, words - 1] & ~keep)
            state[:, :words] = new
        bits = unpack_bits(state, B)
        if self._from_basis is not None:
            bits = (self._from_basis @ bits) & 1
        for s, register in zip(ready, _registers_from_bits(bits, B)):
            s.register = register

    def _advance(self, stream: _CRCStream, nbytes: int) -> None:
        """Clock a stream's next ``nbytes`` whole bytes through a byte engine."""
        if stream.bits is None:
            data = stream.data[:nbytes]
            del stream.data[:nbytes]
        else:
            data = np.packbits(stream.bits.take(8 * nbytes), bitorder=self._bitorder).tobytes()
        engine = self._table if nbytes < self._rule[2] else self._sliced
        stream.register = engine.raw_register(data, stream.register)

    def finalize(self, stream_id: Hashable) -> int:
        """Drain the stream (sub-block tail) and return its CRC."""
        self.pump()
        crc = self._finalize_drained(stream_id)
        self._publish()
        return crc

    def finalize_many(self, stream_ids: Sequence[Hashable]) -> List[int]:
        """Finalize several streams behind **one** pump round.

        ``finalize`` costs one :meth:`pump` per call even when the pump
        advances a single stream, so B individual finalizes pay B pumps
        where one would do — and that one pump sees all B streams ready,
        which is what lets a wide round take the packed product.  This
        entry point validates every id up front (all-or-nothing: an
        unknown or duplicated id raises before any stream is consumed),
        pumps once to advance all of them together, then drains each
        sub-block tail.  Results align with ``stream_ids`` order.  This
        is the wide call the serve path's micro-batch runner packs a
        round's digests into.
        """
        ids = list(stream_ids)
        if len(set(ids)) != len(ids):
            raise ValidationError(
                f"finalize_many got duplicate stream ids in {ids!r}"
            )
        for sid in ids:
            self._stream(sid)
        self.pump()
        crcs = [self._finalize_drained(sid) for sid in ids]
        if crcs:
            self._publish()
        return crcs

    def _finalize_drained(self, stream_id: Hashable) -> int:
        """Consume an already-pumped stream: tail drain + final XOR.

        Caller is responsible for :meth:`pump` beforehand and
        ``_publish`` afterwards (batched callers publish once per
        round, not once per stream).
        """
        stream = self._stream(stream_id)
        del self._streams[stream_id]
        if self._table is not None and stream.pending >= 8:
            self._advance(stream, stream.pending // 8)
        register = stream.register
        if stream.bits is not None and len(stream.bits):
            register = self._serial.process_bits(register, stream.bits.drain().tolist())
        return self._spec.finalize(register)

    def abort(self, stream_id: Hashable) -> None:
        """Drop a stream without computing its CRC."""
        self._stream(stream_id)
        del self._streams[stream_id]
        self._publish()

    def migrate(self, stream_id: Hashable, target: "CRCPipeline") -> None:
        """Move one open stream (state + buffered input) into ``target``.

        Both pipelines must run the same ``(spec, M, method)``, so the
        stream's register and buffered bytes or bits mean the same thing
        on either side — this is the primitive the sharded execution
        layer's work-stealing scheduler uses to rebalance shards
        (:class:`repro.engine.parallel.ShardedCRCPipeline`).
        """
        if target is self:
            return
        if (
            target._spec != self._spec
            or target._M != self._M
            or target._method != self._method
        ):
            raise StreamError(
                f"cannot migrate stream {stream_id!r}: pipelines disagree on "
                f"(spec, M, method)"
            )
        stream = self._stream(stream_id)
        if stream_id in target._streams:
            raise StreamError(
                f"stream {stream_id!r} is already open in the target pipeline"
            )
        del self._streams[stream_id]
        target._streams[stream_id] = stream
        self._publish()
        target._publish()


@dataclass
class _ScramblerStream:
    state: np.ndarray  # (k,) uint8, natural basis
    keystream: List[int] = field(default_factory=list)


class ScramblerPipeline:
    """Many concurrent additive-scrambler streams on one cached compile.

    ``feed`` returns the scrambled bits immediately (the keystream never
    depends on the data, so there is nothing to buffer); leftover keystream
    bits from the last generated block carry over to the next call, so
    chunk boundaries are invisible.  Descrambling is the same operation.
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
        A_M, Y = self._cache.scrambler_block(spec, M)
        self._A = A_M.to_array().astype(np.int64)
        self._Y = Y.to_array().astype(np.int64)
        self._ss = self._cache.scrambler_statespace(spec)
        self._streams: Dict[Hashable, _ScramblerStream] = {}
        self._auto_ids = count()
        self._gauges = _GaugePublisher("scrambler")

    @property
    def spec(self) -> ScramblerSpec:
        """The scrambler standard every stream applies."""
        return self._spec

    @property
    def M(self) -> int:
        """Keystream bits generated per block step."""
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

    def _publish(self) -> None:
        self._gauges.publish(len(self._streams), 0)

    def pending_keystream_bits(self, stream_id: Hashable) -> int:
        """Generated-but-unused keystream bits carried to the next chunk."""
        return len(self._stream(stream_id).keystream)

    # ------------------------------------------------------------------
    def open(self, stream_id: Optional[Hashable] = None, seed: Optional[int] = None) -> Hashable:
        """Open a stream with its own seed; returns the stream id."""
        if stream_id is None:
            stream_id = next(self._auto_ids)
        if stream_id in self._streams:
            raise StreamError(f"stream {stream_id!r} is already open")
        if seed is None:
            seed = self._spec.seed
        else:
            seed = check_seed(seed, self._spec.degree, allow_zero=False)
        state = self._ss.state_from_int(seed)
        self._streams[stream_id] = _ScramblerStream(state=state)
        self._publish()
        return stream_id

    def feed(self, stream_id: Hashable, bits: Sequence[int]) -> List[int]:
        """Scramble (or descramble) one chunk; returns the output bits."""
        stream = self._stream(stream_id)
        checked = check_bits(bits).tolist()
        generated = 0
        while len(stream.keystream) < len(checked):
            block = (self._Y @ stream.state.astype(np.int64)) & 1
            stream.keystream.extend(int(b) for b in block)
            stream.state = ((self._A @ stream.state.astype(np.int64)) & 1).astype(np.uint8)
            generated += 1
        _metric("blocks", "scrambler").inc(generated)
        out = [(b ^ k) & 1 for b, k in zip(checked, stream.keystream)]
        del stream.keystream[: len(checked)]
        return out

    def close(self, stream_id: Hashable) -> None:
        """Close a stream and discard its state."""
        self._stream(stream_id)
        del self._streams[stream_id]
        self._publish()
