"""Batch kernels: B independent messages or streams per call.

The paper exploits the linearity of the M-bit recurrence *spatially* — one
PiCoGA operation computes ``x(n+M) = A^M x(n) + B_M u_M(n)`` in a single
pipeline slot.  The batch engines exploit the same structure across
messages, many at once:

* :class:`BatchCRC` evaluates every call as grouped gathers over the
  byte-sliced table stack (:meth:`repro.crc.slicing.ByteSlicedCRC.
  raw_registers_batch`).  The input term ``B_M u_M`` is feed-forward work,
  independent of the register and of every other message, so each group
  of equal block count gathers its blocks slab by slab, whole rows at a
  time through buffers each thread keeps; only the register fold steps
  from block to block, vectorized across the group — the paper's Fig. 5
  interleaving in the byte basis.
* :class:`BatchAdditiveScrambler` runs the byte-sliced keystream's batch
  door (:meth:`repro.lfsr.slicing.ByteSlicedScrambler.keystream_batch`):
  every stream's seed steps through the ``A^{8D}`` fold together, and
  every block's keystream rows gather in one call.
* :class:`BatchMultiplicativeScrambler` packs the batch dimension into
  machine words (:class:`repro.gf2.backend.NumpyPackedBackend`): a batch
  of B bit-streams is a ``(n_bits, W)`` ``uint64`` array with
  ``W = ceil(B/64)`` — bit *b* of word ``row[b // 64]`` belongs to stream
  *b* — so one numpy call clocks all B delay lines.

Tail contract (identical to :class:`repro.dream.system.DreamSystem`):
messages are zero-padded **at the head** and the pad runs from a zero
register, which makes it transparent (leading zeros do not change the
message polynomial).  The spec's ``init`` preset enters a byte message
where its register would start: XORed into its first ``ceil(w / 8)``
gathered bytes.  A bit stream's preset would enter mid-byte, so the bit
door folds it back in with the linear correction
``reg = raw0 ^ (init * x^N mod G)``, N the stream's true bit length,
clocked on the batch CRC's own engine once per distinct length in a
call; a ragged batch adds nothing to the compile cache.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from repro.crc.slicing import ByteSlicedCRC
from repro.crc.spec import CRCSpec
from repro.engine.cache import CompileCache, default_cache
from repro.errors import SpecError
from repro.gf2.backend import NumpyPackedBackend
from repro.gf2.polynomial import GF2Polynomial
from repro.lfsr.slicing import ByteSlicedScrambler
from repro.lfsr.wordlfsr import WORD64, WordLFSR, WordLFSRSpec, seed_words_from_bytes
from repro.scrambler.specs import ScramblerSpec
from repro.telemetry import bind_families, default_registry
from repro.validation import (
    check_bit_streams,
    check_factor,
    check_messages,
    check_register_list,
)


def _families(reg) -> dict:
    """The batch kernels' metric families in ``reg``, by role."""
    return {
        "calls": reg.counter(
            "engine_batch_calls_total", "Vectorized batch kernel invocations",
            labels=("kernel",),
        ),
        "bits_total": reg.counter(
            "engine_batch_bits_total", "Payload bits processed by the batch kernels",
            labels=("kernel",),
        ),
        "call_bits": reg.histogram(
            "engine_batch_call_bits", "Payload bits per batch kernel call",
            labels=("kernel",),
            buckets=(64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 1 << 22, 1 << 24),
        ),
        "throughput": reg.histogram(
            "engine_batch_throughput_mbps", "Per-call bit throughput (Mbit/s)",
            labels=("kernel",),
            buckets=(1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000),
        ),
    }


# Bound lazily (see repro.telemetry.bind_families) so swapping the
# default registry after import is observed by every family below.
_METRICS = bind_families(_families)

#: The ``kernel`` label of every :class:`BatchCRC` call.
CRC_KERNEL = "crc-sliced"

# BatchCRC's series, resolved once per registry: a call looks up no labels.
_CRC_SERIES = bind_families(lambda reg: {
    name: family.labels(kernel=CRC_KERNEL) for name, family in _families(reg).items()
})


def _observe(series: dict, bits: int, seconds: float) -> None:
    """Publish one batch call's size and rate (registry already enabled)."""
    series["calls"].inc()
    series["bits_total"].inc(bits)
    series["call_bits"].observe(bits)
    if seconds > 0:
        series["throughput"].observe(bits / seconds / 1e6)


def _observe_kernel(kernel: str, bits: int, seconds: float) -> None:
    """Publish one batch call of ``kernel`` (registry already enabled)."""
    _observe(
        {name: family.labels(kernel=kernel) for name, family in _METRICS().items()},
        bits, seconds,
    )


class BatchCRC:
    """CRC over B independent messages, one grouped gather per block.

    Every call runs :meth:`~repro.crc.slicing.ByteSlicedCRC.
    raw_registers_batch` on the spec's table stack from the compile cache
    (:meth:`~repro.engine.cache.CompileCache.slicing_tables`, shared with
    every pipeline), bit-for-bit identical to
    :class:`repro.crc.bitwise.BitwiseCRC`.  ``M`` is the look-ahead
    factor the engine stands for — the plan's and the netlists' — and
    the gather's own block is the stack's depth.
    """

    def __init__(
        self,
        spec: CRCSpec,
        M: int,
        cache: Optional[CompileCache] = None,
    ):
        self._spec = spec
        self._M = check_factor(M, what="look-ahead factor M")
        self._cache = cache if cache is not None else default_cache()
        self._engine = ByteSlicedCRC(spec, self._cache.slicing_tables(spec))

    @property
    def spec(self) -> CRCSpec:
        """The CRC standard this engine computes."""
        return self._spec

    @property
    def M(self) -> int:
        """Look-ahead block factor the engine stands for."""
        return self._M

    @property
    def cache(self) -> CompileCache:
        """The compile cache the table stack comes from."""
        return self._cache

    # ------------------------------------------------------------------
    def _run(
        self,
        messages: List[bytes],
        bit_lengths: Optional[List[int]],
        finalize: bool,
    ) -> List[int]:
        """One engine call over head-aligned byte messages, with telemetry;
        ``bit_lengths`` are the true lengths of padded bit streams."""
        if not messages:
            return []
        telemetry = default_registry().enabled
        t0 = perf_counter() if telemetry else 0.0
        lengths = list(map(len, messages))
        registers = self._engine._registers_batch(
            messages, lengths, True, bit_lengths, finalize
        )
        if telemetry:
            bits = sum(bit_lengths) if bit_lengths else 8 * sum(lengths)
            _observe(_CRC_SERIES(), bits, perf_counter() - t0)
        return registers

    def _bits_to_bytes(self, bit_streams: Sequence[Sequence[int]]):
        """Head-pad each stream to whole bytes, packed in the spec's bit order."""
        checked = check_bit_streams(bit_streams)
        order = "little" if self._spec.refin else "big"
        messages = [
            np.packbits(
                np.concatenate((np.zeros(-len(bits) % 8, np.uint8), bits)),
                bitorder=order,
            ).tobytes()
            for bits in checked
        ]
        return messages, [len(bits) for bits in checked]

    def compute_bits_batch(self, bit_streams: Sequence[Sequence[int]]) -> List[int]:
        """Finalized CRCs of raw bit streams (transmission order)."""
        messages, lengths = self._bits_to_bytes(bit_streams)
        return self._run(messages, lengths, finalize=True)

    def raw_registers(self, messages: Sequence[bytes]) -> List[int]:
        """Raw registers for byte messages (lengths may differ)."""
        return self._run(check_messages(messages), None, finalize=False)

    def compute_batch(self, messages: Sequence[bytes]) -> List[int]:
        """Finalized CRCs of B byte messages (lengths may differ)."""
        return self._run(check_messages(messages), None, finalize=True)

    def compute(self, data: bytes) -> int:
        """Single-message convenience (a batch of one)."""
        return self.compute_batch([data])[0]


class BatchAdditiveScrambler:
    """Frame-synchronous scrambling of B independent streams at once.

    Every call runs :class:`~repro.lfsr.slicing.ByteSlicedScrambler`'s
    batch door on the spec's keystream tables from the compile cache
    (:meth:`~repro.engine.cache.CompileCache.scrambler_tables`, shared
    with every pipeline), one seed per stream.  ``M`` is the block factor
    the engine stands for — the netlists' — and the gather's block is the
    stack's depth.  Scrambling is an involution, so descrambling is the
    same call.
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

    @property
    def spec(self) -> ScramblerSpec:
        """The scrambler standard (polynomial + default seed)."""
        return self._spec

    @property
    def M(self) -> int:
        """Block factor the engine stands for."""
        return self._M

    # ------------------------------------------------------------------
    def _check_seeds(self, batch: int, seeds: Optional[Sequence[int]]) -> List[int]:
        """Validated per-stream seeds (spec default when omitted)."""
        if seeds is None:
            return [self._spec.seed] * batch
        return check_register_list(
            seeds, batch, self._spec.degree, what="seeds", allow_zero=False
        )

    def keystream_batch(self, nbits: int, batch: int, seeds: Optional[Sequence[int]] = None) -> np.ndarray:
        """``(nbits, batch)`` keystream bits, one column per stream."""
        telemetry = default_registry().enabled
        t0 = perf_counter() if telemetry else 0.0
        packed = self._engine.keystream_batch(self._check_seeds(batch, seeds), -(-nbits // 8))
        bits = np.unpackbits(packed, axis=1, count=nbits, bitorder="little").T
        if telemetry:
            _observe_kernel("scrambler-additive", nbits * batch, perf_counter() - t0)
        return bits

    def scramble_batch(
        self,
        bit_streams: Sequence[Sequence[int]],
        seeds: Optional[Sequence[int]] = None,
    ) -> List[List[int]]:
        """XOR each stream with its keystream; returns per-stream bit lists."""
        # Validate arguments *before* any early return, so an invalid seed
        # list is rejected even when every stream happens to be empty.
        checked = check_bit_streams(bit_streams)
        batch = len(checked)
        seeds = self._check_seeds(batch, seeds)
        longest = max(map(len, checked), default=0)
        if longest == 0:
            return [[] for _ in checked]
        ks = self.keystream_batch(longest, batch, seeds)
        return [(bits ^ ks[: len(bits), b]).tolist() for b, bits in enumerate(checked)]

    def descramble_batch(
        self,
        bit_streams: Sequence[Sequence[int]],
        seeds: Optional[Sequence[int]] = None,
    ) -> List[List[int]]:
        """Identical to :meth:`scramble_batch` (XOR is an involution)."""
        return self.scramble_batch(bit_streams, seeds)


class BatchWordScrambler:
    """Frame-synchronous scrambling of B streams on word-oriented keystreams.

    An alternative keystream source to :class:`BatchAdditiveScrambler`:
    instead of a catalog LFSR's keystream tables, each stream gets its
    own Tsaban–Vishne
    :class:`~repro.lfsr.wordlfsr.WordLFSR` emitting one machine word per
    step, and the batch XOR runs as one numpy operation.  Per-stream seeds
    are word lists or byte material (stretched through
    :func:`~repro.lfsr.wordlfsr.seed_words_from_bytes`); omitted seeds
    derive deterministically from the stream index, so repeated calls are
    reproducible.  Scrambling is an involution — descrambling is the same
    call with the same seeds.
    """

    def __init__(self, spec: WordLFSRSpec = WORD64):
        self._spec = spec

    @property
    def spec(self) -> WordLFSRSpec:
        """The word-LFSR configuration every stream's keystream runs."""
        return self._spec

    # ------------------------------------------------------------------
    def _check_seeds(self, batch: int, seeds) -> List[List[int]]:
        """Per-stream word seeds (index-derived defaults when omitted)."""
        if seeds is None:
            return [
                seed_words_from_bytes(self._spec, b"stream-%d" % b)
                for b in range(batch)
            ]
        if len(seeds) != batch:
            raise SpecError(f"expected {batch} seeds, got {len(seeds)}")
        out = []
        for s in seeds:
            if isinstance(s, (bytes, bytearray, memoryview)):
                out.append(seed_words_from_bytes(self._spec, bytes(s)))
            else:
                out.append(list(s))
        return out

    def keystream_batch(
        self, nbits: int, batch: int, seeds=None
    ) -> np.ndarray:
        """``(nbits, batch)`` keystream bits, one word-LFSR per column."""
        telemetry = default_registry().enabled
        t0 = perf_counter() if telemetry else 0.0
        seeds = self._check_seeds(batch, seeds)
        if nbits == 0 or batch == 0:
            return np.zeros((nbits, batch), dtype=np.uint8)
        cols = [
            WordLFSR(self._spec, seed).keystream_bits(nbits) for seed in seeds
        ]
        out = np.stack(cols, axis=1)
        if telemetry:
            _observe_kernel("scrambler-word", nbits * batch, perf_counter() - t0)
        return out

    def scramble_batch(
        self,
        bit_streams: Sequence[Sequence[int]],
        seeds=None,
    ) -> List[List[int]]:
        """XOR each stream with its keystream; returns per-stream bit lists."""
        # Validate arguments *before* any early return, so an invalid seed
        # list is rejected even when every stream happens to be empty.
        checked = check_bit_streams(bit_streams)
        batch = len(checked)
        seeds = self._check_seeds(batch, seeds)
        if batch == 0:
            return []
        lengths = [len(bits) for bits in checked]
        longest = max(lengths)
        if longest == 0:
            return [[] for _ in checked]
        # Tail padding is safe here: the keystream never depends on the data.
        data = np.zeros((longest, batch), dtype=np.uint8)
        for b, bits in enumerate(checked):
            if lengths[b]:
                data[: lengths[b], b] = bits
        ks = self.keystream_batch(longest, batch, seeds)
        out = data ^ ks
        return [out[: lengths[b], b].tolist() for b in range(batch)]

    def descramble_batch(
        self,
        bit_streams: Sequence[Sequence[int]],
        seeds=None,
    ) -> List[List[int]]:
        """Identical to :meth:`scramble_batch` (XOR is an involution)."""
        return self.scramble_batch(bit_streams, seeds)


class BatchMultiplicativeScrambler:
    """Self-synchronizing scrambler over B streams, bit-serial in time but
    word-parallel across the batch.

    The feedback taps read the *scrambled* stream, so time stays serial —
    but each clock is a handful of W-word XORs instead of B Python-level
    shifts.  Matches :class:`repro.scrambler.multiplicative.MultiplicativeScrambler`
    bit-for-bit per stream.
    """

    def __init__(self, poly: GF2Polynomial):
        if poly.degree < 1:
            raise SpecError("polynomial degree must be >= 1")
        self._poly = poly
        self._k = poly.degree
        self._kernel = NumpyPackedBackend()
        # Delay positions, as in the serial engine: exponent t reads the
        # stream bit from t clocks ago (delay-line slot t-1).
        self._taps = [
            t - 1 for t in range(1, self._k + 1) if t == self._k or poly.coefficient(t)
        ]

    @property
    def poly(self) -> GF2Polynomial:
        """The generator polynomial ``g(x)``."""
        return self._poly

    # ------------------------------------------------------------------
    def _check_states(self, batch: int, states: Optional[Sequence[int]]) -> List[int]:
        """Validated per-stream delay-line presets (zero when omitted)."""
        if states is None:
            return [0] * batch
        return check_register_list(
            states, batch, self._k, what="states", allow_zero=True
        )

    def _delay_lines(self, states: Sequence[int]) -> deque:
        rows = np.zeros((self._k, len(states)), dtype=np.uint8)
        for b, s in enumerate(states):
            for j in range(self._k):
                rows[j, b] = (s >> j) & 1
        packed = self._kernel.pack(rows)
        return deque(packed[j] for j in range(self._k))

    def _run(
        self,
        bit_streams: Sequence[Sequence[int]],
        states: Optional[Sequence[int]],
        descramble: bool,
    ) -> List[List[int]]:
        # Validate arguments *before* any early return, so an invalid state
        # list is rejected even when every stream happens to be empty.
        checked = check_bit_streams(bit_streams)
        batch = len(checked)
        states = self._check_states(batch, states)
        if batch == 0:
            return []
        telemetry = default_registry().enabled
        t0 = perf_counter() if telemetry else 0.0
        lengths = [len(bits) for bits in checked]
        longest = max(lengths)
        if longest == 0:
            return [[] for _ in checked]
        data = np.zeros((longest, batch), dtype=np.uint8)
        for b, bits in enumerate(checked):
            if lengths[b]:
                data[: lengths[b], b] = bits
        kernel = self._kernel
        packed = kernel.pack(data)
        line = self._delay_lines(states)
        out_rows = []
        for n in range(longest):
            fb = reduce(lambda acc, pos: acc ^ line[pos], self._taps[1:], line[self._taps[0]])
            row = packed[n] ^ fb
            out_rows.append(row)
            # The delay line shifts in the *scrambled* stream bit on both
            # sides of the link (received when descrambling, produced when
            # scrambling) — that is what makes the pair self-synchronizing.
            shift_in = packed[n] if descramble else row
            line.pop()
            line.appendleft(shift_in)
        bits_out = kernel.unpack(kernel.from_rows(out_rows), batch)
        if telemetry:
            _observe_kernel(
                "scrambler-multiplicative", sum(lengths), perf_counter() - t0
            )
        return [bits_out[: lengths[b], b].tolist() for b in range(batch)]

    def scramble_batch(
        self, bit_streams: Sequence[Sequence[int]], states: Optional[Sequence[int]] = None
    ) -> List[List[int]]:
        """``s = u ^ taps(delay)``, feeding back ``s`` (1/g(x) transfer)."""
        return self._run(bit_streams, states, descramble=False)

    def descramble_batch(
        self, bit_streams: Sequence[Sequence[int]], states: Optional[Sequence[int]] = None
    ) -> List[List[int]]:
        """``u = s ^ taps(delay)``, feeding forward ``s`` (g(x) transfer)."""
        return self._run(bit_streams, states, descramble=True)
