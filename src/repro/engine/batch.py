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
  every stream's seed steps through the ``A^{8D}`` fold together, every
  block's keystream rows gather in one call, and each message is XORed
  with its row.
* :class:`BatchMultiplicativeScrambler` packs the batch dimension into
  machine words (:class:`repro.gf2.backend.NumpyPackedBackend`): a batch
  of B bit-streams is a ``(n_bits, W)`` ``uint64`` array with
  ``W = ceil(B/64)`` — bit *b* of word ``row[b // 64]`` belongs to stream
  *b* — so one numpy call clocks all B delay lines.

Every door takes and returns bytes (lengths may differ within a call).
A scrambler's message bit i is bit ``i % 8`` of byte ``i // 8``
(lsb-first), the order of
:meth:`repro.scrambler.AdditiveScrambler.scramble_bytes`.

Tail contract of the CRC (identical to
:class:`repro.dream.system.DreamSystem`): messages are zero-padded **at
the head** and the pad runs from a zero register, which makes it
transparent (leading zeros do not change the message polynomial).  The
spec's ``init`` preset enters each message where its register would
start: XORed into its first ``ceil(w / 8)`` gathered bytes.
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
from repro.scrambler.specs import ScramblerSpec
from repro.telemetry import bind_families, default_registry
from repro.validation import check_factor, check_messages, check_register_list


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
    def _run(self, messages: List[bytes], finalize: bool) -> List[int]:
        """One engine call over checked byte messages, with telemetry."""
        if not messages:
            return []
        telemetry = default_registry().enabled
        t0 = perf_counter() if telemetry else 0.0
        lengths = list(map(len, messages))
        registers = self._engine._registers_batch(messages, lengths, finalize)
        if telemetry:
            _observe(_CRC_SERIES(), 8 * sum(lengths), perf_counter() - t0)
        return registers

    def raw_registers(self, messages: Sequence[bytes]) -> List[int]:
        """Raw registers for byte messages (lengths may differ)."""
        return self._run(check_messages(messages), finalize=False)

    def compute_batch(self, messages: Sequence[bytes]) -> List[int]:
        """Finalized CRCs of B byte messages (lengths may differ)."""
        return self._run(check_messages(messages), finalize=True)

    def compute(self, data: bytes) -> int:
        """Single-message convenience (a batch of one)."""
        return self.compute_batch([data])[0]


class BatchAdditiveScrambler:
    """Frame-synchronous scrambling of B independent streams at once.

    Every call runs :class:`~repro.lfsr.slicing.ByteSlicedScrambler`'s
    batch door on the spec's keystream tables from the compile cache
    (:meth:`~repro.engine.cache.CompileCache.scrambler_tables`, shared
    with every pipeline), one seed per stream, and XORs each message with
    its stream's keystream bytes, as
    :meth:`~repro.scrambler.AdditiveScrambler.scramble_bytes` does for
    one.  ``M`` is the block factor the engine stands for — the
    netlists' — and the gather's block is the stack's depth.  Scrambling
    is an involution, so descrambling is the same call.
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

    def keystream_batch(
        self, nbytes: int, batch: int, seeds: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """``(batch, nbytes)`` ``uint8`` keystream bytes, one row per stream."""
        telemetry = default_registry().enabled
        t0 = perf_counter() if telemetry else 0.0
        keystream = self._engine.keystream_batch(self._check_seeds(batch, seeds), nbytes)
        if telemetry:
            _observe_kernel("scrambler-additive", 8 * nbytes * batch, perf_counter() - t0)
        return keystream

    def scramble_batch(
        self,
        messages: Sequence[bytes],
        seeds: Optional[Sequence[int]] = None,
    ) -> List[bytes]:
        """XOR each message with its stream's keystream bytes."""
        # Validate arguments *before* any early return, so an invalid seed
        # list is rejected even when every message happens to be empty.
        checked = check_messages(messages)
        seeds = self._check_seeds(len(checked), seeds)
        longest = max(map(len, checked), default=0)
        if longest == 0:
            return [b"" for _ in checked]
        keystream = self.keystream_batch(longest, len(checked), seeds)
        return [
            (np.frombuffer(m, dtype=np.uint8) ^ row[: len(m)]).tobytes()
            for m, row in zip(checked, keystream)
        ]

    def descramble_batch(
        self,
        messages: Sequence[bytes],
        seeds: Optional[Sequence[int]] = None,
    ) -> List[bytes]:
        """Identical to :meth:`scramble_batch` (XOR is an involution)."""
        return self.scramble_batch(messages, seeds)


class BatchMultiplicativeScrambler:
    """Self-synchronizing scrambler over B streams, bit-serial in time but
    word-parallel across the batch.

    The feedback taps read the *scrambled* stream, so time stays serial —
    but each clock is a handful of W-word XORs instead of B Python-level
    shifts.  Matches :class:`repro.scrambler.multiplicative.MultiplicativeScrambler`
    bit-for-bit per stream, each byte's bits taken lsb-first.
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
        messages: Sequence[bytes],
        states: Optional[Sequence[int]],
        descramble: bool,
    ) -> List[bytes]:
        # Validate arguments *before* any early return, so an invalid state
        # list is rejected even when every message happens to be empty.
        checked = check_messages(messages)
        batch = len(checked)
        states = self._check_states(batch, states)
        longest = max(map(len, checked), default=0)
        if longest == 0:
            return [b"" for _ in checked]
        telemetry = default_registry().enabled
        t0 = perf_counter() if telemetry else 0.0
        # Tail padding is safe: a stream's output bits depend only on its
        # earlier bits.
        rows = np.zeros((batch, longest), dtype=np.uint8)
        for b, m in enumerate(checked):
            rows[b, : len(m)] = np.frombuffer(m, dtype=np.uint8)
        kernel = self._kernel
        packed = kernel.pack(np.unpackbits(rows, axis=1, bitorder="little").T)
        line = self._delay_lines(states)
        out_rows = []
        for word in packed:
            fb = reduce(lambda acc, pos: acc ^ line[pos], self._taps[1:], line[self._taps[0]])
            row = word ^ fb
            out_rows.append(row)
            # The delay line shifts in the *scrambled* stream bit on both
            # sides of the link (received when descrambling, produced when
            # scrambling) — that is what makes the pair self-synchronizing.
            line.pop()
            line.appendleft(word if descramble else row)
        bits_out = kernel.unpack(kernel.from_rows(out_rows), batch)
        out = np.packbits(bits_out.T, axis=1, bitorder="little")
        if telemetry:
            _observe_kernel(
                "scrambler-multiplicative", 8 * sum(map(len, checked)), perf_counter() - t0
            )
        return [out[b, : len(m)].tobytes() for b, m in enumerate(checked)]

    def scramble_batch(
        self, messages: Sequence[bytes], states: Optional[Sequence[int]] = None
    ) -> List[bytes]:
        """``s = u ^ taps(delay)``, feeding back ``s`` (1/g(x) transfer)."""
        return self._run(messages, states, descramble=False)

    def descramble_batch(
        self, messages: Sequence[bytes], states: Optional[Sequence[int]] = None
    ) -> List[bytes]:
        """``u = s ^ taps(delay)``, feeding forward ``s`` (g(x) transfer)."""
        return self._run(messages, states, descramble=True)
