"""Differential oracles: one engine pair (or property) per oracle.

Each oracle takes a :class:`~repro.verify.cases.FuzzCase`, runs the same
inputs through a reference engine and a candidate engine, and returns
``None`` on agreement or a :class:`Discrepancy` naming the first
divergence.  Expensive engines (table builds, Derby transforms, batch
compiles) are memoized per oracle instance and share one
:class:`~repro.engine.cache.CompileCache`, so a long fuzz run amortizes
compilation exactly like the production pipelines do.

The reference side is always the bit-serial ground truth
(:class:`~repro.crc.bitwise.BitwiseCRC`, the serial scramblers), so a
reported mismatch indicts the parallel/batch/streaming candidate.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.crc import BitwiseCRC, DerbyCRC, LookaheadCRC, TableCRC, get as get_crc
from repro.crc.slicing import GATHER_MIN_ROWS, SLICE_DEPTH
from repro.engine import (
    BatchAdditiveScrambler,
    BatchCRC,
    BatchMultiplicativeScrambler,
    CompileCache,
    CRCPipeline,
    ScramblerPipeline,
)
from repro.gf2.backend import NumpyPackedBackend, ReferenceBackend
from repro.gf2.bits import bits_to_bytes, bytes_to_bits
from repro.gf2.polynomial import GF2Polynomial
from repro.lfsr.galois import galois_to_fibonacci_state
from repro.lfsr.reference import GaloisLFSR
from repro.lfsr.wordlfsr import (
    CURATED,
    WordLFSR,
    WordLFSRReference,
    seed_words_from_bytes,
)
from repro.scrambler import AdditiveScrambler
from repro.scrambler.galois import (
    FibonacciAdditiveScrambler,
    GaloisFormAdditiveScrambler,
    GaloisMultiplicativeScrambler,
)
from repro.scrambler.multiplicative import MultiplicativeScrambler
from repro.scrambler.specs import get as get_scrambler
from repro.verify.cases import (
    KIND_CRC,
    KIND_MULTIPLICATIVE,
    KIND_SCRAMBLER,
    FuzzCase,
)


@dataclass(frozen=True)
class Discrepancy:
    """The first divergence an oracle observed for a case."""

    detail: str
    expected: str
    got: str

    def to_dict(self) -> Dict[str, str]:
        return {"detail": self.detail, "expected": self.expected, "got": self.got}


class Oracle:
    """Base class: ``check`` returns None (agree) or a Discrepancy."""

    name: str = "oracle"
    kinds: Tuple[str, ...] = ()

    def applies(self, case: FuzzCase) -> bool:
        return case.kind in self.kinds

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        raise NotImplementedError


def _crc_serial(case: FuzzCase) -> Tuple:
    """(spec, BitwiseCRC) for a CRC case."""
    spec = get_crc(case.spec)
    return spec, BitwiseCRC(spec)


def _case_seed(case: FuzzCase, index: int, default: int) -> int:
    if case.seeds:
        return case.seeds[index]
    return default


class CRCTableOracle(Oracle):
    """BitwiseCRC vs the byte-at-a-time table engine, per message."""

    name = "crc:bitwise-vs-table"
    kinds = (KIND_CRC,)

    def __init__(self):
        self._tables: Dict[str, TableCRC] = {}

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        spec, serial = _crc_serial(case)
        table = self._tables.get(case.spec)
        if table is None:
            table = self._tables[case.spec] = TableCRC(spec)
        for i, payload in enumerate(case.payloads()):
            expected = serial.compute(payload)
            got = table.compute(payload)
            if got != expected:
                return Discrepancy(
                    detail=f"stream {i} ({len(payload)} bytes)",
                    expected=f"0x{expected:X}",
                    got=f"0x{got:X}",
                )
        return None


class CRCDerbyOracle(Oracle):
    """BitwiseCRC vs the Derby-transformed matrix engine, with per-stream
    initial registers (seed/basis conversion is exactly where equivalent-
    looking parallel realizations diverge)."""

    name = "crc:bitwise-vs-derby"
    kinds = (KIND_CRC,)

    def __init__(self):
        self._engines: Dict[Tuple[str, int], DerbyCRC] = {}

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        spec, serial = _crc_serial(case)
        key = (case.spec, case.M)
        derby = self._engines.get(key)
        if derby is None:
            derby = self._engines[key] = DerbyCRC(spec, case.M)
        for i, payload in enumerate(case.payloads()):
            register = _case_seed(case, i, spec.init)
            expected = serial.raw_register(payload, register)
            got = derby.raw_register(payload, register)
            if got != expected:
                return Discrepancy(
                    detail=f"stream {i} raw register, init=0x{register:X}",
                    expected=f"0x{expected:X}",
                    got=f"0x{got:X}",
                )
        return None


class CRCBatchOracle(Oracle):
    """BitwiseCRC vs the batch engine's grouped gather.  The case's few
    short payloads alone form groups below
    :data:`~repro.crc.slicing.GATHER_MIN_ROWS`, which run message by
    message, so batches built from them follow that reach the gather:
    each payload repeated to that many rows (an equal-length group), all
    of them cycled to that many rows (a head-padded group), and those
    rows tiled past one :data:`~repro.crc.slicing.SLICE_DEPTH`-byte block."""

    name = "crc:bitwise-vs-batch"
    kinds = (KIND_CRC,)

    @staticmethod
    def _batches(payloads: List[bytes]):
        """``(label, batch)``: the payloads, then the gathered batches."""
        yield "payloads", payloads
        if not payloads:
            return
        for i, payload in enumerate(payloads):
            yield f"stream {i} x{GATHER_MIN_ROWS}", [payload] * GATHER_MIN_ROWS
        rows = max(GATHER_MIN_ROWS, len(payloads))
        cycled = [payloads[i % len(payloads)] for i in range(rows)]
        yield "cycled", cycled
        yield "tiled", [m * (SLICE_DEPTH // max(len(m), 1) + 1) for m in cycled]

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        spec, serial = _crc_serial(case)
        engine = BatchCRC(spec, case.M, cache=cache)
        crcs: Dict[bytes, int] = {}
        for label, batch in self._batches(case.payloads()):
            for m in batch:
                if m not in crcs:
                    crcs[m] = serial.compute(m)
            expected = [crcs[m] for m in batch]
            got = engine.compute_batch(batch)
            if got != expected:
                i = next(j for j, (a, b) in enumerate(zip(expected, got)) if a != b)
                return Discrepancy(
                    detail=f"compute_batch {label} row {i} ({len(batch[i])} bytes)",
                    expected=f"0x{expected[i]:X}",
                    got=f"0x{got[i]:X}",
                )
        return None


class CRCPipelineOracle(Oracle):
    """BitwiseCRC vs the streaming pipeline under the case's chunk schedule,
    interleaved deliveries and ghost-stream aborts — once per byte engine,
    each pinned through the pipeline's private short-run threshold: every
    run through the byte table, then every run through the byte-sliced
    gather."""

    name = "crc:bitwise-vs-pipeline"
    kinds = (KIND_CRC,)

    #: (pass, short-run threshold override), see CRCPipeline.__init__.
    PASSES = (("table", sys.maxsize), ("sliced", 0))

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        for which, short_run in self.PASSES:
            found = self._check_pass(case, cache, which, short_run)
            if found is not None:
                return found
        return None

    def _check_pass(
        self, case: FuzzCase, cache: CompileCache, which: str, short_run: int
    ) -> Optional[Discrepancy]:
        spec, serial = _crc_serial(case)
        pipe = CRCPipeline(spec, case.M, cache=cache)
        pipe._short_run = short_run
        payloads = case.payloads()
        ids = []
        for i in range(len(payloads)):
            register = _case_seed(case, i, spec.init)
            ids.append(pipe.open(register=register))
        ghost_ids = []
        for nbits in case.aborts:
            gid = pipe.open()
            pipe.feed(gid, _ghost_bytes(nbits), pump=False)
            ghost_ids.append(gid)
        # Interleave deliveries round-robin across streams; the schedule
        # is deterministic from the case so replays are exact.
        plans = [case.chunk_plan(i) for i in range(len(payloads))]
        offsets = [0] * len(payloads)
        for turn in range(max(map(len, plans), default=0)):
            for i, plan in enumerate(plans):
                if turn < len(plan):
                    pipe.feed(ids[i], payloads[i][offsets[i]:offsets[i] + plan[turn]])
                    offsets[i] += plan[turn]
        for gid in ghost_ids:
            pipe.abort(gid)
        for i, payload in enumerate(payloads):
            register = _case_seed(case, i, spec.init)
            expected = spec.finalize(serial.raw_register(payload, register))
            got = pipe.finalize(ids[i])
            if got != expected:
                return Discrepancy(
                    detail=f"pipeline stream {i} chunks={case.chunk_plan(i)} "
                    f"pass={which} aborts={case.aborts}",
                    expected=f"0x{expected:X}",
                    got=f"0x{got:X}",
                )
        return None


def _ghost_bytes(nbits: int) -> bytes:
    """A ghost stream's payload: ``nbits`` rounded up to whole 0xFF bytes."""
    return b"\xff" * -(-nbits // 8)


def _bitserial_scramble(spec, seed: int, message: bytes) -> bytes:
    """``message`` XOR the bit-serial Galois register's keystream from
    ``seed``, its bits taken and packed lsb-first."""
    bits = bytes_to_bits(message, reflect=True)
    keystream = GaloisLFSR(spec.poly, seed).keystream(len(bits))
    return bits_to_bytes([b ^ k for b, k in zip(bits, keystream)], reflect=True)


def _byte_discrepancy(detail: str, expected: bytes, got: bytes) -> Discrepancy:
    """A byte-stream mismatch shown as 32-byte hex windows from the first
    differing byte (a long stream can agree on its first 32)."""
    at = next(
        (j for j, (a, b) in enumerate(zip(expected, got)) if a != b),
        min(len(expected), len(got)),
    )
    return Discrepancy(
        detail=f"{detail} from byte {at}",
        expected=expected[at : at + 32].hex(),
        got=got[at : at + 32].hex(),
    )


def _first_mismatch(
    label: Callable[[int], str], expected: List[bytes], got: List[bytes]
) -> Optional[Discrepancy]:
    """The first stream ``i`` on which ``got`` differs from ``expected``
    (a missing stream reads as empty), described by ``label(i)``."""
    if got == expected:
        return None
    i = next(
        (j for j, (a, b) in enumerate(zip(expected, got)) if a != b),
        min(len(expected), len(got)),
    )
    return _byte_discrepancy(
        label(i), expected[i] if i < len(expected) else b"", got[i] if i < len(got) else b""
    )


class AdditiveScramblerOracle(Oracle):
    """Bit-serial Galois keystream vs the batch engine and the
    single-stream :class:`AdditiveScrambler`, plus the involution property
    (descramble(scramble(x)) == x)."""

    name = "scrambler:serial-vs-batch"
    kinds = (KIND_SCRAMBLER,)

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        spec = get_scrambler(case.spec)
        engine = BatchAdditiveScrambler(spec, case.M, cache=cache)
        payloads = case.payloads()
        seeds = [_case_seed(case, i, spec.seed) for i in range(len(payloads))]
        expected = [
            _bitserial_scramble(spec, seed, m) for m, seed in zip(payloads, seeds)
        ]
        got = engine.scramble_batch(payloads, seeds=seeds)
        single = [
            AdditiveScrambler(spec, seed).scramble_bytes(m)
            for m, seed in zip(payloads, seeds)
        ]
        for door, result in (("scramble_batch", got), ("AdditiveScrambler", single)):
            found = _first_mismatch(
                lambda i: f"{door} stream {i} seed=0x{seeds[i]:X}", expected, result
            )
            if found is not None:
                return found
        back = engine.descramble_batch(got, seeds=seeds)
        return _first_mismatch(lambda i: f"involution violated on stream {i}", payloads, back)


class ScramblerPipelineOracle(Oracle):
    """Bit-serial Galois keystream vs the streaming pipeline, chunked feeds."""

    name = "scrambler:serial-vs-pipeline"
    kinds = (KIND_SCRAMBLER,)

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        spec = get_scrambler(case.spec)
        pipe = ScramblerPipeline(spec, case.M, cache=cache)
        for i, payload in enumerate(case.payloads()):
            seed = _case_seed(case, i, spec.seed)
            sid = pipe.open(seed=seed)
            out = bytearray()
            offset = 0
            for nbytes in case.chunk_plan(i):
                out += pipe.feed(sid, payload[offset : offset + nbytes])
                offset += nbytes
            pipe.close(sid)
            expected = _bitserial_scramble(spec, seed, payload)
            if out != expected:
                return _byte_discrepancy(
                    f"pipeline stream {i} seed=0x{seed:X}", expected, bytes(out)
                )
        return None


class MultiplicativeScramblerOracle(Oracle):
    """Serial MultiplicativeScrambler vs the word-parallel batch engine,
    plus the self-synchronizing descramble round-trip."""

    name = "multiplicative:serial-vs-batch"
    kinds = (KIND_MULTIPLICATIVE,)

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        poly = GF2Polynomial.from_exponents(list(case.mult_exponents()))
        engine = BatchMultiplicativeScrambler(poly)
        payloads = case.payloads()
        states = [_case_seed(case, i, 0) for i in range(len(payloads))]
        expected = [
            bits_to_bytes(
                MultiplicativeScrambler(poly, state=st).scramble_bits(
                    bytes_to_bits(m, reflect=True)
                ),
                reflect=True,
            )
            for m, st in zip(payloads, states)
        ]
        got = engine.scramble_batch(payloads, states=states)
        found = _first_mismatch(
            lambda i: f"scramble_batch stream {i} state=0x{states[i]:X}", expected, got
        )
        if found is not None:
            return found
        back = engine.descramble_batch(got, states=states)
        return _first_mismatch(
            lambda i: f"descramble round-trip violated on stream {i}", payloads, back
        )


class PackedBackendOracle(Oracle):
    """Reference vs packed GF(2) batch kernel on payload-derived bit
    blocks, plus the case's matrix CRC (:class:`LookaheadCRC` or
    :class:`DerbyCRC`, by the case's method) against :class:`BitwiseCRC`.

    The kernel half pins the two batch kernels against *each other* on
    the case's look-ahead input matrix ``B_M``, so a word-packing bug is
    indicted directly rather than through an engine mismatch; the engine
    half keeps the direct look-ahead engine, which no other oracle runs,
    under the fuzzer.
    """

    name = "gf2:reference-vs-packed"
    kinds = (KIND_CRC,)

    def __init__(self):
        self._reference = ReferenceBackend()
        self._packed = NumpyPackedBackend()
        self._engines: Dict[Tuple[str, int, str], object] = {}

    def _crc(self, case: FuzzCase):
        key = (case.spec, case.M, case.method)
        engine = self._engines.get(key)
        if engine is None:
            cls = LookaheadCRC if case.method == "lookahead" else DerbyCRC
            engine = self._engines[key] = cls(get_crc(case.spec), case.M)
        return engine

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        import numpy as np

        spec, serial = _crc_serial(case)
        ref, packed = self._reference, self._packed
        B = cache.lookahead(spec, case.M).B_M.to_array()

        # An (M, batch) bit block cut deterministically from the payloads.
        payloads = case.payloads()
        pool = [b for m in payloads for b in spec.message_bits(m)]
        batch = max(1, len(payloads))
        block = np.array(
            [
                [(pool[(r * batch + c) % len(pool)] if pool else 0) for c in range(batch)]
                for r in range(B.shape[1])
            ],
            dtype=np.uint8,
        )
        got_b = packed.unpack(packed.matvec_batch(B, packed.pack(block)), batch)
        exp_b = ref.unpack(ref.matvec_batch(B, ref.pack(block)), batch)
        if got_b.tolist() != exp_b.tolist():
            return Discrepancy(
                detail=f"matvec_batch B_M block ({case.spec}, M={case.M}, B={batch})",
                expected=f"{int(exp_b.sum())} ones",
                got=f"{int(got_b.sum())} ones",
            )

        engine = self._crc(case)
        for i, payload in enumerate(payloads):
            expected = serial.compute(payload)
            got = engine.compute(payload)
            if got != expected:
                return Discrepancy(
                    detail=f"{type(engine).__name__} stream {i} ({len(payload)} bytes)",
                    expected=f"0x{expected:X}",
                    got=f"0x{got:X}",
                )
        return None


class ParallelWorkersOracle(Oracle):
    """Serial (workers=1) vs sharded (workers=N) execution, bit-exact.

    Sharding must be invisible: any partition of a batch across workers,
    and any shard assignment of pipeline streams — under chunked
    delivery and mid-stream aborts — must reproduce the serial result
    exactly.  The oracle drives both with the case's own payloads and
    chunk schedule, so shard boundaries land on arbitrary
    (non-multiple-of-shard) batch sizes by construction.
    """

    name = "parallel:workers1-vs-workersN"
    kinds = (KIND_CRC,)

    #: Shard count for the candidate side; 3 guarantees uneven splits for
    #: most batch sizes and exercises the pipeline's tiebreak paths.
    WORKERS = 3

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        from repro.engine import ParallelBatchCRC, ShardedCRCPipeline

        spec, serial_ref = _crc_serial(case)
        serial = BatchCRC(spec, case.M, cache=cache)
        payloads = case.payloads()

        # 1. Batch-dimension sharding through the byte door.  Each check
        # closes the engines it starts, so no pool outlives its case.
        expected = serial.compute_batch(payloads)
        with ParallelBatchCRC(
            spec, case.M, workers=self.WORKERS, cache=cache, min_shard_bits=1
        ) as engine:
            got = engine.compute_batch(payloads)
        if got != expected:
            i = next(j for j, (a, b) in enumerate(zip(expected, got)) if a != b)
            return Discrepancy(
                detail=f"sharded compute_batch stream {i} "
                f"({len(payloads[i])} bytes, workers={self.WORKERS})",
                expected=f"0x{expected[i]:X}",
                got=f"0x{got[i]:X}",
            )

        # 2. Sharded pipeline under the case's chunk schedule with ghost
        # streams aborted mid-flight (they must leave no residue on the
        # shard they were assigned to).
        pipe = ShardedCRCPipeline(spec, case.M, workers=self.WORKERS, cache=cache)
        try:
            ids = [pipe.open() for _ in payloads]
            ghost_ids = []
            for nbits in case.aborts:
                gid = pipe.open()
                pipe.feed(gid, _ghost_bytes(nbits), pump=False)
                ghost_ids.append(gid)
            cursors = [(i, 0) for i in range(len(payloads)) if case.chunk_plan(i)]
            while cursors:
                nxt = []
                for i, chunk_idx in cursors:
                    plan = case.chunk_plan(i)
                    offset = sum(plan[:chunk_idx])
                    pipe.feed(ids[i], payloads[i][offset : offset + plan[chunk_idx]])
                    if chunk_idx + 1 < len(plan):
                        nxt.append((i, chunk_idx + 1))
                cursors = nxt
            for gid in ghost_ids:
                pipe.abort(gid)
            for i, payload in enumerate(payloads):
                want = serial_ref.compute(payload)
                have = pipe.finalize(ids[i])
                if have != want:
                    return Discrepancy(
                        detail=f"sharded pipeline stream {i} "
                        f"chunks={case.chunk_plan(i)} aborts={case.aborts} "
                        f"(workers={self.WORKERS})",
                        expected=f"0x{want:X}",
                        got=f"0x{have:X}",
                    )
        finally:
            pipe.close()
        return None


class PlannerAutoOracle(Oracle):
    """Planner-chosen execution vs serial ground truth, bit-exact.

    The planner decides the worker count from a measured speedup — this
    oracle checks that *whatever* it decides, the planned engine is
    still bit-exact.  Each case is turned into a workload descriptor
    (the case's own batch shape and payload sizes, M pinned so compiles
    are shared) and planned against a measured host profile drawn
    deterministically from the case — so across a fuzz run both serial
    and sharded plans (narrow and wide) are covered without ever timing
    anything.  The planned configuration then executes on its thread
    pool and must reproduce the serial batch result exactly.
    """

    name = "planner:auto-vs-serial"
    kinds = (KIND_CRC,)

    #: Measured hosts the cases cycle through, by CPUs: a 1-CPU laptop
    #: (always plans serial), a 4-core desktop and a 16-core server whose
    #: batch CRC shards measured faster than serial (plan wide whenever
    #: a case has items to shard).  Built lazily to keep import light.
    PROFILE_CPUS = (1, 4, 16)

    def __init__(self):
        self._planners: Dict[int, object] = {}

    def _planner(self, cpus: int):
        from repro.engine.planner import HostProfile, Planner

        planner = self._planners.get(cpus)
        if planner is None:
            profile = HostProfile(cpus=cpus, speedup={"crc-batch": 0.4 * cpus + 0.6})
            planner = self._planners[cpus] = Planner(
                profile=profile, min_shard_bits=1
            )
        return planner

    def _plan(self, case: FuzzCase):
        from repro.engine.planner import WorkloadDescriptor

        payloads = case.payloads()
        total_bits = sum(8 * len(m) for m in payloads)
        workload = WorkloadDescriptor(
            kind="crc-batch",
            standard=case.spec,
            message_bits=max(1, total_bits // max(len(payloads), 1)),
            batch=len(payloads),
            M=case.M,
        )
        cpus = self.PROFILE_CPUS[
            (case.M + len(payloads) + total_bits) % len(self.PROFILE_CPUS)
        ]
        return self._planner(cpus).plan(workload)

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        from repro.engine import ParallelBatchCRC

        plan = self._plan(case)
        spec = get_crc(case.spec)
        serial = BatchCRC(spec, case.M, cache=cache)
        payloads = case.payloads()

        expected = serial.compute_batch(payloads)
        with ParallelBatchCRC(
            spec, case.M, cache=cache, min_shard_bits=1, plan=plan
        ) as engine:
            got = engine.compute_batch(payloads)
        if got != expected:
            i = next(j for j, (a, b) in enumerate(zip(expected, got)) if a != b)
            return Discrepancy(
                detail=f"planned compute_batch stream {i} "
                f"({plan.strategy}, workers={plan.workers})",
                expected=f"0x{expected[i]:X}",
                got=f"0x{got[i]:X}",
            )
        return None


class GaloisFormOracle(Oracle):
    """Fibonacci reference vs Dubrova's Galois-form scramblers.

    For additive cases the many-to-one standards-diagram register
    (:class:`FibonacciAdditiveScrambler`) is pitted against the
    shallow-feedback :class:`GaloisFormAdditiveScrambler` with the same
    seed — any error in the matching-initial-state solve (the
    observability-matrix algebra in :mod:`repro.lfsr.galois`) shows up as
    a first-bit divergence.  The state conversion is also round-tripped
    exactly.  For multiplicative cases the serial delay-line scrambler is
    checked against :class:`GaloisMultiplicativeScrambler` on the same
    stream, including the self-synchronizing descramble round trip.
    """

    name = "galois:fibonacci-vs-galois"
    kinds = (KIND_SCRAMBLER, KIND_MULTIPLICATIVE)

    def _check_additive(self, case: FuzzCase) -> Optional[Discrepancy]:
        spec = get_scrambler(case.spec)
        for i, payload in enumerate(case.payloads()):
            bits = bytes_to_bits(payload, reflect=True)
            seed = _case_seed(case, i, spec.seed)
            galois = GaloisFormAdditiveScrambler(spec, seed)
            back = galois_to_fibonacci_state(
                spec.poly.reciprocal(), galois.galois_seed
            )
            if back != seed:
                return Discrepancy(
                    detail=f"matching-state round trip, stream {i}",
                    expected=f"0x{seed:X}",
                    got=f"0x{back:X}",
                )
            expected = FibonacciAdditiveScrambler(spec, seed).scramble_bits(bits)
            got = galois.scramble_bits(bits)
            if got != expected:
                return Discrepancy(
                    detail=f"galois-form scramble, stream {i} seed=0x{seed:X}",
                    expected="".join(map(str, expected[:64])),
                    got="".join(map(str, got[:64])),
                )
        return None

    def _check_multiplicative(self, case: FuzzCase) -> Optional[Discrepancy]:
        poly = GF2Polynomial.from_exponents(list(case.mult_exponents()))
        for i, payload in enumerate(case.payloads()):
            bits = bytes_to_bits(payload, reflect=True)
            state = _case_seed(case, i, 0)
            expected = MultiplicativeScrambler(poly, state=state).scramble_bits(bits)
            got = GaloisMultiplicativeScrambler(poly, state=state).scramble_bits(bits)
            if got != expected:
                return Discrepancy(
                    detail=f"galois-form mult scramble, stream {i} state=0x{state:X}",
                    expected="".join(map(str, expected[:64])),
                    got="".join(map(str, got[:64])),
                )
            back = GaloisMultiplicativeScrambler(poly, state=state).descramble_bits(got)
            if back != bits:
                return Discrepancy(
                    detail=f"galois-form mult round trip, stream {i}",
                    expected="".join(map(str, bits[:64])),
                    got="".join(map(str, back[:64])),
                )
        return None

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        if case.kind == KIND_MULTIPLICATIVE:
            return self._check_multiplicative(case)
        return self._check_additive(case)


class WordLFSROracle(Oracle):
    """Fast word-oriented σ-LFSR vs its bit-serial state-matrix oracle.

    The case's payload bytes pick the curated spec and seed the register
    (through :func:`~repro.lfsr.wordlfsr.seed_words_from_bytes`), then the
    pure-integer :class:`WordLFSR` hot loop — including its specialized
    two-word path — must reproduce the :class:`WordLFSRReference`
    keystream byte-for-byte, and the word-keystream scramble must be an
    involution.
    """

    name = "word:wordlfsr-vs-reference"
    kinds = (KIND_SCRAMBLER,)

    def check(self, case: FuzzCase, cache: CompileCache) -> Optional[Discrepancy]:
        payloads = case.payloads()
        material = (payloads[0] if payloads else b"") or b"\x01"
        total = sum(len(p) for p in payloads)
        wspec = CURATED[(case.M + total) % len(CURATED)]
        seed = seed_words_from_bytes(wspec, material)
        nbytes = max(8, min(48, total))
        expected = WordLFSRReference(wspec, seed).keystream_bytes(nbytes)
        got = WordLFSR(wspec, seed).keystream_bytes(nbytes)
        if got != expected:
            return Discrepancy(
                detail=f"{wspec.name} keystream ({nbytes} bytes)",
                expected=expected.hex(),
                got=got.hex(),
            )
        ks = WordLFSR(wspec, seed).keystream_bytes(nbytes)
        scrambled = bytes(a ^ b for a, b in zip(expected, ks))
        if any(scrambled):
            # Keystream XOR keystream must cancel — a cheap involution
            # check that the engine restarts deterministically from seed.
            return Discrepancy(
                detail=f"{wspec.name} keystream not frame-deterministic",
                expected="00" * nbytes,
                got=scrambled.hex(),
            )
        return None


def default_oracles() -> List[Oracle]:
    """The standing cross-engine differential battery (12 oracle pairs)."""
    return [
        CRCTableOracle(),
        CRCDerbyOracle(),
        CRCBatchOracle(),
        CRCPipelineOracle(),
        AdditiveScramblerOracle(),
        ScramblerPipelineOracle(),
        MultiplicativeScramblerOracle(),
        PackedBackendOracle(),
        ParallelWorkersOracle(),
        PlannerAutoOracle(),
        GaloisFormOracle(),
        WordLFSROracle(),
    ]
