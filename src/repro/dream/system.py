"""DREAM system model: RISC control + PiCoGA execution (paper §3-5).

Two complementary interfaces:

* **Executed mode** (:meth:`DreamSystem.execute_crc`,
  :meth:`DreamSystem.execute_crc_interleaved`,
  :meth:`DreamSystem.execute_scrambler`) — runs real data through the
  compiled netlists on a :class:`PicogaArray`, charging cycles in the
  array's ledger.  This is the golden co-simulation: results are checked
  against the software CRC engines, and the cycle ledger *is* the timing.

* **Analytic mode** (:meth:`DreamSystem.crc_single_performance`, …) —
  closed-form cycle counts with exactly the same cost structure, used by
  the benchmark sweeps (thousands of points) where executing every message
  would be wasteful.  The test-suite asserts analytic == executed on
  matched configurations.

Partial final chunks are handled the way a real DREAM driver would: the
stream is zero-padded **at the head** and the engine runs with a zero
initial register, which makes the pad transparent (leading zeros do not
change the message polynomial); the processor then folds the spec's
``init`` preset back in with the linear correction
``reg = raw0 ^ (init * x^N mod G)`` during message finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dream.processor import RiscControlModel
from repro.engine.cache import CompileCache, default_cache
from repro.mapping.mapper import MappedCRC, MappedScrambler
from repro.picoga.architecture import DREAM_PICOGA, PicogaArchitecture
from repro.picoga.array import PicogaArray
from repro.telemetry import default_tracer
from repro.telemetry.instrument import record_burst_utilization, record_run_cycles


@dataclass(frozen=True)
class PerformanceResult:
    """Cycle breakdown and derived bandwidth for one workload."""

    workload: str
    payload_bits: int
    cycles: Dict[str, int]
    clock_hz: float

    @property
    def total_cycles(self) -> int:
        return sum(self.cycles.values())

    @property
    def seconds(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def throughput_bps(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.payload_bits * self.clock_hz / self.total_cycles

    @property
    def throughput_gbps(self) -> float:
        return self.throughput_bps / 1e9


class DreamSystem:
    """One DREAM instance: a PiCoGA array plus its control processor."""

    def __init__(
        self,
        arch: PicogaArchitecture = DREAM_PICOGA,
        control: Optional[RiscControlModel] = None,
        cache: Optional[CompileCache] = None,
    ):
        self.arch = arch
        self.control = control or RiscControlModel(clock_hz=arch.clock_hz)
        self.cache = cache if cache is not None else default_cache()

    # ==================================================================
    # Compilation (shared LRU cache)
    # ==================================================================
    def compile_crc(self, spec, M: int, method: str = "derby") -> MappedCRC:
        """Map a CRC onto this system's array through the compile cache.

        Repeated requests for the same ``(spec, M, method)`` return the
        identical :class:`MappedCRC` (and thus identical netlists) — the
        software analogue of a PiCoGA configuration-cache hit.
        """
        with default_tracer().span(
            "dream.compile_crc", standard=spec.name, M=M, method=method
        ):
            return self.cache.mapped_crc(spec, M, method=method, arch=self.arch)

    def compile_scrambler(self, spec, M: int) -> MappedScrambler:
        with default_tracer().span("dream.compile_scrambler", M=M):
            return self.cache.mapped_scrambler(spec, M, arch=self.arch)

    # ==================================================================
    # Host-side batch engines (share this system's compile cache)
    # ==================================================================
    def batch_crc(self, spec, M: int):
        """A host-side batch CRC engine on this system's cache.

        ``spec`` is a :class:`~repro.crc.CRCSpec` or a catalog name
        (``"CRC-32"``).  Use this for golden-model throughput runs beside
        a DREAM deployment: the :class:`~repro.engine.batch.BatchCRC`
        gathers over the spec's byte-sliced table stack, compiled once
        into this system's cache, and ``M`` is the look-ahead factor the
        netlists were mapped at.
        """
        from repro.engine.batch import BatchCRC

        if isinstance(spec, str):
            from repro.crc import get as _get_crc

            spec = _get_crc(spec)
        with default_tracer().span("dream.batch_crc", standard=spec.name):
            return BatchCRC(spec, M, cache=self.cache)

    def batch_scrambler(self, spec, M: int):
        """A host-side batch additive scrambler on this system's cache.

        ``spec`` is a scrambler spec or a registry name (``"DVB"``); the
        :class:`~repro.engine.batch.BatchAdditiveScrambler` gathers over
        the spec's keystream tables, compiled once into this system's
        cache, and ``M`` is the factor the netlists were mapped at.
        """
        from repro.engine.batch import BatchAdditiveScrambler

        if isinstance(spec, str):
            from repro.scrambler.specs import get as _get_scrambler

            spec = _get_scrambler(spec)
        with default_tracer().span("dream.batch_scrambler", standard=spec.name):
            return BatchAdditiveScrambler(spec, M, cache=self.cache)

    def crc_pipeline(self, spec, M: int):
        """A streaming CRC pipeline on this system's cache.

        ``spec`` is a :class:`~repro.crc.CRCSpec` or a catalog name; the
        :class:`~repro.engine.pipeline.CRCPipeline` multiplexes many
        chunk-fed streams over the spec's byte table and byte-sliced
        table stack, and ``M`` is its block factor.
        """
        from repro.engine.pipeline import CRCPipeline

        if isinstance(spec, str):
            from repro.crc import get as _get_crc

            spec = _get_crc(spec)
        with default_tracer().span("dream.crc_pipeline", standard=spec.name):
            return CRCPipeline(spec, M, cache=self.cache)

    # ==================================================================
    # Analytic mode
    # ==================================================================
    def predict_crc(
        self, spec, M: int, message_bits: int, method: str = "derby"
    ) -> PerformanceResult:
        """Spec-level analytic shortcut: cached compile + Fig. 4 model."""
        return self.crc_single_performance(self.compile_crc(spec, M, method), message_bits)

    def predict_crc_interleaved(
        self, spec, M: int, message_bits: int, n_messages: int = 32, method: str = "derby"
    ) -> PerformanceResult:
        """Spec-level analytic shortcut: cached compile + Fig. 5 model."""
        return self.crc_interleaved_performance(
            self.compile_crc(spec, M, method), message_bits, n_messages
        )

    def predict_scrambler(
        self, spec, M: int, block_bits: int, n_blocks: int = 1
    ) -> PerformanceResult:
        """Spec-level analytic shortcut: cached compile + Fig. 8 model."""
        return self.scrambler_performance(self.compile_scrambler(spec, M), block_bits, n_blocks)
    def crc_single_performance(self, mapped: MappedCRC, message_bits: int) -> PerformanceResult:
        """Fig. 4 model: one message, including control and the
        configuration-switch pipeline break."""
        if message_bits < 1:
            raise ValueError("message must contain at least one bit")
        op1 = mapped.update_op
        blocks = ceil(message_bits / mapped.M)
        cycles = {
            "control": self.control.single_message_control(),
            "fill": op1.latency_cycles,
            "issue": blocks * op1.initiation_interval,
        }
        if mapped.output_op is not None:
            cycles["switch"] = self.arch.context_switch_cycles  # break to op2
            cycles["finalize"] = mapped.output_op.latency_cycles + 1  # fill + one issue
        else:
            cycles["switch"] = 0
            cycles["finalize"] = 0
        return PerformanceResult(
            workload=f"crc-single-M{mapped.M}",
            payload_bits=message_bits,
            cycles=cycles,
            clock_hz=self.arch.clock_hz,
        )

    def crc_interleaved_performance(
        self, mapped: MappedCRC, message_bits: int, n_messages: int = 32
    ) -> PerformanceResult:
        """Fig. 5 model: ``n_messages`` equal-length messages interleaved.

        Blocks from different messages fill every pipeline slot, so issue
        proceeds one block per cycle regardless of the loop; the context
        switch and the anti-transformation are paid once per *batch*, with
        one op2 issue per message.
        """
        if message_bits < 1 or n_messages < 1:
            raise ValueError("message bits and count must be >= 1")
        op1 = mapped.update_op
        blocks = ceil(message_bits / mapped.M) * n_messages
        cycles = {
            "control": self.control.interleaved_control(n_messages),
            "fill": op1.latency_cycles,
            "issue": blocks,  # interleaving hides the loop II
        }
        if mapped.output_op is not None:
            cycles["switch"] = self.arch.context_switch_cycles
            cycles["finalize"] = mapped.output_op.latency_cycles + n_messages
        else:
            cycles["switch"] = 0
            cycles["finalize"] = 0
        return PerformanceResult(
            workload=f"crc-interleaved{n_messages}-M{mapped.M}",
            payload_bits=message_bits * n_messages,
            cycles=cycles,
            clock_hz=self.arch.clock_hz,
        )

    def crc_kernel_performance(self, mapped: MappedCRC, message_bits: int) -> PerformanceResult:
        """Fig. 6 model: computational kernel only — no communication or
        configuration overhead (the paper's infinite-message condition)."""
        blocks = ceil(message_bits / mapped.M)
        return PerformanceResult(
            workload=f"crc-kernel-M{mapped.M}",
            payload_bits=message_bits,
            cycles={"issue": blocks * mapped.update_op.initiation_interval},
            clock_hz=self.arch.clock_hz,
        )

    def scrambler_performance(
        self, mapped: MappedScrambler, block_bits: int, n_blocks: int = 1
    ) -> PerformanceResult:
        """Fig. 8 model: single PGAOP, no switch; per-burst control only."""
        if block_bits < 1 or n_blocks < 1:
            raise ValueError("block bits and count must be >= 1")
        op = mapped.op
        chunks = ceil(block_bits / mapped.M)
        cycles = {
            "control": n_blocks * self.control.block_setup_cycles,
            "fill": n_blocks * op.latency_cycles,
            "issue": n_blocks * chunks * op.initiation_interval,
        }
        return PerformanceResult(
            workload=f"scrambler-M{mapped.M}",
            payload_bits=block_bits * n_blocks,
            cycles=cycles,
            clock_hz=self.arch.clock_hz,
        )

    # ==================================================================
    # Executed mode (co-simulation)
    # ==================================================================
    def _prepare_array(self, mapped: MappedCRC) -> PicogaArray:
        array = PicogaArray(self.arch)
        array.load_operation(mapped.update_op, slot=0)
        if mapped.output_op is not None:
            array.load_operation(mapped.output_op, slot=1)
        array.reset_ledger()  # configuration load is not part of Fig. 4/5
        return array

    def _head_padded_blocks(self, mapped: MappedCRC, data: bytes) -> Tuple[List[List[int]], int]:
        bits = mapped.spec.message_bits(data)
        pad = (-len(bits)) % mapped.M
        stream = [0] * pad + bits
        blocks = [
            list(stream[off : off + mapped.M]) for off in range(0, len(stream), mapped.M)
        ]
        return blocks, len(bits)

    def _init_correction(self, mapped: MappedCRC, raw0: int, n_bits: int) -> int:
        return raw0 ^ self.cache.init_fold(mapped.spec, n_bits)

    def execute_crc(self, mapped: MappedCRC, data: bytes) -> Tuple[int, PerformanceResult]:
        """Run one message through the netlists; return (crc, timing).

        Zero-length messages are legal: no blocks issue, the zero start
        register passes through untouched, and the init-fold correction
        reduces to the spec's init — exactly ``finalize(init)``.
        """
        with default_tracer().span(
            "dream.execute_crc", standard=mapped.spec.name, M=mapped.M
        ):
            array = self._prepare_array(mapped)
            array.charge_control(self.control.single_message_control())
            blocks, n_bits = self._head_padded_blocks(mapped, data)
            zero_state = [0] * mapped.update_op.n_state  # raw register 0 transforms to 0
            array.set_state(mapped.update_op.name, zero_state)
            array.run_burst(mapped.update_op.name, blocks)
            state = array.get_state(mapped.update_op.name)
            if mapped.output_op is not None:
                outs = array.run_burst(mapped.output_op.name, [state])
                raw0 = _bits_to_int(outs[0])
            else:
                raw0 = _bits_to_int(state)
            register = self._init_correction(mapped, raw0, n_bits)
            crc = mapped.spec.finalize(register)
            ledger = array.ledger.as_dict()
            ledger.pop("total")
            result = PerformanceResult(
                workload=f"crc-single-M{mapped.M}-executed",
                payload_bits=n_bits,
                cycles=ledger,
                clock_hz=self.arch.clock_hz,
            )
        record_run_cycles("crc-single", ledger, n_bits)
        op = mapped.update_op
        record_burst_utilization(
            op.name, op.n_rows, op.initiation_interval, len(blocks)
        )
        return crc, result

    def execute_crc_interleaved(
        self, mapped: MappedCRC, messages: Sequence[bytes]
    ) -> Tuple[List[int], PerformanceResult]:
        """Kong–Parhi batch through the netlists; returns (crcs, timing)."""
        if not messages:
            raise ValueError("need at least one message")
        with default_tracer().span(
            "dream.execute_crc_interleaved",
            standard=mapped.spec.name,
            M=mapped.M,
            n_messages=len(messages),
        ):
            array = self._prepare_array(mapped)
            array.charge_control(self.control.interleaved_control(len(messages)))
            per_message = [self._head_padded_blocks(mapped, m) for m in messages]
            slot_states: Dict[int, List[int]] = {
                i: [0] * mapped.update_op.n_state for i in range(len(messages))
            }
            # Round-robin schedule: one block per live message per round.
            schedule: List[Tuple[int, Sequence[int]]] = []
            max_blocks = max(len(blocks) for blocks, _ in per_message)
            for round_idx in range(max_blocks):
                for slot, (blocks, _) in enumerate(per_message):
                    if round_idx < len(blocks):
                        schedule.append((slot, blocks[round_idx]))
            array.run_interleaved_burst(mapped.update_op.name, schedule, slot_states)
            crcs: List[int] = []
            if mapped.output_op is not None:
                finals = array.run_burst(
                    mapped.output_op.name, [slot_states[i] for i in range(len(messages))]
                )
                raws = [_bits_to_int(bits) for bits in finals]
            else:
                raws = [_bits_to_int(slot_states[i]) for i in range(len(messages))]
            for raw0, (_, n_bits) in zip(raws, per_message):
                register = self._init_correction(mapped, raw0, n_bits)
                crcs.append(mapped.spec.finalize(register))
            ledger = array.ledger.as_dict()
            ledger.pop("total")
            result = PerformanceResult(
                workload=f"crc-interleaved{len(messages)}-M{mapped.M}-executed",
                payload_bits=sum(n for _, n in per_message),
                cycles=ledger,
                clock_hz=self.arch.clock_hz,
            )
        record_run_cycles("crc-interleaved", ledger, result.payload_bits)
        op = mapped.update_op
        # Interleaved issue fills every slot: blocks from different messages
        # hide the loop, so the effective initiation interval is 1.
        record_burst_utilization(op.name, op.n_rows, 1, len(schedule))
        return crcs, result

    def execute_scrambler(
        self, mapped: MappedScrambler, bits: Sequence[int], seed: Optional[int] = None
    ) -> Tuple[List[int], PerformanceResult]:
        """Scramble a block through the netlist; returns (bits, timing)."""
        with default_tracer().span(
            "dream.execute_scrambler", M=mapped.M, n_bits=len(bits)
        ):
            array = PicogaArray(self.arch)
            array.load_operation(mapped.op, slot=0)
            array.reset_ledger()
            array.charge_control(self.control.block_setup_cycles)
            array.set_state(mapped.op.name, mapped.initial_state_bits(seed))
            blocks = []
            for off in range(0, len(bits), mapped.M):
                chunk = list(bits[off : off + mapped.M])
                chunk += [0] * (mapped.M - len(chunk))
                blocks.append(chunk)
            outs = array.run_burst(mapped.op.name, blocks)
            flat: List[int] = []
            for block_out in outs:
                flat.extend(block_out)
            ledger = array.ledger.as_dict()
            ledger.pop("total")
            result = PerformanceResult(
                workload=f"scrambler-M{mapped.M}-executed",
                payload_bits=len(bits),
                cycles=ledger,
                clock_hz=self.arch.clock_hz,
            )
        record_run_cycles("scrambler", ledger, len(bits))
        op = mapped.op
        record_burst_utilization(op.name, op.n_rows, op.initiation_interval, len(blocks))
        return flat[: len(bits)], result


def _bits_to_int(bits: Sequence[int]) -> int:
    value = 0
    for i, bit in enumerate(bits):
        value |= (bit & 1) << i
    return value
