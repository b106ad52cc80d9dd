"""Execution planner: plans from measured speedups, by one rule.

The paper's §2 mapper prices every look-ahead factor M before a
configuration is committed to the PiCoGA, and it can, because the array
runs at a fixed 200 MHz.  A software host has no such clock, so this
planner predicts nothing.  It plans one workload kind, the batch CRC:
it times that engine on a fixed probe batch, serially and split across
the host's CPUs, and shards only when the measured speedup reaches
:data:`MIN_SPEEDUP`.  A :class:`HostProfile` holds the measurements as
plain data, so tests and the fuzz oracle inject measured hosts and
assert decisions without timing anything.  See ``docs/PLANNER.md``.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ValidationError
from repro.telemetry import (
    bind_families,
    default_flight_recorder,
    default_registry,
    default_tracer,
)

# Bound lazily (see repro.telemetry.bind_families) so swapping the
# default registry after import is observed by every counter below.
_METRICS = bind_families(lambda reg: {
    "probes": reg.counter(
        "engine_planner_probes_total",
        "Planner micro-probes executed, by probe kind",
        labels=("kind",),
    ),
    "plans": reg.counter(
        "engine_planner_plans_total",
        "Execution plans decided, by strategy",
        labels=("strategy",),
    ),
})

#: A sharded plan needs a measured speedup of at least this much over
#: serial: a gain inside the probe's noise never engages the pool.
MIN_SPEEDUP = 1.05

#: The look-ahead factor of a batch plan whose workload pins none (the
#: byte-sliced gather costs the same at every M).
DEFAULT_M = 128

#: The ``backend`` of every ``crc-batch`` plan: the batch CRC runs on the
#: byte-sliced gather.
CRC_BATCH_ENGINE = "byte-sliced"

#: The fixed batch the batch CRC probe times: CRC-32 messages of this
#: many bytes, this many per call.
CRC_PROBE_BYTES = 256
CRC_PROBE_BATCH = 256

#: Timed (serial, sharded) call pairs per probe.
PROBE_ROUNDS = 5

#: Workload kinds the planner understands.
KIND_CRC_BATCH = "crc-batch"
WORKLOAD_KINDS = (KIND_CRC_BATCH,)

#: Plan strategies.
STRATEGY_SERIAL = "serial"
STRATEGY_SHARD_BATCH = "shard-batch"


def _usable_cpus() -> int:
    """CPUs actually schedulable for this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - affinity query denied
            pass
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Host profile: the measurements, as plain data
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=True)
class HostProfile:
    """What the probes measured on one host (or what a test says they did).

    Every field is a plain number or a dict of numbers, so a profile
    compares by value and ``HostProfile(**dataclasses.asdict(profile))``
    rebuilds it.

    ``cpus``
        Usable CPUs (affinity-aware).
    ``speedup``
        Per sharded probe kind (``crc-batch``): the median,
        over the probe's rounds, of serial time ÷ sharded time, pool
        dispatch included.  Below 1.0 sharding loses.
    ``crc_batch_bits_per_s`` / ``dispatch_s``
        The batch CRC probe's best serial rate and its pool's per-shard
        empty-dispatch time (:meth:`Planner.plan_serve_batch` reads
        them); ``0.0`` marks them unmeasured.
    """

    cpus: int
    speedup: Dict[str, float] = field(default_factory=dict)
    crc_batch_bits_per_s: float = 0.0
    dispatch_s: float = 0.0

    def __post_init__(self):
        if self.cpus < 1:
            raise ValidationError(f"profile needs >= 1 cpu, got {self.cpus}")
        for name, value in self.speedup.items():
            if value <= 0:
                raise ValidationError(
                    f"measured {name!r} must be > 0, got {value}"
                )
        if self.crc_batch_bits_per_s < 0 or self.dispatch_s < 0:
            raise ValidationError(
                f"batch CRC rate and dispatch time must be >= 0, got "
                f"{self.crc_batch_bits_per_s} and {self.dispatch_s}"
            )


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def _count_probe(kind: str) -> None:
    """Publish one probe execution to telemetry (if enabled)."""
    if default_registry().enabled:
        _METRICS()["probes"].labels(kind=kind).inc()


def _time_pair(
    serial: Callable[[], object],
    sharded: Callable[[], object],
    timer: Callable[[], float],
    rounds: int,
) -> Tuple[float, float]:
    """(median serial ÷ sharded time, best serial time) over ``rounds``
    back-to-back call pairs.

    One untimed call of each comes first, so compiles, first numpy calls
    and the pool's thread start stay off the clock; the sharded time
    keeps its dispatch.
    """
    serial()
    sharded()
    ratios, best = [], float("inf")
    for _ in range(rounds):
        t0 = timer()
        serial()
        t1 = timer()
        sharded()
        t2 = timer()
        ratios.append(max(t1 - t0, 1e-9) / max(t2 - t1, 1e-9))
        best = min(best, max(t1 - t0, 1e-9))
    return statistics.median(ratios), best


def _probe_crc_batch(
    profile: HostProfile, timer: Callable[[], float], rounds: int
) -> HostProfile:
    """``profile`` with the batch CRC engine's speedup measured.

    Times :class:`~repro.engine.parallel.ParallelBatchCRC` on
    :data:`CRC_PROBE_BATCH` CRC-32 messages of :data:`CRC_PROBE_BYTES`
    with one worker and with ``max(2, cpus)``, then the best of ``rounds``
    empty dispatches on the sharded engine's pool.
    """
    from repro.crc import ETHERNET_CRC32
    from repro.engine.parallel import ParallelBatchCRC

    messages = [bytes(i % 256 for i in range(CRC_PROBE_BYTES))] * CRC_PROBE_BATCH
    workers = max(2, profile.cpus)
    serial = ParallelBatchCRC(ETHERNET_CRC32, DEFAULT_M, workers=1)
    with ParallelBatchCRC(ETHERNET_CRC32, DEFAULT_M, workers=workers) as sharded:
        speedup, serial_s = _time_pair(
            lambda: serial.compute_batch(messages),
            lambda: sharded.compute_batch(messages),
            timer,
            rounds,
        )
        empty = [("0",)] * workers
        dispatch_s = float("inf")
        for _ in range(rounds):
            t0 = timer()
            sharded.pool.run(int, empty)
            dispatch_s = min(dispatch_s, (timer() - t0) / workers)
    _count_probe(KIND_CRC_BATCH)
    return replace(
        profile,
        speedup={**profile.speedup, KIND_CRC_BATCH: speedup},
        crc_batch_bits_per_s=8 * CRC_PROBE_BYTES * CRC_PROBE_BATCH / serial_s,
        dispatch_s=dispatch_s,
    )


def probe_host(
    timer: Callable[[], float] = time.perf_counter,
    reps: int = PROBE_ROUNDS,
) -> HostProfile:
    """Every measurement at once: the batch CRC probe, ``reps`` rounds.

    ``timer`` is the clock the probe reads; tests inject a fake one to
    make the whole pass deterministic.  A :class:`Planner` without a
    profile probes the first time a decision reads the measurement.
    """
    if reps < 1:
        raise ValidationError(f"probe reps must be >= 1, got {reps}")
    return _probe_crc_batch(HostProfile(cpus=_usable_cpus()), timer, reps)


# ----------------------------------------------------------------------
# Workload descriptor + execution plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadDescriptor:
    """What is about to run.

    ``message_bits`` is the (average) payload length per message;
    ``batch`` the messages per batch call.  ``M`` pins the look-ahead
    factor when the caller has already chosen one (``None`` takes
    :data:`DEFAULT_M`).
    """

    kind: str
    standard: str
    message_bits: int
    batch: int = 1
    M: Optional[int] = None

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise ValidationError(
                f"workload kind must be one of {WORKLOAD_KINDS}, got {self.kind!r}"
            )
        if self.message_bits < 0:
            raise ValidationError(
                f"message_bits must be >= 0, got {self.message_bits}"
            )
        if self.batch < 1:
            raise ValidationError(f"batch must be >= 1, got {self.batch}")
        if self.M is not None and self.M < 1:
            raise ValidationError(f"M must be >= 1, got {self.M}")

    @property
    def total_bits(self) -> int:
        """Payload bits one batch call moves."""
        return self.message_bits * self.batch


@dataclass(frozen=True)
class ExecutionPlan:
    """The planner's decision: how one workload should execute.

    ``mode`` is ``"thread"`` for a sharded plan, ``"serial"`` when
    ``workers == 1``.
    """

    workload: WorkloadDescriptor
    backend: str
    workers: int
    mode: str
    M: int
    strategy: str

    @property
    def is_serial(self) -> bool:
        """Whether the plan degenerates to the serial engine."""
        return self.workers == 1


#: Serve-protocol ops per message (open-stream / feed-chunk / read-digest)
#: — the unit the micro-batch model spreads a message's engine time over.
SERVE_OPS_PER_MESSAGE = 3


@dataclass(frozen=True)
class MicroBatchPlan:
    """The planner's micro-batching decision for a serve workload.

    ``enabled=False`` means the modeled speedup never clears
    :data:`MIN_SPEEDUP` (engine-bound messages — handoffs are noise) and
    a host should keep its serial path.
    ``crossover_occupancy`` is the smallest round size that pays: below
    it the batcher flushes eagerly, so a lone client keeps serial-path
    latency.  See :meth:`Planner.plan_serve_batch` for the model.
    """

    enabled: bool
    max_batch: int
    linger_s: float
    crossover_occupancy: int
    predicted_speedup: float


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------
class Planner:
    """Plans workloads from one host's measured speedups.

    With an injected ``profile`` the planner never times anything, so
    tests assert decisions on plain data; a kind the profile lacks raises
    :class:`~repro.errors.ValidationError`.  Without one it measures this
    host: the CPUs at construction, and each kind's probe the first time
    a decision reads it.  ``min_shard_bits`` is the engines' shard
    floor: a smaller payload plans serial.
    """

    def __init__(
        self,
        profile: Optional[HostProfile] = None,
        min_shard_bits: int = 4096,
    ):
        if min_shard_bits < 1:
            raise ValidationError(
                f"min_shard_bits must be >= 1, got {min_shard_bits}"
            )
        self._probing = profile is None
        self._profile = HostProfile(cpus=_usable_cpus()) if profile is None else profile
        self._min_shard_bits = int(min_shard_bits)
        self._plans: Dict[WorkloadDescriptor, ExecutionPlan] = {}
        self._microbatch: Dict[WorkloadDescriptor, MicroBatchPlan] = {}

    @property
    def profile(self) -> HostProfile:
        """The measurements so far (or the injected profile)."""
        return self._profile

    def _measured(self) -> HostProfile:
        """The profile with the batch CRC probe measured, probing it once
        if this planner measures its host."""
        profile = self._profile
        if KIND_CRC_BATCH not in profile.speedup:
            if not self._probing:
                raise ValidationError(
                    f"host profile has no {KIND_CRC_BATCH} measurement"
                )
            profile = self._profile = _probe_crc_batch(
                profile, time.perf_counter, PROBE_ROUNDS
            )
        return profile

    def _decide(self, workload: WorkloadDescriptor) -> ExecutionPlan:
        """The rule (see the module docstring)."""
        workers = min(self._profile.cpus, workload.batch)
        shard = (
            workers >= 2
            and workload.total_bits >= self._min_shard_bits
            and self._measured().speedup[KIND_CRC_BATCH] >= MIN_SPEEDUP
        )
        return ExecutionPlan(
            workload=workload,
            backend=CRC_BATCH_ENGINE,
            workers=workers if shard else 1,
            mode="thread" if shard else "serial",
            M=DEFAULT_M if workload.M is None else workload.M,
            strategy=STRATEGY_SHARD_BATCH if shard else STRATEGY_SERIAL,
        )

    def plan(self, workload: WorkloadDescriptor) -> ExecutionPlan:
        """The execution plan for a workload, memoized per workload.

        The decision (with any probe it runs) is recorded as a
        ``planner.plan`` span and a ``plan`` flight event, and counted
        on ``engine_planner_plans_total{strategy=...}``.
        """
        plan = self._plans.get(workload)
        if plan is not None:
            return plan
        with default_tracer().span(
            "planner.plan",
            standard=workload.standard,
            kind=workload.kind,
        ) as span:
            plan = self._decide(workload)
            decision = dict(
                strategy=plan.strategy,
                backend=plan.backend,
                workers=plan.workers,
                M=plan.M,
            )
            if span is not None:
                span.attributes.update(decision)
        if default_registry().enabled:
            _METRICS()["plans"].labels(strategy=plan.strategy).inc()
        recorder = default_flight_recorder()
        if recorder.enabled:
            recorder.record(
                "plan",
                f"{workload.standard}/{workload.kind} -> {plan.strategy}",
                **decision,
            )
        self._plans[workload] = plan
        return plan

    def plan_serve_batch(
        self, workload: WorkloadDescriptor
    ) -> MicroBatchPlan:
        """The micro-batching decision for a serve-path workload.

        :class:`~repro.serve.ReproServer` no longer consults it: the
        server calls its pipeline inline on the event loop.  It stays
        for hosts of a library :class:`~repro.engine.MicroBatcher`.

        Models the per-op handoff cost (the batch CRC probe's per-shard
        empty dispatch) against the per-op engine time implied by the
        workload's message size and the probe's serial rate.  A round of
        occupancy ``B`` pays one handoff for ``B`` ops, so the modeled
        speedup at occupancy B is::

            speedup(B) = (dispatch + op_s) / (dispatch / B + op_s)

        The **crossover occupancy** is the smallest B clearing
        :data:`MIN_SPEEDUP` — below it the batcher must flush eagerly so
        a lone client keeps the serial path's p50.  ``max_batch`` is the
        smallest rung capturing ≥95% of the asymptotic speedup (bigger
        rounds only add latency), and a non-zero linger is granted only
        when handoffs dominate engine time (continuous batching already
        self-lingers for the engine-bound case).  Memoized per workload.
        """
        cached = self._microbatch.get(workload)
        if cached is not None:
            return cached
        profile = self._measured()
        if profile.crc_batch_bits_per_s <= 0:
            raise ValidationError("host profile has no batch CRC rate")
        dispatch = profile.dispatch_s
        op_s = (
            max(workload.message_bits, 1)
            / profile.crc_batch_bits_per_s
            / SERVE_OPS_PER_MESSAGE
        )

        def speedup(B: int) -> float:
            return (dispatch + op_s) / (dispatch / B + op_s)

        ladder = tuple(2 ** k for k in range(9))  # 1..256
        crossover = next((B for B in ladder if speedup(B) >= MIN_SPEEDUP), 0)
        if crossover == 0:
            plan = MicroBatchPlan(
                enabled=False,
                max_batch=1,
                linger_s=0.0,
                crossover_occupancy=0,
                predicted_speedup=speedup(ladder[-1]),
            )
        else:
            asymptote = speedup(ladder[-1])
            max_batch = next(
                B for B in ladder if speedup(B) >= 0.95 * asymptote
            )
            max_batch = max(max_batch, crossover)
            # Handoff-dominated ops benefit from a short straggler
            # window; engine-bound ops get their window for free from
            # round execution time itself.
            linger_s = min(2.0 * dispatch, 5e-4) if dispatch > op_s else 0.0
            plan = MicroBatchPlan(
                enabled=True,
                max_batch=max_batch,
                linger_s=linger_s,
                crossover_occupancy=crossover,
                predicted_speedup=speedup(max_batch),
            )
        recorder = default_flight_recorder()
        if recorder.enabled:
            recorder.record(
                "plan-microbatch",
                f"{workload.standard}/{workload.kind} -> "
                + (f"batch B={plan.max_batch}" if plan.enabled else "serial"),
                **asdict(plan),
            )
        self._microbatch[workload] = plan
        return plan


_DEFAULT_PLANNER: Optional[Planner] = None


def default_planner() -> Planner:
    """The process-wide planner, measuring this host.

    Each kind is probed once per process, the first time a decision
    reads it; nothing is kept across processes.
    """
    global _DEFAULT_PLANNER
    if _DEFAULT_PLANNER is None:
        _DEFAULT_PLANNER = Planner()
    return _DEFAULT_PLANNER
