"""Adaptive execution planner: a measured cost model + deterministic solver.

The paper's §2 "Matlab program" explores the design space *before*
committing a configuration to the PiCoGA: for each candidate parallelism
degree M it predicts cost and throughput, and only the winning point is
compiled.  The software stack had no such step, and ``BENCH_5`` shows the
price: ``engine_parallel`` measured **0.79x vs serial** on a 1-CPU host
because the user had to hand-pick backend x workers x shard plan x M and
picked wrong.  This module is that mapper turned into a production
autotuner, split into the two halves that make it testable:

* **Measurement** (:func:`probe_host`) — per-host micro-probes for
  backend kernel throughput, the batch CRC engine's serial rate and
  thread-shard gain, thread-pool spawn overhead, per-shard dispatch cost
  and shard-recombination (``x^k mod G``) cost.  The
  result is a :class:`HostProfile`: *plain data*, serializable,
  persisted in the :class:`~repro.engine.diskcache.DiskCompileCache`
  under a host fingerprint so one probe pass serves
  every later process on the same machine.  Every probe takes an
  injectable ``timer``, so tests drive them with a fake clock.

* **Decision** (:class:`Planner`) — a deterministic solver over a
  :class:`WorkloadDescriptor` (standard, message size, batch, streams).
  Given a profile it enumerates backend x workers x M candidates (for
  ``crc-batch``, workers alone: the byte-sliced gather has no backend),
  predicts each one's wall time from the cost tables alone (no timing at
  plan time), and returns an :class:`ExecutionPlan`.  A parallel plan is
  chosen **only** when it is predicted to beat the best serial plan by
  ``min_speedup`` (default 1.05x) — so on a 1-CPU profile the planner
  returns ``workers=1`` by construction, eliminating the BENCH_5
  regression class rather than detecting it after the fact.

Because profiles are plain data, tests feed synthetic hosts (1-CPU
laptop, 16-core server, slow-spawn pool) and assert the chosen
plan without timing anything; see ``tests/test_engine_planner.py`` and
``docs/PLANNER.md`` for the cost-model terms and a worked decision trace.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
    "cache": reg.counter(
        "engine_planner_cache_total",
        "Planner cache operations (profile/plan layers), by result",
        labels=("kind", "result"),
    ),
    "prediction": reg.histogram(
        "engine_planner_prediction_ratio",
        "Actual / predicted throughput ratio for executed plans",
        labels=("strategy",),
        buckets=(0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 4.0),
    ),
})

#: Disk-cache envelope key for the persisted host profile.  The profile
#: embeds its own fingerprint; a mismatch on load (new kernel, different
#: CPU count, upgraded numpy) is counted and triggers a re-probe.
PROFILE_KEY = ("planner-profile",)

#: Format version folded into persisted profile/plan payloads; bump on
#: any cost-model or schema change to orphan stale entries.
#: v2: keystream cost tables (``keystream_bits_per_s``) + the
#: ``keystream`` workload kind.  v3: thread-only pool costs (no
#: ``backend_mode``, process or pickle terms).  v4: ``crc-batch`` priced
#: from the probed batch CRC engine (``crc_batch_bits_per_s``,
#: ``crc_shard_gain``) instead of the packed matvec rate.  v5:
#: ``crc-stream`` priced the same way (``CRCPipeline`` runs the byte
#: table and the byte-sliced gather, not the packed product).
PLANNER_VERSION = 5

#: Look-ahead factors the solver considers when the workload doesn't pin M.
M_CANDIDATES = (8, 16, 32, 64, 128)

#: Modeling constant: fixed per-block cost of one kernel invocation,
#: expressed in equivalent payload bits.  Folded into the M-efficiency
#: term ``M / (M + BLOCK_OVERHEAD_BITS)`` — larger M amortizes the fixed
#: cost, which is why the paper's mapper pushes M up until area runs out.
BLOCK_OVERHEAD_BITS = 32.0

#: Backends whose kernels release the GIL, so thread shards overlap.
#: Every other backend (the pure-Python ``reference``) plans serial.
THREAD_BACKENDS = ("packed",)

#: The ``backend`` of every ``crc-batch`` and ``crc-stream`` candidate:
#: the batch CRC and the pipeline run on the byte-sliced gather, whatever
#: GF(2) backend is selected.
CRC_BATCH_ENGINE = "byte-sliced"

#: The fixed batch :func:`probe_host` times the batch CRC engine on:
#: CRC-32 messages of this many bytes, this many per call.
CRC_PROBE_BYTES = 256
CRC_PROBE_BATCH = 256

#: Workload kinds the solver understands.
KIND_CRC_BATCH = "crc-batch"
KIND_CRC_STREAM = "crc-stream"
KIND_SCRAMBLER_BATCH = "scrambler-batch"
KIND_KEYSTREAM = "keystream"
WORKLOAD_KINDS = (
    KIND_CRC_BATCH,
    KIND_CRC_STREAM,
    KIND_SCRAMBLER_BATCH,
    KIND_KEYSTREAM,
)
#: The kinds priced from the probed batch CRC engine.
_CRC_KINDS = (KIND_CRC_BATCH, KIND_CRC_STREAM)

#: Keystream sources the planner knows how to cost (see
#: :mod:`repro.lfsr.wordlfsr` and :mod:`repro.lfsr.reference`).  These are
#: serial generators, so their candidates never shard.
KEYSTREAM_SOURCES = ("galois-bitserial", "word32", "word64")

#: Plan strategies.
STRATEGY_SERIAL = "serial"
STRATEGY_SHARD_BATCH = "shard-batch"
STRATEGY_SHARD_TIME = "shard-time"


def host_fingerprint() -> str:
    """A stable identity for "this host, this toolchain".

    Cost tables measured under one fingerprint must not be trusted under
    another: a different CPU count changes the parallel frontier, a
    different interpreter or numpy changes kernel throughput.  The
    fingerprint is deliberately coarse — it names the regime, not the
    exact clock speed (run-to-run noise is the cost model's margin to
    absorb, see ``min_speedup``).
    """
    try:
        import numpy as np

        numpy_version = np.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = "none"
    cpus = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        try:
            cpus = len(os.sched_getaffinity(0)) or cpus
        except OSError:  # pragma: no cover - affinity query denied
            pass
    parts = (
        platform.system(),
        platform.machine(),
        f"py{sys.version_info.major}.{sys.version_info.minor}",
        f"np{numpy_version}",
        f"cpu{cpus}",
        f"v{PLANNER_VERSION}",
    )
    return "-".join(parts)


def _usable_cpus() -> int:
    """CPUs actually schedulable for this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - affinity query denied
            pass
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Host profile: the cost tables, as plain data
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=True)
class HostProfile:
    """Measured (or synthetic) cost tables for one host.

    Every field is a plain float/int/str container so a profile pickles,
    JSON-serializes and compares by value; the solver consumes nothing
    else.  Units:

    ``backend_bits_per_s``
        Steady-state kernel throughput per backend name (payload bits
        per second through the batched matvec path); prices
        ``scrambler-batch``.
    ``crc_batch_bits_per_s`` / ``crc_shard_gain``
        Payload bits per second of one serial
        :meth:`~repro.engine.batch.BatchCRC.compute_batch` call, and the
        throughput of the same batch split over two thread shards relative
        to it (2.0 = perfect scaling, below 1.0 = sharding loses); they
        price ``crc-batch`` and ``crc-stream``.  ``0.0`` marks an
        unmeasured rate.
    ``spawn_s`` / ``dispatch_s``
        One-time thread-pool start cost and per-shard submit/collect
        cost.
    ``recombine_s``
        Per-shard ``x^k mod G`` carry-less-multiply fold cost (paid only
        by time-axis sharding).
    ``keystream_bits_per_s``
        Serial keystream generator throughput per source name (the
        :data:`KEYSTREAM_SOURCES` engines: bit-serial Galois reference
        vs the word-oriented σ-LFSRs).
    """

    fingerprint: str
    cpus: int
    backend_bits_per_s: Dict[str, float] = field(default_factory=dict)
    spawn_s: float = 0.0
    dispatch_s: float = 0.0
    recombine_s: float = 0.0
    block_overhead_bits: float = BLOCK_OVERHEAD_BITS
    keystream_bits_per_s: Dict[str, float] = field(default_factory=dict)
    crc_batch_bits_per_s: float = 0.0
    crc_shard_gain: float = 2.0

    def __post_init__(self):
        if self.cpus < 1:
            raise ValidationError(f"profile needs >= 1 cpu, got {self.cpus}")
        if not self.backend_bits_per_s:
            raise ValidationError("profile needs at least one backend rate")
        for name, rate in self.backend_bits_per_s.items():
            if rate <= 0:
                raise ValidationError(
                    f"backend {name!r} rate must be > 0, got {rate}"
                )
        for name, rate in self.keystream_bits_per_s.items():
            if rate <= 0:
                raise ValidationError(
                    f"keystream source {name!r} rate must be > 0, got {rate}"
                )
        if self.crc_batch_bits_per_s < 0 or self.crc_shard_gain <= 0:
            raise ValidationError(
                f"batch CRC rate must be >= 0 and shard gain > 0, got "
                f"{self.crc_batch_bits_per_s} and {self.crc_shard_gain}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def synthetic(
        cls,
        cpus: int,
        fingerprint: str = "synthetic",
        packed_bits_per_s: float = 2.0e9,
        reference_bits_per_s: Optional[float] = 8.0e6,
        thread_spawn_s: float = 2e-4,
        thread_dispatch_s: float = 5e-5,
        recombine_s: float = 2e-5,
        block_overhead_bits: float = BLOCK_OVERHEAD_BITS,
        keystream_bits_per_s: Optional[Dict[str, float]] = None,
        crc_batch_bits_per_s: float = 1.6e9,
        crc_shard_gain: float = 2.0,
    ) -> "HostProfile":
        """A ready-made profile for tests and documentation examples.

        Defaults approximate the BENCH_5 container (packed backend ~2
        Gbit/s, reference ~300x slower); every term is overridable so a
        test can dial in a "slow-spawn pool" or "GIL-bound host" shape
        without reciting the whole table.  ``keystream_bits_per_s``
        defaults to the measured ordering on that container: word-oriented
        σ-LFSRs tens of times faster than the bit-serial register.  The
        batch CRC defaults (1.6 Gbit/s, perfect two-shard scaling) price
        ``crc-batch`` as the packed default did at M = 128, so the canned
        decision tables keep their decisions.
        """
        if keystream_bits_per_s is None:
            keystream_bits_per_s = {
                "galois-bitserial": 1.5e6,
                "word32": 4.0e7,
                "word64": 8.0e7,
            }
        rates = {"packed": float(packed_bits_per_s)}
        if reference_bits_per_s is not None:
            rates["reference"] = float(reference_bits_per_s)
        return cls(
            fingerprint=fingerprint,
            cpus=cpus,
            backend_bits_per_s=rates,
            spawn_s=thread_spawn_s,
            dispatch_s=thread_dispatch_s,
            recombine_s=recombine_s,
            block_overhead_bits=block_overhead_bits,
            keystream_bits_per_s={
                str(k): float(v) for k, v in keystream_bits_per_s.items()
            },
            crc_batch_bits_per_s=float(crc_batch_bits_per_s),
            crc_shard_gain=float(crc_shard_gain),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain-dict form, stable across processes (for persistence)."""
        return {
            "version": PLANNER_VERSION,
            "fingerprint": self.fingerprint,
            "cpus": self.cpus,
            "backend_bits_per_s": dict(self.backend_bits_per_s),
            "spawn_s": self.spawn_s,
            "dispatch_s": self.dispatch_s,
            "recombine_s": self.recombine_s,
            "block_overhead_bits": self.block_overhead_bits,
            "keystream_bits_per_s": dict(self.keystream_bits_per_s),
            "crc_batch_bits_per_s": self.crc_batch_bits_per_s,
            "crc_shard_gain": self.crc_shard_gain,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HostProfile":
        """Rebuild a profile; raises ValidationError on schema skew."""
        try:
            if int(data["version"]) != PLANNER_VERSION:
                raise ValidationError(
                    f"profile version {data['version']} != {PLANNER_VERSION}"
                )
            return cls(
                fingerprint=str(data["fingerprint"]),
                cpus=int(data["cpus"]),
                backend_bits_per_s={
                    str(k): float(v)
                    for k, v in data["backend_bits_per_s"].items()
                },
                spawn_s=float(data["spawn_s"]),
                dispatch_s=float(data["dispatch_s"]),
                recombine_s=float(data["recombine_s"]),
                block_overhead_bits=float(data["block_overhead_bits"]),
                keystream_bits_per_s={
                    str(k): float(v)
                    for k, v in data["keystream_bits_per_s"].items()
                },
                crc_batch_bits_per_s=float(data["crc_batch_bits_per_s"]),
                crc_shard_gain=float(data["crc_shard_gain"]),
            )
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"malformed host profile record: {exc}") from None

    def describe(self) -> str:
        """One-line human summary for CLI decision traces."""
        rates = ", ".join(
            f"{name}={rate:.3g}"
            for name, rate in sorted(self.backend_bits_per_s.items())
        )
        return (
            f"{self.cpus} cpu(s), backends [{rates}] bits/s, "
            f"batch CRC {self.crc_batch_bits_per_s:.3g} bits/s "
            f"(x{self.crc_shard_gain:.2f} on 2 shards), "
            f"pool spawn={self.spawn_s:.2g}s ({self.fingerprint})"
        )


# ----------------------------------------------------------------------
# Micro-probes
# ----------------------------------------------------------------------
def _count_probe(kind: str) -> None:
    """Publish one probe execution to telemetry (if enabled)."""
    if default_registry().enabled:
        _METRICS()["probes"].labels(kind=kind).inc()


def _probe_backend_rate(
    name: str, timer: Callable[[], float], reps: int
) -> float:
    """Payload bits/s through one backend's batched matvec path."""
    import numpy as np

    from repro.gf2.backend import get_backend

    backend = get_backend(name)
    k, batch = 32, 256
    rng = np.random.default_rng(12345)
    A = rng.integers(0, 2, size=(k, k)).astype(np.uint8)
    block = rng.integers(0, 2, size=(k, batch)).astype(np.uint8)
    packed = backend.pack(block)
    backend.matvec_batch(A, packed)  # warm any lazy setup off the clock
    t0 = timer()
    for _ in range(reps):
        backend.matvec_batch(A, packed)
    elapsed = max(timer() - t0, 1e-9)
    _count_probe(f"backend-{name}")
    return reps * k * batch / elapsed


def _probe_thread_costs(timer: Callable[[], float], reps: int):
    """(spawn_s, per-shard dispatch_s, the last pool) for the thread pool.

    The spawn cost is the best of ``reps`` pool starts: every sharded
    candidate pays it on every call, so one start that a busy host
    delayed (11 ms against a typical 0.5-0.8 ms) would otherwise price
    sharding out of every plan.  The last two-worker pool is returned
    running, for :func:`_probe_crc_batch`; the caller closes it.
    """
    from repro.engine.parallel import WorkerPool

    spawn = float("inf")
    for rep in range(reps):
        t0 = timer()
        pool = WorkerPool(2)
        pool.run(int, [("0",)])  # forces executor + thread start
        spawn = min(spawn, max(timer() - t0, 1e-9))
        if rep < reps - 1:
            pool.close()
    t0 = timer()
    for _ in range(reps):
        pool.run(int, [("1",), ("2",)])
    dispatch = max(timer() - t0, 1e-9) / (2 * reps)
    _count_probe("spawn-thread")
    return spawn, dispatch, pool


def _probe_crc_batch(
    timer: Callable[[], float], reps: int, pool
) -> Tuple[float, float]:
    """(bits/s, two-shard gain) of the batch CRC engine on the probe batch.

    Times :meth:`~repro.engine.batch.BatchCRC.compute_batch` on
    :data:`CRC_PROBE_BATCH` CRC-32 messages of :data:`CRC_PROBE_BYTES`,
    then the same batch halved over the warm two-worker ``pool``, as
    :class:`~repro.engine.parallel.ParallelBatchCRC` shards it, then an
    empty two-shard dispatch, ``max(reps, 5)`` rounds.  The rate is the
    best serial call.  A round's gain is its serial time over its sharded
    time less the best dispatch (which the solver charges apart), capped
    at perfect scaling (2.0), and the gain is the rounds' median: a burst
    that slows one round's calls cannot price sharding in.
    """
    from repro.crc import ETHERNET_CRC32
    from repro.engine.batch import BatchCRC

    engine = BatchCRC(ETHERNET_CRC32, M_CANDIDATES[-1])
    messages = [bytes(i % 256 for i in range(CRC_PROBE_BYTES))] * CRC_PROBE_BATCH
    half = CRC_PROBE_BATCH // 2
    shards = [(messages[:half],), (messages[half:],)]
    engine.compute_batch(messages)  # first-call numpy costs off the clock
    rounds = []
    for _ in range(max(reps, 5)):
        t0 = timer()
        engine.compute_batch(messages)
        t1 = timer()
        pool.run(engine.compute_batch, shards)
        t2 = timer()
        pool.run(int, [("1",), ("2",)])
        t3 = timer()
        rounds.append((max(t1 - t0, 1e-9), t2 - t1, t3 - t2))
    serial = min(one for one, _, _ in rounds)
    dispatch = min(empty for _, _, empty in rounds)
    gain = statistics.median(
        one / max(two - dispatch, one / 2) for one, two, _ in rounds
    )
    _count_probe("crc-batch")
    return 8 * CRC_PROBE_BYTES * CRC_PROBE_BATCH / serial, gain


def _probe_recombine(timer: Callable[[], float], reps: int) -> float:
    """Per-shard ``x^k mod G`` fold cost (CRC-32 generator, k=4096)."""
    from repro.gf2.clmul import clmulmod, clpowmod

    g = (1 << 32) | 0x04C11DB7
    xk = clpowmod(2, 4096, g)
    acc = 0x12345678
    t0 = timer()
    for _ in range(reps):
        acc = clmulmod(acc, xk, g) ^ 0x9E3779B9
    elapsed = max(timer() - t0, 1e-9)
    _count_probe("recombine")
    return elapsed / reps


def _probe_keystream_rates(
    timer: Callable[[], float], reps: int
) -> Dict[str, float]:
    """Bits/s of each serial keystream source in :data:`KEYSTREAM_SOURCES`.

    The word-oriented engines are probed through their byte hot path
    (:meth:`~repro.lfsr.wordlfsr.WordLFSR.keystream_bytes`); the
    bit-serial baseline walks :class:`~repro.lfsr.reference.GaloisLFSR`
    for proportionally fewer bits, since it is the one the word engines
    are gated ≥20x against.
    """
    from repro.gf2.polynomial import GF2Polynomial
    from repro.lfsr.reference import GaloisLFSR
    from repro.lfsr.wordlfsr import WORD32, WORD64, WordLFSR, seed_words_from_bytes

    rates: Dict[str, float] = {}
    nbytes = 2048
    for spec in (WORD32, WORD64):
        seed = seed_words_from_bytes(spec, b"planner-probe")
        engine = WordLFSR(spec, seed)
        engine.keystream_bytes(64)  # warm the specialized loop off the clock
        t0 = timer()
        for _ in range(reps):
            engine.keystream_bytes(nbytes)
        elapsed = max(timer() - t0, 1e-9)
        rates[spec.name] = reps * 8 * nbytes / elapsed
        _count_probe(f"keystream-{spec.name}")
    poly = GF2Polynomial.from_exponents([31, 28, 0])  # PRBS-31 generator
    nbits = 2048
    t0 = timer()
    for _ in range(reps):
        GaloisLFSR(poly, 1).keystream(nbits)
    elapsed = max(timer() - t0, 1e-9)
    rates["galois-bitserial"] = reps * nbits / elapsed
    _count_probe("keystream-galois-bitserial")
    return rates


def probe_host(
    backends: Optional[Sequence[str]] = None,
    timer: Callable[[], float] = time.perf_counter,
    reps: int = 3,
) -> HostProfile:
    """Measure this host's cost tables with bounded micro-probes.

    ``backends`` defaults to every registered GF(2) backend.  ``timer``
    is the clock every probe reads; tests inject a fake one to make the
    whole pass deterministic.  The returned profile embeds the current
    :func:`host_fingerprint`.
    """
    if backends is None:
        from repro.gf2.backend import available_backends

        backends = available_backends()
    if reps < 1:
        raise ValidationError(f"probe reps must be >= 1, got {reps}")
    rates: Dict[str, float] = {}
    for name in backends:
        # The reference bit-loop is ~300x slower; one rep is plenty.
        backend_reps = reps if name == "packed" else 1
        rates[name] = _probe_backend_rate(name, timer, backend_reps)
    spawn, dispatch, pool = _probe_thread_costs(timer, reps)
    with pool:
        crc_rate, crc_gain = _probe_crc_batch(timer, reps, pool)
    return HostProfile(
        fingerprint=host_fingerprint(),
        cpus=_usable_cpus(),
        backend_bits_per_s=rates,
        spawn_s=spawn,
        dispatch_s=dispatch,
        recombine_s=_probe_recombine(timer, max(reps, 8)),
        keystream_bits_per_s=_probe_keystream_rates(timer, reps),
        crc_batch_bits_per_s=crc_rate,
        crc_shard_gain=crc_gain,
    )


def get_profile(
    disk=None,
    prober: Optional[Callable[[], HostProfile]] = None,
    refresh: bool = False,
) -> HostProfile:
    """The host profile, loading from ``disk`` when it matches this host.

    A stored profile is trusted only if its embedded fingerprint equals
    the current :func:`host_fingerprint`; any mismatch (new container
    image, different CPU budget, upgraded numpy) is counted on
    ``engine_planner_cache_total{kind="profile",result="mismatch"}`` and
    triggers a fresh probe pass whose result replaces the stale entry.
    ``prober`` overrides :func:`probe_host` (tests inject a stub);
    ``refresh=True`` forces a re-probe unconditionally.
    """
    fingerprint = host_fingerprint()
    if disk is not None and not refresh:
        found, data = disk.load(PROFILE_KEY)
        if found:
            try:
                stored = HostProfile.from_dict(data)
            except ValidationError:
                stored = None
            if stored is not None and stored.fingerprint == fingerprint:
                if default_registry().enabled:
                    _METRICS()["cache"].labels(kind="profile", result="hit").inc()
                return stored
            if default_registry().enabled:
                _METRICS()["cache"].labels(kind="profile", result="mismatch").inc()
        elif default_registry().enabled:
            _METRICS()["cache"].labels(kind="profile", result="miss").inc()
    profile = (prober or probe_host)()
    if disk is not None:
        disk.store(PROFILE_KEY, profile.to_dict())
    return profile


# ----------------------------------------------------------------------
# Workload descriptor + execution plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadDescriptor:
    """What is about to run, in the units the cost model predicts from.

    ``message_bits`` is the (average) payload length per message/stream;
    ``batch`` the messages per batch call; ``streams`` the concurrent
    stream count for pipeline workloads.  ``M`` pins the look-ahead
    factor when the caller has already chosen one (``None`` lets the
    solver pick from :data:`M_CANDIDATES`).  ``warm_cache`` states
    whether compile artifacts are expected resident (they are, after the
    first batch; cold-start costs live in the disk-cache gate, not here).
    """

    kind: str
    standard: str
    message_bits: int
    batch: int = 1
    streams: int = 1
    M: Optional[int] = None
    warm_cache: bool = True

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise ValidationError(
                f"workload kind must be one of {WORKLOAD_KINDS}, got {self.kind!r}"
            )
        if self.message_bits < 0:
            raise ValidationError(
                f"message_bits must be >= 0, got {self.message_bits}"
            )
        if self.batch < 1 or self.streams < 1:
            raise ValidationError("batch and streams must be >= 1")
        if self.M is not None and self.M < 1:
            raise ValidationError(f"M must be >= 1, got {self.M}")

    @property
    def total_bits(self) -> int:
        """Payload bits one batch call (or pump cycle) moves."""
        if self.kind == KIND_CRC_STREAM:
            return self.message_bits * self.streams
        return self.message_bits * self.batch

    @property
    def shardable_items(self) -> int:
        """Independent units the batch dimension can split into."""
        if self.kind == KIND_CRC_STREAM:
            return self.streams
        return self.batch

    def key(self) -> Tuple:
        """Hashable identity used by the plan caches."""
        return (
            self.kind,
            self.standard,
            self.message_bits,
            self.batch,
            self.streams,
            self.M,
            self.warm_cache,
        )

    def to_dict(self) -> Dict:
        """Plain-dict form for persistence and reports."""
        return {
            "kind": self.kind,
            "standard": self.standard,
            "message_bits": self.message_bits,
            "batch": self.batch,
            "streams": self.streams,
            "M": self.M,
            "warm_cache": self.warm_cache,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadDescriptor":
        """Rebuild a descriptor; raises ValidationError on bad records."""
        try:
            return cls(
                kind=str(data["kind"]),
                standard=str(data["standard"]),
                message_bits=int(data["message_bits"]),
                batch=int(data.get("batch", 1)),
                streams=int(data.get("streams", 1)),
                M=None if data.get("M") is None else int(data["M"]),
                warm_cache=bool(data.get("warm_cache", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed workload record: {exc}") from None

    def describe(self) -> str:
        """One-line human summary for CLI decision traces."""
        extra = (
            f" streams={self.streams}"
            if self.kind == KIND_CRC_STREAM
            else f" B={self.batch}"
        )
        m = f" M={self.M}" if self.M is not None else ""
        return f"{self.kind} {self.standard}{extra} x {self.message_bits} bits{m}"


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the explored design space, with its predicted time."""

    backend: str
    workers: int
    mode: str
    M: int
    strategy: str
    predicted_s: float

    def to_dict(self) -> Dict:
        """Plain-dict form for decision traces."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "mode": self.mode,
            "M": self.M,
            "strategy": self.strategy,
            "predicted_s": self.predicted_s,
        }


@dataclass(frozen=True)
class ExecutionPlan:
    """The solver's decision: how one workload should execute.

    ``mode`` is ``"thread"`` for a sharded plan, ``"serial"`` when
    ``workers == 1``.
    ``predicted_s`` is the chosen plan's modeled wall time per batch
    call, ``serial_s`` the best serial candidate's — their ratio is the
    predicted speedup the benchmark gate holds the plan to.
    """

    workload: WorkloadDescriptor
    backend: str
    workers: int
    mode: str
    M: int
    strategy: str
    predicted_s: float
    serial_s: float
    fingerprint: str

    @property
    def is_serial(self) -> bool:
        """Whether the plan degenerates to the serial engine."""
        return self.workers == 1

    @property
    def predicted_speedup(self) -> float:
        """Modeled speedup of the plan over the best serial candidate."""
        if self.predicted_s <= 0:
            return 1.0
        return self.serial_s / self.predicted_s

    @property
    def predicted_rate(self) -> float:
        """Messages (or streams) per second the model expects."""
        if self.predicted_s <= 0:
            return 0.0
        return self.workload.shardable_items / self.predicted_s

    def to_dict(self) -> Dict:
        """Plain-dict form for persistence, telemetry and reports."""
        return {
            "version": PLANNER_VERSION,
            "workload": self.workload.to_dict(),
            "backend": self.backend,
            "workers": self.workers,
            "mode": self.mode,
            "M": self.M,
            "strategy": self.strategy,
            "predicted_s": self.predicted_s,
            "serial_s": self.serial_s,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExecutionPlan":
        """Rebuild a plan; raises ValidationError on schema skew."""
        try:
            if int(data["version"]) != PLANNER_VERSION:
                raise ValidationError(
                    f"plan version {data['version']} != {PLANNER_VERSION}"
                )
            return cls(
                workload=WorkloadDescriptor.from_dict(data["workload"]),
                backend=str(data["backend"]),
                workers=int(data["workers"]),
                mode=str(data["mode"]),
                M=int(data["M"]),
                strategy=str(data["strategy"]),
                predicted_s=float(data["predicted_s"]),
                serial_s=float(data["serial_s"]),
                fingerprint=str(data["fingerprint"]),
            )
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed execution plan record: {exc}") from None

    def describe(self) -> List[str]:
        """Human-readable decision trace lines for the CLI."""
        lines = [
            f"workload:  {self.workload.describe()}",
            (
                f"decision:  {self.strategy} — backend={self.backend} "
                f"workers={self.workers} mode={self.mode} M={self.M}"
            ),
            (
                f"predicted: {1e3 * self.predicted_s:.3f} ms/call "
                f"({self.predicted_rate:,.0f} items/s), "
                f"{self.predicted_speedup:.2f}x vs best serial "
                f"({1e3 * self.serial_s:.3f} ms)"
            ),
            f"host:      {self.fingerprint}",
        ]
        return lines


#: Serve-protocol ops per message (open-stream / feed-chunk / read-digest)
#: — the unit the micro-batch model spreads a message's engine time over.
SERVE_OPS_PER_MESSAGE = 3


@dataclass(frozen=True)
class MicroBatchPlan:
    """The planner's micro-batching decision for a serve workload.

    ``enabled=False`` means the modeled speedup never clears the
    planner's commitment threshold (engine-bound messages — handoffs are
    noise) and a host should keep its serial path.
    ``crossover_occupancy`` is the smallest round size that pays: below
    it the batcher flushes eagerly, so a lone client keeps serial-path
    latency.  See :meth:`Planner.plan_serve_batch` for the model.
    """

    enabled: bool
    max_batch: int
    linger_s: float
    crossover_occupancy: int
    predicted_speedup: float
    fingerprint: str = ""

    def to_dict(self) -> Dict:
        """JSON-ready form (flight-recorder events, stats verb)."""
        return {
            "enabled": self.enabled,
            "max_batch": self.max_batch,
            "linger_s": self.linger_s,
            "crossover_occupancy": self.crossover_occupancy,
            "predicted_speedup": round(self.predicted_speedup, 3),
            "fingerprint": self.fingerprint,
        }

    def describe(self) -> str:
        """One decision line for the CLI."""
        if not self.enabled:
            return (
                f"micro-batch: serial (predicted speedup "
                f"{self.predicted_speedup:.2f}x below threshold)"
            )
        return (
            f"micro-batch: B={self.max_batch} "
            f"linger={1e6 * self.linger_s:.0f}us "
            f"crossover={self.crossover_occupancy} "
            f"({self.predicted_speedup:.2f}x predicted)"
        )


# ----------------------------------------------------------------------
# The deterministic solver
# ----------------------------------------------------------------------
def _worker_ladder(cpus: int, items: int) -> Tuple[int, ...]:
    """Worker counts worth considering: powers of two up to the core
    count, the core count itself, all capped by the shardable items.

    A single shardable item (``items == 1``) means the *time axis* is
    the only parallel dimension — shard count is then bounded by cores,
    not items, so the cap falls back to ``cpus``."""
    cap = max(1, min(cpus, items)) if items >= 2 else cpus
    ladder = {1}
    w = 2
    while w <= cap:
        ladder.add(w)
        w *= 2
    ladder.add(cap)
    return tuple(sorted(ladder))


class Planner:
    """Deterministic plan solver over one host profile.

    ``plan`` is pure given ``(profile, workload)``: it never times
    anything, so tests assert decisions on synthetic profiles directly.
    Solved plans memoize in-memory and persist to the disk cache (when
    one is attached) keyed by the profile fingerprint, so later processes
    on the same host skip both the probe pass *and* the solve.

    ``min_speedup`` is the commitment threshold: a parallel candidate
    must beat the best serial candidate by at least this factor of
    *predicted* time, otherwise the plan stays serial.  This is what
    turns the BENCH_5 class of regression (0.79x from blind sharding)
    into a non-event — the model must first claim >= 1.05x, and the
    benchmark gate then verifies the claim against reality.
    """

    def __init__(
        self,
        profile: Optional[HostProfile] = None,
        disk=None,
        m_candidates: Sequence[int] = M_CANDIDATES,
        min_speedup: float = 1.05,
        min_shard_bits: int = 4096,
        prober: Optional[Callable[[], HostProfile]] = None,
    ):
        if min_speedup < 1.0:
            raise ValidationError(
                f"min_speedup must be >= 1.0, got {min_speedup}"
            )
        if not m_candidates:
            raise ValidationError("need at least one M candidate")
        self._profile = profile
        self._disk = disk
        self._m_candidates = tuple(sorted(set(int(m) for m in m_candidates)))
        self._min_speedup = float(min_speedup)
        self._min_shard_bits = max(1, int(min_shard_bits))
        self._prober = prober
        self._plans: Dict[Tuple, ExecutionPlan] = {}
        self._microbatch: Dict[Tuple, "MicroBatchPlan"] = {}

    # ------------------------------------------------------------------
    @property
    def profile(self) -> HostProfile:
        """The cost tables in force (probing lazily on first use)."""
        if self._profile is None:
            self._profile = get_profile(disk=self._disk, prober=self._prober)
        return self._profile

    @property
    def min_speedup(self) -> float:
        """Predicted-speedup threshold a parallel plan must clear."""
        return self._min_speedup

    # ------------------------------------------------------------------
    def _predict_serial(self, workload: WorkloadDescriptor, backend: str, M: int) -> float:
        """Modeled serial wall time for one batch call."""
        profile = self.profile
        if workload.kind in _CRC_KINDS:
            return max(workload.total_bits, 1) / profile.crc_batch_bits_per_s
        rate = profile.backend_bits_per_s[backend]
        eff = M / (M + profile.block_overhead_bits)
        return max(workload.total_bits, 1) / (rate * eff)

    def _predict_parallel(
        self,
        workload: WorkloadDescriptor,
        backend: str,
        workers: int,
        M: int,
    ) -> Optional[PlanCandidate]:
        """Modeled parallel wall time, or None when sharding can't apply.

        Only :data:`THREAD_BACKENDS` and the batch CRC engine shard: a
        GIL-holding backend's thread shards would run one at a time, so it
        plans serial.  Backend kernels are assumed to scale with cores;
        the CRC kinds scale by the batch engine's probed two-shard gain."""
        profile = self.profile
        total = workload.total_bits
        gain = 2.0
        if workload.kind in _CRC_KINDS:
            gain = profile.crc_shard_gain
        elif backend not in THREAD_BACKENDS:
            return None
        if total < self._min_shard_bits:
            return None  # the engines bypass the pool below this floor
        if workload.shardable_items >= 2:
            strategy = STRATEGY_SHARD_BATCH
            shards = min(workers, workload.shardable_items)
        else:
            strategy = STRATEGY_SHARD_TIME
            shards = workers
            if total < 2 * M * shards:
                return None  # shards thinner than one block each
        compute = self._predict_serial(workload, backend, M)
        t = compute * 2.0 / (gain * min(workers, profile.cpus))
        t += profile.spawn_s + shards * profile.dispatch_s
        if strategy == STRATEGY_SHARD_TIME:
            t += shards * profile.recombine_s
        return PlanCandidate(
            backend=backend,
            workers=workers,
            mode="thread",
            M=M,
            strategy=strategy,
            predicted_s=t,
        )

    def _keystream_candidates(
        self, workload: WorkloadDescriptor
    ) -> List[PlanCandidate]:
        """One serial candidate per keystream source, fastest first.

        Keystream generators are sequential by construction (each word
        depends on the register), so the design space is the *source*
        axis — bit-serial reference vs the word-oriented σ-LFSRs — not a
        worker ladder.  The winning candidate's ``backend`` names the
        source to instantiate.
        """
        profile = self.profile
        if not profile.keystream_bits_per_s:
            raise ValidationError(
                "host profile has no keystream rates (re-probe with "
                "planner version >= 2)"
            )
        M = workload.M if workload.M is not None else 1
        out = [
            PlanCandidate(
                backend=source,
                workers=1,
                mode="serial",
                M=M,
                strategy=STRATEGY_SERIAL,
                predicted_s=max(workload.total_bits, 1) / rate,
            )
            for source, rate in sorted(profile.keystream_bits_per_s.items())
        ]
        return sorted(out, key=lambda c: c.predicted_s)

    def candidates(self, workload: WorkloadDescriptor) -> List[PlanCandidate]:
        """Every explored design point, fastest-predicted first.

        The iteration order (backend name, then M, then workers — all
        ascending) plus strict-improvement selection makes the winner
        deterministic even under exact ties.  Keystream workloads explore
        the source axis instead (see :meth:`_keystream_candidates`).
        ``crc-batch`` and ``crc-stream`` explore workers alone: both run
        :data:`CRC_BATCH_ENGINE` whatever the backend, and M does not
        change its cost, so M is the pinned one or the largest candidate.
        """
        if workload.kind == KIND_KEYSTREAM:
            return self._keystream_candidates(workload)
        profile = self.profile
        ms = (
            (workload.M,) if workload.M is not None else self._m_candidates
        )
        engines = sorted(profile.backend_bits_per_s)
        if workload.kind in _CRC_KINDS:
            if not profile.crc_batch_bits_per_s:
                raise ValidationError(
                    "host profile has no batch CRC rate (re-probe with "
                    "planner version >= 4)"
                )
            engines, ms = [CRC_BATCH_ENGINE], ms[-1:]
        out: List[PlanCandidate] = []
        for backend in engines:
            for M in ms:
                out.append(
                    PlanCandidate(
                        backend=backend,
                        workers=1,
                        mode="serial",
                        M=M,
                        strategy=STRATEGY_SERIAL,
                        predicted_s=self._predict_serial(workload, backend, M),
                    )
                )
                for workers in _worker_ladder(
                    profile.cpus, max(workload.shardable_items, workload.streams)
                ):
                    if workers == 1:
                        continue
                    cand = self._predict_parallel(workload, backend, workers, M)
                    if cand is not None:
                        out.append(cand)
        # Stable sort: candidate list order breaks exact predicted ties.
        return sorted(out, key=lambda c: c.predicted_s)

    def solve(self, workload: WorkloadDescriptor) -> ExecutionPlan:
        """Pick the plan for a workload (no caches consulted)."""
        best_serial: Optional[PlanCandidate] = None
        best_parallel: Optional[PlanCandidate] = None
        for cand in self.candidates(workload):
            if cand.workers == 1:
                if best_serial is None or cand.predicted_s < best_serial.predicted_s:
                    best_serial = cand
            else:
                if best_parallel is None or cand.predicted_s < best_parallel.predicted_s:
                    best_parallel = cand
        assert best_serial is not None  # candidates() always emits serial
        chosen = best_serial
        if (
            best_parallel is not None
            and best_serial.predicted_s
            >= self._min_speedup * best_parallel.predicted_s
        ):
            chosen = best_parallel
        return ExecutionPlan(
            workload=workload,
            backend=chosen.backend,
            workers=chosen.workers,
            mode=chosen.mode,
            M=chosen.M,
            strategy=chosen.strategy,
            predicted_s=chosen.predicted_s,
            serial_s=best_serial.predicted_s,
            fingerprint=self.profile.fingerprint,
        )

    def plan(self, workload: WorkloadDescriptor) -> ExecutionPlan:
        """The (cached) execution plan for a workload.

        Resolution order: in-memory memo, then the disk cache (keyed by
        ``("planner-plan", fingerprint, workload key)``), then a fresh
        :meth:`solve` whose result is written through both layers.  The
        decision is recorded as a ``planner.plan`` span and counted on
        ``engine_planner_plans_total{strategy=...}``.
        """
        key = workload.key()
        cached = self._plans.get(key)
        if cached is not None:
            if default_registry().enabled:
                _METRICS()["cache"].labels(kind="plan", result="hit").inc()
            return cached
        disk_key = ("planner-plan", self.profile.fingerprint) + key
        if self._disk is not None:
            found, data = self._disk.load(disk_key)
            if found:
                try:
                    plan = ExecutionPlan.from_dict(data)
                except ValidationError:
                    plan = None
                if plan is not None and plan.fingerprint == self.profile.fingerprint:
                    if default_registry().enabled:
                        _METRICS()["cache"].labels(kind="plan", result="hit").inc()
                    self._plans[key] = plan
                    return plan
        if default_registry().enabled:
            _METRICS()["cache"].labels(kind="plan", result="miss").inc()
        with default_tracer().span(
            "planner.plan",
            standard=workload.standard,
            kind=workload.kind,
        ) as span:
            plan = self.solve(workload)
            if span is not None:
                span.attributes.update(
                    strategy=plan.strategy,
                    backend=plan.backend,
                    workers=plan.workers,
                    M=plan.M,
                    predicted_speedup=round(plan.predicted_speedup, 3),
                )
        if default_registry().enabled:
            _METRICS()["plans"].labels(strategy=plan.strategy).inc()
        recorder = default_flight_recorder()
        if recorder.enabled:
            recorder.record(
                "plan",
                f"{workload.standard}/{workload.kind} -> {plan.strategy}",
                strategy=plan.strategy,
                backend=plan.backend,
                workers=plan.workers,
                M=plan.M,
                predicted_speedup=round(plan.predicted_speedup, 3),
            )
        self._plans[key] = plan
        if self._disk is not None:
            self._disk.store(disk_key, plan.to_dict())
        return plan

    def plan_serve_batch(
        self, workload: WorkloadDescriptor
    ) -> "MicroBatchPlan":
        """The micro-batching decision for a serve-path workload.

        :class:`~repro.serve.ReproServer` no longer consults it: the
        server calls its pipeline inline on the event loop.  It stays
        for hosts of a library :class:`~repro.engine.MicroBatcher`.

        Models the serve executor's per-op handoff cost (the profile's
        ``dispatch_s``) against the per-op engine time implied by
        the workload's message size and the fastest probed backend.  A
        round of occupancy ``B`` pays one handoff for ``B`` ops, so the
        modeled speedup at occupancy B is::

            speedup(B) = (dispatch + op_s) / (dispatch / B + op_s)

        The **crossover occupancy** is the smallest B clearing
        :attr:`min_speedup` — below it the batcher must flush eagerly so
        a lone client keeps the serial path's p50.  ``max_batch`` is the
        smallest rung capturing ≥95% of the asymptotic speedup (bigger
        rounds only add latency), and a non-zero linger is granted only
        when handoffs dominate engine time (continuous batching already
        self-lingers for the engine-bound case).  Deterministic: pure
        arithmetic over the host profile, memoized per workload key.
        """
        key = workload.key()
        cached = self._microbatch.get(key)
        if cached is not None:
            return cached
        profile = self.profile
        dispatch = profile.dispatch_s
        rate = max(profile.backend_bits_per_s.values())
        op_s = max(workload.message_bits, 1) / rate / SERVE_OPS_PER_MESSAGE

        def speedup(B: int) -> float:
            return (dispatch + op_s) / (dispatch / B + op_s)

        ladder = tuple(2 ** k for k in range(9))  # 1..256
        crossover = next(
            (B for B in ladder if speedup(B) >= self._min_speedup), 0
        )
        if crossover == 0:
            plan = MicroBatchPlan(
                enabled=False,
                max_batch=1,
                linger_s=0.0,
                crossover_occupancy=0,
                predicted_speedup=speedup(ladder[-1]),
                fingerprint=profile.fingerprint,
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
                fingerprint=profile.fingerprint,
            )
        recorder = default_flight_recorder()
        if recorder.enabled:
            recorder.record(
                "plan-microbatch",
                f"{workload.standard}/{workload.kind} -> "
                + (f"batch B={plan.max_batch}" if plan.enabled else "serial"),
                **plan.to_dict(),
            )
        self._microbatch[key] = plan
        return plan

    def record_actual(self, plan: ExecutionPlan, actual_s: float) -> float:
        """Publish predicted-vs-actual for an executed plan.

        ``actual_s`` is the measured wall time of one batch call under
        the plan.  Returns ``actual_rate / predicted_rate`` (above 1.0 =
        the host beat the model) and observes it on the
        ``engine_planner_prediction_ratio`` histogram so soak runs can
        watch model drift.
        """
        if actual_s <= 0:
            raise ValidationError(f"actual_s must be > 0, got {actual_s}")
        ratio = plan.predicted_s / actual_s
        if default_registry().enabled:
            _METRICS()["prediction"].labels(strategy=plan.strategy).observe(ratio)
        return ratio


_DEFAULT_PLANNER: Optional[Planner] = None


def default_planner(refresh: bool = False) -> Planner:
    """The process-wide planner, wired to the default disk cache.

    The first call probes the host (or loads a matching persisted
    profile); later calls reuse the instance.  ``refresh=True`` discards
    it, forcing a re-probe — the CLI's ``plan --refresh`` escape hatch.
    """
    global _DEFAULT_PLANNER
    if refresh:
        _DEFAULT_PLANNER = None
    if _DEFAULT_PLANNER is None:
        from repro.engine.cache import default_cache

        _DEFAULT_PLANNER = Planner(disk=default_cache().disk)
    return _DEFAULT_PLANNER
