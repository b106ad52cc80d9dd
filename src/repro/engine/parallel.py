"""Sharded multi-worker execution layer over the batch kernels.

The paper scales CRC throughput *spatially* — M bits per PiCoGA issue —
and the batch engines scale it *temporally* — B messages per numpy call.
This module adds a third axis: independent data shards on a thread pool.
Two decomposition theorems make sharding a correctness-preserving
multiplier rather than an approximation:

* **Per-stream partitioning.**  Batch CRC workloads are embarrassingly
  parallel across messages: any partition of the batch computes exactly
  the serial result, shard by shard, because messages never interact.
* **``A^k`` state composition.**  A *single* message also splits: for a
  zero-start register, feeding ``s1 || s2`` gives
  ``raw(s1||s2) = raw(s1) · x^{|s2|} ⊕ raw(s2)  (mod G)`` — advancing a
  register by ``k`` data-free clocks is multiplication by ``A^k``, which
  in the quotient-ring basis is ``x^k mod G`` (a carry-less multiply).
  Shards computed independently from zero recombine exactly; the spec's
  ``init`` preset folds in once at the end, as in the serial tail
  contract.  The derivation is spelled out in ``docs/PARALLEL.md``.

Worker substrate: shards run on a
:class:`~concurrent.futures.ThreadPoolExecutor`.  The numpy kernels
release the GIL only inside each call, with Python between them, so on
two CPUs the thread shards of a batch CRC measured slower than one
serial call; the planner times the engine serially and sharded, and
plans it serial there.

A worker count is an explicit positive ``workers=``, else the plan's,
else ``1`` (serial).  Any worker failure surfaces as
:class:`~repro.errors.StreamError` — never a hang.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import count
from time import perf_counter, process_time
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.crc.spec import CRCSpec
from repro.engine.batch import BatchCRC
from repro.engine.cache import CompileCache, default_cache
from repro.engine.pipeline import CRCPipeline
from repro.errors import ReproError, StreamError, ValidationError
from repro.telemetry import (
    Owners,
    attach_flight_dump,
    bind_families,
    default_flight_recorder,
    default_registry,
    default_tracer,
)
from repro.validation import check_bit_streams, check_bits, check_messages

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner probes us)
    from repro.engine.planner import ExecutionPlan

#: Bucket edges for the per-phase wall/CPU breakdown histograms.
PHASE_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _pool_gauges(reg) -> Owners:
    """Bind the pool gauges to the live pools; returns their Owners."""
    pools = Owners()
    reg.gauge(
        "engine_parallel_workers", "Configured worker slots across live pools",
    ).bind(lambda: pools.sum(lambda pool: pool.workers if pool.started else 0))
    reg.gauge(
        "engine_parallel_busy_workers", "Shard tasks currently in flight",
    ).bind(lambda: pools.sum(
        lambda pool: sum(not future.done() for future in list(pool._inflight))
    ))
    return pools


# Families resolve against the *current* default registry at use sites
# (never snapshotted at import), so swapping/enabling the registry after
# this module is imported is always observed.
_METRICS = bind_families(lambda reg: {
    "pools": _pool_gauges(reg),
    "tasks": reg.counter(
        "engine_parallel_tasks_total",
        "Shard tasks dispatched to worker pools",
        labels=("kind",),
    ),
    "shard_streams": reg.histogram(
        "engine_parallel_shard_streams",
        "Streams per dispatched shard",
        labels=("kind",),
        buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    ),
    "shard_bits": reg.histogram(
        "engine_parallel_shard_bits",
        "Payload bits per dispatched shard",
        labels=("kind",),
        buckets=(64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 1 << 22),
    ),
    "steals": reg.counter(
        "engine_parallel_steals_total",
        "Streams migrated between pipeline shards by the scheduler",
        labels=("kind",),
    ),
    "phase": reg.histogram(
        "engine_phase_seconds",
        "Wall-clock seconds per execution phase "
        "(compile / dispatch / shard-execute / recombine)",
        labels=("phase",),
        buckets=PHASE_BUCKETS,
    ),
    "phase_cpu": reg.histogram(
        "engine_phase_cpu_seconds",
        "CPU seconds per execution phase (where measured)",
        labels=("phase",),
        buckets=PHASE_BUCKETS,
    ),
})


def observe_phase(phase: str, wall_s: float, cpu_s: Optional[float] = None) -> None:
    """Publish one phase timing into the wall/CPU breakdown histograms.

    Keeping the publish path here means every front-end (batch engines,
    pools, DREAM) feeds one consistent ``engine_phase_seconds`` family.
    """
    if not default_registry().enabled:
        return
    metrics = _METRICS()
    metrics["phase"].labels(phase=phase).observe(wall_s)
    if cpu_s is not None:
        metrics["phase_cpu"].labels(phase=phase).observe(cpu_s)


def resolve_workers(workers: Union[None, int, str] = None) -> int:
    """A worker count: ``workers`` when given, else 1.

    ``workers`` is a positive int, or its decimal string (a CLI flag's
    value).  Anything else, ``0`` and ``"auto"`` included, raises
    :class:`~repro.errors.ValidationError`.
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        try:
            workers = int(workers, 10)
        except ValueError:
            raise ValidationError(
                f"worker count must be a positive integer, got {workers!r}"
            ) from None
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValidationError(
            f"worker count must be a positive integer, got {workers!r}"
        )
    return workers


def plan_shards(n_items: int, shards: int) -> List[Tuple[int, int]]:
    """Balanced contiguous partition of ``range(n_items)`` into shards.

    Returns ``(start, stop)`` half-open index pairs, at most ``shards``
    of them, never empty, sizes differing by at most one — the static
    round-robin plan the batch front-ends use (the streaming scheduler
    handles dynamic imbalance separately).
    """
    if shards < 1:
        raise ValidationError(f"shard count must be >= 1, got {shards}")
    if n_items <= 0:
        return []
    shards = min(shards, n_items)
    base, extra = divmod(n_items, shards)
    bounds = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
class _ShardFailure(Exception):
    """Internal envelope for a failed shard: the worker thread's name,
    its ``worker.shard`` span (``None`` untraced) and the original
    exception, so :meth:`WorkerPool.run` can graft the span and name the
    worker before re-typing the error."""

    def __init__(self, worker: str, span, cause: BaseException):
        super().__init__(str(cause))
        self.worker = worker
        self.span = span
        self.cause = cause


class WorkerPool:
    """A lazily started thread pool with shard-level error containment.

    The ``engine_parallel_workers`` and ``engine_parallel_busy_workers``
    gauges read the pool's slots (while started) and its in-flight
    futures when the registry is read, and :meth:`run` converts *any*
    worker-side failure into
    :class:`~repro.errors.StreamError`, so callers block on results,
    never on a wedged queue.

    Lifecycle contract: :meth:`close` is idempotent and thread-safe —
    double-close, close from two threads, and close while shards are in
    flight all raise nothing and never hang (in-flight shards complete;
    a dispatch that loses the race surfaces as a contained
    :class:`~repro.errors.StreamError`, never a wedged queue).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValidationError(f"pool needs >= 1 worker, got {workers}")
        self._workers = workers
        self._executor: Optional[ThreadPoolExecutor] = None
        # Guards executor creation/teardown so close() racing _ensure()
        # (or another close()) can neither leak nor shut down twice.
        self._lifecycle_lock = threading.Lock()
        # Submitted shard futures not yet done (done callbacks discard).
        self._inflight: set = set()
        if default_registry().enabled:
            _METRICS()["pools"].add(self)

    @property
    def workers(self) -> int:
        """Configured worker slots."""
        return self._workers

    @property
    def started(self) -> bool:
        """Whether the underlying executor exists yet."""
        return self._executor is not None

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lifecycle_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix="repro-shard",
                )
            return self._executor

    @staticmethod
    def _traced(dispatch, shard: int, fn):
        """The shard harness used while any telemetry default is on.

        Shards share the parent's registry and flight recorder, so only
        the ``worker.shard`` span is recorded apart (detached, under the
        dispatch span's ids) and handed back with the wall and process
        CPU time; a failure is recorded before the exception propagates
        so the parent can name the worker in the :class:`StreamError`
        dump.
        """
        trace_id = dispatch.trace_id if dispatch is not None else ""
        parent_id = dispatch.span_id if dispatch is not None else ""

        def call(*args):
            worker = threading.current_thread().name
            t0, c0 = perf_counter(), process_time()
            with default_tracer().capture(
                "worker.shard", trace_id=trace_id, parent_id=parent_id,
                worker=worker, shard=shard,
            ) as span:
                try:
                    result = fn(*args)
                except Exception as exc:
                    text = f"{type(exc).__name__}: {exc}"
                    if span is not None:
                        span.attributes["error"] = text
                    recorder = default_flight_recorder()
                    if recorder.enabled:
                        recorder.record(
                            "worker-crash", text, worker=worker, shard=shard,
                        )
                    raise _ShardFailure(worker, span, exc) from exc
            return span, (perf_counter() - t0, process_time() - c0), result

        return call

    def run(self, fn, shard_args: Sequence[tuple]) -> List:
        """Run ``fn(*args)`` for every shard; results in shard order.

        All shards are submitted before any result is awaited, so shards
        overlap inside the GIL-releasing kernels.  While any telemetry
        default (registry, tracer, flight recorder) is enabled, each
        dispatch opens a ``pool.dispatch`` span and every shard records
        a ``worker.shard`` span (labelled with its worker thread) that
        is grafted under it as results arrive.

        The first failing shard aborts the call with
        :class:`~repro.errors.StreamError` (library-typed errors pass
        through), after every future has been collected or cancelled —
        no orphaned work, no hang.  The raised error carries a
        flight-recorder dump in ``error.context["flight_recorder"]``
        naming the failed worker and its last events.
        """
        executor = self._ensure()
        registry, tracer = default_registry(), default_tracer()
        recorder = default_flight_recorder()
        telemetry = registry.enabled
        wrap = telemetry or tracer.enabled or recorder.enabled
        with tracer.span("pool.dispatch", shards=len(shard_args)) as dispatch:
            t0 = perf_counter()
            if recorder.enabled:
                recorder.record("dispatch", f"{len(shard_args)} shard(s)")
            futures = []
            results = []
            error: Optional[BaseException] = None
            failed_worker = ""
            for shard, args in enumerate(shard_args):
                task = self._traced(dispatch, shard, fn) if wrap else fn
                try:
                    future = executor.submit(task, *args)
                except RuntimeError as exc:
                    # A concurrent close() shut this executor down between
                    # _ensure() and submit.  Shards already submitted run
                    # to completion (shutdown waits for them); the rest of
                    # the dispatch is abandoned and the call surfaces as a
                    # contained StreamError below — never a hang.
                    error = StreamError(
                        f"worker pool closed during dispatch ({exc})"
                    )
                    break
                # Tracked only after the submit succeeded, so a lost
                # close/dispatch race can't strand a future in flight.
                self._inflight.add(future)
                future.add_done_callback(self._inflight.discard)
                futures.append(future)
            for future in futures:
                if error is not None:
                    future.cancel()
                    continue
                try:
                    value = future.result()
                except _ShardFailure as failure:
                    error = failure.cause
                    failed_worker = failure.worker
                    if dispatch is not None and failure.span is not None:
                        dispatch.children.append(failure.span)
                except BaseException as exc:  # noqa: BLE001 - re-typed below
                    error = exc
                else:
                    if not wrap:
                        results.append(value)
                        continue
                    span, (wall_s, cpu_s), result = value
                    if dispatch is not None and span is not None:
                        dispatch.children.append(span)
                    observe_phase("shard-execute", wall_s, cpu_s)
                    results.append(result)
            if telemetry:
                observe_phase("dispatch", perf_counter() - t0)
        if error is not None:
            if isinstance(error, ReproError):
                raised = error
            else:
                who = f" (worker {failed_worker})" if failed_worker else ""
                raised = StreamError(
                    f"worker shard failed{who} ({type(error).__name__}: {error})"
                )
                raised.__cause__ = error
            if recorder.enabled:
                attach_flight_dump(raised, worker=failed_worker)
            raise raised
        return results

    def close(self) -> None:
        """Shut the executor down; pending work completes.

        Idempotent and thread-safe: the executor handle is atomically
        detached under the lifecycle lock (so exactly one closer shuts
        it down), and the blocking
        ``shutdown(wait=True)`` happens outside the lock so a concurrent
        second close — or a concurrent :meth:`run` — can never deadlock
        against it.  A later :meth:`run` lazily restarts the pool.
        """
        with self._lifecycle_lock:
            executor, self._executor = self._executor, None
            if executor is None:
                return
        executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "started" if self.started else "idle"
        return f"WorkerPool(workers={self._workers}, {state})"


def _observe_shards(kind: str, sizes: Sequence[int], bits: Sequence[int]) -> None:
    """Publish per-dispatch shard shape telemetry."""
    if not default_registry().enabled:
        return
    metrics = _METRICS()
    metrics["tasks"].labels(kind=kind).inc(len(sizes))
    for size, nbits in zip(sizes, bits):
        metrics["shard_streams"].labels(kind=kind).observe(size)
        metrics["shard_bits"].labels(kind=kind).observe(nbits)


# ----------------------------------------------------------------------
# Batch front-ends
# ----------------------------------------------------------------------
class ParallelBatchCRC:
    """:class:`~repro.engine.batch.BatchCRC` sharded over a worker pool.

    Batch calls partition across the stream dimension (exact by stream
    independence); :meth:`compute` time-shards a single long message and
    recombines the shard registers with the ``x^k mod G`` composition
    (exact by linearity).  ``workers=1`` *is* the serial engine: no pool
    is created and every call delegates object-for-object.  A ``plan``
    supplies the worker count unless ``workers`` is given.  Every batch
    is validated whole before it is split, so an error names the item's
    index in the caller's batch.
    """

    def __init__(
        self,
        spec: CRCSpec,
        M: int,
        workers: Union[None, int, str] = None,
        cache: Optional[CompileCache] = None,
        min_shard_bits: int = 4096,
        plan: Optional["ExecutionPlan"] = None,
    ):
        if plan is not None and workers is None:
            workers = plan.workers
        self._plan = plan
        self._cache = cache if cache is not None else default_cache()
        t0, c0 = perf_counter(), process_time()
        self._serial = BatchCRC(spec, M, cache=self._cache)
        observe_phase("compile", perf_counter() - t0, process_time() - c0)
        self._workers = resolve_workers(workers)
        self._min_shard_bits = max(1, min_shard_bits)
        self._pool = WorkerPool(self._workers) if self._workers > 1 else None

    # ------------------------------------------------------------------
    @property
    def spec(self) -> CRCSpec:
        """The CRC standard this engine computes."""
        return self._serial.spec

    @property
    def M(self) -> int:
        """Look-ahead block factor of the underlying kernels."""
        return self._serial.M

    @property
    def workers(self) -> int:
        """Resolved worker count (1 = serial delegation)."""
        return self._workers

    @property
    def serial_engine(self) -> BatchCRC:
        """The underlying serial batch engine (shared by thread shards)."""
        return self._serial

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The worker pool, or ``None`` when ``workers == 1``."""
        return self._pool

    @property
    def cache(self) -> CompileCache:
        """The compile cache the table stack comes from."""
        return self._cache

    @property
    def plan(self) -> Optional["ExecutionPlan"]:
        """The planner decision this engine was built from, if any."""
        return self._plan

    def close(self) -> None:
        """Release pool workers (safe to call at any time, repeatedly)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ParallelBatchCRC":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _shard_batch(self, items: Sequence, bits_of) -> Optional[List[Tuple[int, int]]]:
        """The shard plan for a batch call, or ``None`` to run serially."""
        if self._pool is None or len(items) < 2:
            return None
        total_bits = sum(bits_of(item) for item in items)
        if total_bits < self._min_shard_bits:
            return None
        return plan_shards(len(items), self._workers)

    def compute_batch(self, messages: Sequence[bytes]) -> List[int]:
        """Finalized CRCs of B byte messages, sharded across workers."""
        if self._pool is None:
            return self._serial.compute_batch(messages)  # validates the batch
        messages = check_messages(messages)
        bounds = self._shard_batch(messages, lambda m: 8 * len(m))
        if bounds is None:
            return self._serial.compute_batch(messages)
        shards = [messages[a:b] for a, b in bounds]
        _observe_shards(
            "crc-batch",
            [len(s) for s in shards],
            [sum(8 * len(m) for m in s) for s in shards],
        )
        results = self._pool.run(
            self._serial.compute_batch, [(s,) for s in shards]
        )
        return [crc for shard in results for crc in shard]

    def raw_registers_bits(
        self,
        bit_streams: Sequence[Sequence[int]],
        fold_init: bool = True,
    ) -> List[int]:
        """Raw registers for bit streams, sharded across workers."""
        streams = check_bit_streams(bit_streams)
        bounds = self._shard_batch(streams, len)
        if bounds is None:
            return self._serial.raw_registers_bits(streams, fold_init=fold_init)
        shards = [streams[a:b] for a, b in bounds]
        _observe_shards(
            "crc-bits",
            [len(s) for s in shards],
            [sum(len(bits) for bits in s) for s in shards],
        )
        results = self._pool.run(
            self._serial.raw_registers_bits,
            [(s, fold_init) for s in shards],
        )
        return [reg for shard in results for reg in shard]

    def compute_bits_batch(self, bit_streams: Sequence[Sequence[int]]) -> List[int]:
        """Finalized CRCs of raw bit streams, sharded across workers."""
        return [
            self.spec.finalize(r) for r in self.raw_registers_bits(bit_streams)
        ]

    # ------------------------------------------------------------------
    def _combine_shards(self, raws: Sequence[int], lengths: Sequence[int]) -> int:
        """Fold zero-start shard registers left-to-right via ``x^k mod G``."""
        from repro.gf2.clmul import clmulmod

        t0, c0 = perf_counter(), process_time()
        g = self.spec.generator().coeffs
        acc = 0
        for raw, nbits in zip(raws, lengths):
            acc = clmulmod(acc, self._xpow(nbits), g) ^ raw
        observe_phase("recombine", perf_counter() - t0, process_time() - c0)
        return acc

    def _xpow(self, n_bits: int) -> int:
        """``x^n mod G`` — the register-advance multiplier, cached."""
        from repro.gf2.clmul import clpowmod

        g = self.spec.generator().coeffs
        return self._cache.get(
            ("xpow", self.spec, n_bits), lambda: clpowmod(2, n_bits, g)
        )

    def compute_sharded_bits(self, bits: Sequence[int]) -> int:
        """One message's CRC via time-axis sharding + ``A^k`` recombination.

        The bit stream (transmission order) splits into ``workers``
        contiguous shards; each worker computes its shard's zero-start
        register independently and the shard registers are composed with
        carry-less multiplies.  Bit-exact for every length, including
        lengths not divisible by the shard count (the plan just makes
        the leading shards one bit longer).
        """
        bits = check_bits(bits)
        if (
            self._pool is None
            or len(bits) < max(2 * self.M, self._min_shard_bits)
        ):
            return self.spec.finalize(
                self._serial.raw_registers_bits([bits])[0]
            )
        bounds = plan_shards(len(bits), self._workers)
        shards = [bits[a:b] for a, b in bounds]
        _observe_shards("crc-timeshard", [1] * len(shards), [len(s) for s in shards])
        results = self._pool.run(
            self._serial.raw_registers_bits,
            [([s], False) for s in shards],
        )
        raw0 = self._combine_shards(
            [r[0] for r in results], [len(s) for s in shards]
        )
        raw = raw0 ^ self._cache.init_fold(self.spec, len(bits))
        return self.spec.finalize(raw)

    def compute(self, data: bytes) -> int:
        """Single-message CRC; long messages are time-sharded across workers."""
        return self.compute_sharded_bits(self.spec.message_bits(data))


# ----------------------------------------------------------------------
# Streaming: work-aware shard scheduler + sharded pipeline
# ----------------------------------------------------------------------
class ShardScheduler:
    """Least-pending assignment with threshold-gated stealing.

    New streams land on the shard with the fewest pending bits (ties
    break round-robin, so an idle start spreads arrivals evenly).  When
    the heaviest shard's backlog exceeds ``steal_ratio`` times the
    lightest's **and** the gap is worth at least one block, the
    scheduler plans migrations that move whole streams from the heavy
    shard to the light one until the gap closes — cheap to decide (one
    pass over pending gauges), and exact because CRC streams are
    independent and carry their state with them.
    """

    def __init__(self, shards: int, steal_ratio: float = 2.0):
        if shards < 1:
            raise ValidationError(f"scheduler needs >= 1 shard, got {shards}")
        if steal_ratio < 1.0:
            raise ValidationError(
                f"steal ratio must be >= 1.0, got {steal_ratio}"
            )
        self._shards = shards
        self._ratio = steal_ratio
        self._rr = count()

    @property
    def shards(self) -> int:
        """Number of shards being scheduled."""
        return self._shards

    def assign(self, pending_bits: Sequence[int]) -> int:
        """Pick the shard for a newly opened stream."""
        if len(pending_bits) != self._shards:
            raise ValidationError(
                f"expected {self._shards} pending gauges, got {len(pending_bits)}"
            )
        low = min(pending_bits)
        candidates = [i for i, p in enumerate(pending_bits) if p == low]
        return candidates[next(self._rr) % len(candidates)]

    def plan_steals(
        self,
        pending_bits: Sequence[int],
        stream_bits: Sequence[Dict[Hashable, int]],
        min_gap: int,
    ) -> List[Tuple[Hashable, int, int]]:
        """Plan ``(stream_id, src, dst)`` migrations to close a lag gap.

        ``stream_bits`` maps stream id -> buffered bits per shard.  The
        plan greedily moves the largest streams off the heaviest shard
        while the imbalance stays above both the ratio and ``min_gap``;
        it never empties the source below the destination.
        """
        pending = list(pending_bits)
        moves: List[Tuple[Hashable, int, int]] = []
        for _ in range(sum(len(m) for m in stream_bits)):
            src = max(range(len(pending)), key=pending.__getitem__)
            dst = min(range(len(pending)), key=pending.__getitem__)
            gap = pending[src] - pending[dst]
            if gap < min_gap or pending[src] < self._ratio * max(pending[dst], 1):
                break
            movable = {
                sid: bits
                for sid, bits in stream_bits[src].items()
                if 0 < bits
                and (bits <= gap // 2 or (bits <= gap and len(stream_bits[src]) > 1))
            }
            if not movable:
                break
            sid = max(movable, key=movable.__getitem__)
            bits = stream_bits[src].pop(sid)
            stream_bits[dst][sid] = bits
            pending[src] -= bits
            pending[dst] += bits
            moves.append((sid, src, dst))
        return moves


class ShardedCRCPipeline:
    """Many concurrent CRC streams over N pipeline shards and a thread pool.

    Each shard is a full :class:`~repro.engine.pipeline.CRCPipeline`
    sharing one compile cache, so shards compile once collectively.
    ``pump`` hands every backlogged shard to the thread pool, each shard
    pumping its own streams through the byte engines; before dispatch
    the :class:`ShardScheduler` migrates streams off lagging shards.  The
    public surface mirrors ``CRCPipeline`` — ``open`` / ``feed`` /
    ``feed_bits`` / ``pump`` / ``finalize`` / ``abort`` — and is
    bit-exact against it under any delivery schedule, including
    mid-stream aborts (the ``parallel:workers1-vs-workersN`` fuzz oracle
    drives exactly that).

    Every public mutator is serialized on one re-entrant lock, so
    callers on several threads can never observe a stream mid-migration
    or a half-advanced shard.  :meth:`close` is idempotent and
    thread-safe; after close, open streams stay intact and every call
    still computes bit-exact results — pumps simply run serially
    instead of re-spawning the worker pool.
    """

    def __init__(
        self,
        spec: CRCSpec,
        M: int,
        workers: Union[None, int, str] = None,
        cache: Optional[CompileCache] = None,
        scheduler: Optional[ShardScheduler] = None,
        plan: Optional["ExecutionPlan"] = None,
    ):
        if plan is not None and workers is None:
            workers = plan.workers
        self._plan = plan
        self._cache = cache if cache is not None else default_cache()
        self._workers = resolve_workers(workers)
        self._shards = [
            CRCPipeline(spec, M, cache=self._cache) for _ in range(self._workers)
        ]
        self._scheduler = scheduler or ShardScheduler(self._workers)
        if self._scheduler.shards != self._workers:
            raise ValidationError(
                f"scheduler plans {self._scheduler.shards} shards but the "
                f"pipeline has {self._workers}"
            )
        self._home: Dict[Hashable, int] = {}
        self._auto_ids = count()
        self._pool = (
            WorkerPool(self._workers) if self._workers > 1 else None
        )
        self._spec = spec
        self._M = M
        # Serializes open/feed/pump/rebalance/finalize/abort/close so the
        # pipeline is safe to drive from several threads at once.
        self._lock = threading.RLock()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def spec(self) -> CRCSpec:
        """The CRC standard every stream computes."""
        return self._spec

    @property
    def M(self) -> int:
        """Block factor: bits consumed per stream per pump step."""
        return self._M

    @property
    def workers(self) -> int:
        """Number of pipeline shards (= pool width)."""
        return self._workers

    @property
    def shards(self) -> List[CRCPipeline]:
        """The underlying pipeline shards (read-only view)."""
        return list(self._shards)

    @property
    def stream_count(self) -> int:
        """Streams currently open across all shards."""
        return len(self._home)

    @property
    def plan(self) -> Optional["ExecutionPlan"]:
        """The planner decision this pipeline was built from, if any."""
        return self._plan

    def __len__(self) -> int:
        return len(self._home)

    def pending_bits(self, stream_id: Optional[Hashable] = None) -> int:
        """Buffered input bits awaiting processing (one stream or all)."""
        with self._lock:
            if stream_id is not None:
                return self._shard_of(stream_id).pending_bits(stream_id)
            return sum(s.pending_bits() for s in self._shards)

    def shard_pending(self) -> List[int]:
        """Per-shard pending-bits gauges (the scheduler's lag signal)."""
        with self._lock:
            return [s.pending_bits() for s in self._shards]

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (streams stay usable serially)."""
        return self._closed

    def close(self) -> None:
        """Release pool workers (open streams stay intact).

        Idempotent and thread-safe; callable at any time, including with
        a pump in flight on another thread (the pool waits for in-flight
        shards, never hangs).  Afterwards, feeds/finalizes still work and
        stay bit-exact — pump rounds just run serially, and the worker
        pool is *not* lazily re-spawned.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardedCRCPipeline":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _shard_of(self, stream_id: Hashable) -> CRCPipeline:
        try:
            return self._shards[self._home[stream_id]]
        except KeyError:
            raise StreamError(
                f"unknown CRC stream {stream_id!r}: open() it first "
                f"({len(self._home)} streams currently open)"
            ) from None

    # ------------------------------------------------------------------
    def open(
        self,
        stream_id: Optional[Hashable] = None,
        register: Optional[int] = None,
    ) -> Hashable:
        """Open a stream on the least-loaded shard; returns its id."""
        with self._lock:
            if stream_id is None:
                stream_id = f"shard-auto-{next(self._auto_ids)}"
            if stream_id in self._home:
                raise StreamError(f"stream {stream_id!r} is already open")
            shard = self._scheduler.assign(self.shard_pending())
            self._shards[shard].open(stream_id=stream_id, register=register)
            self._home[stream_id] = shard
            return stream_id

    def feed(self, stream_id: Hashable, data: bytes, pump: bool = True) -> None:
        """Append message bytes to a stream (chunked calls compose)."""
        with self._lock:
            self._shard_of(stream_id).feed(stream_id, data, pump=False)
            if pump:
                self.pump()

    def feed_bits(
        self, stream_id: Hashable, bits: Sequence[int], pump: bool = True
    ) -> None:
        """Append raw message bits to a stream (chunked calls compose)."""
        with self._lock:
            self._shard_of(stream_id).feed_bits(stream_id, bits, pump=False)
            if pump:
                self.pump()

    def rebalance(self) -> int:
        """Steal streams from lagging shards; returns migrations made."""
        with self._lock:
            return self._rebalance_locked()

    def _rebalance_locked(self) -> int:
        if self._workers < 2:
            return 0
        stream_bits: List[Dict[Hashable, int]] = []
        for idx, shard in enumerate(self._shards):
            stream_bits.append(
                {
                    sid: shard.pending_bits(sid)
                    for sid, home in self._home.items()
                    if home == idx
                }
            )
        moves = self._scheduler.plan_steals(
            self.shard_pending(), stream_bits, min_gap=self._M
        )
        for sid, src, dst in moves:
            self._shards[src].migrate(sid, self._shards[dst])
            self._home[sid] = dst
        if moves:
            if default_registry().enabled:
                _METRICS()["steals"].labels(kind="crc").inc(len(moves))
            recorder = default_flight_recorder()
            if recorder.enabled:
                recorder.record(
                    "steal",
                    f"{len(moves)} stream(s) migrated",
                    pipeline="crc",
                    moves=[(str(sid), src, dst) for sid, src, dst in moves],
                )
        return len(moves)

    def pump(self) -> int:
        """Rebalance, then advance every backlogged shard concurrently.

        Returns the total number of M-bit blocks processed across shards.
        After :meth:`close`, pump rounds run serially (same results, no
        pool re-spawn).
        """
        with self._lock:
            self._rebalance_locked()
            busy = [s for s in self._shards if s.pending_bits() >= self._M]
            if not busy:
                return 0
            if self._pool is None or self._closed or len(busy) == 1:
                return sum(s.pump() for s in busy)
            _observe_shards(
                "crc-pipeline",
                [s.stream_count for s in busy],
                [s.pending_bits() for s in busy],
            )
            return sum(self._pool.run(CRCPipeline.pump, [(s,) for s in busy]))

    def finalize(self, stream_id: Hashable) -> int:
        """Drain the stream's shard and return the stream's CRC."""
        with self._lock:
            shard = self._shard_of(stream_id)
            crc = shard.finalize(stream_id)
            del self._home[stream_id]
            return crc

    def finalize_many(self, stream_ids: Sequence[Hashable]) -> List[int]:
        """Finalize several streams with one pump round per shard.

        Groups the ids by home shard under the lock and forwards each
        group to that shard's :meth:`CRCPipeline.finalize_many`, so a
        round of B digests pays one pump per *shard* instead of
        one per stream.  Validation is all-or-nothing (an unknown or
        duplicated id raises before any stream is consumed) and results
        align with ``stream_ids`` order.
        """
        ids = list(stream_ids)
        if len(set(ids)) != len(ids):
            raise ValidationError(
                f"finalize_many got duplicate stream ids in {ids!r}"
            )
        with self._lock:
            by_shard: Dict[int, List[Hashable]] = {}
            for sid in ids:
                self._shard_of(sid)
                by_shard.setdefault(self._home[sid], []).append(sid)
            crcs: Dict[Hashable, int] = {}
            for shard_idx, group in by_shard.items():
                for sid, crc in zip(
                    group, self._shards[shard_idx].finalize_many(group)
                ):
                    crcs[sid] = crc
                    del self._home[sid]
            return [crcs[sid] for sid in ids]

    def abort(self, stream_id: Hashable) -> None:
        """Drop a stream without computing its CRC."""
        with self._lock:
            shard = self._shard_of(stream_id)
            shard.abort(stream_id)
            del self._home[stream_id]
