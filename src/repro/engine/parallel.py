"""Sharded multi-worker execution layer over the batch kernels.

The paper scales CRC throughput *spatially* — M bits per PiCoGA issue —
and interleaves independent messages through one datapath (Fig. 5); the
batch engines scale it *temporally* — B messages per numpy call.  This
module partitions that work across a thread pool by message, and only by
message: messages never interact, so any partition of a batch, and any
assignment of streams to pipeline shards, computes exactly the serial
result, shard by shard (``docs/PARALLEL.md``).

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
from repro.validation import check_messages

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
    "phase": reg.histogram(
        "engine_phase_seconds",
        "Wall-clock seconds per execution phase "
        "(compile / dispatch / shard-execute)",
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


def resolve_workers(workers: Optional[int] = None) -> int:
    """A worker count: ``workers`` when given, else 1.

    ``workers`` is a positive int; anything else, ``0`` and ``"auto"``
    included, raises :class:`~repro.errors.ValidationError`.
    """
    if workers is None:
        return 1
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValidationError(
            f"worker count must be a positive integer, got {workers!r}"
        )
    return workers


def plan_shards(n_items: int, shards: int) -> List[Tuple[int, int]]:
    """Balanced contiguous partition of ``range(n_items)`` into shards.

    Returns ``(start, stop)`` half-open index pairs, at most ``shards``
    of them, never empty, sizes differing by at most one — the static
    plan the batch front-end splits a batch by.
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

    A batch call partitions across the message dimension (exact because
    messages are independent).  ``workers=1`` *is* the serial engine: no
    pool is created and every call delegates object-for-object.  A
    ``plan`` supplies the worker count unless ``workers`` is given.
    Every batch is validated whole before it is split, so an error names
    the item's index in the caller's batch.
    """

    def __init__(
        self,
        spec: CRCSpec,
        M: int,
        workers: Optional[int] = None,
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
    def compute_batch(self, messages: Sequence[bytes]) -> List[int]:
        """Finalized CRCs of B byte messages, sharded across workers.

        A batch of fewer than two messages, or of fewer than
        ``min_shard_bits`` payload bits, runs serially.
        """
        if self._pool is None:
            return self._serial.compute_batch(messages)  # validates the batch
        messages = check_messages(messages)
        if len(messages) < 2 or 8 * sum(map(len, messages)) < self._min_shard_bits:
            return self._serial.compute_batch(messages)
        shards = [messages[a:b] for a, b in plan_shards(len(messages), self._workers)]
        _observe_shards(
            "crc-batch",
            [len(s) for s in shards],
            [sum(8 * len(m) for m in s) for s in shards],
        )
        results = self._pool.run(
            self._serial.compute_batch, [(s,) for s in shards]
        )
        return [crc for shard in results for crc in shard]


# ----------------------------------------------------------------------
# Streaming: pipeline shards
# ----------------------------------------------------------------------
class ShardedCRCPipeline:
    """Many concurrent CRC streams over N pipeline shards and a thread pool.

    Each shard is a full :class:`~repro.engine.pipeline.CRCPipeline`
    sharing one compile cache, so shards compile once collectively.  A
    stream lives on the shard :meth:`open` put it on until it is
    finalized or aborted.  ``pump`` hands every backlogged shard to the
    thread pool, each shard pumping its own streams through the byte
    engines.  The public surface mirrors ``CRCPipeline`` — ``open`` /
    ``feed`` / ``pump`` / ``finalize`` / ``abort`` — and
    is bit-exact against it under any delivery schedule, including
    mid-stream aborts (the ``parallel:workers1-vs-workersN`` fuzz oracle
    drives exactly that).

    Every public mutator is serialized on one re-entrant lock, so
    callers on several threads can never observe a half-advanced
    shard.  :meth:`close` is idempotent and thread-safe; after close,
    open streams stay intact and every call still computes bit-exact
    results — pumps simply run serially instead of re-spawning the
    worker pool.
    """

    def __init__(
        self,
        spec: CRCSpec,
        M: int,
        workers: Optional[int] = None,
        cache: Optional[CompileCache] = None,
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
        self._home: Dict[Hashable, int] = {}
        self._auto_ids = count()
        self._ties = count()  # round-robin among equally loaded shards
        self._pool = (
            WorkerPool(self._workers) if self._workers > 1 else None
        )
        self._spec = spec
        self._M = M
        # Serializes open/feed/pump/finalize/abort/close so the
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
        """Per-shard pending-bits gauges (what :meth:`open` balances)."""
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
        """Open a stream on the least-loaded shard; returns its id.

        The shard with the fewest pending bits takes the stream; ties
        break round-robin, so an idle start spreads arrivals evenly.  An
        omitted id is the first ``shard-auto-N`` not already open.
        """
        with self._lock:
            if stream_id is None:
                stream_id = next(
                    sid for sid in map("shard-auto-{}".format, self._auto_ids)
                    if sid not in self._home
                )
            if stream_id in self._home:
                raise StreamError(f"stream {stream_id!r} is already open")
            pending = self.shard_pending()
            low = min(pending)
            candidates = [i for i, p in enumerate(pending) if p == low]
            shard = candidates[next(self._ties) % len(candidates)]
            self._shards[shard].open(stream_id=stream_id, register=register)
            self._home[stream_id] = shard
            return stream_id

    def feed(self, stream_id: Hashable, data: bytes, pump: bool = True) -> None:
        """Append message bytes to a stream (chunked calls compose)."""
        with self._lock:
            self._shard_of(stream_id).feed(stream_id, data, pump=False)
            if pump:
                self.pump()

    def pump(self) -> int:
        """Advance every backlogged shard concurrently.

        Returns the total number of M-bit blocks processed across shards.
        After :meth:`close`, pump rounds run serially (same results, no
        pool re-spawn).
        """
        with self._lock:
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
