""":class:`MicroBatcher` — cross-stream micro-batching for serve paths.

The continuous-batching pattern from inference serving, applied to LFSR
work: many concurrent connections each contribute small operations
(open / feed / finalize), and pushing every one through a pipeline
executor individually pays one loop→thread→loop handoff per op.  That
per-op dispatch tax, not GF(2) math, is what caps a serial serve path
near 10³ msgs/s while the batch engines do 10⁴–10⁵ in-process.  The
fix is the software analogue of the paper's wide datapath: coalesce B
queued ops into **one** executor call whose runner regroups them into
wide engine calls (one ``pump`` for every feed, one ``finalize_many``
for every digest), so the handoff amortizes to ``1/B`` per op.

Mechanics:

* :meth:`MicroBatcher.submit` enqueues ``(key, op)`` on a bounded
  submission queue and returns the op's result.  Ops are opaque to the
  batcher — the runner registered for ``key`` interprets them (a
  host may submit tagged tuples; :func:`run_ops` handles plain
  callables).  The queue bound is the natural backpressure surface —
  a host can pause its readers on :attr:`depth`.
* A drain task collects up to ``max_batch`` ops per round.  With
  ``linger_s == 0`` (the default) a round dispatches as soon as the
  queue is momentarily empty — **continuous batching**: while a round
  executes on the executor thread, the event loop stacks up the next
  one, so batch occupancy tracks offered load by itself and a single
  caller sees no added latency.  A positive linger sleeps once, up to
  that long, before the final gather — but only when at least
  ``linger_min_depth`` ops are already collected (the planner's
  crossover occupancy — below it the batcher flushes eagerly, keeping
  a lone client at serial-path latency).
* Ops are grouped by ``key`` (one key per compiled spec) and each
  group runs through its registered runner inside one executor call;
  per-stream ordering is preserved because a caller awaits each result
  before submitting the next op for that stream, while cross-stream
  ordering is deliberately relaxed — a runner may reorder ops for
  *different* streams to pack them into wide kernel calls.
* Exceptions are contained per op: a runner may return an exception
  instance in a result slot (or raise, failing its whole group) and
  only the affected futures see it — one bad stream never poisons a
  batch.

Ordering contract in one sentence: **ops for one stream execute in
submission order; ops for different streams may reorder within and
across rounds.**  See ``docs/ENGINE.md`` for a walkthrough and
``docs/OBSERVABILITY.md`` for the ``serve_batch_*`` metric family this
module publishes.

This is library code.  The digest server (:mod:`repro.serve.server`)
no longer routes its ops through a batcher: it calls its pipeline
inline on the event loop, because on 1–2 CPU hosts the loop→thread
hand-off cost more than rounds saved (``docs/SERVE.md``).
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.telemetry import bind_families, default_flight_recorder, default_registry


class BatcherClosed(ValidationError):
    """Raised by :meth:`MicroBatcher.submit` once the batcher stopped
    accepting work (closing or never started).  A distinct type so
    callers holding a serial fallback path can catch exactly this and
    reroute, without swallowing validation errors raised by the op
    itself."""


#: Default cap on ops coalesced into one executor round.
DEFAULT_MAX_BATCH = 64
#: Default submission-queue bound (acts as the backpressure reservoir).
DEFAULT_MAX_QUEUE = 1024

# Bound lazily (see repro.telemetry.bind_families) so a registry swapped
# in after import is still observed.
_METRICS = bind_families(lambda reg: {
    "occupancy": reg.histogram(
        "serve_batch_occupancy", "Ops coalesced per micro-batch round",
        buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
    ),
    "linger": reg.histogram(
        "serve_batch_linger_seconds",
        "Time from first op collected to round dispatch",
        buckets=(1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2),
    ),
    "queue_depth": reg.gauge(
        "serve_batch_queue_depth", "Ops waiting in the micro-batch queue",
    ),
    "batches": reg.counter(
        "serve_batches_total", "Micro-batch rounds dispatched",
    ),
    "batched_ops": reg.counter(
        "serve_batched_ops_total", "Ops executed inside micro-batch rounds",
    ),
})

#: A batched operation: opaque to the batcher, interpreted by the
#: runner registered for its key (a callable for :func:`run_ops`).
BatchOp = object
#: A group runner: executes its ops (reordering across streams is
#: allowed, see the module docstring), returns one result per op — an
#: exception instance in a slot fails just that op's future.
GroupRunner = Callable[[Sequence[BatchOp]], Sequence[object]]


def run_ops(ops: Sequence[Callable[[], object]]) -> List[object]:
    """The generic group runner: apply each callable, containing failures.

    Runs every op in submission order; an op that raises contributes its
    exception instance as that slot's result (scattered to exactly that
    op's future) instead of aborting the rest of the group.  Workload-
    aware runners (the serve layer's) beat this by regrouping ops into
    wide engine calls — this one is the drop-in for opaque thunks.
    """
    results: List[object] = []
    for op in ops:
        try:
            results.append(op())
        except Exception as exc:  # noqa: BLE001 — contained per op
            results.append(exc)
    return results


@dataclass
class MicroBatchStats:
    """Deterministic counters mirrored into server stats.

    ``occupancy_sum / batches`` is the mean batch occupancy; the full
    distribution lives in the ``serve_batch_occupancy`` histogram.
    """

    batches: int = 0
    ops: int = 0
    max_occupancy: int = 0
    empty_flushes: int = 0
    occupancy_sum: int = field(default=0, repr=False)

    @property
    def mean_occupancy(self) -> float:
        """Mean ops per dispatched round (0.0 before the first round)."""
        return self.occupancy_sum / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        """Flat scalar summary for the ``stats`` verb and flight dumps."""
        return {
            "batches": self.batches,
            "ops": self.ops,
            "max_occupancy": self.max_occupancy,
            "mean_occupancy": round(self.mean_occupancy, 3),
            "empty_flushes": self.empty_flushes,
        }


class MicroBatcher:
    """Coalesce ops from many submitters into single executor rounds.

    ``executor`` is where rounds run — for the serve path, the server's
    single pipeline thread, so batched and serial ops share one total
    order.  Register a :data:`GroupRunner` per key with :meth:`register`
    before submitting under that key; mixed-key rounds execute each
    key's group separately (grouped by compiled spec) inside the same
    executor call.

    Lifecycle: :meth:`start` → ``await submit(...)`` from any number of
    tasks → :meth:`aclose` (flushes the queue, then stops — an empty
    flush is legal and counted).

    The submission queue is a plain deque plus one waker event rather
    than an :class:`asyncio.Queue` — at 10⁴–10⁵ ops/s the queue's lock
    and waiter machinery would cost more than the executor handoff the
    batcher exists to amortize.
    """

    def __init__(
        self,
        executor: Executor,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        linger_s: float = 0.0,
        linger_min_depth: int = 2,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ):
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        if linger_s < 0:
            raise ValidationError(f"linger_s must be >= 0, got {linger_s}")
        if max_queue < max_batch:
            raise ValidationError(
                f"max_queue ({max_queue}) must be >= max_batch ({max_batch})"
            )
        self._executor = executor
        self.max_batch = max_batch
        self.linger_s = linger_s
        self.linger_min_depth = max(1, linger_min_depth)
        self.max_queue = max_queue
        self._runners: Dict[object, GroupRunner] = {}
        self._pending: Deque[Tuple[object, BatchOp, asyncio.Future]] = deque()
        self._wake = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._closing = False
        self._dispatching = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._depth_waiters: List[Tuple[int, asyncio.Future]] = []
        self._space_waiters: List[asyncio.Future] = []
        self.stats = MicroBatchStats()

    # ------------------------------------------------------------------
    def register(self, key: object, runner: GroupRunner) -> None:
        """Bind ``runner`` to ``key`` (one key per compiled spec)."""
        self._runners[key] = runner

    @property
    def depth(self) -> int:
        """Ops currently waiting in the submission queue."""
        return len(self._pending)

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`aclose`."""
        return self._task is not None and not self._task.done()

    @property
    def idle(self) -> bool:
        """True when no op is queued and no round is executing.

        The eager-flush rule taken one step further: a submitter that
        finds the batcher idle has nothing to coalesce with, so a host
        may run that op directly on the shared executor and skip the
        batcher handoff entirely — serial-path latency for a lone
        caller, with ordering intact because the executor serializes
        direct calls and rounds into one total order.  Hosts that
        bypass must track their own in-flight direct ops: two
        concurrent submitters both observing ``idle`` is exactly the
        moment batching starts to pay.
        """
        return not self._pending and not self._dispatching

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the drain task (call from the event loop)."""
        if self._task is not None:
            raise ValidationError("MicroBatcher is already started")
        self._closing = False
        self._task = asyncio.get_running_loop().create_task(self._drain_loop())
        recorder = default_flight_recorder()
        if recorder.enabled:
            recorder.record(
                "microbatch-start",
                f"max_batch={self.max_batch} linger_s={self.linger_s}",
                keys=len(self._runners),
                max_queue=self.max_queue,
            )

    async def submit(self, key: object, op: BatchOp) -> object:
        """Enqueue one op under ``key``; returns its result (or raises).

        Awaits queue space when the bound is hit (that wait is the
        batcher-side backpressure), then awaits the op's future.  The
        submitting task must not submit a second op for the same stream
        until this one resolves — that request/response alternation is
        what makes per-stream ordering hold.
        """
        if self._task is None or self._closing:
            raise BatcherClosed("MicroBatcher is not accepting work")
        if key not in self._runners:
            raise ValidationError(f"no runner registered for key {key!r}")
        loop = asyncio.get_running_loop()
        while len(self._pending) >= self.max_queue:
            gate = loop.create_future()
            self._space_waiters.append(gate)
            await gate
            if self._task is None or self._closing:
                raise BatcherClosed("MicroBatcher is not accepting work")
        future = loop.create_future()
        self._pending.append((key, op, future))
        if not self._wake.is_set():
            self._wake.set()
        if self._idle.is_set():
            self._idle.clear()
        return await future

    async def wait_depth_below(self, threshold: int) -> None:
        """Park until queue depth falls below ``threshold`` (drain resume)."""
        if self._task is None or len(self._pending) < threshold:
            return
        future = asyncio.get_running_loop().create_future()
        self._depth_waiters.append((threshold, future))
        await future

    async def flush(self) -> None:
        """Wait until the queue is empty and no round is executing.

        Flushing an idle batcher completes immediately and counts an
        ``empty_flush`` — the drain path calls this unconditionally.
        """
        if self._task is None:
            return
        if self._idle.is_set() and not self._pending and not self._dispatching:
            self.stats.empty_flushes += 1
            return
        await self._idle.wait()

    async def aclose(self) -> None:
        """Flush outstanding work, then stop the drain task.

        Idempotent.  Ops submitted after close are refused with
        :class:`BatcherClosed`; a host falls back to its own serial
        path at that point.
        """
        if self._task is None:
            return
        self._closing = True
        await self.flush()
        task, self._task = self._task, None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        self._release_waiters()
        recorder = default_flight_recorder()
        if recorder.enabled:
            recorder.record(
                "microbatch-stop", "batcher closed", **self.stats.to_dict()
            )

    # ------------------------------------------------------------------
    async def _drain_loop(self) -> None:
        loop = asyncio.get_running_loop()
        pending = self._pending
        while True:
            await self._wake.wait()
            self._wake.clear()
            while pending:
                t0 = loop.time()
                batch = [
                    pending.popleft()
                    for _ in range(min(len(pending), self.max_batch))
                ]
                if (
                    self.linger_s > 0.0
                    and len(batch) < self.max_batch
                    and len(batch) >= self.linger_min_depth
                ):
                    # One straggler window, then a final greedy gather.
                    # Below the crossover occupancy the window is skipped
                    # entirely — eager flush keeps a lone client's p50 at
                    # the serial path's latency.
                    await asyncio.sleep(self.linger_s)
                    while pending and len(batch) < self.max_batch:
                        batch.append(pending.popleft())
                self._dispatching = True
                try:
                    await self._dispatch(batch, loop.time() - t0)
                finally:
                    self._dispatching = False
                self._release_waiters()
                # One event-loop tick before the next round: submitters
                # woken by this round's scatter get to enqueue their
                # next op first, so back-to-back rounds absorb them
                # instead of phase-splitting the population into
                # alternating sub-size cohorts (a lone straggler op
                # would otherwise lock half the submitters out of every
                # other round).
                await asyncio.sleep(0)
            self._idle.set()

    async def _dispatch(self, batch: list, linger: float) -> None:
        # Group by key, preserving submission order inside each group.
        groups: Dict[object, List[Tuple[BatchOp, asyncio.Future]]] = {}
        for key, op, future in batch:
            entries = groups.get(key)
            if entries is None:
                entries = groups[key] = []
            entries.append((op, future))

        def _run_round() -> Dict[object, Sequence[object]]:
            out: Dict[object, Sequence[object]] = {}
            for key, entries in groups.items():
                runner = self._runners[key]
                out[key] = runner([op for op, _ in entries])
            return out

        try:
            results = await asyncio.get_running_loop().run_in_executor(
                self._executor, _run_round
            )
        except Exception as exc:  # noqa: BLE001 — fail the whole round
            for entries in groups.values():
                for _, future in entries:
                    if not future.done():
                        future.set_exception(exc)
            return
        finally:
            self._note_round(batch, linger)
        for key, entries in groups.items():
            self._scatter(key, entries, results.get(key, ()))

    def _scatter(self, key, entries, group_results) -> None:
        """Resolve each op's future from its runner's result slot."""
        if len(group_results) != len(entries):
            exc = ValidationError(
                f"runner for key {key!r} returned {len(group_results)} "
                f"results for {len(entries)} ops"
            )
            for _, future in entries:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(entries, group_results):
            if future.done():
                continue  # submitter went away (connection dropped)
            if isinstance(result, BaseException):
                future.set_exception(result)
            else:
                future.set_result(result)

    def _note_round(self, batch: list, linger: float) -> None:
        occupancy = len(batch)
        self.stats.batches += 1
        self.stats.ops += occupancy
        self.stats.occupancy_sum += occupancy
        if occupancy > self.stats.max_occupancy:
            self.stats.max_occupancy = occupancy
        if default_registry().enabled:
            metrics = _METRICS()
            metrics["batches"].inc()
            metrics["batched_ops"].inc(occupancy)
            metrics["occupancy"].observe(occupancy)
            metrics["linger"].observe(linger)
            metrics["queue_depth"].set(len(self._pending))

    def _release_waiters(self) -> None:
        if self._space_waiters and (
            len(self._pending) < self.max_queue or self._task is None
        ):
            waiters, self._space_waiters = self._space_waiters, []
            for future in waiters:
                if not future.done():
                    future.set_result(None)
        if self._depth_waiters:
            depth = len(self._pending)
            still_waiting = []
            for threshold, future in self._depth_waiters:
                if future.done():
                    continue
                if depth < threshold or self._task is None:
                    future.set_result(None)
                else:
                    still_waiting.append((threshold, future))
            self._depth_waiters = still_waiting


async def submit_all(
    batcher: MicroBatcher, key: object, ops: Sequence[BatchOp]
) -> List[object]:
    """Submit ``ops`` concurrently under one key; gather their results.

    A convenience for tests and offline callers — each op still resolves
    through the normal round machinery, so this is the easiest way to
    force a multi-op batch deterministically.
    """
    return list(await asyncio.gather(*(
        batcher.submit(key, op) for op in ops
    )))


__all__ = [
    "BatchOp",
    "BatcherClosed",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_QUEUE",
    "GroupRunner",
    "MicroBatchStats",
    "MicroBatcher",
    "run_ops",
    "submit_all",
]
