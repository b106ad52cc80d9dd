""":class:`ReproServer` — the asyncio front door over a shared pipeline.

One server process owns one :class:`~repro.engine.parallel.ShardedCRCPipeline`
and multiplexes every client connection onto it, which is exactly the
paper's operating point: a fixed parallel datapath kept saturated by many
independent message streams arriving interleaved off the wire.  Three
design rules keep the asyncio layer honest about that shared mutable
pipeline:

* **One pipeline thread.**  Every pipeline call — open, feed, pump,
  finalize, abort — runs on a single-worker executor, so the event loop
  never blocks on GF(2) math and pipeline operations have a total order
  regardless of how many connections interleave.  (The pipeline's own
  re-entrant lock stays as defense-in-depth for direct library users.)
* **Micro-batched dispatch.**  Stream ops from all connections funnel
  through a :class:`~repro.engine.microbatch.MicroBatcher` that
  coalesces up to B queued ops into *one* executor round (the
  continuous-batching pattern).  The round runner then *regroups* the
  ops into wide engine calls — every feed applies with its pump
  deferred, every digest finalizes through
  :meth:`~repro.engine.parallel.ShardedCRCPipeline.finalize_many`
  behind a single pump, and every feed ack shares one
  pending-bits reading — so both the loop→thread handoff *and* the
  full-width matrix products amortize over the round.  That
  cross-stream reordering is legal because each connection awaits
  every response before its next request: all ops in one round belong
  to distinct streams.  The planner chooses B and the linger window
  per host (``batching=None``); ``batching=False`` (CLI ``--no-batch``)
  keeps the serial per-op path, which also remains the path during
  drain.
* **Backpressure, not buffering.**  Each ``feed-chunk`` ack carries the
  pipeline-wide pending-bits gauge.  When it crosses the high watermark
  the connection handler *stops reading frames* until the pump loop
  drains below the low watermark — unread bytes then back-pressure the
  client through TCP itself, so a fast client cannot balloon server
  memory.
* **Drain, don't drop.**  On :meth:`ReproServer.drain` (wired to
  ``SIGTERM`` by the CLI) the listener closes, new ``open-stream``
  requests are refused with code ``"draining"``, open streams may keep
  feeding and finalize normally, and once the last stream closes (or the
  drain timeout aborts stragglers) the server flushes a telemetry
  snapshot and a flight-recorder dump, then closes the pipeline.

Stream ids are namespaced per connection (connection 3's stream ``"a"``
and connection 7's stream ``"a"`` are distinct pipeline streams), so
clients never need to coordinate id choice.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from itertools import count
from pathlib import Path
from typing import Dict, Optional, Set, Union

from repro.crc.spec import CRCSpec
from repro.engine.microbatch import DEFAULT_MAX_BATCH, BatcherClosed, MicroBatcher
from repro.engine.parallel import ShardedCRCPipeline
# Imported here, on the main thread, rather than inside _build_pipeline:
# a first import on the pipeline thread allocates in a second malloc
# arena and raises the server's peak RSS by about a MiB.
from repro.engine.planner import KIND_CRC_STREAM, WorkloadDescriptor, default_planner
from repro.errors import ProtocolError, ReproError, StreamError, ValidationError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    REQUEST_OPS,
    error_response,
    read_frame,
    write_frame,
)
from repro.telemetry import (
    bind_families,
    default_flight_recorder,
    default_registry,
    default_tracer,
    write_json_lines,
)

#: Pause reading a connection once pipeline-wide pending bits exceed this.
DEFAULT_HIGH_WATERMARK_BITS = 1 << 22  # 512 KiB of buffered message data
#: Resume paused connections once pending bits fall back below this.
DEFAULT_LOW_WATERMARK_BITS = 1 << 20

#: Pause reading a connection once the micro-batch queue holds this many
#: ops per allowed round (i.e. ``high = factor * max_batch``) ...
BATCH_QUEUE_HIGH_FACTOR = 4
#: ... and resume once depth falls below ``max_batch`` rounds again.
BATCH_QUEUE_LOW_FACTOR = 1

#: Default expectations fed to the planner when ``auto`` sizing is on and
#: the caller pinned neither M nor workers: an IMIX-weighted mean frame
#: (~340 bytes) across a moderate stream population.
AUTO_PLAN_MESSAGE_BITS = 8 * 340
AUTO_PLAN_STREAMS = 64

# Bound lazily (see repro.telemetry.bind_families) so a registry swapped
# in after import is still observed.
_METRICS = bind_families(lambda reg: {
    "messages": reg.counter(
        "serve_messages_total", "Request frames handled, by verb",
        labels=("op",),
    ),
    "errors": reg.counter(
        "serve_errors_total", "Error responses sent, by error code",
        labels=("code",),
    ),
    "connections": reg.gauge(
        "serve_connections", "Client connections currently open",
    ),
    "backpressure": reg.counter(
        "serve_backpressure_pauses_total",
        "Times a connection paused reading on the pending-bits watermark",
    ),
})


class _Connection:
    """Per-connection book-keeping: id, owned streams, writer."""

    __slots__ = ("conn_id", "writer", "streams", "auto_ids")

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter):
        self.conn_id = conn_id
        self.writer = writer
        #: client-visible stream id -> namespaced pipeline stream id
        self.streams: Dict[str, str] = {}
        self.auto_ids = count()


class ReproServer:
    """Serve one shared :class:`ShardedCRCPipeline` over the framed protocol.

    ``auto=True`` (the default) asks the adaptive planner to size the
    pipeline (workers and block factor M) for a stream workload on this
    host; pass explicit ``M``/``workers`` to pin either.  ``port=0``
    binds an ephemeral port (read it back from :attr:`port` after
    :meth:`start` — the pattern every test uses).

    Lifecycle: :meth:`start` → serve → :meth:`drain` (graceful, what
    SIGTERM triggers) or :meth:`aclose` (drain with no grace period).
    :meth:`serve_until_closed` parks until a drain completes.
    """

    def __init__(
        self,
        spec: CRCSpec,
        M: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: Union[None, int, str] = None,
        auto: bool = True,
        batching: Optional[bool] = None,
        batch_max: Optional[int] = None,
        batch_linger_s: Optional[float] = None,
        high_watermark_bits: int = DEFAULT_HIGH_WATERMARK_BITS,
        low_watermark_bits: int = DEFAULT_LOW_WATERMARK_BITS,
        drain_timeout_s: float = 30.0,
        telemetry_path: Union[None, str, Path] = None,
        flightrec_path: Union[None, str, Path] = None,
        max_frame: int = MAX_FRAME_BYTES,
    ):
        if low_watermark_bits > high_watermark_bits:
            raise ValidationError(
                f"low watermark ({low_watermark_bits}) must not exceed the "
                f"high watermark ({high_watermark_bits})"
            )
        self._spec = spec
        self._host = host
        self._requested_port = port
        self._auto = auto
        self._M = M
        self._workers = workers
        self._batching = batching
        self._batch_max = batch_max
        self._batch_linger_s = batch_linger_s
        self._high = high_watermark_bits
        self._low = low_watermark_bits
        self._drain_timeout = drain_timeout_s
        self._telemetry_path = Path(telemetry_path) if telemetry_path else None
        self._flightrec_path = Path(flightrec_path) if flightrec_path else None
        self._max_frame = max_frame

        self._pipeline: Optional[ShardedCRCPipeline] = None
        self._batcher: Optional[MicroBatcher] = None
        self._batch_plan = None
        self._batch_queue_high = 0
        self._batch_queue_low = 0
        self._direct_ops = 0  # fast-path stream ops currently in flight
        self._bound_port = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._state = "new"  # new -> serving -> draining -> closed
        self._conn_ids = count(1)
        self._connections: Set[_Connection] = set()
        self._pending_bits = 0
        self._work = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._no_streams = asyncio.Event()
        self._no_streams.set()
        self._closed_event = asyncio.Event()
        self._pump_task: Optional[asyncio.Task] = None
        self._drain_task: Optional[asyncio.Task] = None
        # Deterministic counters mirrored into the stats verb (the
        # telemetry registry may be disabled; these always count).
        self.counters = {
            "connections_total": 0,
            "messages_total": 0,
            "bytes_in_total": 0,
            "digests_total": 0,
            "protocol_errors_total": 0,
            "stream_errors_total": 0,
            "refused_draining_total": 0,
            "backpressure_pauses_total": 0,
            "batches_total": 0,
            "batched_ops_total": 0,
        }

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``new`` / ``serving`` / ``draining`` / ``closed``."""
        return self._state

    @property
    def spec(self) -> CRCSpec:
        """The CRC standard every served stream computes."""
        return self._spec

    @property
    def pipeline(self) -> Optional[ShardedCRCPipeline]:
        """The shared pipeline (``None`` before :meth:`start`)."""
        return self._pipeline

    @property
    def host(self) -> str:
        """The bind host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        return self._bound_port if self._bound_port else self._requested_port

    @property
    def stream_count(self) -> int:
        """Streams currently open across all connections."""
        return sum(len(conn.streams) for conn in self._connections)

    @property
    def batching(self) -> bool:
        """True when stream ops route through the micro-batcher."""
        return self._batcher is not None and self._batcher.running

    @property
    def batcher(self) -> Optional[MicroBatcher]:
        """The micro-batcher (``None`` when batching is disabled)."""
        return self._batcher

    @property
    def batch_plan(self):
        """The planner's :class:`~repro.engine.planner.MicroBatchPlan`
        in force (``None`` when batching is off or pinned manually)."""
        return self._batch_plan

    # ------------------------------------------------------------------
    def _build_pipeline(self) -> ShardedCRCPipeline:
        """Size and construct the shared pipeline (runs off the loop)."""
        plan = None
        M = self._M
        if self._auto and (M is None or self._workers is None):
            workload = WorkloadDescriptor(
                kind=KIND_CRC_STREAM,
                standard=self._spec.name,
                message_bits=AUTO_PLAN_MESSAGE_BITS,
                streams=AUTO_PLAN_STREAMS,
                M=self._M,
            )
            plan = default_planner().plan(workload)
            if M is None:
                M = plan.M
            if self._workers is None and plan is not None:
                return ShardedCRCPipeline(self._spec, M, plan=plan)
        if M is None:
            M = 32
        return ShardedCRCPipeline(self._spec, M, workers=self._workers, plan=plan)

    def _resolve_batching(self):
        """Decide the micro-batch shape: pins, then the planner.

        Returns ``(enabled, max_batch, linger_s, crossover)``.  With
        ``batching=None`` and ``auto`` on, the planner's
        :meth:`~repro.engine.planner.Planner.plan_serve_batch` decision
        rules (including its serial fallback for engine-bound message
        sizes); pinned servers (``auto=False``) default to batching with
        static defaults, since no host profile is available without
        probing.  Explicit ``batching=True/False`` always wins.
        """
        enabled = self._batching
        max_batch = self._batch_max or DEFAULT_MAX_BATCH
        linger_s = self._batch_linger_s if self._batch_linger_s is not None else 0.0
        crossover = 2
        if enabled is False:
            return False, max_batch, linger_s, crossover
        if self._auto:
            workload = WorkloadDescriptor(
                kind=KIND_CRC_STREAM,
                standard=self._spec.name,
                message_bits=AUTO_PLAN_MESSAGE_BITS,
                streams=AUTO_PLAN_STREAMS,
                M=self._M,
            )
            plan = default_planner().plan_serve_batch(workload)
            self._batch_plan = plan
            if enabled is None:
                enabled = plan.enabled
            if plan.enabled:
                if self._batch_max is None:
                    max_batch = plan.max_batch
                if self._batch_linger_s is None:
                    linger_s = plan.linger_s
                crossover = max(1, plan.crossover_occupancy)
        elif enabled is None:
            enabled = True
        return bool(enabled), max_batch, linger_s, crossover

    async def start(self) -> None:
        """Build the pipeline, bind the listener, start the pump loop."""
        if self._state != "new":
            raise ValidationError(f"cannot start a server in state {self._state!r}")
        loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-pipeline"
        )
        self._pipeline = await loop.run_in_executor(
            self._executor, self._build_pipeline
        )
        enabled, max_batch, linger_s, crossover = self._resolve_batching()
        if enabled:
            self._batcher = MicroBatcher(
                self._executor,
                max_batch=max_batch,
                linger_s=linger_s,
                linger_min_depth=crossover,
            )
            self._batcher.register(self._spec.name, self._run_stream_ops)
            self._batch_queue_high = BATCH_QUEUE_HIGH_FACTOR * max_batch
            self._batch_queue_low = BATCH_QUEUE_LOW_FACTOR * max_batch
            self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._requested_port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        self._state = "serving"
        self._pump_task = asyncio.create_task(self._pump_loop())
        recorder = default_flight_recorder()
        if recorder.enabled:
            recorder.record(
                "serve-start",
                f"listening on {self._host}:{self.port}",
                standard=self._spec.name,
                M=self._pipeline.M,
                workers=self._pipeline.workers,
                batching=enabled,
                batch_max=max_batch if enabled else 0,
            )

    async def _call(self, fn, *args):
        """Run one pipeline operation on the dedicated pipeline thread."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _call_op(self, op, serial_fn):
        """Run one *stream* op — batched while serving, serial otherwise.

        ``op`` is the tagged tuple :meth:`_run_stream_ops` understands;
        ``serial_fn`` is the zero-argument equivalent for the per-op
        path.  The batcher shares the pipeline executor, so batched and
        serial ops keep one total order; during drain (or with batching
        off) every op takes the serial path.  Results and exceptions
        come back exactly as the serial path would deliver them — the
        batch runner contains failures per op.

        Depth-zero fast path: with at most one connection open there is
        nothing to coalesce with, so — provided the batcher is idle and
        no other fast-path op is in flight — the op runs directly on
        the pipeline executor and the lone connection keeps the serial
        path's latency instead of paying the batcher handoff.  The
        connection-count guard matters: gating on batcher idleness
        alone would let the first waiter woken after each round sneak
        onto the direct path and fragment the next round's occupancy.
        Ordering is safe either way because the single pipeline thread
        serializes direct calls and rounds into one total order, and
        each connection awaits every response before sending its next
        op.
        """
        if self._batcher is not None and self._state == "serving":
            if (
                len(self._connections) <= 1
                and self._direct_ops == 0
                and self._batcher.idle
            ):
                self._direct_ops += 1
                try:
                    return await self._call(serial_fn)
                finally:
                    self._direct_ops -= 1
            try:
                return await self._batcher.submit(self._spec.name, op)
            except BatcherClosed:
                pass  # drain raced the submit; fall through to serial
        return await self._call(serial_fn)

    def _run_stream_ops(self, ops):
        """Execute one micro-batch round of tagged stream ops (pipeline
        thread).

        The round regroups ops into wide engine calls instead of
        replaying them one by one: opens and closes apply in submission
        order, feeds apply with their pumps deferred, then every digest
        finalizes through :meth:`ShardedCRCPipeline.finalize_many` —
        whose single pump also advances the streams just fed — and all
        feed acks share one post-round ``pending_bits`` reading.
        Cross-stream reordering is safe because every op in a round
        belongs to a distinct stream (each connection awaits its
        response before sending the next request); per-op failure
        containment matches the serial path (an exception instance in a
        result slot fails only that op's future).
        """
        pipeline = self._pipeline
        results = [None] * len(ops)
        feed_slots = []
        digest_slots = []
        for i, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "feed":
                    pipeline.feed(op[1], op[2], pump=False)
                    feed_slots.append(i)
                elif kind == "digest":
                    digest_slots.append(i)
                elif kind == "open":
                    results[i] = pipeline.open(op[1], op[2])
                elif kind == "close":
                    pipeline.abort(op[1])
                    results[i] = True
                else:
                    results[i] = ValidationError(
                        f"unknown batched op kind {kind!r}"
                    )
            except Exception as exc:  # noqa: BLE001 — contained per op
                results[i] = exc
        if digest_slots:
            try:
                digests = pipeline.finalize_many(
                    [ops[i][1] for i in digest_slots]
                )
                for i, digest in zip(digest_slots, digests):
                    results[i] = digest
            except Exception:  # noqa: BLE001 — all-or-nothing group call
                # failed validation (e.g. one unknown stream): retry per
                # stream so only the offending op carries the error.
                for i in digest_slots:
                    try:
                        results[i] = pipeline.finalize(ops[i][1])
                    except Exception as exc:  # noqa: BLE001
                        results[i] = exc
        if feed_slots:
            pending = pipeline.pending_bits()
            for i in feed_slots:
                results[i] = pending
        return results

    # ------------------------------------------------------------------
    # Pump loop: coalesces feed signals into pump rounds and maintains
    # the pending-bits gauge that drives backpressure.
    # ------------------------------------------------------------------
    def _pump_pending(self) -> int:
        """Pump every whole block, then read the backlog (pipeline thread)."""
        self._pipeline.pump()
        return self._pipeline.pending_bits()

    async def _pump_loop(self) -> None:
        # One executor call per wake-up: ``pump`` drains every whole
        # block, so nothing is left for a second pass; feeds that land
        # meanwhile set ``_work`` again.
        while self._state != "closed":
            await self._work.wait()
            self._work.clear()
            if self._state == "closed":
                return
            self._pending_bits = await self._call(self._pump_pending)
            if self._pending_bits <= self._low:
                self._drained.set()

    def _note_pending(self, pending: int) -> None:
        """Update the backpressure gauge after a feed's ack round-trip."""
        self._pending_bits = pending
        if pending > self._high:
            self._drained.clear()
        self._work.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(next(self._conn_ids), writer)
        self._connections.add(conn)
        self.counters["connections_total"] += 1
        if default_registry().enabled:
            _METRICS()["connections"].inc()
        try:
            await write_frame(writer, {
                "op": "hello",
                "ok": True,
                "version": PROTOCOL_VERSION,
                "standard": self._spec.name,
                "width": self._spec.width,
                "M": self._pipeline.M,
                "workers": self._pipeline.workers,
            })
            await self._serve_frames(conn, reader, writer)
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass  # peer went away; cleanup below
        finally:
            self._connections.discard(conn)
            if default_registry().enabled:
                _METRICS()["connections"].dec()
            for pipeline_id in list(conn.streams.values()):
                try:
                    await self._call(self._pipeline.abort, pipeline_id)
                except ReproError:
                    pass
            conn.streams.clear()
            self._check_no_streams()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_frames(
        self,
        conn: _Connection,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            try:
                header, payload = await read_frame(reader, self._max_frame)
            except ProtocolError as exc:
                # After a framing error the byte stream has no safe
                # resynchronization point: answer once, then hang up.
                self._count_error("protocol")
                await self._safe_write(
                    writer, error_response(None, "protocol", str(exc))
                )
                return
            response, pause = await self._dispatch(conn, header, payload)
            await write_frame(writer, response)
            if not response.get("ok") and response.get("code") == "protocol":
                return
            if pause:
                # Stop reading until the pump loop drains below the low
                # watermark (and, when batching, the submission queue
                # falls back under a round's worth of ops); unread
                # frames back-pressure the client via TCP flow control.
                self.counters["backpressure_pauses_total"] += 1
                if default_registry().enabled:
                    _METRICS()["backpressure"].inc()
                await self._drained.wait()
                if self.batching:
                    await self._batcher.wait_depth_below(self._batch_queue_low)

    async def _dispatch(self, conn, header: dict, payload: bytes):
        """Route one request; returns ``(response_header, pause_reading)``."""
        op = header.get("op")
        self.counters["messages_total"] += 1
        if default_registry().enabled:
            _METRICS()["messages"].labels(op=str(op)).inc()
        try:
            if op == "open-stream":
                return await self._op_open(conn, header), False
            if op == "feed-chunk":
                return await self._op_feed(conn, header, payload)
            if op == "read-digest":
                return await self._op_digest(conn, header), False
            if op == "close-stream":
                return await self._op_close(conn, header), False
            if op == "stats":
                return self._op_stats(), False
            self._count_error("protocol")
            return error_response(
                op, "protocol",
                f"unknown verb {op!r} (expected one of {', '.join(REQUEST_OPS)})",
            ), False
        except StreamError as exc:
            self._count_error("stream")
            return error_response(op, "stream", str(exc)), False
        except (ValidationError, ValueError) as exc:
            self._count_error("validation")
            return error_response(op, "validation", str(exc)), False
        except ReproError as exc:
            self._count_error("internal")
            return error_response(op, "internal", str(exc)), False

    async def _op_open(self, conn: _Connection, header: dict) -> dict:
        if self._state != "serving":
            self.counters["refused_draining_total"] += 1
            self._count_error("draining")
            return error_response(
                "open-stream", "draining",
                "server is draining: no new streams accepted",
            )
        client_id = header.get("id")
        if client_id is None:
            client_id = f"auto-{next(conn.auto_ids)}"
        client_id = str(client_id)
        if client_id in conn.streams:
            raise StreamError(f"stream {client_id!r} is already open")
        register = header.get("register")
        if register is not None and not isinstance(register, int):
            raise ValidationError(f"register must be an integer, got {register!r}")
        pipeline_id = f"c{conn.conn_id}:{client_id}"
        pipeline = self._pipeline
        await self._call_op(
            ("open", pipeline_id, register),
            lambda: pipeline.open(pipeline_id, register),
        )
        conn.streams[client_id] = pipeline_id
        self._no_streams.clear()
        return {"op": "open-stream", "ok": True, "id": client_id}

    def _stream_of(self, conn: _Connection, header: dict) -> str:
        client_id = str(header.get("id"))
        try:
            return conn.streams[client_id]
        except KeyError:
            raise StreamError(
                f"unknown stream {client_id!r} on this connection "
                f"({len(conn.streams)} open)"
            ) from None

    async def _op_feed(self, conn: _Connection, header: dict, payload: bytes):
        pipeline_id = self._stream_of(conn, header)
        pipeline = self._pipeline

        def _feed() -> int:
            pipeline.feed(pipeline_id, payload, pump=False)
            return pipeline.pending_bits()

        pending = await self._call_op(("feed", pipeline_id, payload), _feed)
        self.counters["bytes_in_total"] += len(payload)
        self._note_pending(pending)
        response = {
            "op": "feed-chunk",
            "ok": True,
            "id": str(header.get("id")),
            "pending_bits": pending,
        }
        pause = pending > self._high or (
            self.batching and self._batcher.depth > self._batch_queue_high
        )
        return response, pause

    async def _op_digest(self, conn: _Connection, header: dict) -> dict:
        client_id = str(header.get("id"))
        pipeline_id = self._stream_of(conn, header)
        pipeline = self._pipeline
        digest = await self._call_op(
            ("digest", pipeline_id), lambda: pipeline.finalize(pipeline_id)
        )
        del conn.streams[client_id]
        self.counters["digests_total"] += 1
        self._check_no_streams()
        return {
            "op": "read-digest",
            "ok": True,
            "id": client_id,
            "digest": digest,
            "width": self._spec.width,
        }

    async def _op_close(self, conn: _Connection, header: dict) -> dict:
        client_id = str(header.get("id"))
        pipeline_id = self._stream_of(conn, header)
        pipeline = self._pipeline
        await self._call_op(
            ("close", pipeline_id), lambda: pipeline.abort(pipeline_id)
        )
        del conn.streams[client_id]
        self._check_no_streams()
        return {"op": "close-stream", "ok": True, "id": client_id}

    def _op_stats(self) -> dict:
        self._sync_batch_counters()
        response = {
            "op": "stats",
            "ok": True,
            "state": self._state,
            "standard": self._spec.name,
            "M": self._pipeline.M,
            "workers": self._pipeline.workers,
            "connections": len(self._connections),
            "streams": self.stream_count,
            "pending_bits": self._pending_bits,
            "batching": self.batching,
            "counters": dict(self.counters),
        }
        if self._batcher is not None:
            response["batch"] = dict(
                self._batcher.stats.to_dict(),
                depth=self._batcher.depth,
                max_batch=self._batcher.max_batch,
                linger_s=self._batcher.linger_s,
            )
        return response

    def _sync_batch_counters(self) -> None:
        """Mirror the batcher's round counters into :attr:`counters`."""
        if self._batcher is not None:
            self.counters["batches_total"] = self._batcher.stats.batches
            self.counters["batched_ops_total"] = self._batcher.stats.ops

    async def _safe_write(
        self, writer: asyncio.StreamWriter, header: dict
    ) -> None:
        """Best-effort write for error frames (the peer may be gone)."""
        try:
            await write_frame(writer, header)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    def _count_error(self, code: str) -> None:
        if code == "protocol":
            self.counters["protocol_errors_total"] += 1
        elif code == "stream":
            self.counters["stream_errors_total"] += 1
        if default_registry().enabled:
            _METRICS()["errors"].labels(code=code).inc()

    def _check_no_streams(self) -> None:
        if self.stream_count == 0:
            self._no_streams.set()

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    def install_signal_handlers(self) -> bool:
        """Wire SIGTERM/SIGINT to :meth:`drain`; False where unsupported."""
        import signal

        loop = asyncio.get_running_loop()
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.request_drain)
        except (NotImplementedError, RuntimeError):
            return False
        return True

    def request_drain(self) -> None:
        """Schedule :meth:`drain` from sync context (signal handlers)."""
        if self._drain_task is None and self._state in ("serving", "draining"):
            self._drain_task = asyncio.get_running_loop().create_task(self.drain())

    async def drain(self, timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown: finish open streams, refuse new ones, flush.

        Blocks until every open stream has finalized or been closed (or
        ``timeout_s`` elapses, at which point stragglers are aborted),
        then writes the telemetry snapshot and flight-recorder dump if
        paths were configured, closes all connections and the pipeline.
        Idempotent: a second call awaits the first drain's completion.
        """
        if self._state == "closed":
            return
        if self._state == "draining":
            await self._closed_event.wait()
            return
        self._state = "draining"
        recorder = default_flight_recorder()
        if recorder.enabled:
            recorder.record(
                "serve-drain",
                f"drain requested with {self.stream_count} open stream(s)",
                connections=len(self._connections),
            )
        # Stop accepting new connections; existing ones keep their frames
        # flowing so open streams can finish.
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Flush and retire the batcher: queued ops complete as batches,
        # then every remaining drain-phase op takes the serial path (an
        # idle batcher records an empty flush — also legal).
        if self._batcher is not None:
            await self._batcher.aclose()
            self._sync_batch_counters()
        self._check_no_streams()
        timeout = self._drain_timeout if timeout_s is None else timeout_s
        try:
            await asyncio.wait_for(self._no_streams.wait(), timeout)
        except asyncio.TimeoutError:
            for conn in list(self._connections):
                for pipeline_id in list(conn.streams.values()):
                    try:
                        await self._call(self._pipeline.abort, pipeline_id)
                    except ReproError:
                        pass
                conn.streams.clear()
            self._no_streams.set()
        self._state = "closed"
        # Unblock any handler parked on backpressure so connections close.
        self._drained.set()
        self._work.set()
        if self._pump_task is not None:
            await self._pump_task
        for conn in list(self._connections):
            conn.writer.close()
        self._flush_observability()
        await self._call(self._pipeline.close)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._closed_event.set()

    def _flush_observability(self) -> None:
        """Write the final telemetry snapshot + flight-recorder dump."""
        if self._telemetry_path is not None:
            write_json_lines(
                default_registry(), self._telemetry_path, tracer=default_tracer()
            )
        recorder = default_flight_recorder()
        if recorder.enabled:
            recorder.record(
                "serve-stop",
                "server closed",
                counters=dict(self.counters),
            )
        if self._flightrec_path is not None and recorder.enabled:
            recorder.save(self._flightrec_path)

    async def serve_until_closed(self) -> None:
        """Park until a drain (signal- or call-triggered) completes."""
        await self._closed_event.wait()

    async def aclose(self) -> None:
        """Drain with no grace period (open streams are aborted)."""
        await self.drain(timeout_s=0)

    async def __aenter__(self) -> "ReproServer":
        if self._state == "new":
            await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.aclose()
