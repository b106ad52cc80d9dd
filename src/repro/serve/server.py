""":class:`ReproServer` — the asyncio front door over a shared pipeline.

One server process owns one :class:`~repro.engine.pipeline.CRCPipeline`
and multiplexes every client connection onto it, which is exactly the
paper's operating point: one fixed datapath kept saturated by many
independent message streams arriving interleaved off the wire.  Four
design rules keep the asyncio layer honest about that shared mutable
pipeline:

* **The loop runs the pipeline.**  Every pipeline call — open, feed,
  pump, finalize, abort — runs inline on the event loop, so
  pipeline operations have one total order however many connections
  interleave.  There is no executor thread: the byte engines a served
  stream takes (the byte table, the byte-sliced gather) mostly hold the
  GIL, so a thread would buy no parallelism, and each loop→thread→loop
  hop costs more than the CRC of a 64-byte message.  The price is that
  a long call holds every other connection for its duration: a 1 MiB
  frame's gather takes ~5 ms on a 2-vCPU x86 host.
* **One frame per loop turn.**  Each connection is an
  :class:`asyncio.Protocol` that appends every read (at most
  :data:`~repro.serve.protocol.READ_BYTES`) to one buffer and answers
  the whole frames at its front one at a time: while another frame may
  be buffered, it pauses reading and answers the next one from
  ``loop.call_soon``, so a client that writes frames back to back gets
  one frame answered per turn, like every other connection.  While the
  transport's write buffer is over its high-water mark the connection
  reads and answers nothing, so a client that does not read its replies
  is held back by TCP.
* **Backpressure, not buffering.**  Feeds buffer their bytes, and a
  digest pumps every ready stream before it finalizes.  A feed that
  lifts the pipeline-wide pending bits over the high watermark pumps
  inline before the connection answers its next frame — unread bytes
  then back-pressure the client through TCP itself, so pending bits
  exceed the watermark by at most one frame.  A pump clocks in every
  whole M-bit block; what stays pending are sub-block tails that only
  more input or a digest moves.  Each ``feed-chunk`` ack carries the
  pending-bits gauge the feed left.
* **Drain, don't drop.**  On :meth:`ReproServer.drain` (wired to
  ``SIGTERM`` by the CLI) the listener closes, new ``open-stream``
  requests are refused with code ``"draining"``, open streams may keep
  feeding and finalize normally, and once the last stream closes (or the
  drain timeout aborts stragglers) the server flushes a telemetry
  snapshot and a flight-recorder dump.

Stream ids are namespaced per connection (connection 3's stream ``"a"``
and connection 7's stream ``"a"`` are distinct pipeline streams), so
clients never need to coordinate id choice.

Counts live once, in the server: :attr:`ReproServer.counters` (the stats
verb) and the ``serve_*`` families both read them, so the two cannot
disagree, and a request makes no registry call.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from itertools import count
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Set, Union

from repro.crc.spec import CRCSpec
from repro.engine.pipeline import CRCPipeline
from repro.errors import ProtocolError, ReproError, StreamError, ValidationError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    REQUEST_OPS,
    bound_reads,
    encode_frame,
    error_response,
    parse_frame,
)
# bench/spans.py's hook_server rebinds these two names here; the server
# itself no longer reads or writes frames through them.
from repro.serve.protocol import read_frame, write_frame  # noqa: F401
from repro.telemetry import (
    Owners,
    bind_families,
    default_flight_recorder,
    default_registry,
    default_tracer,
    write_json_lines,
)

#: A feed that lifts pipeline-wide pending bits over this pumps inline.
DEFAULT_HIGH_WATERMARK_BITS = 1 << 22  # 512 KiB of buffered message data

#: Block factor when the caller pins none.
DEFAULT_M = 128

#: ``serve_messages_total`` labels: any verb not in REQUEST_OPS is "unknown".
MESSAGE_OPS = (*REQUEST_OPS, "unknown")
#: ``serve_errors_total`` labels: the error taxonomy.
ERROR_CODES = ("protocol", "validation", "stream", "internal", "draining")


def _bind(reg) -> Owners:
    """Bind the ``serve_*`` families to the counts of the live servers."""
    live = Owners()
    messages = reg.counter(
        "serve_messages_total", "Request frames handled, by verb",
        labels=("op",),
    )
    for op in MESSAGE_OPS:
        messages.labels(op=op).bind(lambda op=op: live.total(("messages", op)))
    errors = reg.counter(
        "serve_errors_total", "Error responses sent, by error code",
        labels=("code",),
    )
    for code in ERROR_CODES:
        errors.labels(code=code).bind(lambda code=code: live.total(("errors", code)))
    reg.gauge(
        "serve_connections", "Client connections currently open",
    ).bind(lambda: live.sum(lambda server: len(server._connections)))
    reg.counter(
        "serve_backpressure_pauses_total",
        "Feeds that lifted pending bits over the watermark and pumped inline",
    ).bind(lambda: live.total("backpressure_pauses"))
    return live


# Bound lazily per registry (see repro.telemetry.bind_families).
_OWNERS = bind_families(_bind)


class _Connection(asyncio.Protocol):
    """One client connection: its streams and the bytes it has sent that
    are not answered yet (see "One frame per loop turn" above)."""

    __slots__ = ("server", "conn_id", "streams", "auto_ids", "transport",
                 "_buffer", "_writes_paused", "_eof")

    def __init__(self, server: "ReproServer"):
        self.server = server
        self.conn_id = next(server._conn_ids)
        #: client-visible stream id -> namespaced pipeline stream id
        self.streams: Dict[str, str] = {}
        self.auto_ids = count()
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._writes_paused = False
        self._eof = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        bound_reads(transport)
        self.transport = transport
        self.server._connections.add(self)
        self.server._counts["connections"] += 1
        transport.write(self.server._hello)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()

    def eof_received(self) -> bool:
        # Answer what is buffered, then close (see _serve).
        self._eof = True
        self._serve()
        return True

    def pause_writing(self) -> None:
        self._writes_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._writes_paused = False
        self._serve()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        server = self.server
        server._connections.discard(self)
        server._abort_streams(self)
        server._check_no_streams()

    def _serve(self) -> None:
        """Answer the first whole frame buffered, if there is one."""
        if self.transport.is_closing():
            return
        server = self.server
        try:
            frame = parse_frame(self._buffer, server._max_frame)
            if frame is None:
                if self._eof:
                    self.transport.close()
                else:
                    self.transport.resume_reading()
                return
            header, payload, used = frame
            del self._buffer[:used]
            response = server._dispatch(self, header, payload)
            wire = encode_frame(response)
        except ProtocolError as exc:  # malformed bytes, or a reply too long to frame
            server._counts["errors", "protocol"] += 1
            response = error_response(None, "protocol", str(exc))
            wire = encode_frame(response)
        self.transport.write(wire)
        if not response["ok"] and response["code"] == "protocol":
            # After a framing error the byte stream has no safe
            # resynchronization point: answer once, then hang up.
            self.transport.close()
        elif self._writes_paused:
            pass  # resume_writing answers the next frame
        elif self._buffer or self._eof:
            # Every other connection gets a turn before the next frame.
            self.transport.pause_reading()
            asyncio.get_running_loop().call_soon(self._serve)
        else:
            self.transport.resume_reading()


class ReproServer:
    """Serve one shared :class:`CRCPipeline` over the framed protocol.

    ``M`` is the pipeline's block factor (:data:`DEFAULT_M` unless
    given).  ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` after :meth:`start` — the pattern every test uses).

    Lifecycle: :meth:`start` → serve → :meth:`drain` (graceful, what
    SIGTERM triggers) or :meth:`aclose` (drain with no grace period).
    :meth:`serve_until_closed` parks until a drain completes.

    The server keeps the only copy of its counts, which :attr:`counters`
    and the ``serve_*`` metric families read.
    """

    def __init__(
        self,
        spec: CRCSpec,
        M: int = DEFAULT_M,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        high_watermark_bits: int = DEFAULT_HIGH_WATERMARK_BITS,
        drain_timeout_s: float = 30.0,
        telemetry_path: Union[None, str, Path] = None,
        flightrec_path: Union[None, str, Path] = None,
        max_frame: int = MAX_FRAME_BYTES,
    ):
        self._spec = spec
        self._host = host
        self._requested_port = port
        self._M = M
        self._high = high_watermark_bits
        self._drain_timeout = drain_timeout_s
        self._telemetry_path = Path(telemetry_path) if telemetry_path else None
        self._flightrec_path = Path(flightrec_path) if flightrec_path else None
        self._max_frame = max_frame

        self._pipeline: Optional[CRCPipeline] = None
        self._hello = b""  # the hello frame, encoded once by start()
        self._bound_port = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._state = "new"  # new -> serving -> draining -> closed
        self._conn_ids = count(1)
        self._connections: Set[_Connection] = set()
        self._no_streams = asyncio.Event()
        self._no_streams.set()
        self._closed_event = asyncio.Event()
        self._drain_task: Optional[asyncio.Task] = None
        # The one copy of every count; the registry reads it (see _bind).
        self._counts: Counter = Counter()
        if default_registry().enabled:
            _OWNERS().add(self, self._counts)

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
    def pipeline(self) -> Optional[CRCPipeline]:
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
        return self._pipeline.stream_count if self._pipeline is not None else 0

    @property
    def counters(self) -> Mapping[str, int]:
        """The stats verb's counts: a read-only view of the server's own."""
        counts = self._counts
        return MappingProxyType({
            "connections_total": counts["connections"],
            "messages_total": sum(counts["messages", op] for op in MESSAGE_OPS),
            "bytes_in_total": counts["bytes_in"],
            "digests_total": counts["digests"],
            "protocol_errors_total": counts["errors", "protocol"],
            "stream_errors_total": counts["errors", "stream"],
            "refused_draining_total": counts["errors", "draining"],
            "backpressure_pauses_total": counts["backpressure_pauses"],
        })

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build the pipeline and bind the listener."""
        if self._state != "new":
            raise ValidationError(f"cannot start a server in state {self._state!r}")
        self._pipeline = CRCPipeline(self._spec, self._M)
        self._hello = encode_frame({
            "op": "hello",
            "ok": True,
            "version": PROTOCOL_VERSION,
            "standard": self._spec.name,
            "width": self._spec.width,
            "M": self._pipeline.M,
        })
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self._host, self._requested_port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        self._state = "serving"
        recorder = default_flight_recorder()
        if recorder.enabled:
            recorder.record(
                "serve-start",
                f"listening on {self._host}:{self.port}",
                standard=self._spec.name,
                M=self._pipeline.M,
            )

    # ------------------------------------------------------------------
    # Request handling (each connection is a _Connection protocol)
    # ------------------------------------------------------------------
    def _dispatch(self, conn, header: dict, payload: bytes) -> dict:
        """Route one request; returns the response header."""
        op = header.get("op")
        # The verb is client input: anything else counts as "unknown".
        self._counts["messages", op if op in REQUEST_OPS else "unknown"] += 1
        try:
            if op == "open-stream":
                return self._op_open(conn, header)
            if op == "feed-chunk":
                return self._op_feed(conn, header, payload)
            if op == "read-digest":
                return self._op_digest(conn, header)
            if op == "close-stream":
                return self._op_close(conn, header)
            if op == "stats":
                return self._op_stats()
            self._counts["errors", "protocol"] += 1
            return error_response(
                op, "protocol",
                f"unknown verb {op!r} (expected one of {', '.join(REQUEST_OPS)})",
            )
        except StreamError as exc:
            self._counts["errors", "stream"] += 1
            return error_response(op, "stream", str(exc))
        except (ValidationError, ValueError) as exc:
            self._counts["errors", "validation"] += 1
            return error_response(op, "validation", str(exc))
        except ReproError as exc:
            self._counts["errors", "internal"] += 1
            return error_response(op, "internal", str(exc))

    def _op_open(self, conn: _Connection, header: dict) -> dict:
        if self._state != "serving":
            self._counts["errors", "draining"] += 1
            return error_response(
                "open-stream", "draining",
                "server is draining: no new streams accepted",
            )
        client_id = header.get("id")
        if client_id is None:
            client_id = next(
                cid for cid in map("auto-{}".format, conn.auto_ids)
                if cid not in conn.streams
            )
        client_id = str(client_id)
        if client_id in conn.streams:
            raise StreamError(f"stream {client_id!r} is already open")
        register = header.get("register")
        if register is not None and not isinstance(register, int):
            raise ValidationError(f"register must be an integer, got {register!r}")
        pipeline_id = f"c{conn.conn_id}:{client_id}"
        self._pipeline.open(pipeline_id, register)
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

    def _op_feed(self, conn: _Connection, header: dict, payload: bytes) -> dict:
        pipeline_id = self._stream_of(conn, header)
        self._pipeline.feed(pipeline_id, payload, pump=False)
        pending = self._pipeline.pending_bits()
        self._counts["bytes_in"] += len(payload)
        if pending > self._high:
            # The connection reads no frame until this pump has run, so
            # its unread frames back-pressure the client via TCP.
            self._counts["backpressure_pauses"] += 1
            self._pipeline.pump()
        return {
            "op": "feed-chunk",
            "ok": True,
            "id": str(header.get("id")),
            "pending_bits": pending,
        }

    def _op_digest(self, conn: _Connection, header: dict) -> dict:
        client_id = str(header.get("id"))
        digest = self._pipeline.finalize(self._stream_of(conn, header))
        del conn.streams[client_id]
        self._counts["digests"] += 1
        self._check_no_streams()
        return {
            "op": "read-digest",
            "ok": True,
            "id": client_id,
            "digest": digest,
            "width": self._spec.width,
        }

    def _op_close(self, conn: _Connection, header: dict) -> dict:
        client_id = str(header.get("id"))
        self._pipeline.abort(self._stream_of(conn, header))
        del conn.streams[client_id]
        self._check_no_streams()
        return {"op": "close-stream", "ok": True, "id": client_id}

    def _op_stats(self) -> dict:
        return {
            "op": "stats",
            "ok": True,
            "state": self._state,
            "standard": self._spec.name,
            "M": self._pipeline.M,
            "connections": len(self._connections),
            "streams": self._pipeline.stream_count,
            "pending_bits": self._pipeline.pending_bits(),
            "counters": dict(self.counters),
        }

    def _check_no_streams(self) -> None:
        if self.stream_count == 0:
            self._no_streams.set()

    def _abort_streams(self, conn: _Connection) -> None:
        """Abort every stream ``conn`` still owns (disconnect, drain timeout)."""
        for pipeline_id in conn.streams.values():
            try:
                self._pipeline.abort(pipeline_id)
            except ReproError:
                pass
        conn.streams.clear()

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
        paths were configured and closes all connections.
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
        # flowing so open streams can finish.  ``wait_closed`` waits for
        # those connections to drop (Python >= 3.12.1), so it comes last.
        if self._server is not None:
            self._server.close()
        self._check_no_streams()
        timeout = self._drain_timeout if timeout_s is None else timeout_s
        try:
            await asyncio.wait_for(self._no_streams.wait(), timeout)
        except asyncio.TimeoutError:
            for conn in self._connections:
                self._abort_streams(conn)
            self._no_streams.set()
        self._state = "closed"
        for conn in self._connections:
            conn.transport.close()
        if self._server is not None:
            await self._server.wait_closed()
        self._flush_observability()
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
