""":class:`ServeClient` — the asyncio client for the ``repro.serve`` protocol.

A thin, honest mapping of the wire verbs onto coroutines: one method per
verb, errors from the server re-raised as the matching
:mod:`repro.errors` class (the ``code`` field selects it), and the
server's hello recorded so callers can discover the standard, digest
width and pipeline shape they connected to.  The load generator and the
test suite both drive the server exclusively through this class, so it
doubles as the protocol's reference client.

The client is a single-connection, single-caller object: requests and
responses strictly alternate on the one TCP stream (the protocol has no
request ids to correlate pipelined replies).  Open several clients for
concurrency — that is exactly what the server's multiplexing is for.

Each request writes its frame and then reads its own reply, inline.
Any exception or cancellation while a request awaits its reply (a
dropped server, ``asyncio.wait_for`` timing the call out) closes the
connection for good: the reply may still be on its way and would
otherwise answer the next request.  Every later request raises
:class:`~repro.errors.ProtocolError` naming that cause.  A ``draining``
refusal raises the dedicated :class:`~repro.errors.DrainingError`
(retryable; see its ``retryable`` attribute) rather than a generic
stream error.

>>> # doctest-style sketch (the real round-trip needs a running server):
>>> # async with await ServeClient.connect("127.0.0.1", port) as client:
>>> #     sid = await client.open_stream()
>>> #     await client.feed(sid, b"123456789")
>>> #     digest = await client.read_digest(sid)
"""

from __future__ import annotations

import asyncio
from typing import Optional, Type

from repro.errors import (
    DrainingError,
    ProtocolError,
    ReproError,
    StreamError,
    ValidationError,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    bound_reads,
    read_frame,
    write_frame,
)

#: Wire error code -> exception class raised client-side.
ERROR_CLASSES = {
    "protocol": ProtocolError,
    "stream": StreamError,
    "validation": ValidationError,
    "draining": DrainingError,
    "internal": ReproError,
}


class ServeClient:
    """One connection to a :class:`~repro.serve.server.ReproServer`.

    Build with :meth:`connect`; use as an async context manager (or call
    :meth:`aclose`).  Attributes :attr:`standard`, :attr:`width` and
    :attr:`M` are filled from the server hello.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: dict,
        max_frame: int = MAX_FRAME_BYTES,
    ):
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self._in_flight = False
        self._conn_exc: Optional[BaseException] = None
        self.hello = hello
        self.standard: str = hello.get("standard", "")
        self.width: int = hello.get("width", 0)
        self.M: int = hello.get("M", 0)

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> "ServeClient":
        """Open a connection and consume the server hello.

        Any failure after the connection opens (a hang-up or a garbled
        frame before the hello, a malformed hello, another protocol
        version, cancellation) closes the connection before it raises.
        """
        reader, writer = await asyncio.open_connection(host, port)
        try:
            bound_reads(writer.transport)
            hello, _ = await read_frame(reader, max_frame)
            if hello.get("op") != "hello" or not hello.get("ok"):
                raise ProtocolError(f"expected server hello, got {hello!r}")
            version = hello.get("version")
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"server speaks protocol version {version!r}, "
                    f"client speaks {PROTOCOL_VERSION}"
                )
        except BaseException:
            writer.close()
            raise
        return cls(reader, writer, hello, max_frame)

    # ------------------------------------------------------------------
    async def _request(self, header: dict, payload: bytes = b"") -> dict:
        """One request/response round trip; raises on error responses."""
        if self._conn_exc is not None:
            raise ProtocolError(
                f"connection is closed: {self._conn_exc!r}"
            ) from self._conn_exc
        if self._in_flight:
            raise ProtocolError(
                "a request is already in flight on this connection "
                "(ServeClient is single-caller; open one client per task)"
            )
        self._in_flight = True
        try:
            await write_frame(self._writer, header, payload)
            response, _ = await read_frame(self._reader, self._max_frame)
        except BaseException as exc:
            # Cut short mid-exchange, the connection is out of step: a
            # late reply would answer the next request.
            self._conn_exc = exc
            self._writer.close()
            raise
        finally:
            self._in_flight = False
        return self._check_response(response)

    def _check_response(self, response: dict) -> dict:
        if not response.get("ok"):
            code = response.get("code", "internal")
            exc_class: Type[ReproError] = ERROR_CLASSES.get(code, ReproError)
            message = response.get("error", f"server error ({code})")
            if exc_class is DrainingError:
                message += " (retryable: reconnect or try another replica)"
            exc = exc_class(message)
            exc.code = code  # surface the wire code for callers that branch
            raise exc
        return response

    async def open_stream(
        self,
        stream_id: Optional[str] = None,
        register: Optional[int] = None,
    ) -> str:
        """Open a stream (server assigns an id if none given)."""
        header = {"op": "open-stream"}
        if stream_id is not None:
            header["id"] = stream_id
        if register is not None:
            header["register"] = register
        response = await self._request(header)
        return response["id"]

    async def feed(self, stream_id: str, data: bytes) -> int:
        """Append message bytes; returns the server's pending-bits gauge.

        Chunked calls compose — chunk boundaries are invisible to the
        digest, so callers may split a message any way they like.  Any
        bytes-like object works (``memoryview`` slices travel to the wire
        without copying).
        """
        response = await self._request(
            {"op": "feed-chunk", "id": stream_id}, payload=data
        )
        return response.get("pending_bits", 0)

    async def read_digest(self, stream_id: str) -> int:
        """Finalize the stream and return its digest (closes the stream)."""
        response = await self._request({"op": "read-digest", "id": stream_id})
        return response["digest"]

    async def close_stream(self, stream_id: str) -> None:
        """Abort a stream without computing a digest."""
        await self._request({"op": "close-stream", "id": stream_id})

    async def stats(self) -> dict:
        """The server's state snapshot (see the ``stats`` verb)."""
        return await self._request({"op": "stats"})

    async def compute(self, data: bytes, chunk_bytes: int = 0) -> int:
        """Convenience: open, feed (optionally chunked), read digest."""
        stream_id = await self.open_stream()
        if chunk_bytes and chunk_bytes > 0:
            view = memoryview(data)  # chunk without copying the message
            for start in range(0, len(data), chunk_bytes):
                await self.feed(stream_id, view[start:start + chunk_bytes])
            if not data:
                await self.feed(stream_id, b"")
        else:
            await self.feed(stream_id, data)
        return await self.read_digest(stream_id)

    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Close the connection (server aborts any streams left open)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.aclose()
