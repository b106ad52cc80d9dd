"""Contract of the async network service layer (:mod:`repro.serve`).

Six properties matter and each gets direct coverage:

* **Framing** — the length-prefixed JSON+binary wire format round-trips
  exactly and every malformation (truncation, oversize, non-JSON header,
  bad ``blen``) raises :class:`~repro.errors.ProtocolError`, never
  garbage decode.
* **Correctness under multiplexing** — digests served over the wire are
  bit-exact against a serial oracle, for whole messages, chunked feeds,
  many interleaved connections and seeded raw-socket schedules that cut
  frames anywhere and reset connections inside a frame, and stream ids
  are namespaced per connection.
* **Backpressure** — a feed that lifts the pending bits over the
  watermark is counted and pumped before its connection reads another
  frame, even when sub-block tails keep the gauge above the mark, so
  pending bits exceed the watermark by at most one frame and memory
  never balloons with unread frames; a client that never reads its
  replies is held back by TCP.
* **Drain** — while draining, open streams complete bit-exact and new
  work is refused with code ``"draining"``; afterwards the server is
  closed and its pipeline holds no stream.
* **Dispatch on the loop** — every pipeline call runs on the event
  loop's thread, and a client writing frames back to back does not
  starve another connection.
* **Client** — a request cut short (cancelled, or its connection
  dropped) closes the client's connection for good, so no later request
  waits forever or reads another request's reply.

No pytest-asyncio in the toolchain: each test drives its own event loop
through ``asyncio.run``.
"""

import asyncio
import collections
import random
import struct
import threading

import pytest

from repro.crc import BitwiseCRC, TableCRC, get
from repro.engine import CRCPipeline
from repro.errors import DrainingError, ProtocolError, StreamError
from repro.serve import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ReproServer,
    ServeClient,
    decode_frame,
    encode_frame,
    encode_frame_parts,
    run_loadgen,
)
from repro.serve.loadgen import IMIX_MIX, LoadgenReport, percentile
from repro.serve.protocol import READ_BYTES, error_response, read_frame, write_frame

SPEC = get("CRC-32")
ORACLE = TableCRC(SPEC)


def run(coro):
    return asyncio.run(coro)


def make_server(**kwargs):
    kwargs.setdefault("M", 64)
    return ReproServer(SPEC, **kwargs)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestProtocolFraming:
    def test_round_trip_with_payload(self):
        frame = encode_frame({"op": "feed-chunk", "id": "s"}, b"\x00\x01payload")
        header, payload, used = decode_frame(frame)
        assert header["op"] == "feed-chunk"
        assert header["blen"] == len(b"\x00\x01payload")
        assert payload == b"\x00\x01payload"
        assert used == len(frame)

    def test_round_trip_without_payload(self):
        frame = encode_frame({"op": "stats"})
        header, payload, used = decode_frame(frame)
        assert header == {"op": "stats"}
        assert payload == b""
        assert used == len(frame)

    def test_truncations_raise_protocol_error(self):
        frame = encode_frame({"op": "feed-chunk"}, b"abcdef")
        for cut in (0, 2, 6, len(frame) - 1):
            with pytest.raises(ProtocolError):
                decode_frame(frame[:cut])

    def test_non_json_header_rejected(self):
        raw = b"not json!!"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(struct.pack("!I", len(raw)) + raw)

    def test_non_object_header_rejected(self):
        raw = b"[1,2,3]"
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(struct.pack("!I", len(raw)) + raw)

    def test_oversize_header_length_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(struct.pack("!I", MAX_FRAME_BYTES + 1) + b"x")

    def test_bad_blen_rejected(self):
        for blen in (-1, "9", True, MAX_FRAME_BYTES + 1):
            raw = encode_frame({"op": "feed-chunk"})
            header, _, _ = decode_frame(raw)
            header["blen"] = blen
            import json

            encoded = json.dumps(header).encode()
            with pytest.raises(ProtocolError):
                decode_frame(struct.pack("!I", len(encoded)) + encoded)

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="too large"):
            encode_frame({"op": "feed-chunk"}, b"x" * (MAX_FRAME_BYTES + 1))

    def test_error_response_shape(self):
        header = error_response("open-stream", "draining", "nope")
        assert header == {
            "ok": False, "code": "draining", "error": "nope", "op": "open-stream",
        }

    @pytest.mark.parametrize("header, payload, wire", [
        ({"op": "hello", "ok": True, "version": 1, "standard": "CRC-32",
          "width": 32, "M": 128}, b"",
         b'\x00\x00\x00K{"M":128,"ok":true,"op":"hello","standard":"CRC-32",'
         b'"version":1,"width":32}'),
        ({"op": "open-stream", "id": "s0", "register": 0}, b"",
         b'\x00\x00\x00+{"id":"s0","op":"open-stream","register":0}'),
        ({"op": "open-stream", "ok": True, "id": "auto-0"}, b"",
         b'\x00\x00\x00,{"id":"auto-0","ok":true,"op":"open-stream"}'),
        ({"op": "feed-chunk", "id": "s0"}, b"12345",
         b'\x00\x00\x00&{"blen":5,"id":"s0","op":"feed-chunk"}12345'),
        ({"op": "feed-chunk", "ok": True, "id": "s0", "pending_bits": 40}, b"",
         b'\x00\x00\x009{"id":"s0","ok":true,"op":"feed-chunk","pending_bits":40}'),
        ({"op": "read-digest", "id": "s0"}, b"",
         b'\x00\x00\x00\x1e{"id":"s0","op":"read-digest"}'),
        ({"op": "read-digest", "ok": True, "id": "s0", "digest": 3421780262,
          "width": 32}, b"",
         b'\x00\x00\x00G{"digest":3421780262,"id":"s0","ok":true,'
         b'"op":"read-digest","width":32}'),
        ({"op": "close-stream", "id": "s0"}, b"",
         b'\x00\x00\x00\x1f{"id":"s0","op":"close-stream"}'),
        ({"op": "close-stream", "ok": True, "id": "s0"}, b"",
         b'\x00\x00\x00){"id":"s0","ok":true,"op":"close-stream"}'),
        ({"op": "stats"}, b"", b'\x00\x00\x00\x0e{"op":"stats"}'),
        ({"op": "stats", "ok": True, "state": "serving", "standard": "CRC-32",
          "M": 128, "connections": 1, "streams": 0, "pending_bits": 0,
          "counters": {"messages_total": 1, "connections_total": 1}}, b"",
         b'\x00\x00\x00\xa9{"M":128,"connections":1,"counters":'
         b'{"connections_total":1,"messages_total":1},"ok":true,"op":"stats",'
         b'"pending_bits":0,"standard":"CRC-32","state":"serving","streams":0}'),
        (error_response("feed-chunk", "stream",
                        "unknown stream 'x' on this connection (0 open)"), b"",
         b'\x00\x00\x00g{"code":"stream","error":"unknown stream \'x\' on this '
         b'connection (0 open)","ok":false,"op":"feed-chunk"}'),
        ({"op": "open-stream", "id": "café ☃"}, b"",
         b'\x00\x00\x00,{"id":"caf\\u00e9 \\u2603","op":"open-stream"}'),
    ])
    def test_frames_are_byte_identical(self, header, payload, wire):
        """The wire bytes of the hello, each verb's request and reply and an
        error reply: compact separators, sorted keys (nested ones too) and
        ASCII escapes."""
        assert encode_frame(header, payload) == wire


# ----------------------------------------------------------------------
# Frame-size boundary: exactly at the 1 MiB cap and one byte over
# ----------------------------------------------------------------------
class TestFrameSizeBoundary:
    """The cap is inclusive: == MAX_FRAME_BYTES is legal, +1 is typed
    ProtocolError on every path (encode, decode, async read, live server)."""

    def test_payload_at_exact_cap_round_trips(self):
        payload = b"\xa5" * MAX_FRAME_BYTES
        frame = encode_frame({"op": "feed-chunk", "id": "s"}, payload)
        header, decoded, used = decode_frame(frame)
        assert header["blen"] == MAX_FRAME_BYTES
        assert decoded == payload
        assert used == len(frame)

    def test_payload_one_byte_over_cap_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="too large"):
            encode_frame_parts(
                {"op": "feed-chunk", "id": "s"}, b"\xa5" * (MAX_FRAME_BYTES + 1)
            )

    def test_declared_blen_one_over_cap_refused_at_decode(self):
        import json

        raw = json.dumps(
            {"op": "feed-chunk", "blen": MAX_FRAME_BYTES + 1}
        ).encode()
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(struct.pack("!I", len(raw)) + raw)

    def test_read_frame_boundary(self):
        """The asyncio reader accepts == cap and rejects cap+1 by header
        alone, before buffering any payload bytes."""
        import json

        from repro.serve.protocol import read_frame

        async def scenario():
            reader = asyncio.StreamReader()
            payload = b"\x5a" * MAX_FRAME_BYTES
            reader.feed_data(encode_frame({"op": "feed-chunk"}, payload))
            header, got = await read_frame(reader)
            assert header["blen"] == MAX_FRAME_BYTES
            assert got == payload

            reader = asyncio.StreamReader()
            raw = json.dumps({"blen": MAX_FRAME_BYTES + 1}).encode()
            reader.feed_data(struct.pack("!I", len(raw)) + raw)
            with pytest.raises(ProtocolError, match="exceeds"):
                await read_frame(reader)

        run(scenario())

    def test_server_digests_exact_cap_payload_bit_exact(self):
        payload = bytes(range(256)) * (MAX_FRAME_BYTES // 256)
        assert len(payload) == MAX_FRAME_BYTES

        async def scenario():
            async with make_server(M=1024) as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    return await c.compute(payload)

        assert run(scenario()) == ORACLE.compute(payload)

    def test_exact_cap_frame_does_not_stall_the_loop(self, caplog):
        """A 1 MiB frame advances without holding the loop past asyncio's
        slow-callback threshold: debug mode logs no "Executing ... took"."""
        import gc
        import logging

        payload = bytes(range(256)) * (MAX_FRAME_BYTES // 256)
        CRCPipeline(SPEC, 1024)  # compile off the loop: start-up is not the subject
        # Nor is the heap the rest of the suite left behind: one full
        # collection of it can take over 0.1 s and would be charged to
        # whichever callback it lands in.  Collect it here and freeze the
        # survivors, so a collection on the loop sees only this frame's work.
        gc.collect()
        gc.freeze()

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_debug(True)
            loop.slow_callback_duration = 0.1
            async with make_server(M=1024) as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    return await c.compute(payload)

        try:
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                assert run(scenario()) == ORACLE.compute(payload)
        finally:
            gc.unfreeze()
        stalls = [
            r.getMessage() for r in caplog.records
            if r.name == "asyncio" and r.getMessage().startswith("Executing")
        ]
        assert stalls == []

    def test_both_ends_read_at_most_read_bytes(self):
        """Client and server transports ask the socket for READ_BYTES at
        most per read, and a frame spanning several reads still digests
        bit-exact."""
        payload = bytes(range(256)) * (3 * READ_BYTES // 256) + b"\x01"

        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    digest = await c.compute(payload)
                    (conn,) = server._connections
                    return (digest, c._writer.transport.max_size,
                            conn.transport.max_size)

        digest, client_reads, server_reads = run(scenario())
        assert digest == ORACLE.compute(payload)
        assert client_reads == server_reads == READ_BYTES

    def test_server_refuses_oversized_blen_then_hangs_up(self):
        """A frame *declaring* cap+1 payload bytes draws one typed
        ``protocol`` error response and a closed connection."""
        import json

        async def scenario():
            async with make_server() as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                hello, _ = await decode_stream(reader)
                assert hello["op"] == "hello"
                raw = json.dumps(
                    {"op": "feed-chunk", "id": "s", "blen": MAX_FRAME_BYTES + 1}
                ).encode()
                writer.write(struct.pack("!I", len(raw)) + raw)
                await writer.drain()
                response, _ = await decode_stream(reader)
                assert response["ok"] is False
                assert response["code"] == "protocol"
                assert await reader.read() == b""  # server hung up
                writer.close()

        async def decode_stream(reader):
            from repro.serve.protocol import read_frame

            return await read_frame(reader)

        run(scenario())


# ----------------------------------------------------------------------
# Server round trips
# ----------------------------------------------------------------------
class TestServerRoundTrip:
    def test_digest_matches_serial_oracle(self):
        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    assert c.standard == SPEC.name
                    assert c.width == SPEC.width
                    return await c.compute(b"123456789")

        assert run(scenario()) == ORACLE.compute(b"123456789")

    def test_chunked_feeds_compose(self):
        payload = bytes(range(256)) * 5

        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    whole = await c.compute(payload)
                    chunked = await c.compute(payload, chunk_bytes=17)
                    return whole, chunked

        whole, chunked = run(scenario())
        assert whole == chunked == ORACLE.compute(payload)

    def test_empty_message_digest(self):
        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    return await c.compute(b"")

        assert run(scenario()) == ORACLE.compute(b"")

    def test_register_override_honoured(self):
        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    sid = await c.open_stream(register=0)
                    await c.feed(sid, b"abc")
                    return await c.read_digest(sid)

        expected = SPEC.finalize(
            BitwiseCRC(SPEC).process_bits(0, SPEC.message_bits(b"abc"))
        )
        assert run(scenario()) == expected

    def test_stream_ids_namespaced_per_connection(self):
        async def scenario():
            async with make_server() as server:
                a = await ServeClient.connect(server.host, server.port)
                b = await ServeClient.connect(server.host, server.port)
                try:
                    await a.open_stream("same-name")
                    await b.open_stream("same-name")  # no collision
                    await a.feed("same-name", b"aaa")
                    await b.feed("same-name", b"bbbb")
                    return (
                        await a.read_digest("same-name"),
                        await b.read_digest("same-name"),
                    )
                finally:
                    await a.aclose()
                    await b.aclose()

        da, db = run(scenario())
        assert da == ORACLE.compute(b"aaa")
        assert db == ORACLE.compute(b"bbbb")

    def test_many_interleaved_connections_bit_exact(self):
        inputs = [
            # 12 connections, multi-chunk feeds
            [bytes([i]) * (13 * i + 1) for i in range(12)],
            # 32 concurrent connections, one feed each
            [bytes([i]) * (50 + i) for i in range(32)],
        ]

        async def one(server, payload):
            async with await ServeClient.connect(server.host, server.port) as c:
                sid = await c.open_stream()
                for start in range(0, len(payload), 97):
                    await c.feed(sid, payload[start:start + 97])
                return await c.read_digest(sid)

        async def scenario(messages):
            async with make_server() as server:
                return await asyncio.gather(*(one(server, m) for m in messages))

        for messages in inputs:
            digests = run(scenario(messages))
            assert digests == [ORACLE.compute(m) for m in messages]

    def test_stats_verb_reports_counters(self):
        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    await c.compute(b"stats-me")
                    return await c.stats()

        stats = run(scenario())
        assert stats["state"] == "serving"
        assert stats["standard"] == SPEC.name
        assert stats["counters"]["digests_total"] == 1
        assert stats["counters"]["protocol_errors_total"] == 0

    def test_stats_read_the_pipeline_after_a_digest(self):
        """The stats verb reads streams and pending bits from the pipeline
        itself, so a digest is reflected at once."""
        async def scenario():
            async with make_server(M=1024) as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    sid = await c.open_stream()
                    await c.feed(sid, bytes(64))
                    during = await c.stats()
                    await c.read_digest(sid)
                    after = await c.stats()
                    return during, after, server.pipeline.pending_bits()

        during, after, pipeline_pending = run(scenario())
        assert (during["streams"], during["pending_bits"]) == (1, 512)
        assert (after["streams"], after["pending_bits"]) == (0, 0)
        assert pipeline_pending == 0

    def test_hello_reports_the_default_block_factor(self):
        async def scenario():
            async with ReproServer(SPEC) as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    return c.hello, type(server.pipeline)

        hello, pipeline_type = run(scenario())
        assert hello["M"] == 128 and "workers" not in hello
        assert pipeline_type is CRCPipeline

    def test_disconnect_aborts_orphan_streams(self):
        async def scenario():
            async with make_server() as server:
                client = await ServeClient.connect(server.host, server.port)
                sid = await client.open_stream()
                await client.feed(sid, b"orphaned")
                await client.aclose()
                for _ in range(50):
                    if server.stream_count == 0:
                        break
                    await asyncio.sleep(0.01)
                return server.stream_count, server.pipeline.stream_count

        serve_streams, pipeline_streams = run(scenario())
        assert serve_streams == 0
        assert pipeline_streams == 0

    def test_connection_drop_with_op_in_flight_aborts_cleanly(self):
        """A client that vanishes mid-stream must not wedge the server
        or leak its stream."""
        async def scenario():
            async with make_server() as server:
                client = await ServeClient.connect(server.host, server.port)
                sid = await client.open_stream()
                await client.feed(sid, b"half a message")
                # Hard-drop the transport (no close-stream, no digest).
                client._writer.transport.abort()
                await client.aclose()
                for _ in range(200):
                    if server.stream_count == 0:
                        break
                    await asyncio.sleep(0.01)
                # The server must still serve new work afterwards.
                async with await ServeClient.connect(server.host, server.port) as c:
                    digest = await c.compute(b"still alive")
                return server.stream_count, digest

        leftover, digest = run(scenario())
        assert leftover == 0
        assert digest == ORACLE.compute(b"still alive")


# ----------------------------------------------------------------------
# Error handling
# ----------------------------------------------------------------------
class TestServerErrors:
    def test_unknown_stream_is_recoverable(self):
        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    with pytest.raises(StreamError):
                        await c.feed("never-opened", b"x")
                    # connection survives the stream error
                    return await c.compute(b"recovered")

        assert run(scenario()) == ORACLE.compute(b"recovered")

    def test_duplicate_stream_id_is_stream_error(self):
        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    await c.open_stream("dup")
                    with pytest.raises(StreamError):
                        await c.open_stream("dup")

        run(scenario())

    def test_omitted_id_skips_ids_already_open(self):
        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    await c.open_stream("auto-0")
                    sid = await c.open_stream()
                    await c.feed(sid, b"auto")
                    return sid, await c.read_digest(sid)

        assert run(scenario()) == ("auto-1", ORACLE.compute(b"auto"))

    def test_unknown_verb_drops_connection(self):
        from repro.serve.protocol import read_frame, write_frame

        async def scenario():
            async with make_server() as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await read_frame(reader)  # hello
                await write_frame(writer, {"op": "no-such-verb"})
                response, _ = await read_frame(reader)
                assert response["ok"] is False
                assert response["code"] == "protocol"
                with pytest.raises(asyncio.IncompleteReadError):
                    await read_frame(reader)
                writer.close()

        run(scenario())

    def test_a_reply_too_long_to_frame_hangs_up(self):
        """An id of 200,000 "é" travels as 400 KB of UTF-8, but the reply
        that echoes it would need 1.2 MB of JSON escapes: the server answers
        a typed ``protocol`` error instead and hangs up."""
        import json

        async def scenario():
            async with make_server() as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await read_frame(reader)  # hello
                raw = json.dumps({"op": "open-stream", "id": "é" * 200_000},
                                 ensure_ascii=False).encode()
                writer.write(struct.pack("!I", len(raw)) + raw)
                response, _ = await read_frame(reader)
                at_eof = await reader.read() == b""
                writer.close()
                await writer.wait_closed()
                for _ in range(100):
                    if server.stream_count == 0:
                        break
                    await asyncio.sleep(0.01)
                return response, at_eof, server.stream_count

        response, at_eof, streams = run(scenario())
        assert (response["ok"], response["code"]) == (False, "protocol")
        assert "too large" in response["error"]
        assert at_eof and streams == 0

    def test_a_client_that_half_closes_gets_every_reply(self):
        """Frames written before the client's end of file are all answered,
        then the server closes."""
        async def scenario():
            async with make_server() as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await read_frame(reader)  # hello
                writer.write(
                    encode_frame({"op": "open-stream", "id": "h"})
                    + encode_frame({"op": "feed-chunk", "id": "h"}, b"half")
                    + encode_frame({"op": "read-digest", "id": "h"})
                )
                writer.write_eof()
                replies = [(await read_frame(reader))[0] for _ in range(3)]
                at_eof = await reader.read() == b""
                writer.close()
                await writer.wait_closed()
                return replies, at_eof

        replies, at_eof = run(scenario())
        assert [r["op"] for r in replies] == ["open-stream", "feed-chunk", "read-digest"]
        assert replies[-1]["digest"] == ORACLE.compute(b"half")
        assert at_eof

    def test_close_stream_aborts_without_digest(self):
        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    sid = await c.open_stream()
                    await c.feed(sid, b"to be dropped")
                    await c.close_stream(sid)
                    with pytest.raises(StreamError):
                        await c.read_digest(sid)
                    stats = await c.stats()
                    return stats["streams"], stats["counters"]["digests_total"]

        assert run(scenario()) == (0, 0)


# ----------------------------------------------------------------------
# Client connection
# ----------------------------------------------------------------------
class TestClientConnection:
    def test_a_cancelled_request_closes_the_connection(self):
        """A request cut short leaves its reply on the way, so the next
        request must not take it for its own.  This fake server answers
        the first ``stats`` only once a second request arrives."""
        async def fake(reader, writer):
            try:
                await write_frame(writer, {
                    "op": "hello", "ok": True, "version": PROTOCOL_VERSION,
                })
                await read_frame(reader)
                await read_frame(reader)
                for n in (1, 2):
                    await write_frame(writer, {"op": "stats", "ok": True, "reply": n})
            except (asyncio.IncompleteReadError, ConnectionError):
                pass  # the client hung up instead of asking again
            finally:
                writer.close()

        async def scenario():
            server = await asyncio.start_server(fake, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(client.stats(), timeout=0.05)
                with pytest.raises(ProtocolError,
                                   match="connection is closed: CancelledError"):
                    await asyncio.wait_for(client.stats(), timeout=5)
            finally:
                await client.aclose()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_a_dropped_connection_fails_the_next_request(self):
        """The server drops the connection between two requests: the next
        request raises instead of waiting for a reply, and every later one
        names the cause."""
        async def scenario():
            async with make_server() as server:
                client = await ServeClient.connect(server.host, server.port)
                try:
                    await client.stats()
                    (conn,) = server._connections
                    conn.transport.abort()
                    with pytest.raises((asyncio.IncompleteReadError, ConnectionError)):
                        await asyncio.wait_for(client.stats(), timeout=5)
                    with pytest.raises(ProtocolError, match="connection is closed"):
                        await client.compute(b"too late")
                finally:
                    await client.aclose()

        run(scenario())


    @staticmethod
    def _failed_handshake(monkeypatch, handler, error):
        """``ServeClient.connect`` to a bare server running ``handler``
        raises ``error``; returns the client's writer it opened."""
        opened = []
        real = asyncio.open_connection

        async def recording(*args, **kwargs):
            reader, writer = await real(*args, **kwargs)
            opened.append(writer)
            return reader, writer

        monkeypatch.setattr(asyncio, "open_connection", recording)

        async def scenario():
            async def serve(reader, writer):
                try:
                    await handler(writer)
                finally:
                    writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(error):
                    await ServeClient.connect("127.0.0.1", port)
                (writer,) = opened
                assert writer.is_closing()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_a_server_that_hangs_up_before_the_hello_closes_the_client(self, monkeypatch):
        async def hang_up(writer):
            pass  # the handler's own close ends the connection

        self._failed_handshake(monkeypatch, hang_up, asyncio.IncompleteReadError)

    def test_a_garbled_hello_frame_closes_the_client(self, monkeypatch):
        async def garble(writer):
            writer.write(struct.pack(">I", 7) + b"not{json")
            await writer.drain()

        self._failed_handshake(monkeypatch, garble, ProtocolError)


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_watermark_pauses_are_counted_and_recover(self):
        payload = b"\xa5" * 4096

        async def scenario():
            async with make_server(high_watermark_bits=1024) as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    digests = []
                    for _ in range(4):
                        digests.append(await c.compute(payload, chunk_bytes=512))
                    stats = await c.stats()
                    return digests, stats["counters"]["backpressure_pauses_total"]

        digests, pauses = run(scenario())
        assert digests == [ORACLE.compute(payload)] * 4
        assert pauses > 0

    def test_feed_ack_carries_pending_gauge(self):
        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    sid = await c.open_stream()
                    pending = await c.feed(sid, b"12345")
                    await c.read_digest(sid)
                    return pending

        assert run(scenario()) == 40  # 5 bytes buffered, below one M-block

    def test_a_feed_over_the_watermark_pumps_before_the_next_frame(self):
        """One 4 KiB feed lifts the pending bits far over the watermark.
        The next request already sees every whole block clocked in, in
        every stream: at most one sub-block tail each."""
        async def scenario():
            async with make_server(M=128, high_watermark_bits=8192) as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    a, b = await c.open_stream(), await c.open_stream()
                    await c.feed(b, b"\x5a" * 100)  # 800 bits: below the mark
                    acked = await c.feed(a, bytes(4096))
                    stats = await c.stats()
                    digests = [await c.read_digest(a), await c.read_digest(b)]
                    return acked, stats, digests

        acked, stats, digests = run(scenario())
        assert acked == 8 * (4096 + 100) > 8192
        assert stats["pending_bits"] < 2 * 128
        assert stats["counters"]["backpressure_pauses_total"] == 1
        assert digests == [ORACLE.compute(bytes(4096)), ORACLE.compute(b"\x5a" * 100)]

    def test_sub_block_tails_above_the_watermark_do_not_park_a_connection(self):
        """Nine streams each holding 127 bytes at M = 1024 keep 9,144 bits
        pending that no pump can advance.  The connection pauses after the
        ninth feed, then resumes once a pump round has run, so its next
        request is still read."""
        async def scenario():
            async with make_server(M=1024, high_watermark_bits=8192) as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    sids = [await c.open_stream() for _ in range(9)]
                    pending = [await c.feed(sid, b"\x5a" * 127) for sid in sids]
                    tenth = await asyncio.wait_for(c.open_stream(), timeout=5)
                    await c.feed(tenth, b"tenth")
                    digests = [
                        await asyncio.wait_for(c.read_digest(sid), timeout=5)
                        for sid in sids + [tenth]
                    ]
                    stats = await c.stats()
                    return pending, digests, stats

        pending, digests, stats = run(scenario())
        assert pending[-1] == 9 * 127 * 8 > 8192
        assert digests == [ORACLE.compute(b"\x5a" * 127)] * 9 + [
            ORACLE.compute(b"tenth")
        ]
        assert stats["counters"]["backpressure_pauses_total"] >= 1
        assert stats["pending_bits"] == 0

    def test_a_client_that_never_reads_is_held_back(self):
        """A raw client writes requests and reads no reply.  Once its
        replies fill the socket and pass the server transport's high-water
        mark, the server stops reading that connection: ``messages_total``
        stops rising below the frames sent and the write buffer stays under
        the mark plus one reply.  Another connection still gets its digest,
        and once the client reads, every reply arrives, in order."""
        batch = 500

        def request(seq):
            # A digest of an unknown stream: its error reply echoes the
            # 4 KiB id, so a few thousand replies fill the socket buffers.
            return encode_frame({"op": "read-digest", "id": f"{seq:06d}" + "." * 4096})

        async def settled(server, transport, sent):
            """Poll until nothing is answered for 0.1 s; the peak buffer."""
            answered, quiet, peak = -1, 0, 0
            while quiet < 5 and answered < sent:
                await asyncio.sleep(0.02)
                peak = max(peak, transport.get_write_buffer_size())
                now = server.counters["messages_total"]
                quiet = quiet + 1 if now == answered else 0
                answered = now
            return answered, peak

        async def scenario():
            async with make_server() as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await read_frame(reader)  # hello
                (conn,) = server._connections
                transport = conn.transport
                sent = 0
                # Write until the replies no longer fit the socket buffers,
                # however large this host lets them grow.
                while sent < 100 * batch:
                    writer.write(b"".join(map(request, range(sent, sent + batch))))
                    sent += batch
                    answered, peak = await settled(server, transport, sent)
                    if answered < sent:
                        break
                high = transport.get_write_buffer_limits()[1]

                async with await ServeClient.connect(server.host, server.port) as c:
                    digest = await asyncio.wait_for(c.compute(b"fair"), timeout=5)
                held = server.counters["messages_total"] - answered - 3

                order = []
                for _ in range(sent):
                    reply, _ = await asyncio.wait_for(read_frame(reader), timeout=5)
                    assert reply["code"] == "stream"
                    order.append(int(reply["error"].split("'")[1][:6]))
                writer.close()
                await writer.wait_closed()
                return sent, answered, peak, high, digest, held, order

        sent, answered, peak, high, digest, held, order = run(scenario())
        assert answered < sent
        assert peak <= high + len(request(0)) + 100  # the mark plus one reply
        assert digest == ORACLE.compute(b"fair")
        assert held == 0  # nothing more of the held client was answered meanwhile
        assert order == list(range(sent))


# ----------------------------------------------------------------------
# Dispatch on the event loop
# ----------------------------------------------------------------------
class TestInlineDispatch:
    def test_every_pipeline_call_runs_on_the_loop_thread(self, monkeypatch):
        """Start-up, every verb, concurrent connections, connection
        clean-up and drain all call the pipeline from the event loop's
        own thread."""
        calls = []
        methods = ("__init__", "open", "feed", "pump", "pending_bits",
                   "finalize", "finalize_many", "abort")

        def recording(name, method):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return method(*args, **kwargs)
            return wrapper

        for name in methods:
            monkeypatch.setattr(CRCPipeline, name,
                                recording(name, getattr(CRCPipeline, name)))
        frame = bytes(range(256)) * 5 + bytes(238)  # 1518 B

        async def busy(server):
            async with await ServeClient.connect(server.host, server.port) as c:
                return [await c.compute(frame) for _ in range(20)]

        async def scenario():
            server = make_server(drain_timeout_s=0.05)
            await server.start()
            served = await asyncio.gather(*(busy(server) for _ in range(8)))
            assert served == [[ORACLE.compute(frame)] * 20] * 8
            async with await ServeClient.connect(server.host, server.port) as c:
                assert await c.compute(b"on the loop" * 40) == ORACLE.compute(
                    b"on the loop" * 40)
                sid = await c.open_stream()
                await c.feed(sid, b"closed unread")
                await c.close_stream(sid)
                await c.stats()
            orphan = await ServeClient.connect(server.host, server.port)
            await orphan.feed(await orphan.open_stream(), b"orphaned")
            await orphan.aclose()
            for _ in range(200):
                if server.stream_count == 0:
                    break
                await asyncio.sleep(0.01)
            straggler = await ServeClient.connect(server.host, server.port)
            await straggler.feed(await straggler.open_stream(), b"left open")
            await asyncio.wait_for(server.drain(), timeout=10)
            await straggler.aclose()
            return threading.get_ident()

        loop_thread = run(scenario())
        assert {thread for _, thread in calls} == {loop_thread}
        called = {name for name, _ in calls}
        assert {"__init__", "open", "feed", "pump", "finalize", "abort"} <= called

    def test_back_to_back_frames_do_not_starve_other_connections(self):
        """A client that writes a long burst of frames without reading
        still shares the loop: another connection's digest comes back
        before the burst has been answered."""
        burst = 400

        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as fair:
                    sid = await fair.open_stream()
                    await fair.feed(sid, b"fair share")
                    before = server.counters["messages_total"]

                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    await read_frame(reader)  # hello
                    frames = [encode_frame({"op": "open-stream", "id": "hog"})]
                    frames += [
                        encode_frame({"op": "feed-chunk", "id": "hog"}, b"x" * 16)
                    ] * burst
                    writer.write(b"".join(frames))
                    await writer.drain()
                    for _ in range(3):  # let the burst land and its handler start
                        await asyncio.sleep(0)

                    digest = await fair.read_digest(sid)
                    hog_answered = server.counters["messages_total"] - before - 1
                    for _ in range(burst + 1):
                        response, _ = await read_frame(reader)
                        assert response["ok"]
                    writer.close()
                    await writer.wait_closed()
                    return digest, hog_answered

        digest, hog_answered = run(scenario())
        assert digest == ORACLE.compute(b"fair share")
        assert hog_answered < burst + 1


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_open_streams_finish_bit_exact_while_new_work_refused(self):
        payload_a = bytes(range(200))
        payload_b = b"drain me" * 33

        async def scenario():
            server = make_server()
            await server.start()
            client = await ServeClient.connect(server.host, server.port)
            await client.open_stream("a")
            await client.open_stream("b")
            await client.feed("a", payload_a[:100])
            await client.feed("b", payload_b[:50])

            drain = asyncio.create_task(server.drain())
            while server.state != "draining":
                await asyncio.sleep(0.001)

            # New streams are refused with the dedicated retryable type
            # (a StreamError subclass, so broad handlers still work)...
            with pytest.raises(DrainingError, match="draining") as exc_info:
                await client.open_stream("c")
            assert exc_info.value.retryable is True
            assert exc_info.value.code == "draining"
            assert isinstance(exc_info.value, StreamError)
            refused_conn = False
            try:
                await ServeClient.connect(server.host, server.port)
            except (ConnectionRefusedError, OSError, ProtocolError,
                    asyncio.IncompleteReadError):
                refused_conn = True

            # ...but in-flight streams keep feeding and finalize exactly.
            await client.feed("a", payload_a[100:])
            await client.feed("b", payload_b[50:])
            digest_a = await client.read_digest("a")
            digest_b = await client.read_digest("b")
            await asyncio.wait_for(drain, timeout=10)
            state = server.state
            pipeline_empty = server.pipeline.stream_count == 0
            await client.aclose()
            return digest_a, digest_b, refused_conn, state, pipeline_empty

        digest_a, digest_b, refused_conn, state, pipeline_empty = run(scenario())
        assert digest_a == ORACLE.compute(payload_a)
        assert digest_b == ORACLE.compute(payload_b)
        assert refused_conn
        assert state == "closed"
        assert pipeline_empty

    def test_drain_timeout_aborts_stragglers(self):
        async def scenario():
            server = make_server(drain_timeout_s=0.05)
            await server.start()
            client = await ServeClient.connect(server.host, server.port)
            await client.open_stream("straggler")
            await client.feed("straggler", b"never finalized")
            await asyncio.wait_for(server.drain(), timeout=10)
            await client.aclose()
            return server.state, server.pipeline.stream_count

        state, streams = run(scenario())
        assert state == "closed"
        assert streams == 0

    def test_drain_with_straggler_finishes_when_wait_closed_waits_for_connections(
        self, monkeypatch
    ):
        """From Python 3.12.1 on, ``Server.wait_closed`` returns only once
        every connection has dropped.  Drain must still end within its
        timeout while a straggler keeps its connection open."""
        from asyncio import base_events

        async def wait_closed(self):  # the body Python 3.12.1 ships
            if self._waiters is None:
                return
            waiter = self._loop.create_future()
            self._waiters.append(waiter)
            await waiter

        monkeypatch.setattr(base_events.Server, "wait_closed", wait_closed)

        async def scenario():
            server = make_server(drain_timeout_s=0.05)
            await server.start()
            client = await ServeClient.connect(server.host, server.port)
            await client.open_stream("straggler")
            await client.feed("straggler", b"never finalized")
            try:
                await asyncio.wait_for(server.drain(), timeout=3)
            finally:
                await client.aclose()
            return server.state, server.pipeline.stream_count

        assert run(scenario()) == ("closed", 0)

    def test_drain_is_idempotent(self):
        async def scenario():
            server = make_server()
            await server.start()
            await server.drain()
            await server.drain()  # second call returns immediately
            return server.state

        assert run(scenario()) == "closed"

    def test_drain_flushes_telemetry_and_flight_dump(self, tmp_path):
        from repro.telemetry import (
            FlightRecorder,
            default_flight_recorder,
            read_json_lines,
            set_default_flight_recorder,
        )

        telemetry = tmp_path / "telemetry.jsonl"
        flight = tmp_path / "flight.jsonl"

        async def scenario():
            server = make_server(
                telemetry_path=telemetry, flightrec_path=flight
            )
            await server.start()
            async with await ServeClient.connect(server.host, server.port) as c:
                await c.compute(b"flush me")
            await server.drain()

        previous = set_default_flight_recorder(FlightRecorder())
        try:
            run(scenario())
        finally:
            set_default_flight_recorder(previous)
        assert telemetry.exists()
        read_json_lines(telemetry)  # parses as a valid snapshot
        events = FlightRecorder.load(flight)
        kinds = {e["kind"] for e in events}
        assert {"serve-start", "serve-drain", "serve-stop"} <= kinds
        anchor = FlightRecorder.load_anchor(flight)
        assert anchor is not None and "wall_unix" in anchor


# ----------------------------------------------------------------------
# Served differential: random schedules against the table oracle
# ----------------------------------------------------------------------
DIFF_SEEDS = range(20)
DIFF_ROUNDS = 8


def _cut(frames, rng, tally):
    """One batch of frames as the writes that carry it.  Each frame may be
    cut inside its length prefix, its JSON header and its payload, and
    frames with no cut between them share a write."""
    cuts, start, starts = set(), 0, []
    for frame in frames:
        (header_len,) = struct.unpack_from("!I", frame)
        parts = (("prefix", 1, 4), ("header", 5, 4 + header_len),
                 ("payload", 5 + header_len, len(frame)))
        for part, lo, hi in parts:
            if lo < hi and rng.random() < 0.4:
                cuts.add(start + rng.randrange(lo, hi))
                tally[part] += 1
        starts.append(start)
        start += len(frame)
        if rng.random() < 0.5:
            cuts.add(start)
    wire = b"".join(frames)
    edges = [0, *sorted(cuts - {0, len(wire)}), len(wire)]
    writes = [wire[a:b] for a, b in zip(edges, edges[1:])]
    tally["several"] += sum(
        any(a < s < b for s in starts) for a, b in zip(edges, edges[1:])
    )
    return writes


def _schedule(seed, tally):
    """A seeded op schedule over 1-3 connections, with every reply the
    server must send, worked out in advance from a model of its streams."""
    rng = random.Random(seed)
    conns = [{"streams": {}, "auto": 0} for _ in range(rng.randint(1, 3))]
    reset = (rng.randrange(len(conns)), rng.randrange(DIFF_ROUNDS)) \
        if rng.random() < 0.5 else None
    rounds = []
    for r in range(DIFF_ROUNDS):
        batches = {}
        for index, model in enumerate(conns):
            if model is None:
                continue
            streams = model["streams"]
            frames, expected = [], []
            for _ in range(rng.randint(1, 4)):
                op = rng.choices(("open", "feed", "digest", "close"),
                                 (3, 4, 2, 1))[0] if streams else "open"
                if op == "open":
                    if rng.random() < 0.5:
                        sid = rng.choice([f"s{k}" for k in range(len(streams) + 2)
                                          if f"s{k}" not in streams])
                        frames.append(encode_frame({"op": "open-stream", "id": sid}))
                    else:
                        while f"auto-{model['auto']}" in streams:
                            model["auto"] += 1
                        sid = f"auto-{model['auto']}"
                        model["auto"] += 1
                        frames.append(encode_frame({"op": "open-stream"}))
                    streams[sid] = bytearray()
                    expected.append(("open-stream", sid, None))
                    continue
                sid = rng.choice(sorted(streams))
                if op == "feed":
                    data = rng.randbytes(rng.randint(0, 3000))
                    streams[sid] += data
                    frames.append(encode_frame({"op": "feed-chunk", "id": sid}, data))
                    expected.append(("feed-chunk", sid, None))
                elif op == "digest":
                    message = bytes(streams.pop(sid))
                    tally["digests"] += 1
                    frames.append(encode_frame({"op": "read-digest", "id": sid}))
                    expected.append(("read-digest", sid, ORACLE.compute(message)))
                else:
                    del streams[sid]
                    frames.append(encode_frame({"op": "close-stream", "id": sid}))
                    expected.append(("close-stream", sid, None))
            writes = _cut(frames, rng, tally)
            if reset == (index, r):
                # Stop inside a frame, then reset the connection.
                k = rng.randrange(len(frames))
                stop = sum(map(len, frames[:k])) + rng.randrange(1, len(frames[k]))
                kept = []
                for write in writes:
                    kept.append(write[:stop])
                    stop -= len(write)
                    if stop <= 0:
                        break
                writes, expected = kept, None
                conns[index] = None
                tally["resets"] += 1
            batches[index] = (writes, expected)
        rounds.append(batches)
    return {
        "seed": seed,
        "connections": len(conns),
        "M": rng.choice((8, 64, 128, 1024)),
        "high_watermark_bits": rng.choice((1 << 22, 8192)),
        "rounds": rounds,
    }


async def _play(schedule):
    """Run one schedule against a loopback server; returns the digests it
    checked and the server's state once every connection has gone."""
    rng = random.Random(schedule["seed"])
    digests = 0
    async with make_server(M=schedule["M"],
                           high_watermark_bits=schedule["high_watermark_bits"]) as server:
        ends = []
        for _ in range(schedule["connections"]):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            hello, _ = await read_frame(reader)
            assert hello["op"] == "hello"
            ends.append((reader, writer))
        live = set(range(len(ends)))
        for batches in schedule["rounds"]:
            queues = {i: list(writes) for i, (writes, _) in batches.items()}
            while queues:
                index = rng.choice(sorted(queues))
                ends[index][1].write(queues[index].pop(0))
                await ends[index][1].drain()
                for _ in range(2):  # let the server read this write alone
                    await asyncio.sleep(0)
                if not queues[index]:
                    del queues[index]
            for index, (_, expected) in batches.items():
                reader, writer = ends[index]
                if expected is None:
                    writer.transport.abort()
                    live.discard(index)
                    continue
                for op, sid, digest in expected:
                    reply, _ = await asyncio.wait_for(read_frame(reader), timeout=5)
                    assert (reply["op"], reply["ok"], reply.get("id")) == (op, True, sid)
                    if op == "read-digest":
                        assert reply["digest"] == digest
                        digests += 1
        for _, writer in ends:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        for _ in range(500):
            if server.stream_count == 0 and not server._connections:
                break
            await asyncio.sleep(0.01)
        return (digests, server.stream_count, server.pipeline.pending_bits(),
                len(server._connections))


class TestServedDifferential:
    """Seeded schedules of open (with and without an id), feed, digest and
    close over 1-3 raw connections, each frame cut at random inside its
    prefix, header and payload, some writes carrying several frames and
    some connections reset inside a frame.  Every digest must equal
    ``TableCRC``'s, and the server must end with no stream, no pending bit
    and no connection."""

    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_schedule_matches_the_table_oracle(self, seed):
        schedule = _schedule(seed, collections.Counter())
        digests, streams, pending, connections = run(_play(schedule))
        assert (streams, pending, connections) == (0, 0, 0)

    def test_schedules_cut_every_part_of_a_frame(self):
        """Across the seeds, the schedules cut inside every part of a frame,
        share writes between frames, reset connections and read digests."""
        tally = collections.Counter()
        for seed in DIFF_SEEDS:
            _schedule(seed, tally)
        parts = ("prefix", "header", "payload", "several", "resets", "digests")
        assert min(tally[part] for part in parts) > 0, tally


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_percentile_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 50) == pytest.approx(2.5)
        assert percentile([], 99) == 0.0
        assert percentile([7.0], 42) == 7.0

    def test_report_rates_and_dict(self):
        report = LoadgenReport(
            standard="CRC-32", duration_s=2.0, connections=3,
            messages=100, bytes=6400, latencies_s=[0.001] * 100,
        )
        assert report.msgs_per_s == pytest.approx(50.0)
        assert report.bytes_per_s == pytest.approx(3200.0)
        assert report.p50_ms == pytest.approx(1.0)
        doc = report.to_dict()
        assert doc["errors"] == 0 and doc["digest_mismatches"] == 0

    def test_imix_mix_shape(self):
        assert IMIX_MIX == ((64, 7), (594, 4), (1518, 1))

    def test_short_run_verifies_every_digest(self):
        async def scenario():
            async with make_server(M=512) as server:
                return await run_loadgen(
                    server.host, server.port,
                    duration_s=0.4, connections=2, seed=11,
                )

        report = run(scenario())
        assert report.messages > 0
        assert report.errors == 0
        assert report.digest_mismatches == 0
        assert len(report.latencies_s) == report.messages


# ----------------------------------------------------------------------
# Zero-copy feeds
# ----------------------------------------------------------------------
class TestZeroCopy:
    """Bytes-like objects travel the hot paths without an intermediate copy.

    Three layers promise it: `encode_frame_parts` leaves the payload
    object untouched, `CRCPipeline.feed` expands any buffer in place via
    `np.frombuffer`, and `ServeClient` ships memoryview slices to the
    wire.  Digests must stay bit-exact regardless of buffer type.
    """

    def test_encode_frame_parts_leaves_payload_untouched(self):
        payload = bytearray(b"bulk payload that must not be copied")
        head, body = encode_frame_parts({"op": "feed-chunk", "id": "s"}, payload)
        assert body is payload  # the exact object, not a copy
        view = memoryview(payload)[4:20]
        head2, body2 = encode_frame_parts({"op": "feed-chunk", "id": "s"}, view)
        assert body2 is view

    def test_encode_frame_parts_matches_encode_frame(self):
        for payload in (b"", b"x", bytes(range(256))):
            head, body = encode_frame_parts({"op": "feed-chunk", "id": "s"}, payload)
            assert head + bytes(body) == encode_frame(
                {"op": "feed-chunk", "id": "s"}, payload
            )
        # Empty payload: no blen key, no body part.
        head, body = encode_frame_parts({"op": "stats"})
        header, _, _ = decode_frame(head)
        assert header == {"op": "stats"}
        assert body == b""

    @pytest.mark.parametrize("standard", ["CRC-32", "CRC-16/CCITT-FALSE"])
    def test_pipeline_feed_accepts_any_buffer(self, standard):
        # CRC-32 reflects its input, CCITT-FALSE does not: both unpackbits
        # orders must read bytearray and memoryview buffers bit-exact.
        spec = get(standard)
        message = bytes(range(256)) * 3
        digests = []
        for data in (message, bytearray(message), memoryview(message)):
            pipe = CRCPipeline(spec, 64)
            sid = pipe.open()
            pipe.feed(sid, data)
            digests.append(pipe.finalize(sid))
        assert len(set(digests)) == 1
        assert digests[0] == TableCRC(spec).compute(message)

    def test_pipeline_feed_accepts_memoryview_slices(self):
        message = bytes(range(200))
        pipe = CRCPipeline(SPEC, 64)
        sid = pipe.open()
        view = memoryview(message)
        for start in range(0, len(message), 33):
            pipe.feed(sid, view[start:start + 33])
        assert pipe.finalize(sid) == ORACLE.compute(message)

    def test_client_feeds_memoryview_chunks_over_the_wire(self):
        payload = bytes(range(256)) * 4

        async def scenario():
            async with make_server() as server:
                async with await ServeClient.connect(server.host, server.port) as c:
                    sid = await c.open_stream()
                    view = memoryview(payload)
                    for start in range(0, len(payload), 100):
                        await c.feed(sid, view[start:start + 100])
                    direct = await c.read_digest(sid)
                    mutable = await c.compute(bytearray(payload))
                    return direct, mutable

        direct, mutable = run(scenario())
        assert direct == mutable == ORACLE.compute(payload)
