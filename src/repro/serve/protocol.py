"""The ``repro.serve`` wire format: length-prefixed JSON + binary frames.

One frame is::

    +----------------+----------------------+------------------+
    | header length  |  JSON header (UTF-8) |  binary payload  |
    |  4 bytes, !I   |  header-length bytes |  header["blen"]  |
    +----------------+----------------------+------------------+

The header is a flat JSON object; when a frame carries binary data
(``feed-chunk`` payloads), the header's ``blen`` field declares exactly
how many payload bytes follow.  Keeping the bulk bytes *outside* the
JSON keeps the hot path copy-cheap: a 1500-byte Ethernet frame travels
as 1500 raw bytes plus a ~60-byte header, not as 2000+ base64
characters inside a JSON string.

Verbs (the ``op`` header field) are deliberately workload-agnostic —
they name streams and digests, never CRCs — so any engine a future
parallel binary machine compiles to can serve through the same frames:

``open-stream``
    Start a stream: optional client-chosen ``id``, optional initial
    ``register``.  Response echoes the id.
``feed-chunk``
    Append the frame's binary payload to stream ``id``; chunked calls
    compose (chunk boundaries are invisible to the digest).  The ack
    carries the server's total pending-bits gauge, which is also the
    client-visible backpressure signal.
``read-digest``
    Finalize stream ``id``: drains its shard and returns the digest
    (the stream is closed by this call).
``close-stream``
    Abort stream ``id`` without computing a digest.
``stats``
    Server-state snapshot: connections, open streams, pending bits,
    message counters, drain state.

Responses always carry ``ok`` (bool); failures add ``error`` (message)
and ``code`` — one of ``protocol`` / ``validation`` / ``stream`` /
``draining`` / ``internal`` — mirroring the :mod:`repro.errors`
taxonomy across the wire.

Malformed frames raise :class:`~repro.errors.ProtocolError` on the
reading side; the server answers one error frame where it still can and
drops the connection, because after a framing error the byte stream has
no trustworthy resynchronization point.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Optional, Tuple

from repro.errors import ProtocolError

#: Protocol version announced in the server hello and checked by clients.
PROTOCOL_VERSION = 1

#: Hard ceiling on header-JSON bytes and on binary payload bytes alike;
#: a frame can therefore never demand more than ~2 MiB of buffering.
MAX_FRAME_BYTES = 1 << 20

#: Bytes a connection asks its socket for per read.  asyncio's default,
#: 256 KiB, lies above the C allocator's mmap threshold (128 KiB on
#: glibc), so each read may map a fresh buffer and unmap it again: two
#: page faults per read or none, depending on what the process happened
#: to allocate before.  A frame longer than one read takes several.
READ_BYTES = 64 * 1024

#: The length prefix: 4 bytes, network byte order, unsigned.
_PREFIX = struct.Struct("!I")

#: Verbs a client may send.
REQUEST_OPS = ("open-stream", "feed-chunk", "read-digest", "close-stream", "stats")

#: Every header's encoder.  ``json.dumps`` with these options would build
#: a new encoder on each call, and each message sends three frames.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_frame_parts(header: dict, payload: bytes = b"") -> Tuple[bytes, bytes]:
    """Serialize one frame as ``(prefix + header, payload)`` — no payload copy.

    The payload rides through untouched (bytes, bytearray and memoryview
    all work), so writers that support vectored output
    (:meth:`asyncio.StreamWriter.writelines`) never concatenate the bulk
    bytes with the framing.  Raises
    :class:`~repro.errors.ProtocolError` on oversized headers/payloads
    rather than emitting a frame no peer would accept.
    """
    if len(payload):
        header = dict(header)
        header["blen"] = len(payload)
    raw = _ENCODER.encode(header).encode()
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header too large ({len(raw)} bytes)")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame payload too large ({len(payload)} bytes)")
    return _PREFIX.pack(len(raw)) + raw, payload


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one frame; declares ``blen`` when a payload rides along.

    The returned bytes are prefix + header + payload, ready for a single
    ``write``.  Hot paths should prefer :func:`encode_frame_parts`, which
    skips this concatenation copy.
    """
    head, body = encode_frame_parts(header, payload)
    return head + bytes(body) if len(body) else head


def parse_frame(
    buffer: bytes, max_frame: int = MAX_FRAME_BYTES
) -> Optional[Tuple[dict, bytes, int]]:
    """The first frame of ``buffer`` as ``(header, payload, used)``, or
    ``None`` while it is incomplete.

    A reader appends each read to one buffer and takes whole frames off
    its front.  Raises :class:`~repro.errors.ProtocolError` as soon as the
    bytes present are malformed: an oversized header length with the
    prefix alone, a bad or oversized ``blen`` with the header alone.
    """
    if len(buffer) < _PREFIX.size:
        return None
    (header_len,) = _PREFIX.unpack_from(buffer)
    _check_header_len(header_len, max_frame)
    end = _PREFIX.size + header_len
    if len(buffer) < end:
        return None
    header = _parse_header(buffer[_PREFIX.size:end])
    used = end + _payload_len(header, max_frame)
    if len(buffer) < used:
        return None
    return header, bytes(buffer[end:used]), used


def decode_frame(buffer: bytes) -> Tuple[dict, bytes, int]:
    """Parse one frame from ``buffer``; returns ``(header, payload, used)``.

    :func:`parse_frame` for a buffer that must hold a whole frame: raises
    :class:`~repro.errors.ProtocolError` if it does not hold one complete
    well-formed frame.
    """
    frame = parse_frame(buffer)
    if frame is None:
        raise ProtocolError(f"incomplete frame ({len(buffer)} bytes)")
    return frame


def bound_reads(transport: asyncio.Transport) -> None:
    """Cap the per-read buffer of ``transport`` at :data:`READ_BYTES`.

    Sets the ``max_size`` that asyncio's selector transports pass to
    each ``recv``.
    """
    transport.max_size = READ_BYTES


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame: int = MAX_FRAME_BYTES,
) -> Tuple[dict, bytes]:
    """Read one complete frame off an asyncio stream.

    Returns ``(header, payload)``.  Raises
    :class:`~asyncio.IncompleteReadError` on clean EOF mid-frame (and
    plain EOF before any byte), :class:`~repro.errors.ProtocolError` on
    malformed or oversized frames.
    """
    prefix = await reader.readexactly(_PREFIX.size)
    (header_len,) = _PREFIX.unpack(prefix)
    _check_header_len(header_len, max_frame)
    header = _parse_header(await reader.readexactly(header_len))
    blen = _payload_len(header, max_frame)
    payload = await reader.readexactly(blen) if blen else b""
    return header, payload


async def write_frame(
    writer: asyncio.StreamWriter, header: dict, payload: bytes = b""
) -> None:
    """Encode and send one frame, honouring transport flow control.

    The framing bytes and the payload go out as separate buffers
    (``writelines``), so the payload — bytes, bytearray or memoryview —
    is never copied into a concatenated frame.  ``await writer.drain()``
    is part of the contract: a slow peer back-pressures the sender
    instead of ballooning the write buffer.
    """
    head, body = encode_frame_parts(header, payload)
    if len(body):
        writer.writelines((head, body))
    else:
        writer.write(head)
    await writer.drain()


def _check_header_len(header_len: int, max_frame: int = MAX_FRAME_BYTES) -> None:
    if header_len == 0:
        raise ProtocolError("empty frame header")
    if header_len > max_frame:
        raise ProtocolError(
            f"frame header of {header_len} bytes exceeds the {max_frame}-byte limit"
        )


def _parse_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame header is not valid JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(header).__name__}"
        )
    return header


def _payload_len(header: dict, max_frame: int = MAX_FRAME_BYTES) -> int:
    blen = header.get("blen", 0)
    if not isinstance(blen, int) or isinstance(blen, bool) or blen < 0:
        raise ProtocolError(f"invalid payload length {blen!r}")
    if blen > max_frame:
        raise ProtocolError(
            f"frame payload of {blen} bytes exceeds the {max_frame}-byte limit"
        )
    return blen


def error_response(op: Optional[str], code: str, message: str) -> dict:
    """The standard failure response header for a request ``op``."""
    header = {"ok": False, "code": code, "error": message}
    if op:
        header["op"] = op
    return header
