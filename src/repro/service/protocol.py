"""Length-prefixed JSON framing for the limited-use service.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON (one object per frame).  Length-prefixing keeps the protocol
trivially incremental-parse-free on both sides - a reader either gets a
whole object or knows the peer went away - and the explicit
:data:`MAX_FRAME_BYTES` cap means a corrupt or hostile length word
cannot make the server allocate unbounded memory.

Requests are ``{"op": ..., ...}`` objects; responses always carry a
``"status"`` field (``"ok"`` or an error/denial code) so clients can
switch on one key.  The helpers here are shared verbatim by the server,
the client and the tests, which is what makes the differential
byte-identity tests meaningful: both sides serialize through
:func:`encode_frame` with :data:`CANONICAL_JSON`, so equal response
dicts are equal bytes on the wire.
"""

from __future__ import annotations

import asyncio
import json
import struct

from repro.errors import ConfigurationError

__all__ = [
    "CANONICAL_JSON",
    "MAX_FRAME_BYTES",
    "READ_CHUNK_BYTES",
    "cap_socket_reads",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "ok",
    "denied",
]

#: Hard cap on one frame's JSON payload (requests and responses alike).
MAX_FRAME_BYTES = 1 << 20

#: Most bytes one socket read may take.  asyncio's transports read up
#: to 256 KiB at a time, above glibc's initial 128 KiB mmap threshold:
#: in a process with a compact heap every read then maps a fresh
#: buffer, shrinks it and takes minor page faults.  64 KiB reads come
#: from the heap; a larger frame takes several reads.
READ_CHUNK_BYTES = 64 * 1024

_LENGTH = struct.Struct(">I")

#: The one canonical JSON encoder: sorted keys, no spaces, ASCII-only.
#: Frames and WAL lines both go through its ``encode``, which gives the
#: bytes ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
#: gives without building an encoder per call.
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def cap_socket_reads(transport: asyncio.BaseTransport) -> None:
    """Cap each read of ``transport`` at :data:`READ_CHUNK_BYTES`."""
    transport.max_size = READ_CHUNK_BYTES


def encode_frame(payload: dict) -> bytes:
    """Serialize one payload to its wire frame (length word + JSON)."""
    body = CANONICAL_JSON.encode(payload).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol cap")
    return _LENGTH.pack(len(body)) + body


def decode_payload(body: bytes) -> dict:
    """Parse one frame body; every frame must hold a JSON object."""
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ConfigurationError("protocol frames must be JSON objects")
    return payload


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF before a length word."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConfigurationError(
            "connection closed mid-frame (torn length word)") from exc
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"peer announced a {length}-byte frame, cap is "
            f"{MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConfigurationError(
            "connection closed mid-frame (torn body)") from exc
    return decode_payload(body)


async def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    """Write one frame and drain the transport."""
    writer.write(encode_frame(payload))
    await writer.drain()


def ok(**fields) -> dict:
    """A success response."""
    response = {"status": "ok"}
    response.update(fields)
    return response


def denied(status: str, message: str, **fields) -> dict:
    """A structured denial/error response (never a silent drop)."""
    response = {"status": status, "message": message}
    response.update(fields)
    return response
