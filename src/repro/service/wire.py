"""The framed wire protocol under the socket transports.

Everything that crosses a TCP connection — bus envelopes, ingest
batches, heartbeats, handshakes — travels as one *frame*::

    +-------+---------+-------+-----------+-----------+---------+
    | magic | version | ftype | length u32| payload   | crc32   |
    | 4 B   | 1 B     | 1 B   | 4 B BE    | length B  | 4 B BE  |
    +-------+---------+-------+-----------+-----------+---------+

The CRC32 trailer covers the whole header and the payload, so a
flipped bit anywhere is caught before the payload is decoded.  A magic
or version mismatch, a CRC failure, or a length beyond
:data:`MAX_FRAME_BYTES` each raise a distinct
:class:`WireError` subclass — the receiving side closes the connection
rather than guessing at resynchronization, and the reconnect machinery
(sequence numbers + cumulative acks, see :mod:`repro.service.stream`)
replays whatever the broken connection
lost.  A payload that fails to decode raises :class:`WireError` too.

Frame types are deliberately few.  Control payloads are JSON objects
of strings and ints.  DATA has one codec on both ports
(:func:`pack_data` / :func:`unpack_data`): a frame batch travels as
typed capture rows and every other bus message as a JSON array whose
shape is checked per kind, so no byte from any peer reaches an
object deserializer:

==============  ========================================================
``HELLO``       first frame on every connection: JSON carrying
                ``role`` plus ``run_id`` / ``shard`` / ``generation`` /
                stream counters (shards) or ``client_id`` (ingest), so
                a stale or cross-run peer is rejected
``HELLO_OK``    JSON ``{"received": n}``: the receiver's cumulative
                count, the resume point after a reconnect
``HELLO_REJECT``JSON ``{"reason": ...}``; the connection closes after it
``DATA``        u64 BE sequence number, a body tag, then capture rows
                (``frames``) or a JSON message (every other kind)
``CREDIT``      u64 BE cumulative ack count (flow control *and*
                retention trim in one frame)
``HEARTBEAT``   JSON counter dict; liveness plus ack redundancy
``BYE``         clean end-of-stream (ingest clients)
==============  ========================================================

Fault-injection seams: every encoded frame passes through
``faults.hook("socket.send")`` before the write and every decoded frame
through ``faults.hook("socket.recv")`` after the read, so chaos specs
like ``socket.recv:drop`` simulate loss and exercise the
resend/reconnect paths without a real flaky network.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Optional, Tuple

import numpy as np

from repro import faults
from repro.capture.records import (CAPTURE_DTYPE, FrameBatch, check_rows,
                                   concat_batches)
from repro.faults import DROPPED, CaptureError
from repro.faults.errors import ReproError

MAGIC = b"MRSB"
#: v2 made the control payloads JSON, v3 ingest DATA typed rows, and v4
#: every DATA payload typed rows or a JSON message.
WIRE_VERSION = 4

#: Upper bound on one frame's payload; a corrupt length field must not
#: make the reader try to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# Frame types.
HELLO = 1
HELLO_OK = 2
HELLO_REJECT = 3
DATA = 4
CREDIT = 5
HEARTBEAT = 6
BYE = 7

_HEADER = struct.Struct(">4sBBI")   # magic, version, ftype, length
_TRAILER = struct.Struct(">I")      # crc32
_SEQ = struct.Struct(">Q")          # u64 cumulative count
_DATA = struct.Struct(">QB")        # sequence, body tag
_ROWS = struct.Struct(">QBII")      # ... then row bytes, aux bytes
_ROWS_BODY, _JSON_BODY = 0, 1
#: Capture rows on the wire: little-endian whatever the host order.
_ROW_DTYPE = CAPTURE_DTYPE.newbyteorder("<")


class WireError(ReproError):
    """A framing-level failure; the connection is no longer trusted."""


class TruncatedFrame(WireError):
    """The stream ended mid-frame (mid-message disconnect)."""


class BadMagic(WireError):
    """The frame header did not start with :data:`MAGIC`."""


class VersionMismatch(WireError):
    """The peer speaks a different wire protocol version."""


class CrcMismatch(WireError):
    """The CRC32 trailer did not match the frame body."""


class ConnectionLost(WireError):
    """The underlying socket failed or closed."""


class HelloRejected(ReproError):
    """The peer refused the handshake (stale generation, wrong run).

    Deliberately *not* a :class:`WireError`: rejection is a protocol
    decision, not a transient link failure, so the supervised-reconnect
    retry filters (which retry :class:`WireError` and ``OSError``) let
    it propagate instead of hammering a peer that already said no.
    """


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    """One wire frame: header + payload + CRC32 trailer."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit")
    body = _HEADER.pack(MAGIC, WIRE_VERSION, ftype, len(payload)) + payload
    # The CRC covers everything after the magic, magic included costs
    # nothing and keeps the check a single pass over the frame.
    return body + _TRAILER.pack(zlib.crc32(body) & 0xFFFFFFFF)


def _recv_exactly(sock: socket.socket, count: int,
                  started: bool = False) -> bytes:
    """Read exactly ``count`` bytes or raise.

    A clean EOF before any byte of a frame raises
    :class:`ConnectionLost`; an EOF after the frame started raises
    :class:`TruncatedFrame` (the mid-message disconnect case).
    """
    chunks = []
    remaining = count
    while remaining > 0:
        try:
            chunk = sock.recv(remaining)
        except OSError as error:
            raise ConnectionLost(f"socket read failed: {error}") from error
        if not chunk:
            if chunks or started:
                raise TruncatedFrame(
                    f"connection closed mid-frame "
                    f"({count - remaining} of {count} bytes read)")
            raise ConnectionLost("connection closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one validated ``(ftype, payload)`` frame from ``sock``.

    Loops past frames a ``socket.recv:drop`` fault discards, so chaos
    runs see loss exactly where a flaky network would produce it.
    """
    while True:
        header = _recv_exactly(sock, _HEADER.size)
        magic, version, ftype, length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise BadMagic(f"bad frame magic {magic!r}")
        if version != WIRE_VERSION:
            raise VersionMismatch(
                f"peer speaks wire version {version}, "
                f"this side speaks {WIRE_VERSION}")
        if length > MAX_FRAME_BYTES:
            raise WireError(
                f"frame length {length} exceeds the "
                f"{MAX_FRAME_BYTES}-byte frame limit")
        payload = _recv_exactly(sock, length, started=True) if length \
            else b""
        trailer = _recv_exactly(sock, _TRAILER.size, started=True)
        (crc,) = _TRAILER.unpack(trailer)
        if zlib.crc32(header + payload) & 0xFFFFFFFF != crc:
            raise CrcMismatch(
                f"frame CRC mismatch on {length}-byte type-{ftype} frame")
        frame = (ftype, payload)
        if faults.hook("socket.recv", frame) is DROPPED:
            continue  # simulated loss: read the next frame instead
        return frame


def send_frame(sock: socket.socket, ftype: int,
               payload: bytes = b"") -> None:
    """Encode and write one frame (caller serializes concurrent writers).

    A ``socket.send:drop`` fault swallows the frame after encoding —
    the peer simply never sees it, like a lossy link would behave.
    """
    data = faults.hook("socket.send", encode_frame(ftype, payload))
    if data is DROPPED:
        return
    try:
        sock.sendall(data)
    except OSError as error:
        raise ConnectionLost(f"socket write failed: {error}") from error


# ----------------------------------------------------------------------
# Typed payload helpers
# ----------------------------------------------------------------------

def _count(value) -> bool:
    return type(value) is int and value >= 0


def _text(value) -> bool:
    return type(value) is str


#: The serving requests a shard answers.
REQUESTS = ("locate", "snapshot", "health", "metrics", "drain")

#: Field checks of each JSON message kind, after the kind itself;
#: ``("frames", FrameBatch)`` travels as rows instead.
_FIELDS = {
    "checkpoint": (_count,),
    "ckpt_ack": (_count,),
    "request": (_count, REQUESTS.__contains__,
                lambda payload: payload is None or _text(payload)),
    "reply": (_count, lambda result: True),
    "fatal": (_text,),
    "stop": (),
    "crash": (),
}


def _checked(message) -> tuple:
    """``message`` as a tuple if its fields fit its kind."""
    kind = message[0] if isinstance(message, (tuple, list)) and message \
        else None
    checks = _FIELDS.get(kind) if _text(kind) else None
    if checks is None or len(message) != len(checks) + 1 or not all(
            check(field) for check, field in zip(checks, message[1:])):
        raise WireError(f"not a JSON bus message: {message!r:.80}")
    return tuple(message)


def pack_data(seq: int, message: tuple) -> bytes:
    """A DATA payload: u64 sequence number and a body tag, then either
    u32 row and aux byte counts, the little-endian rows in
    :data:`~repro.capture.records.FRAME_TYPES` kind codes and the aux
    (``("frames", FrameBatch)``), or the message as a JSON array.  A
    message that does not fit its kind raises :class:`WireError`."""
    if isinstance(message, tuple) and message[:1] == ("frames",):
        if len(message) != 2 or not isinstance(message[1], FrameBatch):
            raise WireError("a frames message carries one FrameBatch")
        batch = concat_batches([message[1]])
        body = batch.records.astype(_ROW_DTYPE, copy=False).tobytes()
        return (_ROWS.pack(seq, _ROWS_BODY, len(body), len(batch.aux))
                + body + batch.aux)
    try:
        text = json.dumps(_checked(message), separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise WireError(f"unencodable bus message: {error}") from error
    return _DATA.pack(seq, _JSON_BODY) + text.encode("utf-8")


def unpack_data(payload: bytes) -> Tuple[int, tuple]:
    """Decode a DATA payload; any malformed one is a :class:`WireError`,
    and a frames message comes back only if every row decodes."""
    if len(payload) < _DATA.size:
        raise WireError(
            f"DATA payload of {len(payload)} bytes is too short for a "
            f"header")
    seq, tag = _DATA.unpack_from(payload)
    if tag == _JSON_BODY:
        try:
            message = json.loads(payload[_DATA.size:].decode("utf-8"))
        except (ValueError, RecursionError) as error:
            raise WireError(f"undecodable DATA payload: {error}") from error
        return seq, _checked(message)
    if tag != _ROWS_BODY:
        raise WireError(f"unknown DATA body tag {tag}")
    if len(payload) < _ROWS.size:
        raise WireError(
            f"DATA payload of {len(payload)} bytes is too short for a "
            f"row header")
    _, _, row_bytes, aux_bytes = _ROWS.unpack_from(payload)
    if _ROWS.size + row_bytes + aux_bytes != len(payload):
        raise WireError(
            f"DATA payload of {len(payload)} bytes does not hold the "
            f"{row_bytes} row and {aux_bytes} aux bytes it declares")
    if row_bytes % CAPTURE_DTYPE.itemsize:
        raise WireError(
            f"{row_bytes} row bytes is not a whole number of "
            f"{CAPTURE_DTYPE.itemsize}-byte rows")
    rows = np.frombuffer(payload, dtype=_ROW_DTYPE,
                         count=row_bytes // CAPTURE_DTYPE.itemsize,
                         offset=_ROWS.size)
    rows = rows.astype(CAPTURE_DTYPE, copy=False)
    aux = payload[_ROWS.size + row_bytes:]
    try:
        check_rows(rows, aux)
    except CaptureError as error:
        raise WireError(f"malformed DATA rows: {error}") from error
    return seq, ("frames", FrameBatch(rows, aux, checked=True))


def pack_count(count: int) -> bytes:
    """A CREDIT payload: one cumulative u64 count."""
    return _SEQ.pack(count)


def unpack_count(payload: bytes) -> int:
    if len(payload) != _SEQ.size:
        raise WireError(
            f"CREDIT payload must be {_SEQ.size} bytes, "
            f"got {len(payload)}")
    return _SEQ.unpack(payload)[0]


def pack_dict(mapping: dict) -> bytes:
    """A control payload (HELLO, HELLO_OK, HELLO_REJECT, HEARTBEAT)."""
    return json.dumps(mapping, separators=(",", ":")).encode("utf-8")


def unpack_dict(payload: bytes) -> dict:
    try:
        value = json.loads(payload)
    except (ValueError, RecursionError) as error:
        raise WireError(f"undecodable frame payload: {error}") from error
    if not isinstance(value, dict):
        raise WireError(
            f"expected a dict payload, got {type(value).__name__}")
    return value


def read_hello(sock: socket.socket,
               timeout: Optional[float] = None) -> dict:
    """Read the connection-opening HELLO (with its own deadline)."""
    previous = sock.gettimeout()
    sock.settimeout(timeout)
    try:
        # A recv timeout surfaces as OSError and is wrapped into
        # ConnectionLost by the frame reader, which is exactly right: a
        # peer that connects and goes silent is a lost connection.
        ftype, payload = read_frame(sock)
    finally:
        try:
            sock.settimeout(previous)
        except OSError:  # pragma: no cover - already closed
            pass
    if ftype != HELLO:
        raise WireError(f"expected HELLO, got frame type {ftype}")
    return unpack_dict(payload)
