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
of strings and ints; only DATA carries a pickle:

==============  ========================================================
``HELLO``       first frame on every connection: JSON carrying
                ``role`` plus ``run_id`` / ``shard`` / ``generation`` /
                stream counters (shards) or ``client_id`` (ingest), so
                a stale or cross-run peer is rejected
``HELLO_OK``    JSON ``{"received": n}``: the receiver's cumulative
                count, the resume point after a reconnect
``HELLO_REJECT``JSON ``{"reason": ...}``; the connection closes after it
``DATA``        u64 BE sequence number + pickled message
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
import pickle
import socket
import struct
import zlib
from typing import Any, Optional, Tuple

from repro import faults
from repro.faults import DROPPED
from repro.faults.errors import ReproError

MAGIC = b"MRSB"
WIRE_VERSION = 2

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
_SEQ = struct.Struct(">Q")          # u64 sequence / cumulative count


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

def pack_data(seq: int, message: Any) -> bytes:
    """A DATA payload: u64 sequence number + pickled message."""
    return _SEQ.pack(seq) + pickle.dumps(
        message, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_data(payload: bytes) -> Tuple[int, Any]:
    if len(payload) < _SEQ.size:
        raise WireError(
            f"DATA payload of {len(payload)} bytes is too short for a "
            f"sequence number")
    (seq,) = _SEQ.unpack_from(payload)
    try:
        return seq, pickle.loads(payload[_SEQ.size:])
    except Exception as error:  # pickle raises a zoo of types
        raise WireError(f"undecodable DATA payload: {error}") from error


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
