"""The exactly-once message stream under every TCP link.

Two links carry messages across a connection that may die at any
moment: the shard transport (:mod:`repro.service.socketbus`, both
directions) and the ingest gateway (:mod:`repro.service.gateway`,
collector → server).  Both promise that a message reaches the
receiving side exactly once and in order however often the connection
drops, and both get that promise from this module:

* :class:`Outbound` — the sending half.  It numbers messages, retains
  each until the peer's cumulative ack covers it, and on a new
  connection rewinds to the peer's received count so exactly the lost
  tail goes out again.
* :class:`Inbound` — the receiving half.  It delivers only the
  next-in-sequence message: a duplicate is dropped, a gap kills the
  connection so the reconnect resyncs from the cumulative counters.
* :func:`dial` — the connecting side's handshake: HELLO out,
  HELLO_OK (the peer's received count) or HELLO_REJECT back.
* :func:`read_loop` and :func:`send_loop` — the reader and sender
  threads of the socket bus's two ends.

The halves hold no locks and start no threads; each site calls them
under its own lock.  What an ack *counts* is each site's business:
router → shard acks count what the shard consumed (also the
``capacity`` flow-control bound), shard → router acks count what the
router received, gateway acks count batches the engine ingested.
"""

from __future__ import annotations

import collections
import socket
import threading
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.faults import ReproError
from repro.service import wire

#: Default supervised-reconnect schedule (:class:`~repro.faults.\
#: RetryPolicy` parameters) for the connecting end of a link.
DEFAULT_RECONNECT = {"max_attempts": 5, "base_delay": 0.05,
                     "multiplier": 2.0, "max_delay": 1.0,
                     "jitter": 0.25, "seed": 0}


def close_socket(sock: socket.socket) -> None:
    """Shutdown + close, waking any thread blocked in recv."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - already gone
        pass


class Conn:
    """One live TCP connection: the socket plus its write lock."""

    __slots__ = ("sock", "wlock")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.wlock = threading.Lock()

    def send(self, ftype: int, payload: bytes = b"") -> None:
        with self.wlock:
            wire.send_frame(self.sock, ftype, payload)

    def close(self) -> None:
        close_socket(self.sock)


class Outbound:
    """The sending half: numbering, retention until acked, resume."""

    __slots__ = ("seq", "acked", "sent", "max_sent", "retained")

    def __init__(self) -> None:
        self.seq = 0          # highest sequence number assigned
        self.acked = 0        # the peer's cumulative ack
        self.sent = 0         # resume point on the current connection
        self.max_sent = 0     # high-water mark across connections
        self.retained: Deque[Tuple[int, Any]] = collections.deque()

    def push(self, message: Any) -> int:
        """Number ``message`` and retain it until acked.

        A sequence number the peer already acked (a rerun of a stream
        it resumed) is never retained: no new ack would ever free it.
        """
        self.seq += 1
        if self.seq > self.acked:
            self.retained.append((self.seq, message))
        return self.seq

    def ack(self, count: int) -> bool:
        """Absorb a cumulative ack; returns whether it freed anything."""
        if count <= self.acked:
            return False
        self.acked = count
        while self.retained and self.retained[0][0] <= count:
            self.retained.popleft()
        return True

    def resume(self, peer_received: int) -> int:
        """Rewind to what a freshly connected peer holds; returns how
        many already-sent messages will go out again."""
        self.sent = max(self.acked, min(peer_received, self.seq))
        return max(0, self.max_sent - self.sent)

    def has_unsent(self) -> bool:
        return bool(self.retained) and self.retained[-1][0] > self.sent

    def unsent(self) -> List[Tuple[int, Any]]:
        return [(seq, message) for seq, message in self.retained
                if seq > self.sent]

    def mark_sent(self, seq: int) -> None:
        self.sent = seq
        if seq > self.max_sent:
            self.max_sent = seq


class Inbound:
    """The receiving half: in-order, exactly-once delivery."""

    __slots__ = ("received", "_deliver")

    def __init__(self, deliver: Callable[[Any], None]):
        self.received = 0
        self._deliver = deliver

    def accept(self, seq: int, message: Any) -> bool:
        """Deliver ``message`` if ``seq`` is the next one.

        Returns False for a duplicate (a resend of something delivered)
        and raises :class:`~repro.service.wire.ConnectionLost` on a gap.
        The count advances only once ``deliver`` returns, so a delivery
        that raises is retried when the sender resends.
        """
        if seq <= self.received:
            return False
        if seq != self.received + 1:
            raise wire.ConnectionLost(
                f"sequence gap: expected {self.received + 1}, got {seq}")
        self._deliver(message)
        self.received = seq
        return True


def counter(info: dict, key: str) -> int:
    """A cumulative count from a control dict (0 when absent)."""
    value = info.get(key, 0)
    if not isinstance(value, int) or value < 0:
        raise wire.WireError(f"{key!r} is not a count: {value!r}")
    return value


def dial(address: Tuple[str, int], hello: dict, connect_timeout_s: float,
         reply_timeout_s: float) -> Tuple[Conn, int]:
    """Connect and handshake; returns the connection and the peer's
    cumulative received count from its HELLO_OK (the resume point).

    ``reply_timeout_s`` bounds the wait for the reply and stays on the
    socket for the caller to change.  A HELLO_REJECT raises
    :class:`~repro.service.wire.HelloRejected`, which the reconnect
    retry filters let through.
    """
    sock = socket.create_connection(address, timeout=connect_timeout_s)
    try:
        wire.send_frame(sock, wire.HELLO, wire.pack_dict(hello))
        sock.settimeout(reply_timeout_s)
        ftype, payload = wire.read_frame(sock)
        if ftype == wire.HELLO_REJECT:
            reason = wire.unpack_dict(payload).get("reason", "?")
            raise wire.HelloRejected(
                f"peer rejected {hello.get('role')} handshake: {reason}")
        if ftype != wire.HELLO_OK:
            raise wire.WireError(
                f"expected HELLO_OK, got frame type {ftype}")
        received = counter(wire.unpack_dict(payload), "received")
    except BaseException:
        close_socket(sock)
        raise
    return Conn(sock), received


def reject(sock: socket.socket, reason: str) -> None:
    """Refuse a handshake; the caller closes the socket."""
    try:
        wire.send_frame(sock, wire.HELLO_REJECT,
                        wire.pack_dict({"reason": reason}))
    except (ReproError, OSError):
        pass


def read_loop(conn: Conn,
              dispatch: Callable[[Conn, int, bytes], None],
              live: Callable[[Conn], bool]) -> None:
    """Feed frames to ``dispatch`` while ``live(conn)`` holds.

    Returns when a read or a dispatch fails with a wire or socket
    error — a corrupt frame, a sequence gap, a BYE — or the connection
    is no longer live.  The caller closes or detaches ``conn``.
    """
    try:
        while live(conn):
            ftype, payload = wire.read_frame(conn.sock)
            dispatch(conn, ftype, payload)
    except (ReproError, OSError):
        pass


def send_loop(cond: threading.Condition,
              current: Callable[[], Tuple[Optional[Conn], Outbound]],
              stopped: Callable[[], bool],
              detach: Callable[[Conn], None]) -> None:
    """Ship unsent DATA on the current connection until ``stopped()``.

    ``current()`` returns the site's live connection (or None) and its
    outbound half; it and ``stopped()`` are called holding ``cond``,
    which the site notifies whenever either may have changed.  A failed
    write hands the connection to ``detach``.
    """
    while True:
        with cond:
            while True:
                if stopped():
                    return
                conn, out = current()
                if conn is not None and out.has_unsent():
                    break
                cond.wait()
            batch = out.unsent()
        for seq, message in batch:
            try:
                conn.send(wire.DATA, wire.pack_data(seq, message))
            except (ReproError, OSError):
                detach(conn)
                break
            with cond:
                if current()[0] is not conn:
                    break
                out.mark_sent(seq)
