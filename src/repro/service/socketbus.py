"""SocketBus: the TCP shard transport behind the five-method Bus seam.

The :class:`~repro.service.bus.Bus` contract promises queue semantics —
``publish`` with bounded-capacity back-pressure, ``collect`` of
shard→router messages, ``reset`` to fresh endpoints after a crash —
and the queue transports get all of that for free from
``queue.Queue``.  :class:`SocketBus` rebuilds the same semantics over
TCP so shards can live on other machines:

* **Framing** — every message is one CRC-covered frame
  (:mod:`repro.service.wire`); a corrupt frame kills the connection,
  never the fleet.
* **Handshake** — a connecting shard opens with HELLO carrying the
  service ``run_id``, its shard index, and the endpoint *generation*
  stamped at :meth:`Bus.endpoints` time.  A cross-run peer, an
  out-of-range shard, or a stale pre-``reset`` endpoint is rejected
  with HELLO_REJECT, not silently mixed into the stream.
* **Flow control** — the router publishes at most ``capacity``
  unconsumed messages per shard.  The consuming endpoint sends a
  cumulative CREDIT count as its runtime consumes, so a full "inbox"
  back-pressures ``publish`` into :class:`BusTimeout` exactly like a
  full ``queue.Queue`` — the router's dead-shard probe works
  unchanged.
* **Exactly-once delivery over reconnects** — each direction is one
  :mod:`repro.service.stream` (numbered DATA frames retained until
  acked, duplicates dropped, gaps fatal to the connection), and the
  HELLO/HELLO_OK exchange carries each side's cumulative counters so a
  reconnect resends exactly the lost tail (counted under
  ``repro.socket.frames_resent``).
* **Liveness** — both sides heartbeat on an interval and declare a
  peer dead after ``dead_after_s`` of silence
  (``repro.socket.heartbeats_missed``); the shard side then runs a
  supervised reconnect under a :class:`~repro.faults.RetryPolicy`
  (exponential backoff, seeded jitter), and the router side lets the
  usual supervision — retention replay after
  :meth:`~repro.service.core.ShardedEngine.restart_shard` — take over
  when the peer never comes back.

``reset(shard)`` bumps the generation, discards the connection and all
stream state, and keeps listening: the supervised-restart path of the
router works over TCP exactly as it does over queues, and the
retention replay reproduces a killed shard's state byte-for-byte.
"""

from __future__ import annotations

import functools
import queue
import socket
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro import faults, obs
from repro.faults import DROPPED, ReproError, RetryPolicy
from repro.service import wire
from repro.service.bus import (Bus, BusTimeout, DEFAULT_CAPACITY,
                               empty_collect_message)
from repro.service.stream import (Conn, DEFAULT_RECONNECT, Inbound,
                                  Outbound, close_socket, counter, dial,
                                  read_loop, reject, send_loop)

#: Default liveness knobs: heartbeat every second, declare a peer dead
#: after five silent seconds.  Tests shrink both.
DEFAULT_HEARTBEAT_S = 1.0
DEFAULT_DEAD_AFTER_S = 5.0

_POISON = object()


class _Link:
    """Router-side state for one shard slot: connection + both streams."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.conn: Optional[Conn] = None
        self.generation = 0
        self.attaches = 0           # attach count within this generation
        self.last_recv_t = time.monotonic()
        self.restart()

    def restart(self) -> None:
        """Fresh streams (caller holds ``cond`` once shared): router ->
        shard acked by the shard's CREDIT as it consumes, which also
        bounds it by ``capacity``; shard -> router delivered straight
        into ``recv_queue``."""
        self.recv_queue: "queue.Queue" = queue.Queue()
        self.out = Outbound()
        self.inb = Inbound(self.recv_queue.put)

    def current(self, conn: Conn) -> bool:
        with self.cond:
            return self.conn is conn


class SocketBus(Bus):
    """TCP transport: shards connect back to the router's listener.

    Parameters
    ----------
    shards, capacity:
        As for the queue transports; ``capacity`` bounds the number of
        published-but-unconsumed messages per shard.
    host, port:
        Listener bind address (``port=0`` picks a free port; read it
        back from :attr:`address`).
    run_id:
        Fleet identity carried in every HELLO; a connecting peer with a
        different run id is rejected.  Defaults to a fresh UUID.
    heartbeat_s, dead_after_s:
        Liveness interval and the silent window after which a
        connected peer is declared dead.
    reconnect:
        :class:`~repro.faults.RetryPolicy` parameter dict handed to
        shard endpoints for their supervised reconnects.
    registry:
        Metrics registry for the socket counters (reconnects,
        heartbeats_missed, frames_resent, crc_rejects, ...); defaults
        to the process registry.
    """

    def __init__(self, shards: int, capacity: int = DEFAULT_CAPACITY,
                 host: str = "127.0.0.1", port: int = 0,
                 run_id: Optional[str] = None,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 dead_after_s: float = DEFAULT_DEAD_AFTER_S,
                 hello_timeout_s: float = 5.0,
                 reconnect: Optional[Dict[str, float]] = None,
                 registry: Optional[obs.MetricsRegistry] = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if heartbeat_s <= 0.0:
            raise ValueError(
                f"heartbeat_s must be > 0, got {heartbeat_s}")
        if dead_after_s <= heartbeat_s:
            raise ValueError(
                f"dead_after_s ({dead_after_s}) must exceed "
                f"heartbeat_s ({heartbeat_s})")
        self.shards = shards
        self.capacity = capacity
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex
        self.heartbeat_s = heartbeat_s
        self.dead_after_s = dead_after_s
        self.hello_timeout_s = hello_timeout_s
        self.reconnect = dict(DEFAULT_RECONNECT, **(reconnect or {}))
        registry = registry if registry is not None \
            else obs.current_registry()
        self._c_connections = registry.counter("repro.socket.connections")
        self._c_reconnects = registry.counter("repro.socket.reconnects")
        self._c_heartbeats = registry.counter("repro.socket.heartbeats")
        self._c_hb_missed = registry.counter(
            "repro.socket.heartbeats_missed")
        self._c_resent = registry.counter("repro.socket.frames_resent")
        self._c_crc_rejects = registry.counter("repro.socket.crc_rejects")
        self._c_hello_rejects = registry.counter(
            "repro.socket.hello_rejects")
        self._links = [_Link() for _ in range(shards)]
        self._closed = False
        self._stop_event = threading.Event()
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.5)
        self._threads: List[threading.Thread] = []
        self._spawn(self._accept_loop, "repro-socketbus-accept")
        self._spawn(self._heartbeat_loop, "repro-socketbus-heartbeat")
        for shard in range(shards):
            self._spawn(self._sender_loop,
                        f"repro-socketbus-send-{shard}", shard)

    def _spawn(self, target, name: str, *args) -> None:
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        thread.start()
        self._threads.append(thread)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` shards connect back to."""
        return self._listener.getsockname()[:2]

    # ------------------------------------------------------------------
    # Router side of the Bus contract
    # ------------------------------------------------------------------

    def publish(self, shard: int, message: Tuple,
                timeout: Optional[float] = None) -> None:
        message = faults.hook("bus.publish", message, key=str(shard))
        if message is DROPPED:
            return
        link = self._links[shard]
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with link.cond:
            while link.out.seq - link.out.acked >= self.capacity:
                if self._closed:
                    raise BusTimeout("bus is closed")
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0.0:
                    raise BusTimeout(
                        f"shard {shard} inbox full after {timeout}s")
                link.cond.wait(remaining)
            link.out.push(message)
            link.cond.notify_all()

    def collect(self, shard: int,
                timeout: Optional[float] = None,
                block: bool = True) -> Tuple:
        faults.hook("bus.collect", key=str(shard))
        try:
            return self._links[shard].recv_queue.get(block=block,
                                                     timeout=timeout)
        except queue.Empty:
            raise BusTimeout(
                empty_collect_message(shard, timeout, block)) from None

    def reset(self, shard: int) -> None:
        """Drop the connection and both streams; keep listening.

        The next :meth:`endpoints` call mints a channel for the new
        generation; a leftover endpoint from before the reset is
        rejected at HELLO time.
        """
        link = self._links[shard]
        with link.cond:
            conn, link.conn = link.conn, None
            link.generation += 1
            link.attaches = 0
            link.restart()
            link.cond.notify_all()
        if conn is not None:
            conn.close()

    def endpoints(self, shard: int) -> Tuple[Any, Any]:
        """A picklable :class:`ShardChannel` pair for the current
        generation (the same channel serves as inbox and outbox)."""
        link = self._links[shard]
        with link.cond:
            generation = link.generation
        channel = ShardChannel(
            address=self.address, shard=shard, run_id=self.run_id,
            generation=generation, heartbeat_s=self.heartbeat_s,
            dead_after_s=self.dead_after_s,
            connect_timeout_s=self.hello_timeout_s,
            reconnect=self.reconnect)
        return channel, channel

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop_event.set()
        close_socket(self._listener)
        for link in self._links:
            with link.cond:
                conn, link.conn = link.conn, None
                link.cond.notify_all()
            if conn is not None:
                conn.close()

    # ------------------------------------------------------------------
    # Chaos helpers
    # ------------------------------------------------------------------

    def kill_connection(self, shard: int) -> bool:
        """Abruptly sever one shard's TCP connection (chaos/testing).

        The stream state survives: when the endpoint reconnects, the
        HELLO exchange resumes both directions with no loss.  Returns
        whether a live connection was killed.
        """
        link = self._links[shard]
        with link.cond:
            conn, link.conn = link.conn, None
            link.cond.notify_all()
        if conn is None:
            return False
        conn.close()
        return True

    def connected(self, shard: int) -> bool:
        link = self._links[shard]
        with link.cond:
            return link.conn is not None

    # ------------------------------------------------------------------
    # Accept / handshake
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            threading.Thread(target=self._handshake, args=(sock,),
                             name="repro-socketbus-hello",
                             daemon=True).start()

    def _handshake(self, sock: socket.socket) -> None:
        try:
            hello = wire.read_hello(sock, timeout=self.hello_timeout_s)
        except (wire.BadMagic, wire.VersionMismatch, wire.CrcMismatch,
                wire.TruncatedFrame):
            self._c_crc_rejects.inc()
            close_socket(sock)
            return
        except (ReproError, OSError):
            close_socket(sock)
            return
        reason = self._vet_hello(hello)
        if reason is not None:
            self._c_hello_rejects.inc()
            reject(sock, reason)
            close_socket(sock)
            return
        self._attach(hello["shard"], Conn(sock), hello)

    def _vet_hello(self, hello: dict) -> Optional[str]:
        if hello.get("role") != "shard":
            return f"unexpected role {hello.get('role')!r}"
        if hello.get("run_id") != self.run_id:
            return (f"wrong run: peer {hello.get('run_id')!r}, "
                    f"this bus {self.run_id!r}")
        shard = hello.get("shard")
        if not isinstance(shard, int) or not 0 <= shard < self.shards:
            return f"shard {shard!r} out of range 0..{self.shards - 1}"
        link = self._links[shard]
        with link.cond:
            generation = link.generation
        if hello.get("generation") != generation:
            return (f"stale endpoint generation "
                    f"{hello.get('generation')!r}, current {generation}")
        return None

    def _attach(self, shard: int, conn: Conn, hello: dict) -> None:
        link = self._links[shard]
        # HELLO_OK must precede any DATA on this connection so the
        # endpoint can read its resume point synchronously.
        with link.cond:
            received = link.inb.received
        try:
            peer_received = counter(hello, "received")
            peer_consumed = counter(hello, "consumed")
            conn.send(wire.HELLO_OK,
                      wire.pack_dict({"received": received}))
        except (ReproError, OSError):
            conn.close()
            return
        with link.cond:
            old, link.conn = link.conn, conn
            link.out.ack(peer_consumed)
            resend = link.out.resume(peer_received)
            if link.attaches > 0:
                self._c_reconnects.inc()
                if resend:
                    self._c_resent.inc(resend)
            link.attaches += 1
            link.last_recv_t = time.monotonic()
            link.cond.notify_all()
        if old is not None:
            old.close()
        self._c_connections.inc()
        threading.Thread(target=self._reader_loop, args=(link, conn),
                         name=f"repro-socketbus-read-{shard}",
                         daemon=True).start()

    # ------------------------------------------------------------------
    # Per-connection loops
    # ------------------------------------------------------------------

    def _detach(self, link: _Link, conn: Conn) -> None:
        with link.cond:
            if link.conn is conn:
                link.conn = None
                link.cond.notify_all()
        conn.close()

    def _ack(self, link: _Link, count: int) -> None:
        with link.cond:
            if link.out.ack(count):
                link.cond.notify_all()  # wake capacity-blocked publishers

    def _reader_loop(self, link: _Link, conn: Conn) -> None:
        read_loop(conn, functools.partial(self._dispatch, link),
                  link.current)
        self._detach(link, conn)

    def _dispatch(self, link: _Link, conn: Conn, ftype: int,
                  payload: bytes) -> None:
        with link.cond:
            if link.conn is not conn:
                return
            link.last_recv_t = time.monotonic()
        if ftype == wire.DATA:
            seq, message = wire.unpack_data(payload)
            with link.cond:
                if link.conn is not conn \
                        or not link.inb.accept(seq, message):
                    return
                received = link.inb.received
            # The router consumes on delivery, so the ack is immediate.
            conn.send(wire.CREDIT, wire.pack_count(received))
        elif ftype == wire.CREDIT:
            self._ack(link, wire.unpack_count(payload))
        elif ftype == wire.HEARTBEAT:
            self._ack(link, counter(wire.unpack_dict(payload), "consumed"))
        elif ftype == wire.BYE:
            raise wire.ConnectionLost("peer said BYE")

    def _sender_loop(self, shard: int) -> None:
        link = self._links[shard]
        send_loop(link.cond, lambda: (link.conn, link.out),
                  lambda: self._closed,
                  functools.partial(self._detach, link))

    def _heartbeat_loop(self) -> None:
        while not self._stop_event.wait(self.heartbeat_s):
            now = time.monotonic()
            for link in self._links:
                with link.cond:
                    conn = link.conn
                    stale = conn is not None and \
                        now - link.last_recv_t > self.dead_after_s
                    received = link.inb.received
                if conn is None:
                    continue
                if stale:
                    self._c_hb_missed.inc()
                    self._detach(link, conn)
                    continue
                try:
                    conn.send(wire.HEARTBEAT,
                              wire.pack_dict({"received": received}))
                    self._c_heartbeats.inc()
                except (ReproError, OSError):
                    self._detach(link, conn)


class ShardChannel:
    """The shard-side endpoint: one TCP connection posing as a queue
    pair.

    Picklable before first use (the process transport ships it to the
    worker); on first :meth:`get`/:meth:`put` it connects, handshakes,
    and starts its reader + heartbeat threads.  A lost connection is
    re-established under the configured :class:`~repro.faults.\
RetryPolicy`; when the budget is exhausted — or the router rejects the
    handshake, which means this endpoint's generation is over — the
    channel poisons itself and every pending :meth:`get` raises, so the
    worker dies visibly and the router's supervision takes over.
    """

    def __init__(self, address: Tuple[str, int], shard: int,
                 run_id: str, generation: int,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 dead_after_s: float = DEFAULT_DEAD_AFTER_S,
                 connect_timeout_s: float = 5.0,
                 reconnect: Optional[Dict[str, float]] = None):
        self.address = tuple(address)
        self.shard = shard
        self.run_id = run_id
        self.generation = generation
        self.heartbeat_s = heartbeat_s
        self.dead_after_s = dead_after_s
        self.connect_timeout_s = connect_timeout_s
        self.reconnect = dict(DEFAULT_RECONNECT, **(reconnect or {}))
        self._init_runtime()

    # -- pickling ------------------------------------------------------

    _CONFIG = ("address", "shard", "run_id", "generation", "heartbeat_s",
               "dead_after_s", "connect_timeout_s", "reconnect")

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._CONFIG}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._init_runtime()

    def _init_runtime(self) -> None:
        self._cond = threading.Condition()
        self._conn: Optional[Conn] = None
        self._started = False
        self._closed = False
        self._dead: Optional[str] = None
        self._delivery: "queue.Queue" = queue.Queue()
        # Router -> shard: the CREDIT this end sends counts ``consumed``.
        self._in = Inbound(self._delivery.put)
        self._consumed = 0
        # Shard -> router: acked by the router's received count.
        self._out = Outbound()
        self.reconnects = 0

    # -- lifecycle -----------------------------------------------------

    def _ensure_started(self) -> None:
        with self._cond:
            if self._started or self._closed:
                return
            self._started = True
        for target, name in (
                (self._reader_main, "reader"),
                (self._sender_loop, "sender"),
                (self._heartbeat_loop, "heartbeat")):
            threading.Thread(
                target=target, daemon=True,
                name=f"repro-channel-{self.shard}-{name}").start()

    def close(self) -> None:
        """Stop reconnecting, close the socket, wake blocked readers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            conn, self._conn = self._conn, None
            self._cond.notify_all()
        self._delivery.put(_POISON)
        if conn is not None:
            conn.close()

    def _die(self, reason: str) -> None:
        with self._cond:
            if self._closed:
                return
            self._dead = reason
            conn, self._conn = self._conn, None
            self._cond.notify_all()
        self._delivery.put(_POISON)
        if conn is not None:
            conn.close()

    # -- the queue-pair surface ---------------------------------------

    def get(self, block: bool = True, timeout: Optional[float] = None):
        """Next router→shard message (the inbox side)."""
        self._ensure_started()
        try:
            message = self._delivery.get(block=block, timeout=timeout)
        except queue.Empty:
            raise BusTimeout(
                f"no message for shard {self.shard} within {timeout}s"
            ) from None
        if message is _POISON:
            self._delivery.put(_POISON)  # keep later gets failing too
            raise wire.ConnectionLost(
                self._dead or "channel closed")
        with self._cond:
            self._consumed += 1
            conn = self._conn
            count = self._consumed
        if conn is not None:
            try:
                conn.send(wire.CREDIT, wire.pack_count(count))
            except (ReproError, OSError):
                self._drop_conn(conn)
        return message

    def put(self, message) -> None:
        """Queue one shard→router message (the outbox side)."""
        self._ensure_started()
        with self._cond:
            if self._closed or self._dead is not None:
                raise wire.ConnectionLost(
                    self._dead or "channel closed")
            self._out.push(message)
            self._cond.notify_all()

    # -- connection management ----------------------------------------

    def _drop_conn(self, conn: Conn) -> None:
        with self._cond:
            if self._conn is conn:
                self._conn = None
                self._cond.notify_all()
        conn.close()

    def _current(self, conn: Conn) -> bool:
        with self._cond:
            return self._conn is conn

    def _connect_once(self) -> Conn:
        with self._cond:
            hello = {"role": "shard", "run_id": self.run_id,
                     "shard": self.shard, "generation": self.generation,
                     "received": self._in.received,
                     "consumed": self._consumed}
        conn, peer_received = dial(self.address, hello,
                                   self.connect_timeout_s,
                                   self.connect_timeout_s)
        conn.sock.settimeout(None)
        with self._cond:
            if self._closed:
                conn.close()
                raise wire.ConnectionLost("channel closed")
            self._out.ack(peer_received)
            self._out.resume(peer_received)
            self._conn = conn
            self._cond.notify_all()
        return conn

    def _reader_main(self) -> None:
        first = True
        while True:
            with self._cond:
                if self._closed or self._dead is not None:
                    return
            policy = RetryPolicy(retryable=(wire.WireError, OSError),
                                 **self.reconnect)
            try:
                conn = policy.call(self._connect_once)
            except (ReproError, OSError) as error:
                self._die(f"reconnect failed: {error}")
                return
            if not first:
                self.reconnects += 1
            first = False
            read_loop(conn, self._dispatch, self._current)
            self._drop_conn(conn)

    def _ack(self, count: int) -> None:
        with self._cond:
            self._out.ack(count)

    def _dispatch(self, conn: Conn, ftype: int, payload: bytes) -> None:
        if ftype == wire.DATA:
            seq, message = wire.unpack_data(payload)
            with self._cond:
                if self._conn is conn:
                    self._in.accept(seq, message)
        elif ftype == wire.CREDIT:
            self._ack(wire.unpack_count(payload))
        elif ftype == wire.HEARTBEAT:
            self._ack(counter(wire.unpack_dict(payload), "received"))
        elif ftype == wire.BYE:
            raise wire.ConnectionLost("peer said BYE")

    def _sender_loop(self) -> None:
        send_loop(self._cond, lambda: (self._conn, self._out),
                  lambda: self._closed or self._dead is not None,
                  self._drop_conn)

    def _heartbeat_loop(self) -> None:
        while True:
            time.sleep(self.heartbeat_s)
            with self._cond:
                if self._closed or self._dead is not None:
                    return
                conn = self._conn
                counters = {"received": self._in.received,
                            "consumed": self._consumed}
            if conn is None:
                continue
            try:
                conn.send(wire.HEARTBEAT, wire.pack_dict(counters))
            except (ReproError, OSError):
                self._drop_conn(conn)
