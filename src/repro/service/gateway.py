"""The network ingest gateway: capture frames over TCP, not files.

The paper's adversary is geographically distributed — sniffers in the
field, the tracking core elsewhere — so the capture-to-engine hop must
survive the network.  Two halves:

* :class:`FrameIngestServer` — router-side listener accepting framed
  batches of capture rows (:mod:`repro.service.wire` frames,
  CRC-covered, decoded by :func:`~repro.service.wire.unpack_data`,
  the shard links' codec, which here admits ``frames`` messages only)
  and handing each one, as a
  :class:`~repro.capture.records.FrameBatch`, to an engine's
  ``ingest_batch``.
* :func:`stream_capture_to` — collector-side client streaming a
  capture (legacy JSONL or columnar) to a gateway address as
  :func:`repro.sniffer.replay.iter_capture_batches` cuts it:
  :func:`~repro.sniffer.replay.iter_capture` order, and a columnar
  capture's own row slices, undecoded, when that order is the file's.

Delivery is one :mod:`repro.service.stream` per ``client_id``: the
client's :class:`~repro.service.stream.Outbound` numbers its batches,
retains everything unacked, and resends the tail after a supervised
reconnect (:class:`~repro.faults.RetryPolicy`); the server keeps the
client's :class:`~repro.service.stream.Inbound` for its lifetime and
drops duplicates, so a batch reaches the engine exactly once no matter
how many times the connection dies mid-stream.  An ack counts batches
the engine ingested.  The HELLO exchange returns the server's
cumulative count, which is also how a re-run of the same client id
resumes instead of double-ingesting.
"""

from __future__ import annotations

import select
import socket
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.capture.records import FrameBatch
from repro.faults import ReproError, RetryPolicy
from repro.net80211.mac import MacAddress
from repro.service import wire
from repro.service.stream import (Conn, DEFAULT_RECONNECT, Inbound,
                                  Outbound, close_socket, dial, push_data,
                                  reject)
from repro.sniffer.replay import iter_capture_batches

PathLike = Union[str, Path]


@dataclass
class IngestStats:
    """What one :func:`stream_capture_to` call pushed over the wire."""

    frames: int
    batches: int
    reconnects: int
    batches_resent: int


class FrameIngestServer:
    """TCP listener feeding framed capture batches into an engine.

    ``engine`` is anything with an ``ingest_batch`` taking a
    :class:`~repro.capture.records.FrameBatch` — a
    :class:`~repro.engine.StreamingEngine` or a
    :class:`~repro.service.core.ShardedEngine` (the serve CLI's
    shape); ``drain`` is called on BYE when the engine has one.  One
    lock serializes ingest across client connections, so concurrent
    collectors interleave at batch granularity, never mid-batch.

    Per-client delivery state (an :class:`~repro.service.stream.\
Inbound`) lives for the server's lifetime: a client that reconnects —
    or a rerun of the same ``client_id`` — resumes after what already
    reached the engine.
    """

    def __init__(self, engine, host: str = "127.0.0.1", port: int = 0,
                 hello_timeout_s: float = 5.0,
                 registry: Optional[obs.MetricsRegistry] = None):
        self.engine = engine
        self.hello_timeout_s = hello_timeout_s
        registry = registry if registry is not None else getattr(
            engine, "registry", None) or obs.current_registry()
        self._c_connections = registry.counter(
            "repro.ingest.connections")
        self._c_batches = registry.counter("repro.ingest.batches")
        self._c_frames = registry.counter("repro.ingest.frames")
        self._c_duplicates = registry.counter("repro.ingest.duplicates")
        self._c_rejects = registry.counter("repro.ingest.rejects")
        self._clients: Dict[str, Inbound] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._conns: List[socket.socket] = []
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.5)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-ingest-accept",
            daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` collectors connect to."""
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        close_socket(self._listener)
        with self._lock:
            conns, self._conns = self._conns, []
        for sock in conns:
            close_socket(sock)

    def __enter__(self) -> "FrameIngestServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                if self._closed:
                    close_socket(sock)
                    return
                self._conns.append(sock)
            threading.Thread(target=self._serve_client, args=(sock,),
                             name="repro-ingest-client",
                             daemon=True).start()

    def _serve_client(self, sock: socket.socket) -> None:
        try:
            self._client_session(sock)
        except (ReproError, OSError):
            pass  # the client reconnects and resumes; state is kept
        finally:
            close_socket(sock)
            with self._lock:
                if sock in self._conns:
                    self._conns.remove(sock)

    def _client_session(self, sock: socket.socket) -> None:
        hello = wire.read_hello(sock, timeout=self.hello_timeout_s)
        client_id = hello.get("client_id")
        if hello.get("role") != "ingest" or not isinstance(client_id,
                                                          str):
            self._c_rejects.inc()
            reject(sock, "expected an ingest HELLO with a client_id")
            return
        with self._lock:
            inbound = self._clients.setdefault(client_id,
                                               Inbound(self._ingest))
            received = inbound.received
        wire.send_frame(sock, wire.HELLO_OK,
                        wire.pack_dict({"received": received}))
        self._c_connections.inc()
        while True:
            ftype, payload = wire.read_frame(sock)
            if ftype == wire.DATA:
                seq, message = wire.unpack_data(payload)
                if message[0] != "frames":
                    raise wire.WireError(f"{message[0]!r} on ingest port")
                with self._lock:
                    if not inbound.accept(seq, message[1]):
                        # A resend of something already ingested: the
                        # dedup half of at-least-once.  Re-ack it.
                        self._c_duplicates.inc()
                    received = inbound.received
                wire.send_frame(sock, wire.CREDIT,
                                wire.pack_count(received))
            elif ftype == wire.BYE:
                # Settle the engine (publish flush + refit drain) so
                # every streamed frame is visible to readers before the
                # end of stream is acknowledged.
                settle = getattr(self.engine, "drain", None)
                if settle is not None:
                    settle()
                with self._lock:
                    received = inbound.received
                wire.send_frame(sock, wire.CREDIT,
                                wire.pack_count(received))
                return
            else:
                raise wire.WireError(
                    f"unexpected ingest frame type {ftype}")

    def _ingest(self, batch: FrameBatch) -> None:
        """An :class:`Inbound`'s deliver step (caller holds the lock)."""
        self.engine.ingest_batch(batch)
        self._c_batches.inc()
        self._c_frames.inc(len(batch))


# ----------------------------------------------------------------------
# Collector-side client
# ----------------------------------------------------------------------

class _IngestSession:
    """One streaming client: an :class:`Outbound` over one connection."""

    def __init__(self, address: Tuple[str, int], client_id: str,
                 window: int, reconnect: Dict[str, float],
                 connect_timeout_s: float, ack_timeout_s: float):
        self.address = address
        self.client_id = client_id
        self.window = window
        self.reconnect = reconnect
        self.connect_timeout_s = connect_timeout_s
        self.ack_timeout_s = ack_timeout_s
        self.conn: Optional[Conn] = None
        self.out = Outbound()
        self.connects = 0
        self.batches_resent = 0
        self.acked_at_connect = 0
        self.stalls = 0           # consecutive connections with no ack

    # -- connection ---------------------------------------------------

    def _connect_once(self) -> Conn:
        conn, received = dial(
            self.address, {"role": "ingest", "client_id": self.client_id},
            self.connect_timeout_s, self.ack_timeout_s)
        # A rerun of a resumed client id: ``received`` may exceed what
        # this session has numbered so far, and pushes up to it are
        # never retained.
        self.out.ack(received)
        self.batches_resent += self.out.resume(received)
        return conn

    def ensure_connected(self) -> None:
        if self.conn is not None:
            return
        policy = RetryPolicy(retryable=(wire.WireError, OSError),
                             **self.reconnect)
        self.conn = policy.call(self._connect_once)
        self.connects += 1
        self.acked_at_connect = self.out.acked

    def drop(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def lost(self, error: Exception) -> None:
        """A connection failed after its handshake: drop it, and give up
        once ``max_attempts`` connections in a row ended with no ack.

        The retry budget covers failed connects; this covers a server
        that accepts every connection but never ingests (an engine that
        raises on every batch), which would otherwise loop forever.
        """
        self.drop()
        self.stalls = 0 if self.out.acked > self.acked_at_connect \
            else self.stalls + 1
        if self.stalls >= self.reconnect["max_attempts"]:
            raise wire.WireError(
                f"gateway acked nothing over {self.stalls} consecutive "
                f"connections; last error: {error}") from error

    # -- the at-least-once pump ---------------------------------------

    def _pump(self, wait: bool) -> None:
        """Drain server acks; with ``wait``, block until one arrives."""
        while True:
            ready = select.select([self.conn.sock], [], [],
                                  self.ack_timeout_s if wait else 0.0)[0]
            if not ready:
                if wait:
                    raise wire.ConnectionLost(
                        f"no ingest ack within {self.ack_timeout_s}s")
                return
            ftype, payload = wire.read_frame(self.conn.sock)
            if ftype != wire.CREDIT:
                raise wire.WireError(
                    f"unexpected gateway frame type {ftype}")
            self.out.ack(wire.unpack_count(payload))
            wait = False

    def _flush(self) -> None:
        for seq, payload in self.out.unsent():
            self.conn.send(wire.DATA, payload)
            self.out.mark_sent(seq)
            self._pump(wait=False)

    def send(self, batch: FrameBatch) -> None:
        push_data(self.out, ("frames", batch))
        while True:
            # A failed connect exhausts the retry budget and raises out
            # of here; a failure *after* connecting re-enters the
            # supervised reconnect with the retained tail intact.
            self.ensure_connected()
            try:
                while len(self.out.retained) > self.window:
                    self._pump(wait=True)
                self._flush()
                return
            except (wire.WireError, OSError) as error:
                self.lost(error)

    def finish(self) -> None:
        while self.out.retained:
            self.ensure_connected()
            try:
                self._flush()
                while self.out.retained:
                    self._pump(wait=True)
            except (wire.WireError, OSError) as error:
                self.lost(error)
        if self.conn is not None:
            try:
                self.conn.send(wire.BYE)
                self._pump(wait=True)  # the BYE ack flushes the router
            except (wire.WireError, OSError):
                pass
        self.drop()


def stream_capture_to(path: PathLike, address: Tuple[str, int],
                      batch_records: int = 128,
                      window: int = 8,
                      client_id: Optional[str] = None,
                      device: Optional[Union[MacAddress, str]] = None,
                      format: Optional[str] = None,
                      strict: bool = True,
                      reorder_buffer: int = 256,
                      reconnect: Optional[Dict[str, float]] = None,
                      connect_timeout_s: float = 5.0,
                      ack_timeout_s: float = 30.0) -> IngestStats:
    """Stream a capture file to a :class:`FrameIngestServer`.

    The capture goes out as :func:`~repro.sniffer.replay.\
iter_capture_batches` cuts it — :func:`~repro.sniffer.replay.\
iter_capture` order, ``batch_records`` records per numbered batch, the
    file's own row slices when that order is the file's — with at most
    ``window`` batches unacked at a time.

    A dropped connection triggers a supervised reconnect that resumes
    from the server's acked count — nothing is lost, nothing is
    double-ingested (dedup by sequence on the server).  ``client_id``
    names the delivery stream; reusing one against the same server
    resumes it.  Default: a fresh UUID (one-shot stream).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    batches = iter_capture_batches(
        path, batch_records=batch_records, reorder_buffer=reorder_buffer,
        strict=strict, device=device, format=format)
    session = _IngestSession(
        address=tuple(address),
        client_id=client_id if client_id is not None else uuid.uuid4().hex,
        window=window,
        reconnect=dict(DEFAULT_RECONNECT, **(reconnect or {})),
        connect_timeout_s=connect_timeout_s,
        ack_timeout_s=ack_timeout_s)
    frames = 0
    for batch in batches:
        session.send(batch)
        frames += len(batch)
    session.finish()
    return IngestStats(frames=frames, batches=session.out.seq,
                       reconnects=max(0, session.connects - 1),
                       batches_resent=session.batches_resent)
