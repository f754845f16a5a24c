"""The pluggable ingest bus between the router and the engine shards.

A :class:`Bus` owns, per shard, one *inbox* (router → shard: frame
batches and control messages) and one *outbox* (shard → router:
checkpoint acks and request replies).  Messages are the typed tuples of
:mod:`repro.service.shard` — the bus moves envelopes, the shard runtime
interprets them — so a transport only has to provide queue semantics:

* :class:`QueueBus` — in-process ``queue.Queue`` pairs; shards run as
  threads.  Zero serialization cost, shared GIL.
* :class:`~repro.service.socketbus.SocketBus` — TCP connections behind
  the same five methods, every message encoded by
  :func:`repro.service.wire.pack_data`; shards run as threads, as OS
  processes (``socket-process``), or on other machines.  Nothing above
  the bus (the :class:`~repro.service.core.ShardedEngine`, the serving
  layer) changes.

Inboxes are bounded, so a slow shard back-pressures the router instead
of buffering the whole capture in memory.  :meth:`Bus.reset` replaces
one shard's endpoints with fresh ones — after a shard crash the old
endpoints may hold garbage, so a supervised restart never reuses them.
"""

from __future__ import annotations

import queue
from typing import Any, Optional, Tuple

from repro import faults
from repro.faults import DROPPED

#: Default inbox bound, in *messages* (a message is a frame batch or a
#: control record; at the router's default ``publish_batch`` of 64 that
#: is about 256 frames per shard).  Once nothing upstream throttles the
#: router it runs this far ahead of a shard, so the bound is also the
#: ceiling on fix lag and on in-flight memory.  4 is the smallest bound
#: that cost no measured throughput (DESIGN.md §8, "Flow control
#: bounds fix lag", has the sweep).
DEFAULT_CAPACITY = 4


class BusTimeout(Exception):
    """A bounded receive elapsed with nothing to deliver."""


def empty_collect_message(shard: int, timeout: Optional[float],
                          block: bool) -> str:
    """The :class:`BusTimeout` text for an empty :meth:`Bus.collect`.

    Distinguishes the non-blocking probe ("nothing queued") from a
    timed wait, so a poll loop's routine empty read never claims a
    ``None``-second timeout elapsed.
    """
    if not block:
        return f"no message queued from shard {shard}"
    if timeout is None:
        return f"no message from shard {shard}"
    return f"no message from shard {shard} within {timeout}s"


class Bus:
    """The transport seam: per-shard inbox/outbox pairs."""

    def __init__(self, shards: int, capacity: int = DEFAULT_CAPACITY):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.shards = shards
        self.capacity = capacity

    def publish(self, shard: int, message: Tuple,
                timeout: Optional[float] = None) -> None:
        """Enqueue one message for a shard.

        Blocks when the inbox is full — back-pressure, not loss.  With
        ``timeout`` set, raises :class:`BusTimeout` instead of blocking
        forever, which is how the router notices a consumer that died
        with a full inbox.

        Fault-injection seam: ``bus.publish`` (keyed by shard index)
        may raise, delay, corrupt the message, or drop it outright.
        """
        raise NotImplementedError

    def collect(self, shard: int,
                timeout: Optional[float] = None,
                block: bool = True) -> Tuple:
        """Dequeue one shard → router message.

        Raises :class:`BusTimeout` when nothing arrives in time (or,
        non-blocking, when the outbox is empty).

        Fault-injection seam: ``bus.collect`` (keyed by shard index)
        may raise or delay before the read.
        """
        raise NotImplementedError

    def reset(self, shard: int) -> None:
        """Replace one shard's endpoints with fresh ones (post-crash)."""
        raise NotImplementedError

    def endpoints(self, shard: int) -> Tuple[Any, Any]:
        """The ``(inbox, outbox)`` pair a shard runtime consumes."""
        raise NotImplementedError

    def inbox_depth(self, shard: int) -> int:
        """Messages published to a shard and not yet consumed (at most
        ``capacity``): how far the router runs ahead of it."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (no-op for in-process queues)."""


class QueueBus(Bus):
    """In-process transport: ``queue.Queue`` pairs, shard threads."""

    def __init__(self, shards: int, capacity: int = DEFAULT_CAPACITY):
        super().__init__(shards, capacity)
        self._inboxes = [queue.Queue(capacity) for _ in range(shards)]
        self._outboxes = [queue.Queue() for _ in range(shards)]

    def publish(self, shard: int, message: Tuple,
                timeout: Optional[float] = None) -> None:
        message = faults.hook("bus.publish", message, key=str(shard))
        if message is DROPPED:
            return
        try:
            self._inboxes[shard].put(message, timeout=timeout)
        except queue.Full:
            raise BusTimeout(
                f"shard {shard} inbox full after {timeout}s"
            ) from None

    def collect(self, shard: int,
                timeout: Optional[float] = None,
                block: bool = True) -> Tuple:
        faults.hook("bus.collect", key=str(shard))
        try:
            return self._outboxes[shard].get(block=block, timeout=timeout)
        except queue.Empty:
            raise BusTimeout(
                empty_collect_message(shard, timeout, block)) from None

    def reset(self, shard: int) -> None:
        self._inboxes[shard] = queue.Queue(self.capacity)
        self._outboxes[shard] = queue.Queue()

    def endpoints(self, shard: int) -> Tuple[Any, Any]:
        return self._inboxes[shard], self._outboxes[shard]

    def inbox_depth(self, shard: int) -> int:
        return self._inboxes[shard].qsize()
