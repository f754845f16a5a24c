"""Bounded timestamp reordering for streaming ingest paths.

Multi-card captures and multi-producer buses interleave sources, so
records can arrive locally out of order.  :class:`ReorderBuffer` is the
bounded min-heap look-ahead behind :func:`repro.sniffer.replay.\
iter_capture`, which puts a capture into timestamp order before any
engine or router sees it.  It restores
exact timestamp order whenever no record is displaced by more than
``capacity`` positions, holds at most ``capacity`` items, and preserves
arrival order among equal timestamps (stable).

``capacity=0`` is an explicit pass-through: items come out exactly as
they went in, with no buffering at all.
"""

from __future__ import annotations

import heapq
from typing import Generic, Iterator, List, Tuple, TypeVar

T = TypeVar("T")


class ReorderBuffer(Generic[T]):
    """A bounded look-ahead that re-sorts a nearly-ordered stream.

    Usage::

        buffer = ReorderBuffer(capacity=256)
        for item in source:
            for ready in buffer.push(item.timestamp, item):
                consume(ready)
        for ready in buffer.drain():
            consume(ready)

    Parameters
    ----------
    capacity:
        Maximum items held; also the maximum displacement (in
        positions) the buffer can correct.  ``0`` disables buffering.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        # (timestamp, arrival index, item): the index makes the sort
        # stable and keeps the item itself out of heap comparisons.
        self._heap: List[Tuple[float, int, T]] = []
        self._arrival = 0

    def push(self, timestamp: float, item: T) -> List[T]:
        """Admit one item; return whatever the admission displaced.

        Eager, not a generator — the admission happens even if the
        caller ignores the result.  With capacity ``0`` the item itself
        is returned immediately; otherwise at most one (the oldest
        buffered) item is released per push once the buffer is full.
        """
        if self.capacity == 0:
            return [item]
        heapq.heappush(self._heap, (timestamp, self._arrival, item))
        self._arrival += 1
        if len(self._heap) > self.capacity:
            return [heapq.heappop(self._heap)[2]]
        return []

    def drain(self) -> Iterator[T]:
        """Release every buffered item in timestamp order."""
        while self._heap:
            yield heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def pending(self) -> int:
        """Items currently buffered (0 for a pass-through buffer)."""
        return len(self._heap)
