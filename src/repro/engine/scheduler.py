"""Dirty-set scheduling: which devices need re-localization, and when.

The engine never re-localizes on a timer.  A device enters the dirty
set when an event changes its streaming Γ, and leaves it when a
micro-batch drains it.  Draining in insertion
order keeps latency fair (first-dirtied, first-served) and — because
the order is a pure function of the frame sequence — keeps engine runs
reproducible, which the checkpoint/restore round-trip relies on.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.net80211.mac import MacAddress


class MicroBatchScheduler:
    """An insertion-ordered dirty set drained in bounded batches.

    Parameters
    ----------
    batch_size:
        How many devices one :meth:`next_batch` drains, and the
        threshold at which :attr:`ready` reports a batch is due.
    """

    def __init__(self, batch_size: int = 32):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        # dict as an ordered set: key insertion order is drain order.
        self._dirty: Dict[MacAddress, None] = {}

    def mark_dirty(self, mobile: MacAddress) -> bool:
        """Queue a device; True if it was not already queued."""
        if mobile in self._dirty:
            return False
        self._dirty[mobile] = None
        return True

    @property
    def ready(self) -> bool:
        """Whether a full micro-batch is waiting."""
        return len(self._dirty) >= self.batch_size

    def pending(self) -> int:
        return len(self._dirty)

    def next_batch(self, limit: Optional[int] = None) -> List[MacAddress]:
        """Remove and return up to ``limit`` (default batch_size) devices."""
        take = self.batch_size if limit is None else limit
        batch = list(itertools.islice(self._dirty, take))
        for mobile in batch:
            del self._dirty[mobile]
        return batch

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def to_list(self) -> List[str]:
        return [str(mobile) for mobile in self._dirty]

    def restore(self, dirty: List[str]) -> None:
        for text in dirty:
            self.mark_dirty(MacAddress.parse(text))
