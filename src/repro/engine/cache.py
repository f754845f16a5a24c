"""Γ-set memoization for the streaming engine.

On a real campus thousands of devices share identical AP neighborhoods
— everyone in the same lecture hall hears the same APs — so the same
frozen Γ set reaches the localizer over and over.  Localization is a
pure function of (localizer identity, Γ): the disc intersection for a
Γ costs the same whether one device or a thousand ask, so the engine
memoizes it.

The cache key is ``(localizer.cache_key(), frozenset(Γ))``.  The
invariant (see DESIGN.md): **an entry is valid only while the localizer
answers identically for that Γ** — any mutation of the AP knowledge
base (or a re-fit, for AP-Rad) must either change ``cache_key()`` or
be followed by :meth:`GammaCache.invalidate`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import FrozenSet, Hashable, Optional, Tuple

from repro import obs
from repro.localization.base import LocalizationEstimate
from repro.net80211.mac import MacAddress

#: Distinguishes "cached None" (Γ known unlocatable) from "not cached".
_ABSENT = object()


def _count(event: str, by: int = 1) -> None:
    """Count a cache event in ``repro.engine.cache.<event>``."""
    obs.current_registry().counter(f"repro.engine.cache.{event}").inc(by)


class GammaCache:
    """An LRU map from (localizer key, Γ) to a localization estimate.

    ``None`` results are cached too: a Γ with no known APs stays
    unlocatable until the knowledge base changes, and re-discovering
    that is exactly as expensive as a real localization.

    Every event is counted only in ``repro.engine.cache.*`` series on
    the currently-routed :class:`~repro.obs.MetricsRegistry` (whatever
    :func:`repro.obs.current_registry` resolves to at event time — the
    engine routes its own registry around each flush and around
    :meth:`~repro.engine.StreamingEngine.invalidate_cache`); the cache
    keeps no counters of its own.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Optional[LocalizationEstimate]]" = (
            OrderedDict())

    @staticmethod
    def key_for(localizer_key: str,
                gamma: FrozenSet[MacAddress]) -> Tuple[str, frozenset]:
        return (localizer_key, frozenset(gamma))

    def get(self, localizer_key: str, gamma: FrozenSet[MacAddress]):
        """The cached estimate, or :data:`_ABSENT` on a miss.

        Use :meth:`contains`-free idiom::

            hit = cache.get(key, gamma)
            if hit is not GammaCache.ABSENT: ...
        """
        key = self.key_for(localizer_key, gamma)
        if key in self._entries:
            _count("hit")
            self._entries.move_to_end(key)
            return self._entries[key]
        _count("miss")
        return _ABSENT

    def count_pending_hit(self) -> None:
        """Count a Γ resolved by intra-batch dedup as a memoization hit.

        When a micro-batch contains the same Γ twice, the engine
        computes it once and shares the result before the cache entry
        exists.  That *is* the Γ-set memoization working — the counters
        report it the same way a post-:meth:`put` lookup would.
        """
        _count("hit")

    def put(self, localizer_key: str, gamma: FrozenSet[MacAddress],
            estimate: Optional[LocalizationEstimate]) -> None:
        key = self.key_for(localizer_key, gamma)
        self._entries[key] = estimate
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        if evicted:
            _count("eviction", evicted)
        obs.current_registry().gauge("repro.engine.cache.entries").set(
            len(self._entries))

    def invalidate(self) -> None:
        """Drop every entry — call after any AP knowledge-base mutation."""
        self._entries.clear()
        _count("invalidation")
        obs.current_registry().gauge("repro.engine.cache.entries").set(0)

    def __len__(self) -> int:
        return len(self._entries)


#: Public sentinel for :meth:`GammaCache.get` misses.
GammaCache.ABSENT = _ABSENT
