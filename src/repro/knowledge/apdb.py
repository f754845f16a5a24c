"""The AP knowledge base (the adversary's "external knowledge").

Mirrors what wireless geographic logging sites provide: per-AP identity,
location, channel, and — usually *not* — the maximum transmission
distance ("only location but not distance information is available at
wigle").  :meth:`ApDatabase.with_position_noise` models the fact that
logged positions are themselves estimates with meters of error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set

import numpy as np

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.net80211.mac import MacAddress
from repro.net80211.ssid import Ssid


@dataclass(frozen=True)
class ApRecord:
    """One AP as known to the adversary.

    ``max_range_m`` is ``None`` when the knowledge source (e.g. WiGLE)
    only provides locations — the AP-Rad scenario.
    """

    bssid: MacAddress
    ssid: Ssid
    location: Point
    max_range_m: Optional[float] = None
    channel: Optional[int] = None

    def coverage_disc(self, fallback_range_m: Optional[float] = None) -> Circle:
        """The coverage disc, using ``fallback_range_m`` when unknown."""
        radius = self.max_range_m
        if radius is None:
            radius = fallback_range_m
        if radius is None:
            raise ValueError(
                f"AP {self.bssid} has no known range and no fallback given")
        return Circle(self.location, radius)


class ApDatabase:
    """A collection of :class:`ApRecord`, keyed by BSSID."""

    def __init__(self, records: Iterable[ApRecord] = ()):
        self._records: Dict[MacAddress, ApRecord] = {}
        for record in records:
            self.add(record)

    def add(self, record: ApRecord) -> None:
        """Insert or replace the record for a BSSID."""
        self._records[record.bssid] = record

    def get(self, bssid: MacAddress) -> Optional[ApRecord]:
        return self._records.get(bssid)

    def __contains__(self, bssid: MacAddress) -> bool:
        return bssid in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ApRecord]:
        return iter(self._records.values())

    @property
    def bssids(self) -> List[MacAddress]:
        return list(self._records.keys())

    def records_for(self, bssids: Iterable[MacAddress],
                    skip_unknown: bool = True) -> List[ApRecord]:
        """Records for an observed AP set Γ, in a stable order.

        Unknown BSSIDs (APs the sniffer heard but the database lacks)
        are skipped by default — a real WiGLE snapshot never covers
        everything.
        """
        found: List[ApRecord] = []
        # MAC order, keyed on the int: no dataclass comparisons.
        for bssid in sorted(bssids, key=attrgetter("value")):
            record = self._records.get(bssid)
            if record is None:
                if skip_unknown:
                    continue
                raise KeyError(f"AP {bssid} not in knowledge base")
            found.append(record)
        return found

    def subset(self, bssids: Set[MacAddress]) -> "ApDatabase":
        """A new database restricted to the given BSSIDs."""
        return ApDatabase(r for r in self if r.bssid in bssids)

    def with_position_noise(self, rng: np.random.Generator,
                            sigma_m: float) -> "ApDatabase":
        """A copy with i.i.d. Gaussian noise added to every location.

        Models the positioning error of crowd-sourced databases; the
        Fig 13–16 benches use this as the adversary's knowledge while
        the simulator keeps the exact ground truth.
        """
        if sigma_m < 0.0:
            raise ValueError(f"sigma must be >= 0, got {sigma_m}")
        noisy: List[ApRecord] = []
        for record in self:
            dx, dy = rng.normal(0.0, sigma_m, size=2)
            noisy.append(replace(
                record,
                location=Point(record.location.x + dx,
                               record.location.y + dy)))
        return ApDatabase(noisy)

    def without_ranges(self) -> "ApDatabase":
        """A copy with all ``max_range_m`` dropped (the WiGLE scenario)."""
        return ApDatabase(replace(r, max_range_m=None) for r in self)

    def observable_from(self, point: Point) -> Set[MacAddress]:
        """Ground-truth Γ at ``point``, for databases that carry ranges.

        Raises if any record lacks a range — this helper is for
        simulation oracles, not for the adversary's (range-less) view.
        """
        observed: Set[MacAddress] = set()
        for record in self:
            if record.max_range_m is None:
                raise ValueError(
                    f"AP {record.bssid} lacks a range; "
                    "observable_from needs ground-truth ranges")
            if record.location.distance_to(point) <= record.max_range_m:
                observed.add(record.bssid)
        return observed
