"""The sniffer's capture database.

"Each thread of wireless signal is captured by a wireless card, which
processes and extracts useful information such as SSIDs and AP MAC
addresses from the recorded packets ... The extracted information is
then stored in a database."

The store answers the three questions the attack needs:

* Γ(mobile) — which APs has this mobile communicated with?  Fed by
  probe responses (an AP answering the mobile proves two-way
  communicability) and association traffic.
* observation windows — Γ per time window, which is the AP-Rad corpus:
  co-observation "within a short period of time" is evidence that the
  radii overlap, so windows must be short relative to mobility.
* probing statistics — which mobiles were seen at all, and which sent
  probe requests (the Fig 10/11 feasibility numbers).
The store persists to JSON (:meth:`ObservationStore.save` /
:meth:`ObservationStore.load`) — Figure 1's "stored in a database"
component, so long captures survive across analysis sessions.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.engine.ingest import extract_evidence
from repro.net80211.frames import FrameType
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ObservationWindow:
    """Γ for one mobile in one time window."""

    mobile: MacAddress
    window_start: float
    observed: FrozenSet[MacAddress]


class ObservationStore:
    """Accumulates (mobile, AP, time) communication evidence.

    Parameters
    ----------
    window_s:
        Width of the co-observation window.  Two APs seen from the same
        mobile within one window are treated as co-observed for the
        AP-Rad linear program.
    """

    def __init__(self, window_s: float = 30.0):
        if window_s <= 0.0:
            raise ValueError(f"window must be > 0 s, got {window_s}")
        self.window_s = window_s
        # mobile -> ap -> list of observation times
        self._events: Dict[MacAddress, Dict[MacAddress, List[float]]] = (
            defaultdict(lambda: defaultdict(list)))
        self._probing_mobiles: Set[MacAddress] = set()
        self._seen_mobiles: Set[MacAddress] = set()
        self._known_aps: Set[MacAddress] = set()
        # mobile -> (bssid, channel) learned from data frames — the
        # associations a targeted deauthentication attack needs.
        self._associations: Dict[MacAddress,
                                 Tuple[MacAddress, int]] = {}
        self._frame_count = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, received: ReceivedFrame) -> None:
        """Extract communicability evidence from one captured frame.

        The evidence rule is the engine's :func:`~repro.engine.ingest.\
extract_evidence`: responses and data frames to or from an AP prove
        the pair can communicate.
        """
        frame = received.frame
        self._frame_count += 1
        if frame.frame_type is FrameType.PROBE_REQUEST:
            self._seen_mobiles.add(frame.source)
            self._probing_mobiles.add(frame.source)
            return
        if frame.frame_type is FrameType.BEACON:
            self._known_aps.add(frame.source)
            return
        evidence = extract_evidence(received)
        if evidence is None:
            return
        self._seen_mobiles.add(evidence.mobile)
        self._known_aps.add(evidence.ap)
        self._events[evidence.mobile][evidence.ap].append(evidence.timestamp)
        if frame.frame_type is not FrameType.PROBE_RESPONSE:
            # A handshake completion or data traffic reveals the
            # association the targeted and active attacks need.
            self._associations[evidence.mobile] = (evidence.ap,
                                                   frame.channel)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def frame_count(self) -> int:
        return self._frame_count

    @property
    def seen_mobiles(self) -> Set[MacAddress]:
        """All mobiles observed at all (probing or via AP replies)."""
        return set(self._seen_mobiles)

    @property
    def probing_mobiles(self) -> Set[MacAddress]:
        """Mobiles that sent at least one probe request."""
        return set(self._probing_mobiles)

    @property
    def observed_aps(self) -> Set[MacAddress]:
        return set(self._known_aps)

    def known_associations(self) -> List[Tuple[MacAddress, MacAddress,
                                               int]]:
        """(station, BSSID, channel) triples learned from data frames.

        Exactly the input the targeted deauthentication attack needs
        (see :class:`repro.sniffer.active.ActiveAttacker`).
        """
        return [(mobile, bssid, channel)
                for mobile, (bssid, channel)
                in sorted(self._associations.items())]

    def probing_fraction(self) -> float:
        """Fraction of seen mobiles that probed (the Fig 11 metric)."""
        if not self._seen_mobiles:
            return 0.0
        return len(self._probing_mobiles) / len(self._seen_mobiles)

    def gamma(self, mobile: MacAddress,
              at_time: Optional[float] = None) -> Set[MacAddress]:
        """Γ for a mobile: all-time, or restricted to one window.

        With ``at_time`` given, only APs observed within ``window_s`` of
        that instant count — the form the localization of a *moving*
        device needs.
        """
        events = self._events.get(mobile)
        if not events:
            return set()
        if at_time is None:
            return set(events.keys())
        half = self.window_s / 2.0
        return {
            ap for ap, times in events.items()
            if any(abs(t - at_time) <= half for t in times)
        }

    def all_observations(self) -> Dict[MacAddress, Set[MacAddress]]:
        """All-time Γ for every mobile with AP evidence."""
        return {mobile: set(events.keys())
                for mobile, events in self._events.items() if events}

    def windows(self) -> List[ObservationWindow]:
        """Γ per (mobile, time-window) — the AP-Rad observation corpus.

        Windows are aligned to multiples of ``window_s``; a mobile
        observed in three windows yields three corpus entries, so a
        device walking across campus contributes co-observation evidence
        only between APs it saw *near-simultaneously*.
        """
        grouped: Dict[Tuple[MacAddress, int], Set[MacAddress]] = (
            defaultdict(set))
        for mobile, events in self._events.items():
            for ap, times in events.items():
                for timestamp in times:
                    bucket = int(math.floor(timestamp / self.window_s))
                    grouped[(mobile, bucket)].add(ap)
        return [
            ObservationWindow(mobile=mobile,
                              window_start=bucket * self.window_s,
                              observed=frozenset(aps))
            for (mobile, bucket), aps in sorted(
                grouped.items(), key=lambda item: (item[0][1], item[0][0]))
        ]

    def corpus(self) -> List[Set[MacAddress]]:
        """The bare Γ sets of :meth:`windows` (AP-Rad's input shape)."""
        return [set(window.observed) for window in self.windows()]

    def merge(self, other: "ObservationStore") -> None:
        """Fold another store's evidence into this one.

        Supports multi-vantage deployments (a future-work extension of
        the paper's single-antenna design): each sniffer accumulates
        its own store and the analysis side merges them — Γ sets union,
        probing/seen sets union, newest association wins.
        """
        for mobile, events in other._events.items():
            for ap, times in events.items():
                self._events[mobile][ap].extend(times)
        self._probing_mobiles |= other._probing_mobiles
        self._seen_mobiles |= other._seen_mobiles
        self._known_aps |= other._known_aps
        self._associations.update(other._associations)
        self._frame_count += other._frame_count

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize the full store to JSON-compatible types."""
        return {
            "window_s": self.window_s,
            "events": {
                str(mobile): {str(ap): times
                              for ap, times in events.items()}
                for mobile, events in self._events.items()
            },
            "probing": sorted(str(m) for m in self._probing_mobiles),
            "seen": sorted(str(m) for m in self._seen_mobiles),
            "aps": sorted(str(a) for a in self._known_aps),
            "associations": {
                str(mobile): [str(bssid), channel]
                for mobile, (bssid, channel)
                in self._associations.items()
            },
            "frame_count": self._frame_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ObservationStore":
        """Rebuild a store serialized by :meth:`to_dict`."""
        store = cls(window_s=float(data["window_s"]))
        for mobile_text, events in data.get("events", {}).items():
            mobile = MacAddress.parse(mobile_text)
            for ap_text, times in events.items():
                ap = MacAddress.parse(ap_text)
                store._events[mobile][ap] = [float(t) for t in times]
        store._probing_mobiles = {
            MacAddress.parse(m) for m in data.get("probing", [])}
        store._seen_mobiles = {
            MacAddress.parse(m) for m in data.get("seen", [])}
        store._known_aps = {
            MacAddress.parse(a) for a in data.get("aps", [])}
        store._associations = {
            MacAddress.parse(mobile): (MacAddress.parse(bssid),
                                       int(channel))
            for mobile, (bssid, channel)
            in data.get("associations", {}).items()
        }
        store._frame_count = int(data.get("frame_count", 0))
        return store

    def save(self, path: PathLike) -> None:
        """Write the store to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict()),
                              encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike) -> "ObservationStore":
        """Read a store written by :meth:`save`."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(data)
