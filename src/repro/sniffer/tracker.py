"""Device tracking over time and pseudonym linking.

The Marauder's map is a *tracking* system, not a one-shot locator: it
maintains a per-device track of timestamped location estimates
(:class:`DeviceTracker`), which the display renders as moving tags.

For devices that randomize their MAC, the paper points to Pang et
al. [13]: "many implicit identifiers such as network names in probing
traffic may break those pseudonyms.  Combined with their schemes, the
digital Marauder's map can also track a victim in case pseudo-mac
addresses are used."  :class:`PseudonymLinker` implements that scheme's
core: probe bursts are grouped by the fingerprint of the directed-SSID
set, so different MACs leaking the same preferred-network list collapse
into one logical device.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.geometry.point import Point
from repro.localization.base import LocalizationEstimate
from repro.net80211.frames import Dot11Frame, FrameType
from repro.net80211.mac import MacAddress
from repro.net80211.ssid import Ssid


@dataclass(frozen=True)
class TrackPoint:
    """One timestamped location estimate for one device."""

    timestamp: float
    estimate: LocalizationEstimate


class DeviceTracker:
    """Per-device tracks of location estimates."""

    def __init__(self):
        self._tracks: Dict[MacAddress, List[TrackPoint]] = defaultdict(list)

    def record(self, mobile: MacAddress, timestamp: float,
               estimate: LocalizationEstimate) -> None:
        """Append an estimate to a device's track (monotonic time)."""
        track = self._tracks[mobile]
        if track and timestamp < track[-1].timestamp:
            raise ValueError(
                f"timestamps must be non-decreasing per device: "
                f"{timestamp} < {track[-1].timestamp}")
        track.append(TrackPoint(timestamp, estimate))

    def track_of(self, mobile: MacAddress) -> List[TrackPoint]:
        return list(self._tracks.get(mobile, []))

    def devices(self) -> List[MacAddress]:
        return sorted(self._tracks.keys())

    def latest(self, mobile: MacAddress) -> Optional[TrackPoint]:
        track = self._tracks.get(mobile)
        return track[-1] if track else None

    def path_of(self, mobile: MacAddress) -> List[Point]:
        """The estimated positions, in time order."""
        return [point.estimate.position
                for point in self._tracks.get(mobile, [])]

    def total_estimates(self) -> int:
        return sum(len(track) for track in self._tracks.values())


class SequenceNumberLinker:
    """Links pseudonyms through 802.11 sequence-number continuity.

    The 12-bit sequence counter lives in the NIC, not the MAC: a naive
    pseudonym rotation keeps counting where the old identity stopped.
    When MAC B's first frames pick up (modulo 4096) within
    ``max_gap`` of where MAC A's stopped — and B appears within
    ``max_silence_s`` of A's disappearance — the two are linked.  This
    is the second implicit identifier of Pang et al.; the defense is to
    reset the counter on rotation.
    """

    def __init__(self, max_gap: int = 64, max_silence_s: float = 120.0):
        if max_gap < 1:
            raise ValueError(f"max_gap must be >= 1, got {max_gap}")
        if max_silence_s <= 0.0:
            raise ValueError(
                f"max_silence_s must be > 0, got {max_silence_s}")
        self.max_gap = max_gap
        self.max_silence_s = max_silence_s
        # mac -> (first_ts, first_seq, last_ts, last_seq)
        self._spans: Dict[MacAddress, Tuple[float, int, float, int]] = {}

    def ingest(self, frame: Dot11Frame) -> None:
        """Record one frame's (source, sequence, timestamp)."""
        if frame.frame_type is not FrameType.PROBE_REQUEST:
            return
        span = self._spans.get(frame.source)
        if span is None:
            self._spans[frame.source] = (frame.timestamp, frame.sequence,
                                         frame.timestamp, frame.sequence)
        else:
            first_ts, first_seq, _, _ = span
            self._spans[frame.source] = (first_ts, first_seq,
                                         frame.timestamp, frame.sequence)

    def linked_pairs(self) -> List[Tuple[MacAddress, MacAddress]]:
        """(predecessor, successor) pseudonym pairs by continuity."""
        pairs: List[Tuple[MacAddress, MacAddress]] = []
        spans = sorted(self._spans.items(), key=lambda kv: kv[1][0])
        for i, (mac_a, span_a) in enumerate(spans):
            _, _, last_ts_a, last_seq_a = span_a
            for mac_b, span_b in spans[i + 1:]:
                first_ts_b, first_seq_b, _, _ = span_b
                if first_ts_b < last_ts_a:
                    continue  # overlapping lifetimes: different devices
                if first_ts_b - last_ts_a > self.max_silence_s:
                    continue
                gap = (first_seq_b - last_seq_a) % 4096
                if 0 < gap <= self.max_gap:
                    pairs.append((mac_a, mac_b))
        return pairs

    def chains(self) -> List[List[MacAddress]]:
        """Maximal pseudonym chains built from the linked pairs."""
        successor: Dict[MacAddress, MacAddress] = {}
        has_predecessor: Set[MacAddress] = set()
        for predecessor, succ in self.linked_pairs():
            # Keep the tightest (first-found, time-ordered) successor.
            if predecessor not in successor:
                successor[predecessor] = succ
                has_predecessor.add(succ)
        chains: List[List[MacAddress]] = []
        for mac in self._spans:
            if mac in has_predecessor:
                continue
            chain = [mac]
            while chain[-1] in successor:
                chain.append(successor[chain[-1]])
            if len(chain) > 1:
                chains.append(chain)
        return chains


class PseudonymLinker:
    """Links randomized MACs through preferred-network fingerprints.

    Feed it every captured probe request; it accumulates, per source
    MAC, the set of directed SSIDs, and groups MACs whose fingerprints
    match.  Only locally-administered ("pseudonym-looking") MACs with a
    non-empty directed-SSID set participate in linking — a globally
    administered MAC is already a stable identifier.
    """

    def __init__(self):
        self._ssids_by_mac: Dict[MacAddress, Set[Ssid]] = defaultdict(set)
        self._macs_seen: List[MacAddress] = []

    def ingest(self, frame: Dot11Frame) -> None:
        """Record one probe request (other frame types are ignored)."""
        if frame.frame_type is FrameType.PROBE_REQUEST:
            self.observe(frame.source, frame.ssid)

    def observe(self, source: MacAddress, ssid: Ssid) -> None:
        """Record one probe request's (source MAC, SSID) pair.

        Repeating a pair changes nothing, so a batch may hand over each
        distinct pair once, in first-seen order.
        """
        if source not in self._ssids_by_mac:
            self._macs_seen.append(source)
            self._ssids_by_mac[source]  # create entry
        if not ssid.is_wildcard:
            self._ssids_by_mac[source].add(ssid)

    def fingerprint_of(self, mac: MacAddress) -> Optional[str]:
        """The SSID-set fingerprint for a MAC (None if nothing leaked)."""
        ssids = self._ssids_by_mac.get(mac)
        if not ssids:
            return None
        return Ssid.fingerprint(ssids)

    def linked_groups(self) -> List[List[MacAddress]]:
        """Groups of pseudonym MACs believed to be the same device.

        Each group shares one fingerprint; singleton groups (a
        fingerprint seen under only one MAC) are included, since they
        still name a logical device.
        """
        by_fingerprint: Dict[str, List[MacAddress]] = defaultdict(list)
        for mac in self._macs_seen:
            if not mac.is_locally_administered:
                continue
            fingerprint = self.fingerprint_of(mac)
            if fingerprint is not None:
                by_fingerprint[fingerprint].append(mac)
        return [group for _, group in sorted(by_fingerprint.items())]

    def logical_identity(self, mac: MacAddress) -> Tuple[str, str]:
        """A stable (kind, id) pair for a MAC.

        Globally-administered MACs identify themselves; pseudonyms with
        a leaked preferred-network list map to their fingerprint;
        anything else falls back to the MAC.
        """
        if not mac.is_locally_administered:
            return ("mac", str(mac))
        fingerprint = self.fingerprint_of(mac)
        if fingerprint is not None:
            return ("fingerprint", fingerprint)
        return ("mac", str(mac))
