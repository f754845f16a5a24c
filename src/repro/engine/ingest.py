"""Ingest stage: streaming Γ maintenance for the localization engine.

The batch pipeline (:mod:`repro.sniffer.observation`) keeps *every*
observation timestamp so it can answer arbitrary retrospective queries.
A live engine serving millions of devices cannot afford that: it only
needs, per device, the most recent evidence for each AP — enough to
evaluate the sliding-window Γ the next localization will use.

:class:`GammaState` is that bounded structure.  It stores one float per
(mobile, AP) pair — the latest time the pair was proven communicable —
and defines the streaming Γ of a device as the APs heard within
``window_s`` of the device's *own* most recent observation (the same
co-observation semantics as :meth:`ObservationStore.gamma`, evaluated
lazily at the device's frontier rather than at wall-clock "now").

:func:`extract_evidence` mirrors the communicability rules of
:meth:`ObservationStore.ingest` for the frame types that prove a
(mobile, AP) link; frame types that carry no pairwise evidence (probe
requests, beacons) return ``None`` and are handled by the engine's
bookkeeping directly.  :func:`classify_rows` is the same rule over a
:class:`~repro.capture.records.FrameBatch`'s columns, shared by the
engine's batch ingest and the service's router.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.capture.records import NO_BSSID, FrameBatch, mac_from_int
from repro.net80211.frames import FrameType
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame


@dataclass(frozen=True)
class Evidence:
    """One proven (mobile, AP) communicability event."""

    mobile: MacAddress
    ap: MacAddress
    timestamp: float


def extract_evidence(received: ReceivedFrame) -> Optional[Evidence]:
    """The (mobile, AP, time) evidence in one captured frame, if any."""
    frame = received.frame
    if frame.frame_type in (FrameType.PROBE_RESPONSE,
                            FrameType.ASSOCIATION_RESPONSE):
        # AP -> mobile: proof the pair can communicate.
        if frame.bssid is None or frame.destination.is_multicast:
            return None
        return Evidence(mobile=frame.destination, ap=frame.bssid,
                        timestamp=received.rx_timestamp)
    if frame.frame_type is FrameType.DATA and frame.bssid is not None:
        mobile = (frame.source if frame.source != frame.bssid
                  else frame.destination)
        if mobile.is_multicast:
            return None
        return Evidence(mobile=mobile, ap=frame.bssid,
                        timestamp=received.rx_timestamp)
    return None


#: Row classes for :func:`classify_rows`; every other type is class 0.
_PROBE, _RESPONSE, _DATA = 1, 2, 3
_CLASS_OF = {FrameType.PROBE_REQUEST: _PROBE,
             FrameType.PROBE_RESPONSE: _RESPONSE,
             FrameType.ASSOCIATION_RESPONSE: _RESPONSE,
             FrameType.DATA: _DATA}


@functools.lru_cache(maxsize=None)
def _class_table(frame_types: Tuple[FrameType, ...]) -> np.ndarray:
    """Kind code → row class for one kind table (unknown codes: 0)."""
    table = np.zeros(256, dtype=np.uint8)
    table[:len(frame_types)] = [_CLASS_OF.get(ft, 0) for ft in frame_types]
    return table


def classify_rows(batch: FrameBatch
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`extract_evidence` over a batch's columns, vectorized.

    Returns ``(probe, evidence, mobiles)``: the probe-request mask, the
    mask of rows carrying (mobile, AP) evidence, and the evidence
    mobile column (48-bit ints; meaningful where ``evidence`` holds).
    The AP of an evidence row is its ``bssid``.
    """
    records = batch.records
    row_class = _class_table(tuple(batch.frame_types))[records["kind"]]
    src = records["src"]
    dst = records["dst"]
    bssid = records["bssid"]
    response = row_class == _RESPONSE
    # Responses prove (destination, bssid); infrastructure data frames
    # prove (the non-AP endpoint, bssid).
    mobiles = np.where(response, dst, np.where(src != bssid, src, dst))
    # 802.11 group bit: bit 40 of the 48-bit address (LSB of the first
    # octet) — multicast mobiles carry no evidence.
    unicast = (mobiles >> np.uint64(40)) & np.uint64(1) == 0
    evidence = ((response | (row_class == _DATA))
                & (bssid != np.uint64(NO_BSSID)) & unicast)
    return row_class == _PROBE, evidence, mobiles


class _DeviceGamma:
    """One device's Γ state.

    ``by_ap`` holds the newest evidence time per AP (insertion order is
    first-heard order, which the checkpoint preserves), ``frontier``
    the newest over all APs, and ``gamma`` the cached in-window set.
    ``floor`` is a lower bound on the oldest in-window time: while the
    horizon stays at or below it, no member can have left the window.
    """

    __slots__ = ("by_ap", "frontier", "gamma", "floor")

    def __init__(self, by_ap: Dict[MacAddress, float], window_s: float):
        self.by_ap = by_ap
        self.frontier = max(by_ap.values())
        horizon = self.frontier - window_s
        self.gamma = frozenset(ap for ap, ts in by_ap.items()
                               if ts >= horizon)
        self.floor = min(by_ap[ap] for ap in self.gamma)

    def expire(self, horizon: float) -> None:
        """Drop the members older than ``horizon``; re-tighten ``floor``.

        Only members are scanned: an AP outside Γ is older than an
        earlier horizon, and the horizon never moves back.
        """
        by_ap = self.by_ap
        gone = []
        floor = float("inf")
        for ap in self.gamma:
            ts = by_ap[ap]
            if ts < horizon:
                gone.append(ap)
            elif ts < floor:
                floor = ts
        if gone:
            self.gamma = self.gamma.difference(gone)
        self.floor = floor


class GammaState:
    """Per-device sliding-window Γ sets, updated one event at a time.

    Memory is O(devices x APs-per-device): only the newest timestamp
    per (mobile, AP) pair is retained.  Each device's Γ is kept as a
    cached frozenset and changed only by the event that changes it, so
    :meth:`gamma` is O(1) and returns the *same object* for as long as
    Γ is unchanged; an event costs O(1) unless the window's horizon
    passes the oldest member's time bound, when it costs O(|Γ|).
    """

    def __init__(self, window_s: float = 30.0):
        if window_s <= 0.0:
            raise ValueError(f"window must be > 0 s, got {window_s}")
        self.window_s = window_s
        self._devices: Dict[MacAddress, _DeviceGamma] = {}

    def observe(self, evidence: Evidence) -> FrozenSet[MacAddress]:
        """Fold one evidence event in; return the device's current Γ."""
        ap, ts = evidence.ap, evidence.timestamp
        device = self._devices.get(evidence.mobile)
        if device is None:
            device = _DeviceGamma({ap: ts}, self.window_s)
            self._devices[evidence.mobile] = device
            return device.gamma
        by_ap = device.by_ap
        previous = by_ap.get(ap)
        if previous is not None and ts <= previous:
            # Not newer than this pair's time, so not past the frontier
            # either: nothing moves.
            return device.gamma
        by_ap[ap] = ts
        if ts > device.frontier:
            device.frontier = ts
            if device.floor < ts - self.window_s:
                device.expire(ts - self.window_s)
        if (ap not in device.gamma
                and ts >= device.frontier - self.window_s):
            device.gamma = device.gamma.union((ap,))
            if ts < device.floor:
                device.floor = ts
        return device.gamma

    def gamma(self, mobile: MacAddress) -> FrozenSet[MacAddress]:
        """APs heard within ``window_s`` of the device's newest evidence."""
        device = self._devices.get(mobile)
        return device.gamma if device is not None else frozenset()

    def last_seen(self, mobile: MacAddress) -> Optional[float]:
        """The newest evidence time for a device (None if never seen)."""
        device = self._devices.get(mobile)
        return device.frontier if device is not None else None

    def devices(self):
        return list(self._devices.keys())

    def __len__(self) -> int:
        return len(self._devices)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible snapshot of the Γ state."""
        return {
            "window_s": self.window_s,
            "events": {
                str(mobile): {str(ap): ts
                              for ap, ts in device.by_ap.items()}
                for mobile, device in self._devices.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GammaState":
        state = cls(window_s=float(data["window_s"]))
        for mobile_text, by_ap in data["events"].items():
            parsed = {MacAddress.parse(ap): float(ts)
                      for ap, ts in by_ap.items()}
            state._devices[MacAddress.parse(mobile_text)] = _DeviceGamma(
                parsed, state.window_s)
        return state


class BatchFold:
    """One batch's evidence rows, split by whether a row can change Γ.

    A device is *safe* for the batch when ``max(frontier, max ts) -
    window <= min(floor, min ts)`` over its rows (a device new to the
    state counts with no frontier and no floor): no horizon the batch
    can reach passes a member or a row, so no member expires and Γ only
    grows.  Of a safe device's rows, only the first row of each
    (device, AP) pair whose AP is outside Γ when the batch starts can
    change Γ, and it always does; every other row only raises
    ``by_ap[ap]`` and ``frontier``.  Every row of an unsafe device can
    change Γ.

    Built over one batch's evidence columns (row order: 48-bit mobile
    and AP ints, times).  :attr:`rows` lists the rows that can change
    Γ, in row order; the caller
    folds each through :meth:`GammaState.observe` (:meth:`evidence`
    builds the event).  The other rows are raised in bulk by
    :meth:`raise_through`, which the caller runs before anything reads
    a device's times and once at the end.  Raising out of row order is
    exact: the times are maxima, and a safe device's folded rows do not
    depend on them.
    """

    __slots__ = ("rows", "_state", "_macs", "_held", "_aps",
                 "_device_of", "_ap_of", "_stamps", "_bulk", "_keys",
                 "_raised")

    def __init__(self, state: GammaState, mobiles: np.ndarray,
                 aps: np.ndarray, stamps: np.ndarray):
        window = state.window_s
        values, device_of = np.unique(mobiles, return_inverse=True)
        ap_values, ap_of = np.unique(aps, return_inverse=True)
        self._macs = [mac_from_int(value) for value in values.tolist()]
        self._aps = [mac_from_int(value) for value in ap_values.tolist()]
        self._state = state
        self._held = [state._devices.get(mac) for mac in self._macs]
        low = np.full(len(values), np.inf)
        np.minimum.at(low, device_of, stamps)
        high = np.full(len(values), -np.inf)
        np.maximum.at(high, device_of, stamps)
        safe = np.array([
            hi - window <= lo if device is None else
            max(device.frontier, hi) - window <= min(device.floor, lo)
            for device, lo, hi in zip(self._held, low.tolist(),
                                      high.tolist())])
        fold = ~safe[device_of]
        keys = device_of * len(ap_values) + ap_of
        _, firsts = np.unique(keys, return_index=True)
        for row, device, ap in zip(firsts.tolist(),
                                   device_of[firsts].tolist(),
                                   ap_of[firsts].tolist()):
            held = self._held[device]
            if held is None or self._aps[ap] not in held.gamma:
                fold[row] = True
        self.rows = np.flatnonzero(fold).tolist()
        self._device_of = device_of.tolist()
        self._ap_of = ap_of.tolist()
        self._stamps = stamps
        self._bulk = np.flatnonzero(~fold)
        self._keys = keys
        self._raised = 0

    def _device(self, index: int) -> _DeviceGamma:
        device = self._held[index]
        if device is None:
            # New to the state: its first row has been folded since.
            device = self._state._devices[self._macs[index]]
            self._held[index] = device
        return device

    def evidence(self, row: int) -> Evidence:
        return Evidence(self._macs[self._device_of[row]],
                        self._aps[self._ap_of[row]],
                        float(self._stamps[row]))

    def gammas(self, start: int, stop: int) -> List[FrozenSet[MacAddress]]:
        """The current Γ of each row's device, for rows ``start`` to
        ``stop`` (none of them folded)."""
        device = self._device
        return [device(index).gamma
                for index in self._device_of[start:stop]]

    def raise_through(self, row: int) -> None:
        """Raise the times of every unfolded row up to ``row``."""
        stop = int(np.searchsorted(self._bulk, row, side="right"))
        if stop <= self._raised:
            return
        span = self._bulk[self._raised:stop]
        self._raised = stop
        keys = self._keys[span]
        stamps = self._stamps[span]
        order = np.lexsort((stamps, keys))
        keys = keys[order]
        last = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))
        width = len(self._aps)
        for key, ts in zip(keys[last].tolist(),
                           stamps[order][last].tolist()):
            device = self._device(key // width)
            ap = self._aps[key % width]
            if ts > device.by_ap[ap]:
                device.by_ap[ap] = ts
            if ts > device.frontier:
                device.frontier = ts
