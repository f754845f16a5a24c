"""802.11 substrate: frames, devices, and the wireless medium.

The Marauder's-map attack consumes 802.11 *management traffic* — probe
requests broadcast by mobile devices, probe responses and beacons from
APs, and (for the active attack) spoofed deauthentication frames.  This
package models exactly that slice of the protocol:

* :mod:`repro.net80211.mac` / :mod:`repro.net80211.ssid` — identifiers,
* :mod:`repro.net80211.frames` — management-frame dataclasses,
* :mod:`repro.net80211.ap` — access-point behaviour (beacons, probe
  responses, maximum transmission distance),
* :mod:`repro.net80211.station` — mobile-station scanning state machine
  (active/passive scanners, preferred-network lists, deauth-triggered
  rescans),
* :mod:`repro.net80211.medium` — frame delivery through a propagation
  model, SNR, and the cross-channel decode model.

Capture persistence lives in :mod:`repro.capture`.
"""

from repro.net80211.mac import BROADCAST_MAC, MacAddress
from repro.net80211.ssid import Ssid
from repro.net80211.frames import (
    Dot11Frame,
    FrameType,
    beacon,
    deauthentication,
    probe_request,
    probe_response,
)
from repro.net80211.ap import AccessPoint
from repro.net80211.station import MobileStation, ScanProfile
from repro.net80211.medium import Medium, ReceivedFrame

__all__ = [
    "MacAddress",
    "BROADCAST_MAC",
    "Ssid",
    "FrameType",
    "Dot11Frame",
    "probe_request",
    "probe_response",
    "beacon",
    "deauthentication",
    "AccessPoint",
    "MobileStation",
    "ScanProfile",
    "Medium",
    "ReceivedFrame",
]
