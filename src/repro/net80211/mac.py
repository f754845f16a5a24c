"""IEEE 802 MAC addresses.

The digital Marauder's map tracks mobiles by MAC address ("the digital
Marauder's map can be used for tracking mobiles with static MAC
addresses, which are common in reality"), so the address type carries
the semantics the attack relies on: stable equality/hashing, vendor OUI
extraction, and locally-administered detection (randomized pseudonyms).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")

#: A tiny OUI → vendor registry for display purposes; real deployments
#: would ship the IEEE registry.
OUI_VENDORS: Dict[str, str] = {
    "00:1b:63": "Apple",
    "00:21:6a": "Intel",
    "00:15:e9": "D-Link",
    "00:15:6d": "Ubiquiti",
    "00:1e:58": "D-Link",
    "00:23:69": "Cisco-Linksys",
    "00:0f:b5": "Netgear",
    "00:14:bf": "Cisco-Linksys",
    "00:18:39": "Cisco-Linksys",
    "00:1f:3b": "Intel",
}


@dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit MAC address stored as an integer."""

    __slots__ = ("value",)

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise ValueError(f"MAC value out of range: {self.value:#x}")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` (or ``-`` separated) notation."""
        if not _MAC_RE.match(text):
            raise ValueError(f"invalid MAC address {text!r}")
        return cls(int(text.replace("-", ":").replace(":", ""), 16))

    @classmethod
    def random(cls, rng: np.random.Generator,
               oui: Optional[str] = None) -> "MacAddress":
        """A random unicast, globally-administered address.

        ``oui`` pins the top three octets (vendor prefix) when given.
        """
        if oui is not None:
            prefix = MacAddress.parse(oui + ":00:00:00").value >> 24
        else:
            prefix = int(rng.integers(0, 1 << 24))
            prefix &= ~0x010000  # clear multicast bit
            prefix &= ~0x020000  # clear locally-administered bit
        suffix = int(rng.integers(0, 1 << 24))
        return cls((prefix << 24) | suffix)

    @classmethod
    def random_pseudonym(cls, rng: np.random.Generator) -> "MacAddress":
        """A random locally-administered address (a MAC pseudonym)."""
        value = int(rng.integers(0, 1 << 48))
        value &= ~(0x01 << 40)  # unicast
        value |= 0x02 << 40     # locally administered
        return cls(value)

    def __reduce__(self):
        # Frozen with manual slots: unpickling must go through __init__.
        return (type(self), (self.value,))

    def __str__(self) -> str:
        return self.value.to_bytes(6, "big").hex(":")

    @property
    def oui(self) -> str:
        """The vendor prefix ``aa:bb:cc``."""
        return str(self)[:8]

    @property
    def vendor(self) -> Optional[str]:
        """Vendor name when the OUI is in the registry."""
        return OUI_VENDORS.get(self.oui)

    @property
    def is_multicast(self) -> bool:
        return bool((self.value >> 40) & 0x01)

    @property
    def is_locally_administered(self) -> bool:
        """True for randomized/pseudonym addresses (U/L bit set)."""
        return bool((self.value >> 40) & 0x02)

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 48) - 1


#: ff:ff:ff:ff:ff:ff — destination of broadcast probe requests.
BROADCAST_MAC = MacAddress((1 << 48) - 1)
