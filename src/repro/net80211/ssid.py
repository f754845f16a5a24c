"""Service Set Identifiers.

SSIDs appear twice in the attack: APs advertise them in beacons/probe
responses (keyed into the WiGLE-style knowledge base), and mobiles leak
them in directed probe requests — the "implicit identifiers such as
network names in probing traffic" (Pang et al.) that break MAC
pseudonyms.  :meth:`Ssid.fingerprint` hashes a preferred-network list
into the implicit identifier our tracker uses when MACs are randomized.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

MAX_SSID_BYTES = 32


@dataclass(frozen=True, order=True)
class Ssid:
    """An SSID: 0–32 bytes of UTF-8 text (empty = wildcard/broadcast)."""

    __slots__ = ("name",)

    name: str

    def __post_init__(self) -> None:
        if len(self.name.encode("utf-8")) > MAX_SSID_BYTES:
            raise ValueError(
                f"SSID exceeds {MAX_SSID_BYTES} bytes: {self.name!r}")

    def __reduce__(self):
        # Frozen with manual slots: unpickling must go through __init__.
        return (type(self), (self.name,))

    @property
    def is_wildcard(self) -> bool:
        """True for the empty SSID used in broadcast probe requests."""
        return self.name == ""

    def __str__(self) -> str:
        return self.name or "<broadcast>"

    @staticmethod
    def fingerprint(ssids: Iterable["Ssid"]) -> str:
        """Order-insensitive digest of a preferred-network list.

        Two probe-request bursts with the same set of directed SSIDs
        produce the same fingerprint, letting the tracker link a device
        across MAC pseudonym changes (paper Section I, citing Pang et
        al. [13]).
        """
        names = sorted({s.name for s in ssids if not s.is_wildcard})
        digest = hashlib.sha256("\x00".join(names).encode("utf-8"))
        return digest.hexdigest()[:16]


#: The wildcard SSID carried by broadcast probe requests.
WILDCARD_SSID = Ssid("")
