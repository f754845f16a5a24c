"""Device → shard partitioning for the sharded tracking service.

The whole service rests on one invariant: **every frame that can affect
a device's state lands on the same shard**.  The engine's per-device
state — the streaming Γ, the dirty bit, the track, quarantine — is keyed
by the mobile's MAC, so the partition function hashes the *mobile* of a
frame's evidence (not the transmitter: an AP's probe response carries
evidence about its destination).

The hash is CRC32 over the big-endian 48-bit address — stable across
processes and Python versions, unlike the salted builtin ``hash`` —
so a checkpointed fleet restarts onto the same partitioning, and a
remote transport can compute the same routing without coordination.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.capture.records import FrameBatch, mac_from_int
from repro.engine.ingest import classify_rows
from repro.net80211.mac import MacAddress


def device_shard(mac: MacAddress, shards: int) -> int:
    """The shard owning a device (stable, uniform over the MAC space)."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return zlib.crc32(mac.value.to_bytes(6, "big")) % shards


def route_batch(batch: FrameBatch, shards: int) -> np.ndarray:
    """The owning shard of every row of a batch, without decoding it.

    Evidence rows route by the *mobile* they prove communicable (so Γ
    updates stay shard-local); every other row — a probe request (the
    probing mobile, feeding the shard's pseudonym linker), a beacon,
    unmatched management traffic — routes by its transmitter.  The
    classification is :func:`~repro.engine.ingest.classify_rows`, the
    engine's own; each distinct key goes through :func:`device_shard`
    once.
    """
    _, evidence, mobiles = classify_rows(batch)
    keys = np.where(evidence, mobiles, batch.records["src"])
    unique, inverse = np.unique(keys, return_inverse=True)
    owners = np.fromiter(
        (device_shard(mac_from_int(int(key)), shards) for key in unique),
        dtype=np.intp, count=len(unique))
    return owners[inverse]
