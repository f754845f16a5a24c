"""repro.service — the sharded tracking service.

The scale-out layer over :mod:`repro.engine`: devices are partitioned
across N :class:`~repro.engine.StreamingEngine` shards by a stable hash
of the device id (:mod:`repro.service.sharding`), frames flow through a
pluggable :class:`Bus` — in-process queues, or TCP via
:class:`SocketBus` (:mod:`repro.service.socketbus`) — and one
:class:`ShardedEngine` router re-exposes the single-engine surface
— plus serving queries and a Prometheus scrape — over the fleet.
Per-shard checkpoints and router-side retention make a shard crash
invisible: the restarted shard replays to exactly the state it lost.
For geographically distributed capture, the ingest gateway
(:mod:`repro.service.gateway`) accepts framed capture batches over TCP
with at-least-once + dedup-by-sequence delivery.
"""

from repro.service.bus import (Bus, BusTimeout, QueueBus,
                               DEFAULT_CAPACITY, empty_collect_message)
from repro.service.core import ServiceError, ShardedEngine, TRANSPORTS
from repro.service.gateway import (FrameIngestServer, IngestStats,
                                   stream_capture_to)
from repro.service.http import ServiceServer, estimate_to_dict
from repro.service.shard import (LocalizerFactory, ShardConfig,
                                 ShardRuntime, run_shard)
from repro.service.sharding import device_shard, route_batch
from repro.service.socketbus import ShardChannel, SocketBus
from repro.service.wire import (ConnectionLost, CrcMismatch,
                                HelloRejected, TruncatedFrame,
                                VersionMismatch, WireError)

__all__ = [
    "Bus", "BusTimeout", "ConnectionLost", "CrcMismatch",
    "DEFAULT_CAPACITY", "FrameIngestServer", "HelloRejected",
    "IngestStats", "LocalizerFactory", "QueueBus",
    "ServiceError", "ServiceServer", "ShardChannel", "ShardConfig",
    "ShardRuntime", "ShardedEngine", "SocketBus", "TRANSPORTS",
    "TruncatedFrame", "VersionMismatch", "WireError", "device_shard",
    "empty_collect_message", "estimate_to_dict", "route_batch",
    "run_shard", "stream_capture_to",
]
