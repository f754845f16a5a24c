"""A fleet's AP-Rad is per shard (DESIGN §8).

Each shard builds its own localizer and partial-fits only the Γ of the
devices it owns, so a sharded AP-Rad fits one radius model per shard.
The oracle for shard ``s`` is one :class:`StreamingEngine` fed only
the rows :func:`device_shard` routes to ``s``.  The stream makes the
per-shard models differ from a single engine's: the AP pair (A, B) is
co-observed only by shard 0's devices, while shard 1's devices hear A
and B apart, so shard 1 alone fits A and B as separated.
"""

from repro.engine import StreamingEngine
from repro.geometry.point import Point
from repro.knowledge.apdb import ApDatabase, ApRecord
from repro.localization import APRad
from repro.localization.base import fix_record
from repro.net80211.frames import probe_response
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.service import ShardConfig, ShardedEngine, device_shard

SHARDS = 2
A, B, C = (MacAddress(0x001B63000000 + i) for i in range(3))
DATABASE = ApDatabase(
    ApRecord(bssid=mac, ssid=Ssid("campus"), location=location)
    for mac, location in ((A, Point(0.0, 0.0)), (B, Point(100.0, 0.0)),
                          (C, Point(50.0, 60.0))))
#: Γ sets per owning shard: only shard 0's devices hear A with B.
HEARD = {0: ({A, B}, {A, B, C}), 1: ({A, C}, {B, C})}
CONFIG = dict(window_s=120.0, batch_size=4, refit_every=6)


def localizer():
    return APRad(DATABASE, r_max=120.0, tie_break=1e-6)


def devices_of(shard, count=4):
    """The first ``count`` mobiles :func:`device_shard` gives ``shard``."""
    candidates = (MacAddress(0x020000000000 + i) for i in range(64))
    owned = [m for m in candidates if device_shard(m, SHARDS) == shard]
    return owned[:count]


def build_stream():
    """Probe responses from each device's APs, devices interleaved."""
    heard = [(mobile, sorted(HEARD[shard][n % 2]))
             for shard in range(SHARDS)
             for n, mobile in enumerate(devices_of(shard))]
    records = []
    for _ in range(3):
        for mobile, aps in heard:
            for ap in aps:
                ts = 0.1 * len(records)
                frame = probe_response(ap, mobile, 6, ts, Ssid("campus"))
                records.append(ReceivedFrame(frame, -60.0, 20.0, 6, ts))
    return records


def engine_fixes(records):
    engine = StreamingEngine(localizer(), **CONFIG)
    engine.run(iter(records))
    tracker = engine.tracker
    return {str(mobile): fix_record(tracker.latest(mobile).timestamp,
                                    tracker.latest(mobile).estimate)
            for mobile in tracker.devices()}


def test_each_shard_fits_its_own_radius_model():
    records = build_stream()
    with ShardedEngine(localizer, shards=SHARDS, transport="thread",
                       config=ShardConfig(**CONFIG)) as fleet:
        fleet.ingest_stream(records)
        fleet.drain()
        snapshot = fleet.snapshot()
    fleet_fixes = {str(mobile): fix_record(ts, estimate)
                   for mobile, (ts, estimate) in snapshot.items()}
    for shard in range(SHARDS):
        own_rows = [r for r in records
                    if device_shard(r.frame.destination, SHARDS) == shard]
        want = engine_fixes(own_rows)
        assert set(want) == {str(m) for m in devices_of(shard)}
        got = {mobile: fix for mobile, fix in fleet_fixes.items()
               if device_shard(MacAddress.parse(mobile), SHARDS) == shard}
        assert got == want
    # One engine over every row co-observes (A, B) for shard 1's
    # devices too; their fixes move, so the per-shard models matter.
    single = engine_fixes(records)
    assert single.keys() == fleet_fixes.keys()
    moved = {mobile for mobile in single
             if single[mobile] != fleet_fixes[mobile]}
    assert moved and all(
        device_shard(MacAddress.parse(mobile), SHARDS) == 1
        for mobile in moved)


def test_shard_one_alone_fits_a_and_b_as_separated():
    records = build_stream()
    radii = {}
    for shard in range(SHARDS):
        aprad = localizer()
        StreamingEngine(aprad, **CONFIG).run(iter(
            r for r in records
            if device_shard(r.frame.destination, SHARDS) == shard))
        radii[shard] = aprad.estimated_radii
    assert radii[0][A] + radii[0][B] >= 100.0
    assert radii[1][A] + radii[1][B] < 100.0
