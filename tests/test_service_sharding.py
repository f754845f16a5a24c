"""Partition function tests: stability, uniformity, the batch router."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.records import (CAPTURE_DTYPE, FRAME_TYPES, NO_BSSID,
                                   FrameBatch, encode_frames)
from repro.engine.ingest import classify_rows, extract_evidence
from repro.net80211.frames import (
    FrameType,
    beacon,
    probe_request,
    probe_response,
)
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.service import device_shard, route_batch

#: Wide enough that the addresses below land on distinct shards.
SHARDS = 97


def received(frame):
    return ReceivedFrame(frame, rssi_dbm=-70.0, snr_db=20.0,
                         rx_channel=6, rx_timestamp=frame.timestamp)


class TestDeviceShard:
    def test_is_crc32_of_big_endian_mac(self):
        # The contract is the *specific* stable function, not just any
        # hash: remote transports and resumed fleets must agree on it.
        mac = MacAddress(0x001B63A0B1C2)
        expected = zlib.crc32(
            (0x001B63A0B1C2).to_bytes(6, "big")) % 7
        assert device_shard(mac, 7) == expected

    def test_stable_across_calls(self):
        mac = MacAddress.parse("aa:bb:cc:dd:ee:ff")
        assert device_shard(mac, 4) == device_shard(mac, 4)

    def test_single_shard_gets_everything(self):
        for value in (0, 1, 0xFFFFFFFFFFFF):
            assert device_shard(MacAddress(value), 1) == 0

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            device_shard(MacAddress(1), 0)

    def test_roughly_uniform_over_devices(self):
        shards = 4
        counts = [0] * shards
        for i in range(2000):
            counts[device_shard(MacAddress(0x020000000000 + i),
                                shards)] += 1
        # CRC32 over sequential MACs should spread well; allow wide
        # slack — the point is "no shard starves", not perfection.
        assert min(counts) > 2000 / shards * 0.5
        assert max(counts) < 2000 / shards * 1.5


def owner(frame, shards=SHARDS):
    """The batch router's shard for one frame."""
    batch = FrameBatch(*encode_frames([received(frame)]))
    return int(route_batch(batch, shards)[0])


class TestRoutingKey:
    def test_evidence_routes_by_mobile_not_transmitter(self):
        ap = MacAddress(0x001B63000001)
        mobile = MacAddress(0x020000000007)
        # A probe *response* is transmitted by the AP but proves the
        # mobile communicable — the mobile's shard owns it.
        frame = probe_response(ap, mobile, 6, 1.0, ssid=Ssid("x"))
        assert device_shard(ap, SHARDS) != device_shard(mobile, SHARDS)
        assert owner(frame) == device_shard(mobile, SHARDS)

    def test_probe_request_routes_by_source(self):
        mobile = MacAddress(0x020000000009)
        frame = probe_request(mobile, 6, 1.0)
        assert owner(frame) == device_shard(mobile, SHARDS)

    def test_beacon_routes_by_transmitter(self):
        ap = MacAddress(0x001B63000002)
        frame = beacon(ap, 6, 1.0, ssid=Ssid("net"))
        assert owner(frame) == device_shard(ap, SHARDS)

    def test_all_evidence_for_one_device_lands_on_one_shard(self):
        mobile = MacAddress(0x020000000042)
        frames = [probe_response(MacAddress(0x001B63000000 + i),
                                 mobile, 6, float(i), ssid=Ssid("x"))
                  for i in range(8)]
        frames.append(probe_request(mobile, 6, 99.0))
        batch = FrameBatch(*encode_frames([received(f) for f in frames]))
        assert set(route_batch(batch, 5).tolist()) == {
            device_shard(mobile, 5)}


#: A few addresses per batch, so rows share endpoints (data frames with
#: ``src == bssid``) and about half the mobiles are multicast.
ADDRESSES = st.lists(st.integers(0, (1 << 48) - 1), min_size=1,
                     max_size=5)


@st.composite
def row_batches(draw):
    """Random rows under a permuted kind table, out-of-range codes too."""
    table = tuple(draw(st.permutations(FRAME_TYPES)))
    pool = draw(ADDRESSES) + [0xFFFFFFFFFFFF]
    count = draw(st.integers(1, 24))
    rows = np.zeros(count, dtype=CAPTURE_DTYPE)
    for index in range(count):
        rows[index]["kind"] = draw(st.integers(0, len(table) + 3))
        rows[index]["src"] = draw(st.sampled_from(pool))
        rows[index]["dst"] = draw(st.sampled_from(pool))
        rows[index]["bssid"] = draw(st.one_of(st.just(NO_BSSID),
                                              st.sampled_from(pool)))
        rows[index]["rx_ts"] = float(index)
    return FrameBatch(rows, b"", table)


class TestBatchRouterMatchesRecordRule:
    @given(batch=row_batches())
    @settings(max_examples=150, deadline=None)
    def test_classifier_and_router_agree_with_extract_evidence(self,
                                                               batch):
        probe, evidence, mobiles = classify_rows(batch)
        routed = {shards: route_batch(batch, shards)
                  for shards in (1, 3, 7)}
        for index, row in enumerate(batch.records):
            if row["kind"] >= len(batch.frame_types):
                # Undecodable: no class, routed by its transmitter.
                want_probe, found = False, None
                key = MacAddress(int(row["src"]))
            else:
                frame = batch.frame_at(index)
                want_probe = (frame.frame.frame_type
                              is FrameType.PROBE_REQUEST)
                found = extract_evidence(frame)
                key = (found.mobile if found is not None
                       else frame.frame.source)
            assert probe[index] == want_probe
            assert evidence[index] == (found is not None)
            if found is not None:
                assert int(mobiles[index]) == found.mobile.value
                assert int(row["bssid"]) == found.ap.value
            for shards, owners in routed.items():
                assert owners[index] == device_shard(key, shards)
