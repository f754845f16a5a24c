"""Checkpoint/restore: an interrupted engine run equals an uninterrupted one."""

import json

import pytest

from repro.engine import StreamingEngine
from repro.knowledge.apdb import ApDatabase
from repro.localization import MLoc
from repro.localization.base import fix_record
from repro.net80211.frames import probe_request, probe_response
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid

from tests.helpers import make_record


def station(index):
    return MacAddress(0x020000000000 + index)


def build_stream(square_db, devices=8, rounds=3):
    """Several rounds of evidence; Γ sets shrink and grow over time."""
    frames = []
    t = 0.0
    records = list(square_db)
    for round_index in range(rounds):
        for d in range(devices):
            # Later rounds drop one AP so Γ actually changes.
            heard = records if round_index % 2 == 0 else records[:-1]
            frames.append(ReceivedFrame(
                probe_request(station(d), 6, t, ssid=Ssid("home")),
                rssi_dbm=-70.0, snr_db=20.0, rx_channel=6,
                rx_timestamp=t))
            for record in heard:
                t += 0.01
                frame = probe_response(record.bssid, station(d), 6, t,
                                       ssid=record.ssid)
                frames.append(ReceivedFrame(frame, rssi_dbm=-70.0,
                                            snr_db=20.0, rx_channel=6,
                                            rx_timestamp=t))
            t += 2.0
        t += 40.0  # next round falls outside the co-observation window
    return frames


def final_tracks(engine):
    """Comparable (timestamp, x, y, algorithm, k) track tuples."""
    return {
        str(mobile): [
            (point.timestamp,
             round(point.estimate.position.x, 9),
             round(point.estimate.position.y, 9),
             point.estimate.algorithm,
             point.estimate.used_ap_count)
            for point in engine.tracker.track_of(mobile)
        ]
        for mobile in engine.tracker.devices()
    }


@pytest.mark.parametrize("cut", [5, 37, 73])
def test_roundtrip_matches_uninterrupted_run(square_db, cut):
    frames = build_stream(square_db)
    assert cut < len(frames)

    uninterrupted = StreamingEngine(MLoc(square_db), window_s=30.0,
                                    batch_size=3)
    uninterrupted.run(iter(frames))

    first = StreamingEngine(MLoc(square_db), window_s=30.0, batch_size=3)
    first.ingest_stream(frames[:cut])  # stop mid-stream, no final drain
    blob = json.dumps(first.checkpoint())  # must be JSON all the way

    resumed = StreamingEngine.restore(json.loads(blob), MLoc(square_db))
    resumed.ingest_stream(frames[cut:])
    resumed.flush()

    assert final_tracks(resumed) == final_tracks(uninterrupted)
    assert (resumed.stats().estimates_emitted
            == uninterrupted.stats().estimates_emitted)
    assert (resumed.stats().frames_ingested
            == uninterrupted.stats().frames_ingested)


def test_save_and_load_checkpoint_file(square_db, tmp_path):
    frames = build_stream(square_db, devices=3, rounds=1)
    engine = StreamingEngine(MLoc(square_db), batch_size=2)
    engine.ingest_stream(frames)
    path = tmp_path / "engine.ckpt.json"
    engine.save_checkpoint(path)

    restored = StreamingEngine.load_checkpoint(path, MLoc(square_db))
    assert restored.gamma_state.window_s == engine.gamma_state.window_s
    assert restored.scheduler.to_list() == engine.scheduler.to_list()
    assert final_tracks(restored) == final_tracks(engine)
    assert (restored.stats().frames_ingested
            == engine.stats().frames_ingested)


def test_restore_rejects_unknown_version(square_db):
    with pytest.raises(ValueError):
        StreamingEngine.restore({"engine_checkpoint": 99},
                                MLoc(square_db))


@pytest.mark.parametrize("scale", [1.0, 0.55])
def test_restored_latest_fix_is_the_served_fix(square_db, scale):
    # Ranges shrunk by 0.55 leave the raw intersections empty, so the
    # fixes are inflated.  Either way the latest fix must survive
    # restore whole — region, vertices, area, inflation — as /locate
    # serves it.
    db = ApDatabase(make_record(i, r.location.x, r.location.y,
                                r.max_range_m * scale)
                    for i, r in enumerate(square_db))
    engine = StreamingEngine(MLoc(db), batch_size=2)
    engine.run(iter(build_stream(db, devices=3, rounds=2)))
    restored = StreamingEngine.restore(
        json.loads(json.dumps(engine.checkpoint())), MLoc(db))
    assert restored.tracker.devices() == engine.tracker.devices()
    for mobile in engine.tracker.devices():
        want = engine.tracker.latest(mobile)
        got = restored.tracker.latest(mobile)
        assert (fix_record(got.timestamp, got.estimate)
                == fix_record(want.timestamp, want.estimate))
        assert got.estimate.area_m2 == want.estimate.area_m2
        assert (want.estimate.inflation_factor > 1.0) == (scale < 1.0)
        # Older points stay positional.
        for point in restored.tracker.track_of(mobile)[:-1]:
            assert point.estimate.region is None
