"""Checkpoint/restore: an interrupted engine run equals an uninterrupted one."""

import json

import pytest

from repro.engine import EngineStats, StreamingEngine, TrackerSink
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


def final_tracks(*sinks):
    """Comparable (timestamp, x, y, algorithm, k) track tuples per device,
    joined in order over tracker sinks: pass the sinks of a run's
    consecutive engines (before and after a restore) to get the whole
    run's emitted stream."""
    tracks = {}
    for sink in sinks:
        for mobile in sink.tracker.devices():
            tracks.setdefault(str(mobile), []).extend(
                (point.timestamp,
                 round(point.estimate.position.x, 9),
                 round(point.estimate.position.y, 9),
                 point.estimate.algorithm,
                 point.estimate.used_ap_count)
                for point in sink.tracker.track_of(mobile))
    return tracks


def newest_fixes(engine):
    """The engine's head table as fix records, per device."""
    return {str(mobile): fix_record(point.timestamp, point.estimate)
            for mobile in engine.tracker.devices()
            for point in [engine.tracker.latest(mobile)]}


@pytest.mark.parametrize("cut", [5, 37, 73])
def test_roundtrip_matches_uninterrupted_run(square_db, cut):
    frames = build_stream(square_db)
    assert cut < len(frames)

    whole = TrackerSink()
    uninterrupted = StreamingEngine(MLoc(square_db), window_s=30.0,
                                    batch_size=3, sinks=[whole])
    uninterrupted.run(iter(frames))

    before = TrackerSink()
    first = StreamingEngine(MLoc(square_db), window_s=30.0, batch_size=3,
                            sinks=[before])
    first.ingest_stream(frames[:cut])  # stop mid-stream, no final drain
    blob = json.dumps(first.checkpoint())  # must be JSON all the way

    after = TrackerSink()
    resumed = StreamingEngine.restore(json.loads(blob), MLoc(square_db),
                                      sinks=[after])
    resumed.ingest_stream(frames[cut:])
    resumed.flush()

    # The run's emitted stream, split at the restore, is the
    # uninterrupted stream; the newest fixes agree too.
    assert final_tracks(before, after) == final_tracks(whole)
    assert newest_fixes(resumed) == newest_fixes(uninterrupted)
    assert (resumed.stats().estimates_emitted
            == uninterrupted.stats().estimates_emitted)
    assert (resumed.stats().frames_ingested
            == uninterrupted.stats().frames_ingested)


def test_restored_stats_read_the_registry(square_db, tmp_path):
    # Counters resume from the checkpoint; the cache comes back empty,
    # and its entries gauge says so.
    frames = build_stream(square_db)
    engine = StreamingEngine(MLoc(square_db), window_s=30.0, batch_size=3)
    engine.ingest_stream(frames[:60])
    before = engine.stats()
    assert before.cache_hits > 0 and before.cache_entries > 0
    path = tmp_path / "engine.ckpt"
    engine.save_checkpoint(path)

    restored = StreamingEngine.load_checkpoint(path, MLoc(square_db))
    stats = restored.stats()
    assert stats == EngineStats.from_snapshot(restored.metrics_snapshot())
    assert stats.cache_entries == len(restored.cache) == 0
    assert (stats.cache_hits, stats.cache_misses, stats.frames_ingested,
            stats.devices_seen) == (before.cache_hits, before.cache_misses,
                                    before.frames_ingested,
                                    before.devices_seen)
    restored.ingest_stream(frames[60:])
    restored.flush()
    assert restored.stats().cache_entries == len(restored.cache) > 0


def test_save_and_load_checkpoint_file(square_db, tmp_path):
    frames = build_stream(square_db, devices=3, rounds=1)
    engine = StreamingEngine(MLoc(square_db), batch_size=2)
    engine.ingest_stream(frames)
    path = tmp_path / "engine.ckpt.json"
    engine.save_checkpoint(path)

    restored = StreamingEngine.load_checkpoint(path, MLoc(square_db))
    assert restored.gamma_state.window_s == engine.gamma_state.window_s
    assert restored.scheduler.to_list() == engine.scheduler.to_list()
    assert newest_fixes(restored) == newest_fixes(engine)
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
    data = json.loads(json.dumps(engine.checkpoint()))
    assert "tracks" not in data  # the newest fix only, no history
    restored = StreamingEngine.restore(data, MLoc(db))
    assert restored.tracker.devices() == engine.tracker.devices()
    assert newest_fixes(restored) == newest_fixes(engine)
    for mobile in engine.tracker.devices():
        want = engine.tracker.latest(mobile)
        got = restored.tracker.latest(mobile)
        assert got.estimate.area_m2 == want.estimate.area_m2
        assert (want.estimate.inflation_factor > 1.0) == (scale < 1.0)


def test_two_runs_write_identical_checkpoint_bytes(square_db, tmp_path):
    # Wall-clock timers stay out of the checkpoint, so one stream gives
    # one file, byte for byte.
    frames = build_stream(square_db)
    paths = []
    for run in range(2):
        engine = StreamingEngine(MLoc(square_db), window_s=30.0,
                                 batch_size=3)
        engine.run(iter(frames))
        paths.append(tmp_path / f"run{run}.ckpt")
        engine.save_checkpoint(paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
