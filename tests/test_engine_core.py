"""Streaming-engine tests: ingest, scheduling, memoization, sinks."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.engine import (
    CallbackSink,
    Evidence,
    GammaState,
    LatestFixSink,
    MicroBatchScheduler,
    StreamingEngine,
    TrackerSink,
    extract_evidence,
)
from repro.localization import MLoc
from repro.net80211.frames import (
    Dot11Frame,
    FrameType,
    beacon,
    probe_request,
    probe_response,
)
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid

from tests.helpers import make_record


def received(frame, timestamp=None):
    return ReceivedFrame(frame, rssi_dbm=-70.0, snr_db=20.0,
                         rx_channel=6,
                         rx_timestamp=(frame.timestamp
                                       if timestamp is None else timestamp))


def station(index):
    return MacAddress(0x020000000000 + index)


def response_stream(square_db, devices, t0=0.0, gap_s=0.5):
    """Each device hears all four square APs in turn."""
    t = t0
    for d in range(devices):
        for record in square_db:
            t += 0.01
            yield received(probe_response(record.bssid, station(d), 6, t,
                                          ssid=record.ssid))
        t += gap_s


class TestExtractEvidence:
    def test_probe_response_is_evidence(self, square_db):
        record = next(iter(square_db))
        frame = probe_response(record.bssid, station(1), 6, 3.0,
                               ssid=record.ssid)
        evidence = extract_evidence(received(frame))
        assert evidence == Evidence(station(1), record.bssid, 3.0)

    def test_data_frame_is_evidence(self, square_db):
        record = next(iter(square_db))
        frame = Dot11Frame(frame_type=FrameType.DATA, source=station(1),
                           destination=record.bssid, channel=6,
                           timestamp=4.0, bssid=record.bssid)
        evidence = extract_evidence(received(frame))
        assert evidence is not None
        assert evidence.mobile == station(1)
        assert evidence.ap == record.bssid

    def test_probe_request_and_beacon_are_not(self, square_db):
        record = next(iter(square_db))
        assert extract_evidence(received(
            probe_request(station(1), 6, 1.0))) is None
        assert extract_evidence(received(
            beacon(record.bssid, 6, 1.0, ssid=record.ssid))) is None


class TestGammaState:
    def test_window_drops_stale_aps(self):
        state = GammaState(window_s=10.0)
        a, b = MacAddress(1), MacAddress(2)
        mobile = station(0)
        state.observe(Evidence(mobile, a, 0.0))
        assert state.gamma(mobile) == {a}
        state.observe(Evidence(mobile, b, 5.0))
        assert state.gamma(mobile) == {a, b}
        # 20 s later only the fresh AP remains in the window.
        state.observe(Evidence(mobile, b, 25.0))
        assert state.gamma(mobile) == {b}

    def test_out_of_order_evidence_keeps_newest(self):
        state = GammaState(window_s=10.0)
        a = MacAddress(1)
        mobile = station(0)
        state.observe(Evidence(mobile, a, 8.0))
        state.observe(Evidence(mobile, a, 3.0))  # late arrival
        assert state.last_seen(mobile) == 8.0
        assert state.gamma(mobile) == {a}

    def test_roundtrip(self):
        state = GammaState(window_s=15.0)
        state.observe(Evidence(station(0), MacAddress(1), 2.0))
        state.observe(Evidence(station(1), MacAddress(2), 3.0))
        clone = GammaState.from_dict(state.to_dict())
        assert clone.window_s == 15.0
        for mobile in state.devices():
            assert clone.gamma(mobile) == state.gamma(mobile)
            assert clone.last_seen(mobile) == state.last_seen(mobile)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            GammaState(window_s=0.0)

    def test_unchanged_gamma_is_the_same_object(self):
        state = GammaState(window_s=10.0)
        a, b = MacAddress(1), MacAddress(2)
        mobile = station(0)
        state.observe(Evidence(mobile, a, 0.0))
        gamma = state.observe(Evidence(mobile, b, 1.0))
        # A newer time for a member, a late duplicate, and a frontier
        # step that expires nothing all leave Γ (and the object) alone.
        assert state.observe(Evidence(mobile, a, 2.0)) is gamma
        assert state.observe(Evidence(mobile, b, 0.5)) is gamma
        assert state.observe(Evidence(mobile, a, 11.0)) is gamma
        assert state.gamma(mobile) is gamma
        assert state.observe(Evidence(mobile, a, 11.5)) == {a}


#: Few devices, APs and quarter-second stamps, so that out-of-order,
#: duplicate, equal-time and exactly-on-the-window-edge events are all
#: common.
WINDOW_S = 2.5
EVENTS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5),
                            st.integers(0, 60).map(lambda k: k * 0.25)),
                  max_size=80)


def reference_gamma(by_ap, window_s):
    """Γ from scratch: APs within the window of the newest evidence."""
    if not by_ap:
        return frozenset()
    frontier = max(by_ap.values())
    return frozenset(ap for ap, ts in by_ap.items()
                     if ts >= frontier - window_s)


class TestGammaStateDifferential:
    @settings(max_examples=300, deadline=None)
    @given(events=EVENTS, restore_at=st.integers(0, 80))
    def test_matches_from_scratch_reference(self, events, restore_at):
        state = GammaState(window_s=WINDOW_S)
        reference = {}
        last = {}
        for step, (device, ap_index, ts) in enumerate(events):
            if step == restore_at:
                state = GammaState.from_dict(
                    json.loads(json.dumps(state.to_dict())))
                last = {}
            mobile, ap = station(device), MacAddress(ap_index + 1)
            by_ap = reference.setdefault(mobile, {})
            if ap not in by_ap or ts > by_ap[ap]:
                by_ap[ap] = ts
            gamma = state.observe(Evidence(mobile, ap, ts))
            want = reference_gamma(by_ap, WINDOW_S)
            assert gamma == want
            if mobile in last and last[mobile] == want:
                assert gamma is last[mobile]
            last[mobile] = gamma
            for other, other_by_ap in reference.items():
                assert state.gamma(other) == reference_gamma(other_by_ap,
                                                             WINDOW_S)
                assert state.last_seen(other) == max(other_by_ap.values())
        assert state.to_dict()["events"] == {
            str(mobile): {str(ap): ts for ap, ts in by_ap.items()}
            for mobile, by_ap in reference.items()}


class TestScheduler:
    def test_insertion_order_and_dedup(self):
        scheduler = MicroBatchScheduler(batch_size=2)
        assert scheduler.mark_dirty(station(1))
        assert not scheduler.mark_dirty(station(1))
        scheduler.mark_dirty(station(2))
        scheduler.mark_dirty(station(3))
        assert scheduler.ready
        assert scheduler.next_batch() == [station(1), station(2)]
        assert scheduler.pending() == 1
        assert not scheduler.ready

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(batch_size=0)


class TestStreamingEngine:
    def test_end_to_end_tracks_and_stats(self, square_db):
        engine = StreamingEngine(MLoc(square_db), batch_size=4)
        stats = engine.run(response_stream(square_db, devices=6))
        assert stats.frames_ingested == 24
        assert stats.evidence_events == 24
        assert stats.devices_seen == 6
        assert stats.estimates_emitted >= 6
        assert stats.batches_flushed >= 1
        assert len(engine.tracker.devices()) == 6
        # All six devices share one Γ: the center estimate is shared.
        positions = {engine.tracker.latest(station(d)).estimate.position
                     for d in range(6)}
        assert len(positions) == 1

    def test_duplicate_gammas_hit_the_cache(self, square_db):
        engine = StreamingEngine(MLoc(square_db), batch_size=64)
        stats = engine.run(response_stream(square_db, devices=10))
        # >= 50% duplicate Γ sets -> nonzero hit rate (acceptance).
        assert stats.cache_hits > 0
        assert stats.cache_hit_rate > 0.5

    def test_cache_disabled_same_estimates(self, square_db):
        cached = StreamingEngine(MLoc(square_db), batch_size=4)
        uncached = StreamingEngine(MLoc(square_db), batch_size=4,
                                   cache_size=0)
        cached.run(response_stream(square_db, devices=5))
        uncached.run(response_stream(square_db, devices=5))
        assert uncached.stats().cache_enabled is False
        assert uncached.stats().cache_hits == 0
        for d in range(5):
            a = cached.tracker.latest(station(d))
            b = uncached.tracker.latest(station(d))
            assert a.timestamp == b.timestamp
            assert a.estimate.position.is_close(b.estimate.position)

    def test_unchanged_gamma_not_relocalized(self, square_db):
        engine = StreamingEngine(MLoc(square_db), batch_size=1)
        frames = list(response_stream(square_db, devices=1))
        engine.ingest_stream(frames)
        engine.flush()
        emitted = engine.stats().estimates_emitted
        # The same evidence again: Γ unchanged, nothing goes dirty.
        for frame in frames:
            engine.ingest(frame)
        engine.flush()
        assert engine.scheduler.pending() == 0
        assert engine.stats().estimates_emitted == emitted

    def test_micro_batch_flushes_during_ingest(self, square_db):
        engine = StreamingEngine(MLoc(square_db), batch_size=2)
        engine.ingest_stream(response_stream(square_db, devices=5))
        # Batches of 2 flushed eagerly: at most one straggler pending.
        assert engine.stats().batches_flushed >= 2
        assert engine.scheduler.pending() <= engine.scheduler.batch_size

    def test_unknown_aps_unlocatable(self, square_db):
        engine = StreamingEngine(MLoc(square_db))
        unknown = make_record(99, 500.0, 500.0, 80.0)
        frame = probe_response(unknown.bssid, station(0), 6, 1.0,
                               ssid=unknown.ssid)
        engine.ingest(received(frame))
        engine.flush()
        stats = engine.stats()
        assert stats.unlocatable == 1
        assert stats.estimates_emitted == 0

    def test_probe_requests_feed_linker(self, square_db):
        engine = StreamingEngine(MLoc(square_db))
        pseudo = MacAddress.parse("02:aa:bb:cc:dd:ee")
        engine.ingest(received(probe_request(pseudo, 6, 1.0,
                                             ssid=Ssid("home-net"))))
        assert engine.stats().probe_requests == 1
        assert engine.linker.fingerprint_of(pseudo) is not None

    def test_out_of_order_burst_keeps_track_monotonic(self, square_db):
        tracks = TrackerSink()
        engine = StreamingEngine(MLoc(square_db), batch_size=1,
                                 window_s=5.0, sinks=[tracks])
        records = list(square_db)
        mobile = station(0)
        # Fresh evidence at t=100 ... then a late burst stamped t=50.
        engine.ingest(received(probe_response(records[0].bssid, mobile,
                                              6, 100.0,
                                              ssid=records[0].ssid)))
        engine.flush()
        engine.ingest(received(probe_response(records[1].bssid, mobile,
                                              6, 50.0,
                                              ssid=records[1].ssid)))
        engine.flush()
        track = tracks.tracker.track_of(mobile)
        assert len(track) >= 1
        timestamps = [point.timestamp for point in track]
        assert timestamps == sorted(timestamps)
        assert engine.tracker.latest(mobile) == track[-1]

    def test_sinks_receive_estimates(self, square_db):
        seen = []
        fixes = LatestFixSink()
        engine = StreamingEngine(
            MLoc(square_db), batch_size=4,
            sinks=[CallbackSink(lambda m, t, e: seen.append((m, t))),
                   fixes])
        stats = engine.run(response_stream(square_db, devices=3))
        assert len(seen) == stats.estimates_emitted
        assert set(fixes.estimates()) == {station(d) for d in range(3)}

    def test_invalidate_cache(self, square_db):
        engine = StreamingEngine(MLoc(square_db), batch_size=4)
        engine.run(response_stream(square_db, devices=3))
        assert len(engine.cache) > 0
        engine.invalidate_cache()
        assert len(engine.cache) == 0

    def test_invalidate_cache_counts_in_the_engine_registry(self,
                                                            square_db):
        # Called outside run, with no registry routed: the count and
        # the emptied gauge still land in the engine's own registry.
        def cache_series(snapshot):
            return {key: value
                    for kind in ("counters", "gauges")
                    for key, value in snapshot[kind].items()
                    if key.startswith("repro.engine.cache.")}

        engine = StreamingEngine(MLoc(square_db), batch_size=4)
        engine.run(response_stream(square_db, devices=3))
        assert engine.stats().cache_entries == len(engine.cache) > 0
        default_before = cache_series(obs.default_registry().snapshot())
        engine.invalidate_cache()
        snapshot = engine.metrics_snapshot()
        assert snapshot["counters"]["repro.engine.cache.invalidation"] == 1
        assert snapshot["gauges"]["repro.engine.cache.entries"] == 0
        assert engine.stats().cache_entries == len(engine.cache) == 0
        assert (cache_series(obs.default_registry().snapshot())
                == default_before)

    def test_stats_format_mentions_pipeline(self, square_db):
        engine = StreamingEngine(MLoc(square_db), batch_size=4)
        stats = engine.run(response_stream(square_db, devices=2))
        text = stats.format()
        assert "EngineStats:" in text
        assert "hit rate" in text
        assert "estimates/s" in text
        assert stats.estimates_per_sec >= 0.0
