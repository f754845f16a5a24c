"""Engine observability: registry routing, checkpoint totals, factories."""

import json

import pytest

from repro import obs
from repro.engine import (
    EngineStats,
    FanoutSink,
    LatestFixSink,
    StreamingEngine,
    TrackerSink,
    CallbackSink,
    RendererSink,
    make_sink,
    sink_names,
)
from repro.localization import MLoc, make_localizer
from repro.net80211.frames import probe_request, probe_response
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.sniffer.tracker import DeviceTracker


def station(index):
    return MacAddress(0x020000000000 + index)


def build_stream(square_db, devices=8, rounds=3, split=False):
    """Probe traffic from ``devices`` stations over ``rounds`` rounds.

    With ``split`` each station hears only one side of the square
    (even stations APs 0-1, odd ones APs 2-3), so the cross pairs are
    never observed together.
    """
    frames = []
    t = 0.0
    records = list(square_db)
    for round_index in range(rounds):
        for d in range(devices):
            if split:
                heard = records[:2] if d % 2 == 0 else records[2:]
            else:
                heard = (records if round_index % 2 == 0
                         else records[:-1])
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
        t += 40.0
    return frames


CORE_COUNTERS = (
    "repro.engine.frames",
    "repro.engine.evidence",
    "repro.engine.probe_requests",
    "repro.engine.batches",
    "repro.engine.estimates",
    "repro.engine.unlocatable",
    "repro.engine.refits",
)


class TestEngineRegistry:
    def test_core_series_present_at_zero_before_any_frame(self, square_db):
        snapshot = StreamingEngine(MLoc(square_db)).metrics_snapshot()
        for name in CORE_COUNTERS:
            assert snapshot["counters"][name] == 0
        assert snapshot["histograms"]["repro.engine.flush.duration"][
            "count"] == 0
        for event in ("hit", "miss", "eviction", "invalidation"):
            assert snapshot["counters"][f"repro.engine.cache.{event}"] == 0
        assert snapshot["gauges"]["repro.engine.cache.entries"] == 0

    def test_run_populates_acceptance_series(self, square_db):
        engine = StreamingEngine(MLoc(square_db), window_s=30.0,
                                 batch_size=3)
        stats = engine.run(iter(build_stream(square_db)))
        snapshot = engine.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["repro.engine.frames"] == stats.frames_ingested
        assert counters["repro.engine.estimates"] == stats.estimates_emitted
        assert counters["repro.engine.cache.hit"] == stats.cache_hits
        assert counters["repro.engine.cache.miss"] == stats.cache_misses
        flush = snapshot["histograms"]["repro.engine.flush.duration"]
        assert flush["count"] == stats.batches_flushed
        assert flush["sum"] > 0.0
        # Deep layers report into the engine's registry, not the default.
        located = counters["repro.localization.located{algorithm=m-loc}"]
        assert located == stats.cache_misses
        assert snapshot["gauges"]["repro.engine.devices.seen"] == (
            stats.devices_seen)

    def test_engine_registries_are_isolated(self, square_db):
        frames = build_stream(square_db, devices=3, rounds=1)
        first = StreamingEngine(MLoc(square_db), batch_size=3)
        second = StreamingEngine(MLoc(square_db), batch_size=3)
        first.run(iter(frames))
        snapshot = second.metrics_snapshot()
        assert snapshot["counters"]["repro.engine.frames"] == 0
        assert first.registry is not second.registry

    def test_revised_lp_metrics_flow_through_refit(self, square_db):
        # Cross pairs never observed together sit inside 2*r_max, so
        # their "<" rows bind and the cold solve must pivot away from
        # its all-radii-at-r_max start.
        localizer = make_localizer("ap-rad:r_max=150,solver=revised",
                                   database=square_db)
        engine = StreamingEngine(localizer, window_s=30.0, batch_size=3,
                                 refit_every=20)
        stats = engine.run(iter(build_stream(square_db, split=True)))
        assert stats.refits > 0
        counters = engine.metrics_snapshot()["counters"]
        assert counters["repro.engine.refits"] == stats.refits
        assert "repro.lp.revised.pivots" in counters
        assert "repro.lp.revised.refactorizations" in counters
        assert counters["repro.lp.revised.pivots"] > 0
        assert counters["repro.lp.revised.phase1_pivots"] == 0
        # The re-fit wall time landed in the fit stage series.
        assert stats.stage_seconds.get("fit", 0.0) > 0.0

    def test_stats_is_a_view_over_the_registry(self, square_db):
        engine = StreamingEngine(MLoc(square_db), batch_size=3)
        engine.ingest_stream(build_stream(square_db, devices=2, rounds=1))
        engine.flush()
        stats = engine.stats()
        assert isinstance(stats, EngineStats)
        assert stats.frames_ingested == int(
            engine.registry.counter("repro.engine.frames").value)


class TestCheckpointCumulativeTotals:
    def test_resumed_totals_equal_uninterrupted(self, square_db):
        frames = build_stream(square_db)
        cut = 37

        uninterrupted = StreamingEngine(MLoc(square_db), window_s=30.0,
                                        batch_size=3)
        uninterrupted.run(iter(frames))

        first = StreamingEngine(MLoc(square_db), window_s=30.0,
                                batch_size=3)
        first.ingest_stream(frames[:cut])
        blob = json.dumps(first.checkpoint())
        resumed = StreamingEngine.restore(json.loads(blob),
                                          MLoc(square_db))
        resumed.ingest_stream(frames[cut:])
        resumed.flush()

        full = uninterrupted.metrics_snapshot()
        again = resumed.metrics_snapshot()
        for name in CORE_COUNTERS:
            assert again["counters"][name] == full["counters"][name], name
        assert resumed.stats().to_dict().keys() == (
            uninterrupted.stats().to_dict().keys())

    def test_checkpoint_carries_registry_snapshot(self, square_db):
        engine = StreamingEngine(MLoc(square_db), batch_size=2)
        engine.ingest_stream(build_stream(square_db, devices=3, rounds=1))
        data = engine.checkpoint()
        assert data["engine_checkpoint"] == 5
        snapshot = engine.metrics_snapshot()
        # Counters and gauges only: the timers measure wall time.
        assert data["metrics"] == {"counters": snapshot["counters"],
                                   "gauges": snapshot["gauges"]}
        assert snapshot["histograms"] and "histograms" not in data["metrics"]
        # The snapshot is the only cumulative record: no legacy blocks.
        assert "counters" not in data and "stage_seconds" not in data


class TestSinkFactory:
    def test_names(self):
        assert set(sink_names()) == {"tracker", "callback", "latest",
                                     "renderer", "null"}

    def test_builds_by_name_with_context(self):
        tracker = DeviceTracker()
        sink = make_sink("tracker", tracker=tracker)
        assert isinstance(sink, TrackerSink)
        assert sink.tracker is tracker
        assert isinstance(make_sink("latest"), LatestFixSink)

    def test_passthrough_and_fanout(self):
        latest = LatestFixSink()
        assert make_sink(latest) is latest
        fanout = make_sink(["latest", latest])
        assert isinstance(fanout, FanoutSink)
        assert fanout.sinks[1] is latest

    def test_spec_options(self):
        class FakeRenderer:
            def add_estimate(self, *args, **kwargs):
                pass

        sink = make_sink("renderer:label_devices=false",
                         renderer=FakeRenderer())
        assert isinstance(sink, RendererSink)
        assert sink.label_devices is False

    def test_unknown_and_bad_specs_raise(self):
        with pytest.raises(ValueError, match="unknown sink"):
            make_sink("kafka")
        with pytest.raises(ValueError, match="bad options"):
            make_sink("callback")  # no callback supplied

    def test_fanout_accepts_any_iterable(self):
        fanout = FanoutSink(sink for sink in (LatestFixSink(),
                                              LatestFixSink()))
        assert len(fanout.sinks) == 2


class TestDeprecations:
    def test_engine_stats_does_not_warn(self, recwarn):
        assert EngineStats().format().startswith("EngineStats:")
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_keyword_sinks_do_not_warn(self, recwarn):
        tracker = DeviceTracker()
        assert TrackerSink(tracker=tracker).tracker is tracker

        def record(mobile, timestamp, estimate):
            pass

        assert CallbackSink(callback=record).callback is record

        class FakeRenderer:
            pass

        renderer = FakeRenderer()
        sink = RendererSink(renderer=renderer, label_devices=False)
        assert sink.renderer is renderer
        assert sink.label_devices is False
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]
