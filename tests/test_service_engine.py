"""ShardedEngine tests: equivalence, recovery, merged reads.

The service's one hard promise: a sharded run produces exactly the
same final per-device localizations as a single-engine run, at any
fleet width, including after killing and restarting shards mid-run.
"""

import functools
import json
import threading

import pytest

from repro import obs
from repro.capture.records import FrameBatch, encode_frames
from repro.engine import EngineStats, StreamingEngine
from repro.engine.sinks import EngineSink
from repro.faults import FaultInjector, FaultSpec, use_injector
from repro.localization import MLoc
from repro.net80211.frames import probe_response
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.service import (
    QueueBus,
    ServiceError,
    ShardConfig,
    ShardedEngine,
)


def station(index):
    return MacAddress(0x020000000000 + index)


def build_stream(square_db, devices=12, rounds=3):
    """Every device hears all four square APs, several times over."""
    frames = []
    t = 0.0
    for _ in range(rounds):
        for d in range(devices):
            for record in square_db:
                t += 0.01
                frame = probe_response(record.bssid, station(d), 6, t,
                                       ssid=record.ssid)
                frames.append(ReceivedFrame(frame, rssi_dbm=-70.0,
                                            snr_db=20.0, rx_channel=6,
                                            rx_timestamp=t))
    return frames


def single_engine_fixes(square_db, frames):
    """The ground truth: one StreamingEngine over the same stream."""
    engine = StreamingEngine(MLoc(square_db), window_s=30.0,
                             batch_size=32)
    for received in frames:
        engine.ingest(received)
    engine.drain()
    return {mobile: (point.timestamp, point.estimate.position)
            for mobile in engine.tracker.devices()
            for point in [engine.tracker.latest(mobile)]}


class GateSink(EngineSink):
    """Holds the shard's thread in its first emit until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def emit(self, mobile, timestamp, estimate):
        self.entered.set()
        self.release.wait(10.0)


def fleet(square_db, **kwargs):
    kwargs.setdefault("shards", 3)
    kwargs.setdefault("transport", "thread")
    kwargs.setdefault("config", ShardConfig(window_s=30.0,
                                            batch_size=32))
    kwargs.setdefault("publish_batch", 8)
    return ShardedEngine(functools.partial(MLoc, square_db), **kwargs)


def fleet_fixes(engine):
    return {mobile: (ts, estimate.position)
            for mobile, (ts, estimate) in engine.snapshot().items()}


class TestEquivalence:
    def test_sharded_matches_single_engine(self, square_db):
        frames = build_stream(square_db)
        want = single_engine_fixes(square_db, frames)
        engine = fleet(square_db)
        try:
            engine.ingest_stream(frames)
            engine.drain()
            assert fleet_fixes(engine) == want
        finally:
            engine.stop()

    def test_width_does_not_matter(self, square_db):
        frames = build_stream(square_db, devices=8, rounds=2)
        want = single_engine_fixes(square_db, frames)
        for shards in (1, 2, 5):
            engine = fleet(square_db, shards=shards)
            try:
                engine.run(iter(frames))
                assert fleet_fixes(engine) == want, f"{shards} shards"
            finally:
                engine.stop()

    def test_merged_stats_cover_the_whole_stream(self, square_db):
        frames = build_stream(square_db)
        engine = fleet(square_db)
        try:
            stats = engine.run(iter(frames))
            assert stats.frames_ingested == len(frames)
            assert stats.devices_seen == 12
        finally:
            engine.stop()

    def test_locate_routes_to_the_owning_shard(self, square_db):
        frames = build_stream(square_db)
        engine = fleet(square_db)
        try:
            engine.run(iter(frames))
            fixes = fleet_fixes(engine)
            for d in range(12):
                located = engine.locate(station(d))
                assert located is not None
                timestamp, estimate = located
                assert (timestamp, estimate.position) \
                    == fixes[station(d)]
            assert engine.locate(MacAddress(0x0DEADBEEF000)) is None
            # String form parses too.
            assert engine.locate(str(station(0))) is not None
        finally:
            engine.stop()


class TestRecovery:
    def test_kill_and_restart_mid_run_is_invisible(self, square_db,
                                                   tmp_path):
        frames = build_stream(square_db, devices=12, rounds=4)
        want = single_engine_fixes(square_db, frames)
        engine = fleet(square_db, checkpoint_dir=tmp_path / "ckpt",
                       checkpoint_every=20)
        try:
            half = len(frames) // 2
            engine.ingest_stream(frames[:half])
            engine.kill_shard(1)
            assert not engine._handles[1].alive()
            # The next publish to the dead shard triggers the
            # supervised restart; the run just continues.
            engine.ingest_stream(frames[half:])
            engine.drain()
            assert fleet_fixes(engine) == want
            assert engine._handles[1].restarts == 1
        finally:
            engine.stop()

    def test_restarted_fleet_stats_read_the_merged_registry(
            self, square_db, tmp_path):
        # Micro-batches of 2 flush during ingest, so the checkpoint the
        # killed shard restarts from already counts cache hits.  The
        # restarted shard resumes those counters with an empty cache;
        # the fleet's stats are the merged registry's, before and after
        # stop.
        frames = build_stream(square_db, devices=12, rounds=4)
        engine = fleet(square_db, checkpoint_dir=tmp_path / "ckpt",
                       checkpoint_every=20,
                       config=ShardConfig(window_s=30.0, batch_size=2))
        try:
            half = len(frames) // 2
            engine.ingest_stream(frames[:half])
            engine.kill_shard(1)
            engine.ingest_stream(frames[half:])
            stats = engine.drain()
            assert engine._handles[1].restarts == 1
            assert stats == engine.stats() == EngineStats.from_snapshot(
                engine.metrics_snapshot())
            assert stats.frames_ingested == len(frames)
            assert stats.devices_seen == 12
        finally:
            engine.stop()
        assert engine.stats() == stats

    def test_recovery_without_checkpoints_replays_retention(
            self, square_db):
        # No checkpoint_dir: retention is never trimmed, so a restart
        # replays the shard's whole history.
        frames = build_stream(square_db, devices=10, rounds=3)
        want = single_engine_fixes(square_db, frames)
        engine = fleet(square_db)
        try:
            half = len(frames) // 2
            engine.ingest_stream(frames[:half])
            engine.kill_shard(0)
            engine.ingest_stream(frames[half:])
            engine.drain()
            assert fleet_fixes(engine) == want
        finally:
            engine.stop()

    def test_post_drain_kill_restores_serving_state(self, square_db,
                                                    tmp_path):
        frames = build_stream(square_db)
        engine = fleet(square_db, checkpoint_dir=tmp_path / "ckpt",
                       checkpoint_every=25)
        try:
            engine.run(iter(frames))
            before = fleet_fixes(engine)
            for index in range(engine.shards):
                engine.kill_shard(index)
            # Any read touching shard state heals the fleet.
            assert fleet_fixes(engine) == before
            health = engine.health()
            assert health["healthy"]
            assert [s["restarts"] for s in health["shards"]] \
                == [1, 1, 1]
        finally:
            engine.stop()

    def test_kill_with_a_full_inbox(self, square_db):
        # The shard is held inside a sink while the one message its
        # inbox can take waits behind it, so the kill's ("crash",)
        # publish finds the inbox full.  The runtime still dies at its
        # next get, and the supervised restart replays retention to
        # the same snapshot an unkilled fleet serves.
        frames = build_stream(square_db, devices=6, rounds=3)

        def run(kill):
            gate = GateSink()
            engine = fleet(square_db, shards=1, bus=QueueBus(1, capacity=1),
                           publish_timeout_s=0.1,
                           config=ShardConfig(window_s=30.0, batch_size=1,
                                              sink_specs=(gate,)))
            try:
                engine.ingest_batch(FrameBatch(*encode_frames(frames[:8])))
                if kill:
                    assert gate.entered.wait(10.0)
                engine.ingest_batch(FrameBatch(*encode_frames(frames[8:16])))
                if kill:
                    assert engine.bus.inbox_depth(0) == 1
                    threading.Timer(0.3, gate.release.set).start()
                    engine.kill_shard(0)
                    assert not engine._handles[0].alive()
                else:
                    gate.release.set()
                engine.ingest_stream(frames[16:])
                engine.drain()
                snapshot = engine._request(0, "snapshot")
                assert engine._handles[0].restarts == int(kill)
                return json.dumps(snapshot, sort_keys=True)
            finally:
                gate.release.set()
                engine.stop()

        assert run(kill=True) == run(kill=False)

    def test_health_and_metrics_report_inbox_depth(self, square_db):
        with fleet(square_db) as engine:
            engine.run(iter(build_stream(square_db, devices=4, rounds=1)))
            shards = engine.health()["shards"]
            assert [shard["inbox_depth"] for shard in shards] == [0, 0, 0]
            gauges = {obs.parse_key(key): value for key, value in
                      engine.metrics_snapshot()["gauges"].items()}
            assert {labels: value for (name, labels), value
                    in gauges.items()
                    if name == "repro.service.bus.inbox_depth"} == {
                (("shard", str(index)),): 0.0 for index in range(3)}

    def test_shard_gauges_sum_to_fleet_stats(self, square_db):
        # Each shard's engine gauges are their own series, so summed
        # over ``shard`` they give the merged stats, not one shard's.
        with fleet(square_db, shards=2) as engine:
            engine.ingest_stream(build_stream(square_db))
            stats = engine.drain()
            gauges = {obs.parse_key(key): value for key, value in
                      engine.metrics_snapshot()["gauges"].items()}

        def by_shard(metric):
            return {dict(labels)["shard"]: value
                    for (name, labels), value in gauges.items()
                    if name == metric}

        seen = by_shard("repro.engine.devices.seen")
        assert sorted(seen) == ["0", "1"]
        assert sum(seen.values()) == stats.devices_seen == 12
        entries = by_shard("repro.engine.cache.entries")
        assert sorted(entries) == ["0", "1"]
        assert sum(entries.values()) == stats.cache_entries

    def test_restart_refuses_a_live_shard(self, square_db):
        engine = fleet(square_db)
        try:
            with pytest.raises(ServiceError):
                engine.restart_shard(0)
        finally:
            engine.stop()

    def test_health_reports_dead_shards_without_healing(self,
                                                        square_db):
        engine = fleet(square_db)
        try:
            engine.kill_shard(2)
            report = engine.health()
            assert not report["healthy"]
            dead = report["shards"][2]
            assert dead["alive"] is False
        finally:
            engine.stop()


class TestCheckpointResume:
    def test_fleet_resumes_from_checkpoint_dir(self, square_db,
                                               tmp_path):
        frames = build_stream(square_db)
        want = single_engine_fixes(square_db, frames)
        ckpt = tmp_path / "fleet"
        first = fleet(square_db, checkpoint_dir=ckpt)
        try:
            first.ingest_stream(frames)
            first.drain()
            first.save_checkpoints()
        finally:
            first.stop()
        second = fleet(square_db, checkpoint_dir=ckpt, resume=True)
        try:
            second.drain()
            assert fleet_fixes(second) == want
        finally:
            second.stop()

    def test_save_covers_frames_behind_an_inflight_barrier(
            self, square_db, tmp_path):
        # Slow checkpoint writes keep a periodic barrier in flight while
        # later frames publish; the explicit save must cover those too.
        injector = FaultInjector([FaultSpec("engine.checkpoint",
                                            mode="delay", delay_s=0.2)])
        with use_injector(injector, all_threads=True):
            engine = fleet(square_db, checkpoint_dir=tmp_path / "fleet",
                           checkpoint_every=10)
            try:
                engine.ingest_stream(build_stream(square_db))
                engine.save_checkpoints()
                assert [shard["retained_frames"] for shard in
                        engine.health()["shards"]] == [0, 0, 0]
            finally:
                engine.stop()

    def test_resume_rejects_width_mismatch(self, square_db, tmp_path):
        ckpt = tmp_path / "fleet"
        first = fleet(square_db, shards=3, checkpoint_dir=ckpt)
        first.stop()
        with pytest.raises(ServiceError):
            fleet(square_db, shards=2, checkpoint_dir=ckpt,
                  resume=True)

    def test_resume_requires_a_checkpoint_dir(self, square_db):
        with pytest.raises(ServiceError):
            fleet(square_db, resume=True)

    def test_save_checkpoints_requires_a_dir(self, square_db):
        engine = fleet(square_db)
        try:
            with pytest.raises(ServiceError):
                engine.save_checkpoints()
        finally:
            engine.stop()


class TestLifecycle:
    def test_reads_still_answer_after_stop(self, square_db):
        frames = build_stream(square_db, devices=6, rounds=2)
        engine = fleet(square_db)
        engine.run(iter(frames))
        engine.stop()
        # The drain cache keeps the read side alive post-shutdown.
        assert len(engine.snapshot()) == 6
        assert engine.locate(station(0)) is not None
        assert engine.stats().frames_ingested == len(frames)

    def test_ingest_after_stop_is_an_error(self, square_db):
        frames = build_stream(square_db, devices=2, rounds=1)
        engine = fleet(square_db)
        engine.run(iter(frames))
        engine.stop()
        with pytest.raises(ServiceError):
            engine.ingest(frames[0])

    def test_context_manager_stops_the_fleet(self, square_db):
        frames = build_stream(square_db, devices=4, rounds=1)
        with fleet(square_db) as engine:
            engine.run(iter(frames))
        assert engine._stopped

    def test_rejects_bad_parameters(self, square_db):
        factory = functools.partial(MLoc, square_db)
        with pytest.raises(ValueError):
            ShardedEngine(factory, shards=0)
        with pytest.raises(ValueError):
            ShardedEngine(factory, transport="carrier-pigeon")
        with pytest.raises(ValueError):
            ShardedEngine(factory, publish_batch=0)
        with pytest.raises(ValueError):
            ShardedEngine(factory, checkpoint_every=-1)

    def test_prometheus_scrape_merges_router_and_shards(self,
                                                        square_db):
        frames = build_stream(square_db, devices=6, rounds=2)
        engine = fleet(square_db)
        try:
            engine.ingest_stream(frames)
            engine.flush_publishes()
            text = engine.render_prometheus()
            assert "repro_service_frames_published_total" in text
            assert "repro_engine_frames_total" in text
        finally:
            engine.stop()
