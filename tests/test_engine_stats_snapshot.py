"""EngineStats.from_snapshot over a fleet's merged registry snapshot.

A fleet's stats are read from the snapshot its router builds: every
shard registry's snapshot folded by :func:`repro.obs.merge_snapshots`,
each shard's gauges labelled ``shard=<index>``.  Counters sum over the
engines, the last fit's iteration count takes the max, stage seconds
sum per stage, and the cache counts as enabled when any engine has one.
"""

import pytest

from repro import obs
from repro.engine import EngineStats, StreamingEngine
from repro.localization import MLoc
from repro.service.core import _shard_gauges


def fleet_snapshot(*engines):
    """The engines' registries merged as a fleet's router merges them."""
    return obs.merge_snapshots(
        [_shard_gauges(engine.metrics_snapshot(), index)
         for index, engine in enumerate(engines)]).snapshot()


def engine_with(square_db, frames=0, iterations=0, stage_seconds=(),
                cache_size=4096):
    engine = StreamingEngine(MLoc(square_db), cache_size=cache_size)
    engine._c_frames.inc(frames)
    engine._g_fit_iterations.set(iterations)
    for stage, seconds in stage_seconds:
        engine._stage_timer(stage).observe(seconds)
    return engine


class TestFleet:
    def test_counters_sum_and_iterations_max(self, square_db):
        a = engine_with(square_db, frames=3, iterations=7,
                        stage_seconds=[("flush", 1.0)])
        b = engine_with(square_db, frames=4, iterations=5,
                        stage_seconds=[("flush", 0.5), ("fit", 2.0)])
        a._g_devices.set(2)
        b._g_devices.set(3)
        for engines in ((a, b), (b, a)):
            merged = EngineStats.from_snapshot(fleet_snapshot(*engines))
            assert merged.frames_ingested == 7
            assert merged.devices_seen == 5
            assert merged.last_fit_iterations == 7
            assert merged.stage_seconds == pytest.approx(
                {"flush": 1.5, "fit": 2.0})

    def test_cache_enabled_if_any_engine_has_a_cache(self, square_db):
        off = engine_with(square_db, cache_size=0)
        on = engine_with(square_db)

        def enabled(*engines):
            return EngineStats.from_snapshot(
                fleet_snapshot(*engines)).cache_enabled

        assert enabled(off, off) is False
        assert enabled(off, on) is True
        assert enabled(on, off) is True

    def test_empty_fleet_reads_the_identity(self):
        assert (EngineStats.from_snapshot(obs.merge_snapshots([]).snapshot())
                == EngineStats(cache_enabled=False))
