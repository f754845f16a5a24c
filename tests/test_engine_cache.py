"""Γ-set memoization cache tests, and the localizer cache-key hook."""

import pytest

from repro import obs
from repro.engine import EngineStats, GammaCache, StreamingEngine, TrackerSink
from repro.geometry.point import Point
from repro.localization import CentroidLocalizer, MLoc
from repro.localization.base import LocalizationEstimate
from repro.net80211.mac import MacAddress

from tests.helpers import make_record
from tests.test_engine_checkpoint import build_stream, final_tracks


def gamma(*indices):
    return frozenset(MacAddress(0x001B63000000 + i) for i in indices)


def estimate_at(x, y):
    return LocalizationEstimate(position=Point(x, y), algorithm="test")


@pytest.fixture
def registry():
    """A fresh registry routed while the test runs: the cache counts
    its events in whichever registry is current."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        yield registry


def count(registry, event):
    return registry.snapshot()["counters"].get(
        f"repro.engine.cache.{event}", 0)


class TestGammaCache:
    def test_hit_miss_counters(self, registry):
        cache = GammaCache(max_entries=8)
        assert cache.get("m-loc", gamma(1, 2)) is GammaCache.ABSENT
        cache.put("m-loc", gamma(1, 2), estimate_at(1.0, 2.0))
        hit = cache.get("m-loc", gamma(2, 1))  # set order irrelevant
        assert hit is not GammaCache.ABSENT
        assert hit.position.is_close(Point(1.0, 2.0))
        assert count(registry, "hit") == 1
        assert count(registry, "miss") == 1
        stats = EngineStats.from_snapshot(registry.snapshot())
        assert stats.cache_hit_rate == 0.5
        assert stats.cache_entries == 1

    def test_distinct_localizer_keys_do_not_collide(self):
        cache = GammaCache()
        cache.put("m-loc", gamma(1), estimate_at(0.0, 0.0))
        assert cache.get("centroid", gamma(1)) is GammaCache.ABSENT

    def test_none_results_are_cached(self, registry):
        cache = GammaCache()
        cache.put("m-loc", gamma(7), None)
        assert cache.get("m-loc", gamma(7)) is None
        assert count(registry, "hit") == 1

    def test_lru_eviction(self, registry):
        cache = GammaCache(max_entries=2)
        cache.put("k", gamma(1), estimate_at(1, 1))
        cache.put("k", gamma(2), estimate_at(2, 2))
        cache.get("k", gamma(1))  # refresh 1: it survives
        cache.put("k", gamma(3), estimate_at(3, 3))
        assert count(registry, "eviction") == 1
        assert cache.get("k", gamma(2)) is GammaCache.ABSENT
        assert cache.get("k", gamma(1)) is not GammaCache.ABSENT
        assert len(cache) == 2

    def test_invalidate_clears_entries_not_history(self, registry):
        cache = GammaCache()
        cache.put("k", gamma(1), estimate_at(1, 1))
        cache.get("k", gamma(1))
        cache.invalidate()
        assert len(cache) == 0
        assert count(registry, "hit") == 1
        assert count(registry, "invalidation") == 1
        assert registry.snapshot()["gauges"][
            "repro.engine.cache.entries"] == 0
        assert cache.get("k", gamma(1)) is GammaCache.ABSENT

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            GammaCache(max_entries=0)


class TestEngineCacheEquivalence:
    def test_cache_on_and_off_emit_identical_tracks(self, square_db):
        # Every device hears the same APs, so most Γ sets repeat and
        # the cache answers them; memoization may change speed only.
        frames = build_stream(square_db)
        cached_tracks, uncached_tracks = TrackerSink(), TrackerSink()
        cached = StreamingEngine(MLoc(square_db), batch_size=3,
                                 sinks=[cached_tracks])
        uncached = StreamingEngine(MLoc(square_db), batch_size=3,
                                   cache_size=0, sinks=[uncached_tracks])
        cached.run(iter(frames))
        uncached.run(iter(frames))
        assert cached.stats().cache_hit_rate > 0.5
        assert final_tracks(cached_tracks) == final_tracks(uncached_tracks)
        assert (cached.stats().estimates_emitted
                == uncached.stats().estimates_emitted)


class TestLocalizerCacheKey:
    def test_default_key_is_the_name(self, square_db):
        assert MLoc(square_db).cache_key() == "m-loc"
        assert CentroidLocalizer(square_db).cache_key() == "centroid"

    def test_aprad_key_changes_on_refit(self, square_db):
        from repro.localization import APRad

        aprad = APRad(square_db.without_ranges(), r_max=150.0)
        corpus = [set(square_db.bssids)]
        key_before = aprad.cache_key()
        aprad.fit(corpus)
        key_after_fit = aprad.cache_key()
        aprad.fit(corpus)
        assert key_before != key_after_fit
        assert aprad.cache_key() != key_after_fit
        assert aprad.name in key_after_fit

    def test_experiment_accepts_plain_localizer_sequence(self, square_db):
        from repro.analysis.experiments import (
            TestCase,
            run_localization_experiment,
        )

        cases = [TestCase.of(set(square_db.bssids), Point(50.0, 50.0))]
        reports = run_localization_experiment(
            [MLoc(square_db), CentroidLocalizer(square_db)], cases)
        assert set(reports) == {"m-loc", "centroid"}

    def test_experiment_rejects_duplicate_names(self, square_db):
        from repro.analysis.experiments import (
            TestCase,
            run_localization_experiment,
        )

        cases = [TestCase.of(set(square_db.bssids), Point(50.0, 50.0))]
        with pytest.raises(ValueError):
            run_localization_experiment(
                [MLoc(square_db), MLoc(square_db)], cases)
