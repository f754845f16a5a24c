"""Engine fault tolerance: retries, quarantine, degraded flushes, sinks."""

import pytest

from repro.engine import StreamingEngine
from repro.engine.sinks import EngineSink
from repro.faults import (
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    SinkError,
    use_injector,
)
from repro.localization import MLoc, make_localizer

from tests.test_engine_checkpoint import build_stream, station


def fast_retry(attempts=3):
    return RetryPolicy(max_attempts=attempts, base_delay=0.01,
                       sleep=lambda s: None)


class RecordingSink(EngineSink):
    def __init__(self, fail_first=0, error=SinkError):
        self.fail_first = fail_first
        self.error = error
        self.attempts = 0
        self.emitted = []

    def emit(self, mobile, timestamp, estimate):
        self.attempts += 1
        if self.attempts <= self.fail_first:
            raise self.error(f"sink attempt {self.attempts}")
        self.emitted.append((mobile, timestamp))

    def close(self):
        pass


class TestSinkSupervision:
    def test_transient_sink_failures_are_retried(self, square_db):
        sink = RecordingSink(fail_first=2)
        engine = StreamingEngine(MLoc(square_db), batch_size=3,
                                 sinks=[sink], retry=fast_retry(3))
        engine.run(iter(build_stream(square_db, devices=2, rounds=1)))
        stats = engine.stats()
        assert stats.retries == 2
        assert stats.sink_failures == 0
        # Every estimate was delivered exactly once despite the retries.
        assert len(sink.emitted) == stats.estimates_emitted

    def test_permanent_sink_failure_never_kills_the_run(self, square_db):
        sink = RecordingSink(fail_first=10 ** 9)
        engine = StreamingEngine(MLoc(square_db), batch_size=3,
                                 sinks=[sink], retry=fast_retry(2))
        stats = engine.run(
            iter(build_stream(square_db, devices=2, rounds=1)))
        assert stats.sink_failures == stats.estimates_emitted > 0
        assert sink.emitted == []
        # The built-in tracker is not a sink: tracks survive sink loss.
        assert len(engine.tracker.devices()) == 2

    def test_non_repro_sink_exceptions_also_contained(self, square_db):
        sink = RecordingSink(fail_first=10 ** 9, error=RuntimeError)
        engine = StreamingEngine(MLoc(square_db), batch_size=3,
                                 sinks=[sink], retry=fast_retry(2))
        stats = engine.run(
            iter(build_stream(square_db, devices=2, rounds=1)))
        assert stats.sink_failures > 0


class TestQuarantine:
    def test_poison_device_quarantined_without_stalling_others(
            self, square_db):
        poison = str(station(1))
        injector = FaultInjector([
            # Every batch attempt fails, forcing the degraded path ...
            FaultSpec("engine.flush", mode="raise"),
            # ... where only the poison device keeps failing.
            FaultSpec("engine.localize", mode="raise",
                      error="SolverError", match=poison),
        ])
        engine = StreamingEngine(MLoc(square_db), batch_size=3,
                                 retry=fast_retry(2), quarantine_after=3)
        with use_injector(injector):
            stats = engine.run(
                iter(build_stream(square_db, devices=3, rounds=1)))
        assert stats.quarantined == 1
        assert list(engine.quarantined()) == [station(1)]
        assert "SolverError" in engine.quarantined()[station(1)]
        # The healthy neighbors were still localized and tracked.
        tracked = set(engine.tracker.devices())
        assert station(0) in tracked and station(2) in tracked
        assert station(1) not in tracked
        assert stats.degraded > 0

    def test_quarantined_device_not_rescheduled_on_new_evidence(
            self, square_db):
        poison = str(station(0))
        injector = FaultInjector([
            FaultSpec("engine.flush", mode="raise"),
            FaultSpec("engine.localize", mode="raise",
                      error="SolverError", match=poison),
        ])
        engine = StreamingEngine(MLoc(square_db), batch_size=2,
                                 retry=fast_retry(2), quarantine_after=2)
        frames = build_stream(square_db, devices=1, rounds=2)
        # Round 1 for the single device is its probe request plus one
        # probe response per AP.
        round_one = 1 + len(list(square_db))

        def failure_count():
            return int(engine.registry.counter(
                "repro.engine.localize.failures",
                error="SolverError").value)

        with use_injector(injector):
            engine.ingest_stream(frames[:round_one])
            engine.flush()
            condemned_at = failure_count()
            assert engine.stats().quarantined == 1
            # Round 2 changes the device's Γ — but quarantine wins.
            engine.ingest_stream(frames[round_one:])
            engine.flush()
        assert failure_count() == condemned_at == 2

    def test_quarantine_state_survives_checkpoint(self, square_db):
        engine = StreamingEngine(MLoc(square_db), quarantine_after=2)
        engine._quarantine[station(5)] = "SolverError: poisoned"
        engine._failures[station(6)] = 1
        data = engine.checkpoint()
        restored = StreamingEngine.restore(data, MLoc(square_db))
        assert restored.quarantined() == {station(5):
                                          "SolverError: poisoned"}
        assert restored._failures == {station(6): 1}
        assert restored.quarantine_after == 2

    def test_quarantine_disabled_retries_only_on_new_gamma(self, square_db):
        injector = FaultInjector([
            FaultSpec("engine.flush", mode="raise"),
            FaultSpec("engine.localize", mode="raise",
                      error="SolverError"),
        ])
        engine = StreamingEngine(MLoc(square_db), batch_size=2,
                                 retry=fast_retry(2), quarantine_after=0)
        with use_injector(injector):
            stats = engine.run(
                iter(build_stream(square_db, devices=2, rounds=1)))
        # No quarantine, no estimates — but the drain loop terminated.
        assert stats.quarantined == 0
        assert stats.estimates_emitted == 0


class TestRefitSupervision:
    def test_failed_refit_keeps_engine_alive(self, square_db):
        localizer = make_localizer("ap-rad:r_max=150,solver=revised",
                                   database=square_db)
        injector = FaultInjector(
            [FaultSpec("lp.solve", mode="raise", error="SolverError")])
        engine = StreamingEngine(localizer, batch_size=3, refit_every=10,
                                 retry=fast_retry(2))
        with use_injector(injector):
            stats = engine.run(iter(build_stream(square_db)))
        assert stats.refits == 0
        failures = engine.registry.find("repro.engine.refit.failures")
        assert sum(int(inst.value) for inst in failures) > 0
        # Never fitted, so nothing localizable — but the stream drained.
        assert stats.frames_ingested > 0


class TestQuarantineAcrossRefits:
    def test_refit_does_not_reschedule_quarantined_devices(self, square_db):
        # Quarantined means never rescheduled: a re-fit re-localizes
        # every device with a live Γ except the quarantined ones.
        poison = station(1)
        injector = FaultInjector([
            FaultSpec("engine.flush", mode="raise"),
            FaultSpec("engine.localize", mode="raise",
                      error="SolverError", match=str(poison)),
        ])
        localizer = make_localizer("ap-rad:r_max=150,solver=revised",
                                   database=square_db)
        sink = RecordingSink()
        engine = StreamingEngine(localizer, batch_size=3, refit_every=8,
                                 sinks=[sink], retry=fast_retry(2),
                                 quarantine_after=1)
        with use_injector(injector):
            stats = engine.run(
                iter(build_stream(square_db, devices=4, rounds=4)))
        assert stats.refits > 1
        quarantined = engine.registry.counter("repro.engine.quarantined")
        assert int(quarantined.value) == 1
        assert stats.quarantined == 1
        assert list(engine.quarantined()) == [poison]
        assert poison not in {mobile for mobile, _ in sink.emitted}
        assert {station(d) for d in (0, 2, 3)} <= {
            mobile for mobile, _ in sink.emitted}
