"""The dirty set is the engine's only record of what needs localizing.

A device goes dirty exactly when an event changes its Γ, so every
device neither dirty nor quarantined was last localized with the Γ it
holds now.  A batch whose localization an unexpected error cuts short
goes back into the dirty set, which keeps that true.
"""

import random

import pytest

from repro.capture import FrameBatch, encode_frames
from repro.engine import CallbackSink, StreamingEngine, TrackerSink
from repro.faults import RetryPolicy, SolverError
from repro.localization import MLoc
from repro.localization.aprad import APRad

from tests.test_capture_engine_equivalence import (
    ap_mac,
    build_database,
    generate_records,
    shuffled_within_windows,
)
from tests.test_engine_core import response_stream, station


class GammaRecorder:
    """A localizer wrapper that remembers the Γ behind each estimate,
    keyed by the estimate's ``id()`` (the estimate is kept alive with
    it, so no id is reused)."""

    def __init__(self, inner):
        self.inner = inner
        self.gamma_of = {}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def locate_batch(self, gammas):
        estimates = self.inner.locate_batch(gammas)
        for gamma, estimate in zip(gammas, estimates):
            if estimate is not None:
                self.gamma_of[id(estimate)] = (estimate, frozenset(gamma))
        return estimates


class RaiseOnce:
    """A localizer wrapper whose ``site`` raises ``error`` once, on the
    ``after``-th call's turn (0: the first call)."""

    def __init__(self, inner, site, error, after=0):
        self.inner = inner
        self.site = site
        self.error = error
        self.after = after

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _maybe_raise(self, site):
        if site == self.site and self.error is not None:
            if self.after == 0:
                error, self.error = self.error, None
                raise error
            self.after -= 1

    def locate_batch(self, gammas):
        self._maybe_raise("locate_batch")
        return self.inner.locate_batch(gammas)

    def locate(self, gamma):
        self._maybe_raise("locate")
        return self.inner.locate(gamma)


class TestEscapedErrorRequeues:
    def test_batch_stays_pending_and_flush_localizes_it(self, square_db):
        engine = StreamingEngine(
            RaiseOnce(MLoc(square_db), "locate_batch",
                      RuntimeError("boom")), batch_size=8)
        engine.ingest_stream(response_stream(square_db, devices=3))
        assert engine.scheduler.pending() == 3
        with pytest.raises(RuntimeError, match="boom"):
            engine.flush()
        assert engine.scheduler.pending() == 3
        assert engine.tracker.devices() == []
        # No new event: the flush alone localizes the batch.
        assert engine.flush() == 3
        assert engine.tracker.devices() == [station(d) for d in range(3)]
        assert engine.scheduler.pending() == 0

    def test_degraded_path_requeues_only_the_unlocalized(self, square_db):
        # The batch call fails with a ReproError, so devices are located
        # one at a time; the second one then raises out of the engine.
        inner = RaiseOnce(MLoc(square_db), "locate", RuntimeError("boom"),
                          after=1)
        tracks = TrackerSink()
        engine = StreamingEngine(
            RaiseOnce(inner, "locate_batch", SolverError("no optimum")),
            batch_size=8, retry=RetryPolicy(max_attempts=1),
            sinks=[tracks])
        engine.ingest_stream(response_stream(square_db, devices=3))
        with pytest.raises(RuntimeError, match="boom"):
            engine.flush()
        assert engine.tracker.devices() == [station(0)]
        assert engine.scheduler.to_list() == [str(station(1)),
                                              str(station(2))]
        assert engine.flush() == 2
        assert engine.tracker.devices() == [station(d) for d in range(3)]
        assert len(tracks.tracker.track_of(station(0))) == 1


def fitted_aprad():
    localizer = APRad(build_database(), r_max=200.0, tie_break=1e-6)
    localizer.fit([[ap_mac(i), ap_mac(i + 1)] for i in range(15)])
    return localizer


@pytest.mark.parametrize("batch_size", range(1, 8))
def test_clean_devices_hold_the_gamma_of_their_newest_fix(batch_size):
    recorder = GammaRecorder(fitted_aprad())
    newest = {}
    engine = StreamingEngine(
        recorder, window_s=2.0, batch_size=batch_size, refit_every=40,
        sinks=[CallbackSink(lambda mobile, ts, estimate: newest.__setitem__(
            mobile, recorder.gamma_of[id(estimate)][1]))])
    frames = shuffled_within_windows(generate_records())
    rng = random.Random(batch_size)
    start = 0
    while start < len(frames):
        size = rng.randint(1, 7)
        engine.ingest_batch(FrameBatch(*encode_frames(
            frames[start:start + size])))
        start += size
        dirty = set(engine.scheduler.to_list())
        quarantined = engine.quarantined()
        for mobile in engine.gamma_state.devices():
            if str(mobile) in dirty or mobile in quarantined:
                continue
            assert newest[mobile] == engine.gamma_state.gamma(mobile)
    engine.drain()
    stats = engine.stats()
    assert stats.refits > 0
    assert stats.unlocatable == 0
    assert {mobile: engine.gamma_state.gamma(mobile)
            for mobile in engine.gamma_state.devices()} == newest
