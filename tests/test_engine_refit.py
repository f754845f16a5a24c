"""Engine re-fit scheduling: streaming AP-Rad inside the pipeline.

With ``refit_every > 0`` the engine snapshots each evidence Γ and, on
schedule, hands the batch to ``localizer.partial_fit`` — the AP-Rad
radii then track the accumulating corpus instead of staying frozen at
whatever the knowledge base shipped with.
"""

import json

import pytest

from repro.engine import LatestFixSink, StreamingEngine
from repro.localization import APRad, MLoc
from repro.net80211.frames import probe_response
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid


def station(index):
    return MacAddress(0x020000000000 + index)


def received(frame):
    return ReceivedFrame(frame, rssi_dbm=-70.0, snr_db=20.0,
                         rx_channel=6, rx_timestamp=frame.timestamp)


def evidence_stream(square_db, devices=6, rounds=2):
    """Each device hears all four square APs, several rounds."""
    frames = []
    t = 0.0
    for _ in range(rounds):
        for d in range(devices):
            for record in square_db:
                t += 0.01
                frames.append(received(probe_response(
                    record.bssid, station(d), 6, t, ssid=record.ssid)))
            t += 0.5
    return frames


def streaming_aprad(square_db):
    return APRad(square_db, r_max=80.0, min_evidence=1, tie_break=1e-7)


class TestRefitScheduling:
    def test_refits_happen_and_are_timed(self, square_db):
        engine = StreamingEngine(streaming_aprad(square_db),
                                 window_s=30.0, batch_size=4,
                                 refit_every=8)
        stats = engine.run(iter(evidence_stream(square_db)))
        assert stats.refits > 0
        assert stats.stage_seconds.get("fit", 0.0) > 0.0
        # The last solve may be a zero-pivot warm restart; the counter
        # just has to be wired through.
        assert stats.last_fit_iterations >= 0
        assert engine.localizer.last_fit.solver_iterations >= 0
        # Once fitted, the located devices flow as usual.
        assert stats.estimates_emitted > 0
        assert "re-fits" in stats.format()
        assert stats.to_dict()["fit_seconds"] == pytest.approx(
            stats.stage_seconds["fit"])

    def test_refit_interval_respected(self, square_db):
        frames = evidence_stream(square_db, devices=6, rounds=2)
        engine = StreamingEngine(streaming_aprad(square_db),
                                 window_s=30.0, batch_size=4,
                                 refit_every=16)
        stats = engine.run(iter(frames))
        # Every frame is evidence: one refit per 16 events, plus the
        # end-of-stream catch-up for the remainder.
        expected = stats.evidence_events // 16
        remainder = stats.evidence_events % 16
        assert stats.refits == expected + (1 if remainder else 0)

    def test_unfitted_localizer_blocks_estimates(self, square_db):
        # Below the refit threshold nothing ever fits: every flush
        # must come back empty instead of crashing in locate().
        frames = evidence_stream(square_db, devices=1, rounds=1)[:3]
        engine = StreamingEngine(streaming_aprad(square_db),
                                 window_s=30.0, batch_size=2,
                                 refit_every=1000)
        engine.ingest_stream(frames)
        assert engine.flush() == 0
        assert not engine.localizer.is_fitted
        # run() performs the catch-up fit, after which devices locate.
        stats = engine.run(iter([]))
        assert stats.refits == 1
        assert stats.estimates_emitted > 0

    def test_default_engine_never_refits(self, square_db):
        engine = StreamingEngine(MLoc(square_db), window_s=30.0,
                                 batch_size=4)
        stats = engine.run(iter(evidence_stream(square_db)))
        assert stats.refits == 0
        assert "fit" not in stats.stage_seconds
        assert "re-fits" not in stats.format()

    def test_mloc_with_refit_schedule_is_harmless(self, square_db):
        # MLoc has no partial_fit: the schedule fires but no-ops.
        engine = StreamingEngine(MLoc(square_db), window_s=30.0,
                                 batch_size=4, refit_every=4)
        stats = engine.run(iter(evidence_stream(square_db)))
        assert stats.refits == 0
        assert stats.estimates_emitted > 0

    def test_validation(self, square_db):
        with pytest.raises(ValueError):
            StreamingEngine(MLoc(square_db), refit_every=-1)


class TestRefitEstimates:
    def test_estimates_use_fitted_radii(self, square_db):
        sink = LatestFixSink()
        engine = StreamingEngine(streaming_aprad(square_db),
                                 window_s=30.0, batch_size=4,
                                 refit_every=8, sinks=[sink])
        engine.run(iter(evidence_stream(square_db)))
        fixes = sink.estimates()
        assert fixes
        for estimate in fixes.values():
            assert estimate.algorithm == "ap-rad"
            # All four APs around the square cover the center.
            assert estimate.position.x == pytest.approx(50.0, abs=30.0)
            assert estimate.position.y == pytest.approx(50.0, abs=30.0)


class TestCheckpoint:
    def test_refit_state_round_trips(self, square_db):
        frames = evidence_stream(square_db)
        engine = StreamingEngine(streaming_aprad(square_db),
                                 window_s=30.0, batch_size=4,
                                 refit_every=7)
        engine.ingest_stream(frames[:11])
        blob = json.dumps(engine.checkpoint())

        data = json.loads(blob)
        assert data["config"]["refit_every"] == 7
        assert (data["metrics"]["counters"]["repro.engine.refits"]
                == engine.stats().refits)
        assert (len(data["refit"]["pending"])
                == len(engine._pending_refit))

        resumed = StreamingEngine.restore(data,
                                          streaming_aprad(square_db))
        assert resumed.refit_every == 7
        assert resumed._events_since_refit == engine._events_since_refit
        assert resumed._pending_refit == engine._pending_refit
        assert resumed.stats().refits == engine.stats().refits

    def test_checkpoint_does_not_grow_with_refits(self, square_db):
        # Every refit re-emits every device's fix; the checkpoint keeps
        # only the newest one, so a fixed device set's checkpoint stays
        # the same size however many refits run.
        devices = 6
        frames = evidence_stream(square_db, devices=devices, rounds=6)
        per_round = len(frames) // 6
        engine = StreamingEngine(streaming_aprad(square_db),
                                 window_s=30.0, batch_size=4,
                                 refit_every=per_round)
        sizes = {}
        for start in range(0, len(frames), per_round):
            engine.ingest_stream(frames[start:start + per_round])
            engine.flush()
            data = engine.checkpoint()
            sizes[engine.stats().refits] = len(json.dumps(data))
            assert "tracks" not in data
            assert len(data["latest"]) == devices
        assert set(sizes) == {1, 2, 3, 4, 5, 6}
        assert abs(sizes[6] - sizes[2]) <= 0.05 * sizes[2]
