"""Capture-replay tests: the offline analyze-later workflow."""

import pytest

from repro.capture import make_capture_writer
from repro.localization import MLoc
from repro.net80211.frames import probe_request, probe_response
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.sniffer.replay import iter_capture, replay_capture

from tests.helpers import make_record

STA = MacAddress.parse("00:1b:63:11:22:33")


def write_capture(path, square_db):
    """A capture: the station probes, all four square APs answer."""
    with make_capture_writer(path, format="jsonl") as writer:
        writer.write(ReceivedFrame(
            probe_request(STA, 6, 1.0, ssid=Ssid("home")),
            rssi_dbm=-70.0, snr_db=20.0, rx_channel=6, rx_timestamp=1.0))
        for i, record in enumerate(square_db):
            frame = probe_response(record.bssid, STA, 6, 1.0 + 0.01 * i,
                                   ssid=record.ssid)
            writer.write(ReceivedFrame(frame, rssi_dbm=-72.0,
                                       snr_db=18.0, rx_channel=6,
                                       rx_timestamp=frame.timestamp))


class TestReplay:
    def test_rebuilds_observation_store(self, tmp_path, square_db):
        path = tmp_path / "capture.jsonl"
        write_capture(path, square_db)
        result = replay_capture(path)
        assert result.frames_replayed == 5
        assert STA in result.mobiles
        assert result.store.gamma(STA) == set(square_db.bssids)
        assert STA in result.store.probing_mobiles

    def test_localization_from_replay(self, tmp_path, square_db):
        path = tmp_path / "capture.jsonl"
        write_capture(path, square_db)
        result = replay_capture(path)
        estimates = result.locate_all(MLoc(square_db))
        assert STA in estimates
        estimate = estimates[STA]
        assert estimate is not None
        # All four square APs constrain the estimate to the center.
        assert estimate.position.distance_to(
            square_db.get(square_db.bssids[0]).location) > 1.0
        assert estimate.used_ap_count == 4

    def test_linker_fed_from_capture(self, tmp_path, square_db):
        path = tmp_path / "capture.jsonl"
        write_capture(path, square_db)
        result = replay_capture(path)
        # The directed probe leaked an SSID: a fingerprint exists.
        assert result.linker.fingerprint_of(STA) is not None

    def test_window_parameter(self, tmp_path, square_db):
        path = tmp_path / "capture.jsonl"
        write_capture(path, square_db)
        result = replay_capture(path, window_s=10.0)
        assert result.store.window_s == 10.0

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        with make_capture_writer(path, format="jsonl"):
            pass
        result = replay_capture(path)
        assert result.frames_replayed == 0
        assert result.mobiles == set()


class TestIterCapture:
    """The streaming (generator) replay path the engine ingests."""

    def write_shuffled(self, path, square_db, order):
        """Probe responses with rx timestamps written in ``order``."""
        records = list(square_db)
        with make_capture_writer(path, format="jsonl") as writer:
            for position in order:
                record = records[position % len(records)]
                t = float(position)
                frame = probe_response(record.bssid, STA, 6, t,
                                       ssid=record.ssid)
                writer.write(ReceivedFrame(frame, rssi_dbm=-72.0,
                                           snr_db=18.0, rx_channel=6,
                                           rx_timestamp=t))

    def test_is_a_lazy_iterator(self, tmp_path, square_db):
        path = tmp_path / "capture.jsonl"
        write_capture(path, square_db)
        iterator = iter_capture(path)
        assert iter(iterator) is iterator  # a generator, not a list
        first = next(iterator)
        assert first.rx_timestamp == 1.0

    def test_yields_all_frames_in_timestamp_order(self, tmp_path,
                                                  square_db):
        path = tmp_path / "capture.jsonl"
        # Locally out-of-order, as interleaved multi-card captures are.
        self.write_shuffled(path, square_db, [2, 0, 3, 1, 5, 4])
        timestamps = [r.rx_timestamp for r in iter_capture(path)]
        assert timestamps == sorted(timestamps)
        assert len(timestamps) == 6

    def test_reorder_buffer_zero_keeps_file_order(self, tmp_path,
                                                  square_db):
        path = tmp_path / "capture.jsonl"
        self.write_shuffled(path, square_db, [2, 0, 1])
        timestamps = [r.rx_timestamp
                      for r in iter_capture(path, reorder_buffer=0)]
        assert timestamps == [2.0, 0.0, 1.0]

    def test_matches_replay_capture(self, tmp_path, square_db):
        path = tmp_path / "capture.jsonl"
        write_capture(path, square_db)
        streamed = list(iter_capture(path))
        assert len(streamed) == replay_capture(path).frames_replayed

    def test_rejects_negative_buffer(self, tmp_path, square_db):
        path = tmp_path / "capture.jsonl"
        write_capture(path, square_db)
        with pytest.raises(ValueError):
            list(iter_capture(path, reorder_buffer=-1))


class TestLenientReplay:
    def corrupt(self, path):
        lines = path.read_text().splitlines()
        lines.insert(2, '{"type": "frame", "garbage": true}')
        lines.insert(4, "not json at all {{{")
        path.write_text("\n".join(lines) + "\n")

    def test_strict_replay_raises_on_malformed_record(self, tmp_path,
                                                      square_db):
        from repro.faults import CaptureError

        path = tmp_path / "capture.jsonl"
        write_capture(path, square_db)
        self.corrupt(path)
        with pytest.raises(CaptureError, match="malformed capture record"):
            list(iter_capture(path))
        # CaptureError still satisfies pre-existing ValueError handlers.
        with pytest.raises(ValueError):
            list(iter_capture(path))

    def test_lenient_replay_skips_and_counts(self, tmp_path, square_db):
        from repro import obs

        path = tmp_path / "capture.jsonl"
        write_capture(path, square_db)
        self.corrupt(path)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            frames = list(iter_capture(path, strict=False))
        assert len(frames) == 5  # every well-formed frame survives
        counters = registry.snapshot()["counters"]
        assert counters["repro.sniffer.replay.skipped"] == 2
        assert counters["repro.sniffer.replay.frames"] == 5

    def test_lenient_full_replay_still_localizes(self, tmp_path,
                                                 square_db):
        path = tmp_path / "capture.jsonl"
        write_capture(path, square_db)
        self.corrupt(path)
        result = replay_capture(path, strict=False)
        assert result.frames_replayed == 5
        assert result.store.gamma(STA) == set(square_db.bssids)
