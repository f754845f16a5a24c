"""JSONL capture codec (pcap stand-in) round-trip tests."""

import json

import pytest

from repro.capture import (
    frame_from_dict,
    frame_to_dict,
    make_capture_writer,
    open_capture,
)
from repro.faults import CaptureError
from repro.net80211.frames import (
    FrameType,
    beacon,
    deauthentication,
    probe_request,
    probe_response,
)
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid

STA = MacAddress.parse("00:1b:63:11:22:33")
AP = MacAddress.parse("00:15:6d:44:55:66")


def sample_frames():
    return [
        probe_request(STA, channel=6, timestamp=1.0, ssid=Ssid("home")),
        probe_response(AP, STA, channel=6, timestamp=1.1,
                       ssid=Ssid("CampusNet")),
        beacon(AP, channel=11, timestamp=2.0, ssid=Ssid("CampusNet")),
        deauthentication(AP, STA, AP, channel=6, timestamp=3.0),
    ]


class TestFrameSerialization:
    @pytest.mark.parametrize("frame", sample_frames(),
                             ids=lambda f: f.frame_type.value)
    def test_roundtrip(self, frame):
        assert frame_from_dict(frame_to_dict(frame)) == frame

    def test_dict_is_json_compatible(self):
        for frame in sample_frames():
            json.dumps(frame_to_dict(frame))


class TestCaptureFile:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        records = [
            ReceivedFrame(frame=frame, rssi_dbm=-70.0 - i, snr_db=20.0,
                          rx_channel=frame.channel,
                          rx_timestamp=frame.timestamp)
            for i, frame in enumerate(sample_frames())
        ]
        with make_capture_writer(path, format="jsonl") as writer:
            for record in records:
                writer.write(record)
        recovered = list(open_capture(path))
        assert recovered == records

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        with make_capture_writer(path, format="jsonl") as writer:
            writer.write(ReceivedFrame(sample_frames()[0], -70.0, 20.0,
                                       6, 1.0))
        # A second session appends to the same file.
        with make_capture_writer(path, format="jsonl") as writer:
            writer.write(ReceivedFrame(sample_frames()[1], -71.0, 19.0,
                                       6, 1.1))
        lines = path.read_text().strip().splitlines()
        headers = [line for line in lines if "capture_format" in line]
        assert len(headers) == 1
        assert len(list(open_capture(path))) == 2

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        path.write_text('{"capture_format": 99}\n')
        with pytest.raises(ValueError, match="unsupported"):
            list(open_capture(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        with make_capture_writer(path, format="jsonl") as writer:
            writer.write(ReceivedFrame(sample_frames()[0], -70.0, 20.0,
                                       6, 1.0))
        path.write_text(path.read_text() + "\n\n")
        assert len(list(open_capture(path))) == 1

    def test_batches_before_a_strict_error_hold_every_decoded_record(
            self, tmp_path):
        path = tmp_path / "capture.jsonl"
        frame = sample_frames()[0]
        with make_capture_writer(path, format="jsonl") as writer:
            for index in range(100):
                writer.write(ReceivedFrame(frame, -70.0, 20.0, 6,
                                           float(index)))
        lines = path.read_text().splitlines()
        lines[51] = "garbage"  # line 52: records 1-50 precede it
        path.write_text("\n".join(lines) + "\n")

        def read(items):
            got = []
            with pytest.raises(CaptureError, match=":52: malformed"):
                for item in items:
                    got.append(item)
            return got

        records = read(open_capture(path))
        batches = read(open_capture(path).iter_batches(batch_records=32))
        assert len(records) == 50
        assert [len(batch) for batch in batches] == [32, 18]
        assert [received for batch in batches
                for received in batch.iter_frames()] == records
