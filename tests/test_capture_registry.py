"""Capture format dispatch: sniffing, open/make dispatch, errors."""


import pytest

from repro.capture import (
    ColumnarReader,
    ColumnarWriter,
    JsonlReader,
    JsonlWriter,
    capture_info,
    make_capture_writer,
    open_capture,
    sniff_format,
)
from repro.capture.records import CaptureError
from repro.net80211.frames import probe_request
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid

STA = MacAddress.parse("00:1b:63:11:22:33")


def make_records(count):
    return [
        ReceivedFrame(
            frame=probe_request(STA, channel=6, timestamp=float(i),
                                ssid=Ssid("home")),
            rssi_dbm=-70.0, snr_db=20.0, rx_channel=6,
            rx_timestamp=float(i))
        for i in range(count)
    ]


def write(path, fmt, records):
    with make_capture_writer(path, format=fmt) as writer:
        for record in records:
            writer.write(record)


class TestSniffing:
    def test_sniff_both_formats(self, tmp_path):
        records = make_records(5)
        jsonl, columnar = tmp_path / "a.jsonl", tmp_path / "b.cap"
        write(jsonl, "jsonl", records)
        write(columnar, "columnar", records)
        assert sniff_format(jsonl) == "jsonl"
        assert sniff_format(columnar) == "columnar"

    def test_garbage_falls_back_to_jsonl(self, tmp_path):
        """Unrecognized bytes sniff as the lenient JSONL reader."""
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"not a capture at all\n")
        assert sniff_format(path) == "jsonl"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            sniff_format(tmp_path / "missing")


class TestOpenCapture:
    def test_open_dispatches_on_content(self, tmp_path):
        records = make_records(7)
        jsonl, columnar = tmp_path / "a.jsonl", tmp_path / "b.cap"
        write(jsonl, "jsonl", records)
        write(columnar, "columnar", records)
        opened_jsonl = open_capture(jsonl)
        opened_columnar = open_capture(columnar)
        assert isinstance(opened_jsonl, JsonlReader)
        assert isinstance(opened_columnar, ColumnarReader)
        assert list(opened_jsonl) == records
        assert list(opened_columnar) == records

    def test_explicit_format_overrides_sniff(self, tmp_path):
        path = tmp_path / "a.weird"
        write(path, "jsonl", make_records(3))
        reader = open_capture(path, format="jsonl")
        assert isinstance(reader, JsonlReader)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write(path, "jsonl", make_records(1))
        for name in ("pcapng", "nope"):
            with pytest.raises(ValueError, match="unknown capture format"):
                open_capture(path, format=name)
        with pytest.raises(ValueError, match="unknown capture format"):
            make_capture_writer(tmp_path / "b", format="pcapng")

    def test_reader_options_forwarded(self, tmp_path):
        path = tmp_path / "a.cap"
        write(path, "columnar", make_records(4))
        reader = open_capture(path, device=str(STA))
        assert len(list(reader)) == 4  # STA is the source of every frame

    def test_capture_info(self, tmp_path):
        records = make_records(6)
        jsonl, columnar = tmp_path / "a.jsonl", tmp_path / "b.cap"
        write(jsonl, "jsonl", records)
        write(columnar, "columnar", records)
        info_j = capture_info(jsonl)
        info_c = capture_info(columnar)
        assert info_j["format"] == "jsonl"
        assert info_c["format"] == "columnar"
        assert info_j["records"] == info_c["records"] == 6


class TestMakeWriter:
    def test_default_format_is_columnar(self, tmp_path):
        writer = make_capture_writer(tmp_path / "out.cap")
        assert isinstance(writer, ColumnarWriter)
        writer.close()

    def test_jsonl_writer(self, tmp_path):
        writer = make_capture_writer(tmp_path / "out.jsonl",
                                     format="jsonl")
        assert isinstance(writer, JsonlWriter)
        writer.close()

    def test_writer_options_forwarded(self, tmp_path):
        path = tmp_path / "out.cap"
        with make_capture_writer(path, block_records=3) as writer:
            for record in make_records(10):
                writer.write(record)
        assert ColumnarReader(path).info()["blocks"] == 4


class TestCustomCodec:
    """Only the two built-in formats exist; any other name is refused."""

    def test_get_codec_unknown(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write(path, "jsonl", make_records(1))
        with pytest.raises(ValueError, match="known: columnar, jsonl"):
            open_capture(path, format="nope")
        with pytest.raises(ValueError, match="unknown capture format"):
            capture_info(path, format="nope")


class TestErrorTaxonomy:
    def test_capture_error_is_value_error(self):
        assert issubclass(CaptureError, ValueError)

    def test_open_capture_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            open_capture(tmp_path / "missing.cap")
