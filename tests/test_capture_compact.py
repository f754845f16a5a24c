"""Compactor: JSONL → columnar conversion and multi-capture merging."""

import json
import struct

import pytest

from repro.capture import (
    ColumnarReader,
    JsonlReader,
    compact_captures,
    concat_batches,
    convert_capture,
    make_capture_writer,
    open_capture,
    sniff_format,
)
from repro.capture.columnar import FOOTER_MAGIC
from repro.capture.records import (FRAME_TYPES, CaptureError, FrameBatch,
                                   encode_frames)
from repro.net80211.frames import Dot11Frame, probe_request, probe_response
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid

STA = MacAddress.parse("00:1b:63:11:22:33")
AP = MacAddress.parse("00:15:6d:44:55:66")


def make_records(count, t0=0.0, step=1.0):
    records = []
    for i in range(count):
        ts = t0 + i * step
        if i % 2:
            frame = probe_response(AP, STA, channel=6, timestamp=ts,
                                   ssid=Ssid("campus"))
        else:
            frame = probe_request(STA, channel=6, timestamp=ts,
                                  ssid=Ssid("campus"))
        records.append(ReceivedFrame(frame, -65.0, 21.0, 6, ts))
    return records


def write_jsonl(path, records):
    with make_capture_writer(path, format="jsonl") as writer:
        for record in records:
            writer.write(record)


def write_with_reversed_kind_table(path, records):
    """A columnar capture whose footer lists the frame types reversed,
    with every row's kind byte remapped to match."""
    rows, aux = encode_frames(records)
    rows["kind"] = len(FRAME_TYPES) - 1 - rows["kind"]
    with make_capture_writer(path, format="columnar") as writer:
        writer.write_rows(rows, aux)
    data = path.read_bytes()
    tail = len(FOOTER_MAGIC) + 8
    (length,) = struct.unpack("<Q", data[-tail:-len(FOOTER_MAGIC)])
    footer_start = len(data) - tail - length
    footer = json.loads(data[footer_start:-tail])
    footer["frame_types"] = [ft.value for ft in reversed(FRAME_TYPES)]
    blob = json.dumps(footer, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:footer_start] + blob
                     + struct.pack("<Q", len(blob)) + FOOTER_MAGIC)


class TestConvert:
    def test_jsonl_to_columnar_and_back(self, tmp_path):
        records = make_records(50)
        jsonl = tmp_path / "a.jsonl"
        columnar = tmp_path / "a.cap"
        back = tmp_path / "back.jsonl"
        write_jsonl(jsonl, records)

        report = convert_capture(jsonl, columnar)
        assert report["records"] == 50
        assert report["format"] == "columnar"
        assert sniff_format(columnar) == "columnar"
        assert list(ColumnarReader(columnar)) == records

        report_back = convert_capture(columnar, back, format="jsonl")
        assert report_back["records"] == 50
        assert list(JsonlReader(back)) == records

    def test_convert_forwards_writer_options(self, tmp_path):
        records = make_records(20)
        jsonl = tmp_path / "a.jsonl"
        write_jsonl(jsonl, records)
        dst = tmp_path / "a.cap"
        report = convert_capture(jsonl, dst, block_records=6)
        assert report["blocks"] == (20 + 5) // 6
        assert ColumnarReader(dst).info()["blocks"] == report["blocks"]

    def test_strict_convert_raises_on_malformed(self, tmp_path):
        jsonl = tmp_path / "bad.jsonl"
        write_jsonl(jsonl, make_records(3))
        with jsonl.open("a") as handle:
            handle.write("{not json\n")
        with pytest.raises((CaptureError, ValueError)):
            convert_capture(jsonl, tmp_path / "out.cap", strict=True)

    def test_lenient_convert_skips_malformed(self, tmp_path):
        jsonl = tmp_path / "bad.jsonl"
        write_jsonl(jsonl, make_records(3))
        with jsonl.open("a") as handle:
            handle.write("{not json\n")
        report = convert_capture(jsonl, tmp_path / "out.cap",
                                 strict=False)
        assert report["records"] == 3
        assert report["skipped"] == 1


class TestCompact:
    def test_multi_source_merge_globally_sorted(self, tmp_path):
        """Interleaved sources merge into one time-sorted store."""
        a = make_records(20, t0=0.0, step=2.0)    # even timestamps
        b = make_records(20, t0=1.0, step=2.0)    # odd timestamps
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(pa, a)
        write_jsonl(pb, b)
        out = tmp_path / "merged.cap"
        report = compact_captures([pa, pb], out, block_records=8)
        assert report["records"] == 40
        assert len(report["sources"]) == 2
        merged = list(ColumnarReader(out))
        stamps = [r.rx_timestamp for r in merged]
        assert stamps == sorted(stamps)
        assert stamps == [float(i) for i in range(40)]
        assert ColumnarReader(out).info()["globally_sorted"]

    def test_reordered_input_globally_sorted(self, tmp_path):
        """A shuffled capture compacts to a globally sorted one."""
        records = make_records(30)
        shuffled = records[::3] + records[1::3] + records[2::3]
        src = tmp_path / "shuffled.jsonl"
        write_jsonl(src, shuffled)
        out = tmp_path / "sorted.cap"
        compact_captures([src], out, block_records=10)
        assert list(ColumnarReader(out)) == records

    def test_mixed_format_sources(self, tmp_path):
        """Compaction accepts any readable codec per source."""
        a, b = make_records(10, t0=0.0), make_records(10, t0=100.0)
        pa = tmp_path / "a.jsonl"
        pb = tmp_path / "b.cap"
        write_jsonl(pa, a)
        convert_capture(pa, pb)  # columnar copy of a
        out = tmp_path / "merged.cap"
        report = compact_captures([pa, pb], out)
        assert report["records"] == 20
        merged = list(open_capture(out))
        assert merged == sorted(a + a, key=lambda r: r.rx_timestamp)

    def test_compact_to_jsonl(self, tmp_path):
        records = make_records(12)
        src = tmp_path / "a.jsonl"
        write_jsonl(src, records)
        out = tmp_path / "out.jsonl"
        report = compact_captures([src], out, format="jsonl")
        assert report["format"] == "jsonl"
        assert "blocks" not in report
        assert list(JsonlReader(out)) == records

    def test_stable_merge_preserves_tie_order(self, tmp_path):
        """Equal rx timestamps keep source order (stable sort)."""
        ties = []
        for i in range(6):
            frame = probe_request(STA, channel=6, timestamp=5.0,
                                  ssid=Ssid("campus"))
            ties.append(ReceivedFrame(frame, -60.0 - i, 20.0, 6, 5.0))
        src = tmp_path / "ties.jsonl"
        write_jsonl(src, ties)
        out = tmp_path / "ties.cap"
        compact_captures([src], out)
        assert [r.rssi_dbm for r in ColumnarReader(out)] == [
            r.rssi_dbm for r in ties]

    def test_aux_survives_compaction(self, tmp_path):
        """Element dicts (aux blob payloads) survive the merge."""
        frame = probe_response(AP, STA, channel=6, timestamp=1.0,
                               ssid=Ssid("campus"))
        frame = type(frame)(**{**frame.__dict__,
                               "elements": {"vendor": "acme"}})
        record = ReceivedFrame(frame, -60.0, 20.0, 6, 1.0)
        src = tmp_path / "aux.jsonl"
        write_jsonl(src, [record])
        out = tmp_path / "aux.cap"
        compact_captures([src], out)
        (recovered,) = list(ColumnarReader(out))
        assert recovered.frame.elements == {"vendor": "acme"}
        assert recovered == record

    def test_compaction_keeps_frame_types_of_a_foreign_kind_table(
            self, tmp_path):
        """Kind codes are remapped through each source's own footer
        table, not copied raw into the output's table."""
        records = [
            ReceivedFrame(Dot11Frame(
                frame_type=FRAME_TYPES[i % len(FRAME_TYPES)],
                source=STA if i % 2 else AP,
                destination=AP if i % 2 else STA, channel=6,
                timestamp=float(i), ssid=Ssid("campus"), bssid=AP),
                -65.0, 21.0, 6, float(i))
            for i in range(50)]
        src = tmp_path / "foreign.cap"
        write_with_reversed_kind_table(src, records)
        assert ColumnarReader(src).frame_types == tuple(
            reversed(FRAME_TYPES))
        assert list(ColumnarReader(src)) == records
        out = tmp_path / "compacted.cap"
        compact_captures([src], out)
        assert list(ColumnarReader(out)) == records


class TestConcatBatches:
    def test_remaps_kinds_and_rebases_aux(self):
        a = make_records(3)
        b = [ReceivedFrame(Dot11Frame(
            frame_type=FRAME_TYPES[1], source=STA, destination=AP,
            channel=6, timestamp=9.0, ssid=Ssid("x\x00"),
            elements={"vendor": "1"}), -60.0, 20.0, 6, 9.0)]
        rows, aux = encode_frames(b)
        rows["kind"] = len(FRAME_TYPES) - 1 - rows["kind"]
        reversed_b = FrameBatch(rows, memoryview(b"junk" + aux)[4:],
                                tuple(reversed(FRAME_TYPES)))
        merged = concat_batches(
            [FrameBatch(*encode_frames(a)), reversed_b])
        assert isinstance(merged.aux, bytes)
        assert merged.frame_types == FRAME_TYPES
        assert list(merged.iter_frames()) == a + b

    def test_out_of_range_aux_slice_raises(self):
        rows, aux = encode_frames(make_records(1))
        rows["aux_off"], rows["aux_len"] = 4, 8
        with pytest.raises(CaptureError):
            concat_batches([FrameBatch(rows, b"12345")])
