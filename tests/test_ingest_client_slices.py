"""The ingest client's slice path against its record-path oracle.

``stream_capture_to`` sends a columnar capture's row slices as they lie
in the file when :func:`~repro.sniffer.replay.iter_capture`'s reorder
buffer would be the identity and every row decodes, and replays the
whole capture record by record otherwise.
Each case below records every ``(seq, payload)`` the client pushes and
checks it against the stream the record path makes of the same capture:
``iter_capture`` cut every ``batch_records`` records, each batch
encoded by ``encode_frames`` -- byte for byte, sequence for sequence,
including the batches sent before a strict-mode error.
"""

import pytest

from repro import obs
from repro.capture import ColumnarWriter, make_capture_writer
from repro.capture.records import FrameBatch, encode_frames
from repro.faults import (CaptureError, FaultInjector, parse_fault_spec,
                          use_injector)
from repro.net80211.frames import Dot11Frame, FrameType
from repro.net80211.mac import BROADCAST_MAC, MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.service import FrameIngestServer, gateway, wire
from repro.sniffer import replay
from repro.sniffer.replay import iter_capture

AP = MacAddress.parse("00:15:6d:44:55:66")


def record(index, ts, ssid="campus", elements=None):
    """A distinguishable capture record: the sender and sequence
    number identify it even among records with equal timestamps."""
    frame = Dot11Frame(
        frame_type=(FrameType.PROBE_REQUEST if index % 3 == 0
                    else FrameType.PROBE_RESPONSE),
        source=MacAddress(0x020000000000 + index % 50),
        destination=BROADCAST_MAC if index % 3 == 0 else AP,
        channel=6, timestamp=ts, ssid=Ssid(ssid),
        bssid=None if index % 3 == 0 else AP, sequence=index % 4096,
        elements=dict(elements or {}))
    return ReceivedFrame(frame=frame, rssi_dbm=-60.0 - index % 30,
                         snr_db=20.0, rx_channel=6, rx_timestamp=ts)


def records(count, step=0.01):
    return [record(index, index * step) for index in range(count)]


def write_columnar(path, frames, block_records):
    # Blocks are written as given, so an out-of-order record stays
    # where the test put it (unless it is within its own block, which
    # the reader sorts on both paths).
    with ColumnarWriter(path, block_records=block_records,
                        sort_within_block=False) as writer:
        for received in frames:
            writer.write(received)
    return path


class NullEngine:
    def ingest_batch(self, batch):
        pass


@pytest.fixture
def server():
    with FrameIngestServer(NullEngine(),
                           registry=obs.MetricsRegistry()) as gate:
        yield gate


@pytest.fixture
def client(server, monkeypatch):
    """Run ``stream_capture_to`` and record what it pushes.

    Returns ``(pushed, error, registry, record_path)``: the
    ``(seq, payload)`` pairs, the text of a ``CaptureError`` it raised
    (else None), the registry current while it streamed, and whether it
    took the record path from the first record.
    """
    pushed = []
    calls = []
    real_push, real_iter = gateway.push_data, replay.iter_capture

    def recording_push(out, message):
        pushed.append((out.seq + 1, wire.pack_data(out.seq + 1, message)))
        return real_push(out, message)

    def spying_iter(*args, **kwargs):
        calls.append(args)
        return real_iter(*args, **kwargs)

    monkeypatch.setattr(gateway, "push_data", recording_push)
    monkeypatch.setattr(replay, "iter_capture", spying_iter)

    def run(path, **options):
        del pushed[:], calls[:]
        registry = obs.MetricsRegistry()
        error = None
        with obs.use_registry(registry):
            try:
                gateway.stream_capture_to(path, server.address, **options)
            except CaptureError as caught:
                error = str(caught)
        return list(pushed), error, registry, bool(calls)

    return run


def oracle(path, batch_records=128, reorder_buffer=256, strict=True,
           format=None, device=None):
    """The record path: ``iter_capture`` cut every ``batch_records``."""
    pushed, chunk = [], []
    registry = obs.MetricsRegistry()

    def cut():
        seq = len(pushed) + 1
        batch = FrameBatch(*encode_frames(chunk))
        pushed.append((seq, wire.pack_data(seq, ("frames", batch))))
        chunk.clear()

    error = None
    with obs.use_registry(registry):
        try:
            for received in iter_capture(path,
                                         reorder_buffer=reorder_buffer,
                                         strict=strict, format=format,
                                         device=device):
                chunk.append(received)
                if len(chunk) == batch_records:
                    cut()
            if chunk:
                cut()
        except CaptureError as caught:
            error = str(caught)
    return pushed, error, registry


def count(registry, name):
    return registry.counter(name).value


def assert_same(got, want):
    pushed, error, registry = got[:3]
    want_pushed, want_error, want_registry = want
    assert [seq for seq, _ in pushed] == [seq for seq, _ in want_pushed]
    assert pushed == want_pushed
    assert error == want_error
    for name in ("repro.sniffer.replay.frames",
                 "repro.sniffer.replay.skipped"):
        assert count(registry, name) == count(want_registry, name)


class TestSlicePath:
    def test_blocks_not_a_multiple_of_the_batch(self, tmp_path, client):
        path = write_columnar(tmp_path / "c.cap", records(230),
                              block_records=50)
        got = client(path, batch_records=16)
        assert_same(got, oracle(path, batch_records=16))
        pushed, _, registry, record_path = got
        assert not record_path
        assert count(registry, "repro.sniffer.replay.fallbacks") == 0
        assert len(pushed) == (230 + 15) // 16
        # The order check reads the blocks too, but counts nowhere.
        assert count(registry, "repro.capture.blocks_read") == 5

    def test_equal_stamps_across_a_slice_boundary(self, tmp_path,
                                                  client):
        # Pairs of records share a stamp, and every block boundary
        # (block_records=7) splits some pair.
        frames = [record(index, (index // 2) * 0.5)
                  for index in range(70)]
        path = write_columnar(tmp_path / "c.cap", frames, block_records=7)
        got = client(path, batch_records=8, reorder_buffer=4)
        assert_same(got, oracle(path, batch_records=8, reorder_buffer=4))
        assert not got[3]
        assert count(got[2], "repro.sniffer.replay.fallbacks") == 0

    def test_aux_bearing_rows(self, tmp_path, client):
        frames = records(60)
        frames[5] = record(5, frames[5].rx_timestamp, ssid="net\x00")
        frames[33] = record(33, frames[33].rx_timestamp,
                            elements={"vendor": "acme", "ht": "1"})
        frames[34] = record(34, frames[34].rx_timestamp, ssid="café",
                            elements={"country": "US"})
        path = write_columnar(tmp_path / "c.cap", frames, block_records=20)
        got = client(path, batch_records=16)
        assert_same(got, oracle(path, batch_records=16))
        assert count(got[2], "repro.sniffer.replay.fallbacks") == 0

    def test_aux_json_the_encoder_would_not_write(self, tmp_path, client):
        # Spacing, and an empty elements map that decodes to no
        # overflow at all: the record path re-encodes both, so the
        # slice path must not copy them through.
        rows, _ = encode_frames(records(40))
        blobs = [b'{ "e" : {"b": "2", "a": "1"} }', b'{"e": {}}']
        aux, offset = b"", 0
        for index, blob in zip((3, 17), blobs):
            rows["aux_off"][index], rows["aux_len"][index] = offset, len(blob)
            aux += blob
            offset += len(blob)
        path = tmp_path / "c.cap"
        with ColumnarWriter(path, block_records=64) as writer:
            writer.write_rows(rows, aux)
        got = client(path, batch_records=16)
        assert_same(got, oracle(path, batch_records=16))
        assert count(got[2], "repro.sniffer.replay.fallbacks") == 0

    def test_device_filter(self, tmp_path, client):
        # The reader's own device filter hands both paths the same rows:
        # the AP is in two records of three, spread over three blocks.
        path = write_columnar(tmp_path / "c.cap", records(120),
                              block_records=50)
        got = client(path, batch_records=16, device=AP)
        assert_same(got, oracle(path, batch_records=16, device=AP))
        assert not got[3]
        assert count(got[2], "repro.sniffer.replay.frames") == 80

    def test_no_reorder_buffer(self, tmp_path, client):
        frames = records(90)
        frames[10], frames[70] = frames[70], frames[10]
        path = write_columnar(tmp_path / "c.cap", frames, block_records=30)
        got = client(path, batch_records=16, reorder_buffer=0)
        assert_same(got, oracle(path, batch_records=16, reorder_buffer=0))
        assert count(got[2], "repro.sniffer.replay.fallbacks") == 0


class TestFallback:
    @pytest.mark.parametrize("displacement", [5, 40])
    def test_displaced_record(self, tmp_path, client, displacement):
        # Record 94 arrives ``displacement`` positions late, in a later
        # block than the one it belongs in: less than the reorder buffer
        # is put back in order, more is not -- either way the whole
        # capture takes the record path and both paths agree.
        frames = records(300)
        late = frames.pop(94)
        frames.insert(94 + displacement, late)
        path = write_columnar(tmp_path / "c.cap", frames, block_records=32)
        got = client(path, batch_records=16, reorder_buffer=16)
        want = oracle(path, batch_records=16, reorder_buffer=16)
        assert_same(got, want)
        assert got[3]
        assert count(got[2], "repro.sniffer.replay.fallbacks") == 19
        streamed = [received for seq, payload in got[0]
                    for received in wire.unpack_data(payload)[1][1]]
        in_order = [r.rx_timestamp for r in streamed] == sorted(
            r.rx_timestamp for r in streamed)
        assert in_order == (displacement < 16)

    def test_malformed_row_strict(self, tmp_path, client):
        rows, aux = encode_frames(records(200))
        rows["kind"][150] = 200
        path = tmp_path / "c.cap"
        with ColumnarWriter(path, block_records=40) as writer:
            writer.write_rows(rows, aux)
        got = client(path, batch_records=16, reorder_buffer=8)
        want = oracle(path, batch_records=16, reorder_buffer=8)
        assert want[1] is not None and "unknown frame-type code" in want[1]
        assert want[0]  # batches went out before the error
        assert_same(got, want)
        assert count(got[2], "repro.sniffer.replay.fallbacks") == len(
            want[0])

    def test_malformed_row_lenient(self, tmp_path, client):
        rows, aux = encode_frames(records(200))
        rows["kind"][150] = 200
        rows["ssid"][151] = b"\xff\xfe"
        path = tmp_path / "c.cap"
        with ColumnarWriter(path, block_records=40) as writer:
            writer.write_rows(rows, aux)
        got = client(path, batch_records=16, strict=False)
        want = oracle(path, batch_records=16, strict=False)
        assert count(want[2], "repro.sniffer.replay.skipped") == 2
        assert_same(got, want)
        # Every batch of the 198 rows that decode took the record path.
        assert count(got[2], "repro.sniffer.replay.fallbacks") == 13


class TestRecordPath:
    def test_jsonl_capture(self, tmp_path, client):
        frames = records(100)
        frames[20], frames[24] = frames[24], frames[20]
        path = tmp_path / "c.jsonl"
        with make_capture_writer(path, format="jsonl") as writer:
            for received in frames:
                writer.write(received)
        got = client(path, batch_records=16)
        assert_same(got, oracle(path, batch_records=16))
        assert got[3]
        assert count(got[2], "repro.sniffer.replay.fallbacks") == 0

    def test_armed_capture_record_fault(self, tmp_path, client):
        path = write_columnar(tmp_path / "c.cap", records(120),
                              block_records=50)
        spec = "capture.record:drop,after=10,times=5"
        with use_injector(FaultInjector([parse_fault_spec(spec)], seed=3)):
            got = client(path, batch_records=16, strict=False)
        with use_injector(FaultInjector([parse_fault_spec(spec)], seed=3)):
            want = oracle(path, batch_records=16, strict=False)
        assert count(want[2], "repro.sniffer.replay.skipped") == 5
        assert_same(got, want)
        assert got[3]


def test_slices_resume_by_client_id(tmp_path):
    # A rerun of the same client id resumes past every acked batch:
    # nothing reaches the engine twice, whichever path cut the batches.
    frames = records(300)
    late = frames.pop(100)
    frames.insert(110, late)
    path = write_columnar(tmp_path / "c.cap", frames, block_records=32)
    registry = obs.MetricsRegistry()
    with FrameIngestServer(NullEngine(), registry=registry) as server:
        runs = [gateway.stream_capture_to(path, server.address,
                                          batch_records=16,
                                          reorder_buffer=16,
                                          client_id="rooftop")
                for _ in range(2)]
    assert [run.frames for run in runs] == [300, 300]
    assert [run.batches for run in runs] == [19, 19]
    assert count(registry, "repro.ingest.batches") == 19
    assert count(registry, "repro.ingest.frames") == 300
