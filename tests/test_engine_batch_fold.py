"""``ingest_batch`` against the record path, batch by batch.

The batch path folds only the evidence rows that can change a Γ and
raises the rest in bulk (:class:`~repro.engine.ingest.BatchFold`).  The
differential here feeds one stream to two engines — one record at a
time through :meth:`StreamingEngine.ingest`, one batch at a time
through :meth:`StreamingEngine.ingest_batch` — and after every batch
compares every fix either emitted and the resumable state: Γ, the dirty
set, the re-fit queue with its pending observations, the devices seen.
Comparing only final state is not enough: a batch path that lost the
rows between a mid-batch re-fit and the batch's end from ``pending``
still ends with the same fixes.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.capture import FrameBatch, encode_frames
from repro.engine import CallbackSink, StreamingEngine
from repro.knowledge.apdb import ApDatabase
from repro.localization import APRad, MLoc
from repro.localization.base import fix_record
from repro.net80211.frames import (Dot11Frame, FrameType, beacon,
                                   probe_request, probe_response)
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid

from tests.helpers import make_record

MOBILES = [MacAddress(0x020000000000 + index) for index in range(4)]
#: Group bit set: a frame to or from it carries no evidence.
MULTICAST = MacAddress(0x01005E000001)
DATABASE = ApDatabase([
    make_record(0, 0.0, 0.0, 80.0),
    make_record(1, 100.0, 0.0, 80.0),
    make_record(2, 100.0, 100.0, 80.0),
    make_record(3, 0.0, 100.0, 80.0),
    make_record(4, 50.0, 50.0, 60.0),
])
APS = [record.bssid for record in DATABASE]
CAMPUS = Ssid("campus")


def make_frame(kind, mobile, ap, ts):
    if kind == "response":
        return probe_response(ap, mobile, 6, ts, ssid=CAMPUS)
    if kind == "uplink":
        return Dot11Frame(frame_type=FrameType.DATA, source=mobile,
                          destination=ap, channel=6, timestamp=ts,
                          ssid=Ssid(""), bssid=ap)
    if kind == "downlink":
        return Dot11Frame(frame_type=FrameType.DATA, source=ap,
                          destination=mobile, channel=6, timestamp=ts,
                          ssid=Ssid(""), bssid=ap)
    if kind == "no-bssid":
        return Dot11Frame(frame_type=FrameType.DATA, source=mobile,
                          destination=ap, channel=6, timestamp=ts,
                          ssid=Ssid(""), bssid=None)
    if kind == "probe":
        return probe_request(mobile, 6, ts, ssid=CAMPUS)
    return beacon(ap, 6, ts, ssid=CAMPUS)


KINDS = ["response", "response", "uplink", "downlink", "no-bssid",
         "probe", "beacon"]


@st.composite
def streams(draw):
    """Frames with stale, out-of-order and duplicate rows, multicast
    mobiles and missing BSSIDs."""
    count = draw(st.integers(1, 400))
    frames = []
    clock = 0.0
    for _ in range(count):
        if frames and draw(st.integers(0, 9)) == 0:
            frames.append(frames[draw(st.integers(0, len(frames) - 1))])
            continue
        clock += draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]))
        ts = clock - draw(st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.7, 3.0]))
        mobile = draw(st.sampled_from(MOBILES + [MULTICAST]))
        frame = make_frame(draw(st.sampled_from(KINDS)), mobile,
                           draw(st.sampled_from(APS)), ts)
        frames.append(ReceivedFrame(frame, -60.0, 20.0, 6, ts))
    return frames


def cut(frames, sizes):
    """``frames`` in consecutive batches of the drawn sizes (cycled)."""
    batches, start, index = [], 0, 0
    while start < len(frames):
        size = sizes[index % len(sizes)]
        batches.append(frames[start:start + size])
        start += size
        index += 1
    return batches


def resumable(engine):
    state = engine.checkpoint()
    return {key: state[key] for key in ("gamma", "dirty", "refit", "seen",
                                        "latest", "quarantine")}


def make_localizer(refit_every):
    if refit_every:
        return APRad(DATABASE, r_max=120.0, solver="revised",
                     min_evidence=1, tie_break=1e-7)
    return MLoc(DATABASE)


def engine_pair(prefix, window_s, batch_size, refit_every, quarantine,
                settle_due):
    """Two engines in one state: fresh, or restored from a record-path
    run over ``prefix`` with one device quarantined and, optionally, a
    settle due before the first row."""
    emits = ([], [])

    def sinks(index):
        return [CallbackSink(lambda mobile, ts, estimate: emits[index].append(
            (str(mobile), fix_record(ts, estimate))))]

    options = dict(window_s=window_s, batch_size=batch_size,
                   refit_every=refit_every)
    if not prefix:
        return [StreamingEngine(make_localizer(refit_every), sinks=sinks(i),
                                **options) for i in range(2)], emits
    head = StreamingEngine(make_localizer(refit_every), **options)
    head.ingest_stream(prefix)
    data = head.checkpoint()
    devices = list(data["gamma"]["events"])
    if quarantine and devices:
        data["quarantine"][devices[0]] = "SolverError: poison"
        data["dirty"] = [m for m in data["dirty"] if m != devices[0]]
    if settle_due:
        data["dirty"] = [m for m in devices if m not in data["quarantine"]]
        if data["dirty"]:
            data["config"]["batch_size"] = min(batch_size,
                                               len(data["dirty"]))
        if refit_every:
            data["refit"]["events_since_refit"] = refit_every
    text = json.dumps(data)
    return [StreamingEngine.restore(json.loads(text),
                                    make_localizer(refit_every),
                                    sinks=sinks(i)) for i in range(2)], emits


def assert_batch_path_matches(frames, split, sizes, window_s, batch_size,
                              refit_every, quarantine, settle_due):
    prefix, rest = frames[:split], frames[split:]
    (record, batched), emits = engine_pair(
        prefix, window_s, batch_size, refit_every, quarantine, settle_due)
    for batch in cut(rest, sizes):
        record.ingest_stream(batch)
        batched.ingest_batch(FrameBatch(*encode_frames(batch)))
        assert emits[1] == emits[0]
        assert resumable(batched) == resumable(record)
        assert batched.stats().evidence_events == \
            record.stats().evidence_events
    record.drain()
    batched.drain()
    assert emits[1] == emits[0]
    assert resumable(batched) == resumable(record)


COMMON = dict(
    frames=streams(),
    split_at=st.floats(0.0, 0.5),
    sizes=st.lists(st.integers(1, 200), min_size=1, max_size=4),
    window_s=st.sampled_from([0.05, 0.3, 1.0, 4.0, 1000.0]),
    batch_size=st.integers(1, 7),
    quarantine=st.booleans(),
    settle_due=st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(**COMMON)
def test_m_loc_batches_match_the_record_path(
        frames, split_at, sizes, window_s, batch_size, quarantine,
        settle_due):
    assert_batch_path_matches(frames, int(len(frames) * split_at), sizes,
                              window_s, batch_size, 0, quarantine,
                              settle_due)


@settings(max_examples=60, deadline=None)
@given(refit_every=st.integers(3, 50), **COMMON)
def test_aprad_refits_mid_batch_match_the_record_path(
        frames, split_at, sizes, window_s, batch_size, refit_every,
        quarantine, settle_due):
    assert_batch_path_matches(frames, int(len(frames) * split_at), sizes,
                              window_s, batch_size, refit_every,
                              quarantine, settle_due)



def test_settle_due_before_an_unfolded_first_row():
    # A restored engine with a flush due, and a batch whose row 0 is
    # evidence that changes no Γ: the record path flushes right after
    # row 0, before the rows after it move the device's frontier.
    def response(ap, ts):
        return ReceivedFrame(make_frame("response", MOBILES[0], ap, ts),
                             -60.0, 20.0, 6, ts)

    frames = [response(APS[0], 0.0), response(APS[1], 0.1),
              response(APS[0], 1.0), response(APS[1], 2.0),
              response(APS[0], 3.0)]
    assert_batch_path_matches(frames, 2, [3], 1000.0, 1, 0, False, True)
