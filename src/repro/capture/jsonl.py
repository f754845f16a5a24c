"""The JSONL capture codec: the original line-per-record format.

This is the tcpdump stand-in the repo has carried since the seed — one
JSON object per line, append-friendly, greppable — now one of the two
formats :mod:`repro.capture` reads and writes, the compatibility one.
The columnar codec (:mod:`repro.capture.columnar`) is the ingest hot
path; JSONL stays the durable interchange format and the lenient
parser of week-long field captures.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro import obs
from repro.capture.records import FrameBatch, encode_frames, normalize_device
from repro.faults import CaptureError
from repro.net80211.frames import Dot11Frame, FrameType
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid

PathLike = Union[str, Path]

FORMAT_VERSION = 1

#: Records per batch when the caller does not say
#: (:meth:`JsonlReader.iter_batches`,
#: :func:`~repro.sniffer.replay.iter_capture_batches`) — sized so the
#: encode cost amortizes without holding a large slice of the capture
#: in memory.
DEFAULT_BATCH_RECORDS = 8192


def frame_to_dict(frame: Dot11Frame) -> dict:
    """Serialize a frame to plain JSON-compatible types."""
    return {
        "type": frame.frame_type.value,
        "src": str(frame.source),
        "dst": str(frame.destination),
        "bssid": str(frame.bssid) if frame.bssid is not None else None,
        "ssid": frame.ssid.name,
        "channel": frame.channel,
        "ts": frame.timestamp,
        "seq": frame.sequence,
        "tx_power_dbm": frame.tx_power_dbm,
        "tx_gain_dbi": frame.tx_antenna_gain_dbi,
        "elements": dict(frame.elements),
    }


def frame_from_dict(data: dict) -> Dot11Frame:
    """Deserialize a frame written by :func:`frame_to_dict`."""
    bssid = data.get("bssid")
    return Dot11Frame(
        frame_type=FrameType(data["type"]),
        source=MacAddress.parse(data["src"]),
        destination=MacAddress.parse(data["dst"]),
        channel=int(data["channel"]),
        timestamp=float(data["ts"]),
        ssid=Ssid(data.get("ssid", "")),
        bssid=MacAddress.parse(bssid) if bssid else None,
        sequence=int(data.get("seq", 0)),
        tx_power_dbm=float(data.get("tx_power_dbm", 15.0)),
        tx_antenna_gain_dbi=float(data.get("tx_gain_dbi", 0.0)),
        elements=dict(data.get("elements", {})),
    )


class JsonlWriter:
    """Append :class:`ReceivedFrame` records to a JSONL capture file."""

    format = "jsonl"

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._handle = self.path.open("a", encoding="utf-8")
        if self.path.stat().st_size == 0:
            header = {"capture_format": FORMAT_VERSION}
            self._handle.write(json.dumps(header) + "\n")

    def write(self, received: ReceivedFrame) -> None:
        record = {
            "frame": frame_to_dict(received.frame),
            "rssi_dbm": received.rssi_dbm,
            "snr_db": received.snr_db,
            "rx_channel": received.rx_channel,
            "rx_ts": received.rx_timestamp,
        }
        self._handle.write(json.dumps(record) + "\n")

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JsonlReader:
    """Iterate the records of a JSONL capture file.

    ``strict`` (the default) raises a typed
    :class:`~repro.faults.CaptureError` on the first malformed record —
    right for tests and for captures this codebase wrote itself.  With
    ``strict=False`` malformed *records* are skipped and counted
    (:attr:`skipped`, plus an ``on_skip`` callback per skip), the
    seven-day-tcpdump posture where one truncated line must not void a
    week of traffic.  A bad file *header* (unsupported format version)
    always raises: that is the whole capture, not one record.

    ``device`` restricts iteration to records mentioning one MAC (as
    source, destination, or BSSID).  JSONL has no index, so the filter
    still decodes every record — the columnar codec's per-block bloom
    filters are the fix; here the skip counter
    (``repro.capture.blocks_skipped``) simply never moves.
    """

    format = "jsonl"

    def __init__(self, path: PathLike, strict: bool = True,
                 on_skip: Optional[Callable[[int, str], None]] = None,
                 device: Optional[Union[MacAddress, str]] = None):
        self.path = Path(path)
        self.strict = strict
        self.on_skip = on_skip
        self.device = normalize_device(device)
        #: Malformed records skipped by the most recent iteration.
        self.skipped = 0

    def __iter__(self) -> Iterator[ReceivedFrame]:
        self.skipped = 0
        registry = obs.current_registry()
        # Bound in both codecs so a metrics scrape always shows the
        # series; only the columnar path can actually skip blocks.
        registry.counter("repro.capture.blocks_skipped")
        filtered = registry.counter("repro.capture.records_filtered")
        device = self.device
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    if not isinstance(data, dict):
                        raise CaptureError(
                            f"record is not a JSON object: {line[:60]!r}")
                except ValueError as error:
                    self._skip(line_number, str(error))
                    continue
                if "capture_format" in data:
                    version = data["capture_format"]
                    if version != FORMAT_VERSION:
                        raise CaptureError(
                            f"unsupported capture format {version}")
                    continue
                try:
                    received = ReceivedFrame(
                        frame=frame_from_dict(data["frame"]),
                        rssi_dbm=float(data["rssi_dbm"]),
                        snr_db=float(data["snr_db"]),
                        rx_channel=int(data["rx_channel"]),
                        rx_timestamp=float(data["rx_ts"]),
                    )
                except (KeyError, TypeError, ValueError) as error:
                    self._skip(line_number, f"{type(error).__name__}: {error}")
                    continue
                if device is not None and not _mentions_device(received,
                                                               device):
                    filtered.inc()
                    continue
                yield received

    def iter_batches(self, batch_records: int = DEFAULT_BATCH_RECORDS
                     ) -> Iterator[FrameBatch]:
        """Decode the capture into :class:`FrameBatch` chunks.

        JSONL is row-at-a-time on disk, so this still pays the
        per-record JSON decode; it gives the compactor one batch
        surface over both codecs.  A strict error arrives after the
        records decoded before it, as from :meth:`__iter__`.
        """
        if batch_records < 1:
            raise ValueError(
                f"batch_records must be >= 1, got {batch_records}")
        pending = []
        try:
            for received in self:
                pending.append(received)
                if len(pending) >= batch_records:
                    yield FrameBatch(*encode_frames(pending))
                    pending = []
        except CaptureError:
            if pending:
                yield FrameBatch(*encode_frames(pending))
            raise
        if pending:
            yield FrameBatch(*encode_frames(pending))

    def info(self) -> dict:
        """Scan the whole file for summary statistics (O(records))."""
        records = 0
        t_min: Optional[float] = None
        t_max: Optional[float] = None
        devices = set()
        for received in self:
            records += 1
            ts = received.rx_timestamp
            t_min = ts if t_min is None else min(t_min, ts)
            t_max = ts if t_max is None else max(t_max, ts)
            devices.add(received.frame.source.value)
            devices.add(received.frame.destination.value)
            if received.frame.bssid is not None:
                devices.add(received.frame.bssid.value)
        return {
            "format": self.format,
            "path": str(self.path),
            "file_bytes": self.path.stat().st_size,
            "records": records,
            "skipped": self.skipped,
            "devices": len(devices),
            "time": None if t_min is None else [t_min, t_max],
        }

    def _skip(self, line_number: int, reason: str) -> None:
        if self.strict:
            raise CaptureError(
                f"{self.path}:{line_number}: malformed capture record "
                f"({reason})")
        self.skipped += 1
        if self.on_skip is not None:
            self.on_skip(line_number, reason)


def _mentions_device(received: ReceivedFrame, device: MacAddress) -> bool:
    frame = received.frame
    return (frame.source == device or frame.destination == device
            or frame.bssid == device)

