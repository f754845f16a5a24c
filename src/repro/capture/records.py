"""The columnar record schema: one capture record as a structured row.

The whole columnar store rests on a fixed NumPy structured dtype —
:data:`CAPTURE_DTYPE` — that holds everything a
:class:`~repro.net80211.medium.ReceivedFrame` carries, losslessly:

* MAC addresses are 48-bit integers in ``u8`` columns (``bssid`` uses
  the :data:`NO_BSSID` sentinel, unreachable by any valid address, for
  frames not bound to a BSS);
* every float field is ``f8`` so a JSONL → columnar → JSONL round trip
  reproduces the exact values;
* the SSID lives inline as 32 raw UTF-8 bytes (the 802.11 maximum);
* rare variable-length payload — a non-empty ``elements`` dict, or the
  pathological SSID whose encoding ends in a NUL byte (which fixed
  ``S32`` storage would truncate) — overflows into a per-block *aux*
  blob of JSON, addressed by ``aux_off``/``aux_len``.

:class:`FrameBatch` is the unit of batched ingest: a (possibly
memory-mapped, zero-copy) slice of rows plus its aux blob, decodable
per record on demand — the engine's vectorized ingest reads the columns
directly and only materializes :class:`Dot11Frame` objects for the few
records (probe requests) that need one.
"""

from __future__ import annotations

import functools
import json
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.faults import CaptureError
from repro.net80211.frames import Dot11Frame, FrameType
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid

#: ``bssid`` column value for frames with no BSS binding.  Any valid
#: MAC is < 2**48, so the all-ones u64 can never collide.
NO_BSSID = (1 << 64) - 1

#: Stable wire order of frame-type codes.  Append-only: the footer of
#: every columnar file records this list by enum value, so old files
#: stay decodable even if the in-memory order ever changes.
FRAME_TYPES: Tuple[FrameType, ...] = (
    FrameType.BEACON,
    FrameType.PROBE_REQUEST,
    FrameType.PROBE_RESPONSE,
    FrameType.DEAUTHENTICATION,
    FrameType.AUTHENTICATION,
    FrameType.ASSOCIATION_REQUEST,
    FrameType.ASSOCIATION_RESPONSE,
    FrameType.DATA,
)

#: FrameType → wire code (row ``kind`` column).
CODE_OF: Dict[FrameType, int] = {
    frame_type: code for code, frame_type in enumerate(FRAME_TYPES)
}

#: One capture record.  Packed (no alignment padding) so the on-disk
#: block size is exactly ``records * CAPTURE_DTYPE.itemsize``.
CAPTURE_DTYPE = np.dtype([
    ("kind", "u1"),         # FRAME_TYPES index
    ("channel", "i2"),      # tx channel
    ("rx_channel", "i2"),
    ("seq", "u4"),          # 802.11 sequence number
    ("src", "u8"),          # MAC as 48-bit int
    ("dst", "u8"),
    ("bssid", "u8"),        # NO_BSSID when unbound
    ("ts", "f8"),           # tx timestamp
    ("rx_ts", "f8"),        # capture timestamp (the replay sort key)
    ("rssi", "f8"),
    ("snr", "f8"),
    ("tx_power", "f8"),     # dBm
    ("tx_gain", "f8"),      # dBi
    ("ssid", "S32"),        # raw UTF-8, 802.11 max length
    ("aux_off", "u4"),      # overflow JSON slice in the block aux blob
    ("aux_len", "u4"),      # 0 = no overflow payload
])

_MAC_CACHE: Dict[int, MacAddress] = {}
_MAC_CACHE_LIMIT = 1 << 20


def mac_from_int(value: int) -> MacAddress:
    """An interned :class:`MacAddress` for a 48-bit integer.

    Decoding a million-record capture constructs the same few thousand
    device addresses over and over; interning makes each one a single
    dict hit after its first appearance (and keeps dict lookups keyed
    by already-hashed identical objects).
    """
    mac = _MAC_CACHE.get(value)
    if mac is None:
        if len(_MAC_CACHE) >= _MAC_CACHE_LIMIT:
            _MAC_CACHE.clear()
        mac = MacAddress(value)
        _MAC_CACHE[value] = mac
    return mac


def normalize_device(device) -> Optional[MacAddress]:
    """A reader's ``device`` filter as a :class:`MacAddress` (``None``
    passes through; an int or MAC text is converted)."""
    if device is None:
        return None
    if isinstance(device, MacAddress):
        return device
    if isinstance(device, int):
        return MacAddress(device)
    return MacAddress.parse(str(device))


def encode_frames(frames: Sequence[ReceivedFrame]
                  ) -> Tuple[np.ndarray, bytes]:
    """Pack received frames into (rows, aux blob).

    Row ``aux_off`` offsets are relative to the returned blob — the
    writer stores rows and blob side by side, so offsets are final.
    """
    rows: List[tuple] = []
    aux_parts: List[bytes] = []
    aux_size = 0
    for received in frames:
        frame = received.frame
        overflow: Dict[str, object] = {}
        encoded_ssid = frame.ssid.name.encode("utf-8")
        if encoded_ssid.endswith(b"\x00"):
            # NumPy S32 strips trailing NULs on read; keep such an SSID
            # lossless by routing it through the aux blob instead.
            overflow["s"] = frame.ssid.name
            encoded_ssid = b""
        if frame.elements:
            overflow["e"] = dict(frame.elements)
        aux_off = aux_len = 0
        if overflow:
            blob = json.dumps(overflow, sort_keys=True).encode("utf-8")
            aux_off, aux_len = aux_size, len(blob)
            aux_parts.append(blob)
            aux_size += len(blob)
        # One tuple per row, in CAPTURE_DTYPE field order: NumPy builds
        # the whole structured array in one call.
        rows.append((
            CODE_OF[frame.frame_type], frame.channel, received.rx_channel,
            frame.sequence, frame.source.value, frame.destination.value,
            NO_BSSID if frame.bssid is None else frame.bssid.value,
            frame.timestamp, received.rx_timestamp, received.rssi_dbm,
            received.snr_db, frame.tx_power_dbm, frame.tx_antenna_gain_dbi,
            encoded_ssid, aux_off, aux_len))
    return np.array(rows, dtype=CAPTURE_DTYPE), b"".join(aux_parts)


def decode_row(row, aux,
               frame_types: Sequence[FrameType] = FRAME_TYPES
               ) -> ReceivedFrame:
    """Rebuild one :class:`ReceivedFrame` from a row + its aux blob.

    Raises :class:`~repro.faults.CaptureError` on any malformed field
    (unknown kind code, undecodable SSID bytes, corrupt aux JSON).
    """
    code = int(row["kind"])
    if not 0 <= code < len(frame_types):
        raise CaptureError(f"unknown frame-type code {code}")
    overflow: Dict[str, object] = {}
    aux_len = int(row["aux_len"])
    if aux_len:
        offset = int(row["aux_off"])
        blob = bytes(aux[offset:offset + aux_len])
        if len(blob) != aux_len:
            raise CaptureError(
                f"aux slice [{offset}:{offset + aux_len}] out of range")
        try:
            overflow = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise CaptureError(f"corrupt aux payload: {error}") from error
        if not isinstance(overflow, dict):
            raise CaptureError(
                f"aux payload is not a JSON object: {blob[:40]!r}")
    ssid_name = overflow.get("s")
    if ssid_name is None:
        try:
            ssid_name = bytes(row["ssid"]).decode("utf-8")
        except UnicodeDecodeError as error:
            raise CaptureError(f"undecodable SSID bytes: {error}") from error
    bssid_value = int(row["bssid"])
    try:
        frame = Dot11Frame(
            frame_type=frame_types[code],
            source=mac_from_int(int(row["src"])),
            destination=mac_from_int(int(row["dst"])),
            channel=int(row["channel"]),
            timestamp=float(row["ts"]),
            ssid=Ssid(str(ssid_name)),
            bssid=(None if bssid_value == NO_BSSID
                   else mac_from_int(bssid_value)),
            sequence=int(row["seq"]),
            tx_power_dbm=float(row["tx_power"]),
            tx_antenna_gain_dbi=float(row["tx_gain"]),
            elements=dict(overflow.get("e", {})),
        )
    except (TypeError, ValueError) as error:
        raise CaptureError(f"malformed capture row: {error}") from error
    return ReceivedFrame(frame=frame,
                         rssi_dbm=float(row["rssi"]),
                         snr_db=float(row["snr"]),
                         rx_channel=int(row["rx_channel"]),
                         rx_timestamp=float(row["rx_ts"]))


def check_rows(records: np.ndarray, aux,
               frame_types: Sequence[FrameType] = FRAME_TYPES,
               rows: Optional[np.ndarray] = None) -> None:
    """Raise :class:`~repro.faults.CaptureError` unless every row decodes.

    A vectorized pass picks the rows that can fail :func:`decode_row` —
    a kind code or MAC out of range, an aux payload, SSID bytes outside
    ASCII — and only those are decoded.  ``rows``, a boolean mask,
    limits the check to the rows it selects; the error still names the
    failing row by its index in ``records``.
    """
    wide = np.uint64(1 << 48)
    bssid = records["bssid"]
    ssid = np.frombuffer(records["ssid"].tobytes(), dtype=np.uint8)
    suspect = ((records["kind"] >= len(frame_types))
               | (records["aux_len"] > 0)
               | (records["src"] >= wide) | (records["dst"] >= wide)
               | ((bssid >= wide) & (bssid != np.uint64(NO_BSSID)))
               | (ssid.reshape(len(records), 32) >= 0x80).any(axis=1))
    if rows is not None:
        suspect &= rows
    for index in np.nonzero(suspect)[0]:
        try:
            decode_row(records[index], aux, frame_types)
        except CaptureError as error:
            raise CaptureError(f"record {index}: {error}") from error


@functools.lru_cache(maxsize=None)
def _kind_remap(frame_types: Tuple[FrameType, ...]) -> np.ndarray:
    """Kind code → :data:`FRAME_TYPES` code (unknown codes → 255)."""
    remap = np.full(256, 255, dtype=np.uint8)
    for code, frame_type in enumerate(frame_types):
        remap[code] = CODE_OF[frame_type]
    return remap


def concat_batches(batches: Iterable["FrameBatch"]) -> "FrameBatch":
    """One batch holding ``batches`` back to back, in owned memory.

    Rows are copied out of any mmap view, kind codes remapped from each
    batch's ``frame_types`` to :data:`FRAME_TYPES` (unknown codes stay
    unknown), and the aux slices the rows reference copied into one
    dense blob with ``aux_off`` rebased.  An aux slice outside its
    batch's blob raises :class:`~repro.faults.CaptureError`.
    """
    parts: List[np.ndarray] = []
    aux_parts: List[bytes] = []
    position = 0
    for batch in batches:
        rows = np.array(batch.records, dtype=CAPTURE_DTYPE)
        frame_types = tuple(batch.frame_types)
        if frame_types != FRAME_TYPES:
            rows["kind"] = _kind_remap(frame_types)[rows["kind"]]
        used = rows["aux_len"] > 0
        for index in np.nonzero(used)[0]:
            offset = int(rows["aux_off"][index])
            length = int(rows["aux_len"][index])
            blob = bytes(batch.aux[offset:offset + length])
            if len(blob) != length:
                raise CaptureError(
                    f"aux slice [{offset}:{offset + length}] out of range")
            aux_parts.append(blob)
            rows["aux_off"][index] = position
            position += length
        rows["aux_off"][~used] = 0
        parts.append(rows)
    rows = (np.concatenate(parts) if parts
            else np.zeros(0, dtype=CAPTURE_DTYPE))
    return FrameBatch(rows, b"".join(aux_parts))


class FrameBatch:
    """One replay batch: a row slice plus its aux blob, decoded lazily.

    ``records`` is a structured array over :data:`CAPTURE_DTYPE` — for
    columnar captures it is a zero-copy view straight into the
    memory-mapped file.  Consumers that can work columnar (the engine's
    vectorized ingest, ``locate_batch`` feeders) read the columns;
    consumers that need objects call :meth:`frame_at` or
    :meth:`iter_frames`.  ``checked`` says every row is already known to
    decode (:func:`check_rows` passed on these bytes), so a consumer
    that would check them again may skip it.
    """

    __slots__ = ("records", "aux", "frame_types", "checked")

    def __init__(self, records: np.ndarray, aux=b"",
                 frame_types: Sequence[FrameType] = FRAME_TYPES,
                 checked: bool = False):
        self.records = records
        self.aux = aux
        self.frame_types = frame_types
        self.checked = checked

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ReceivedFrame]:
        return self.iter_frames()

    @property
    def t_min(self) -> float:
        return float(self.records["rx_ts"].min())

    @property
    def t_max(self) -> float:
        return float(self.records["rx_ts"].max())

    def frame_at(self, index: int) -> ReceivedFrame:
        """Decode one record to a full :class:`ReceivedFrame`."""
        return decode_row(self.records[index], self.aux, self.frame_types)

    def iter_frames(self, strict: bool = True,
                    on_error: Optional[Callable[[int, str], None]] = None
                    ) -> Iterator[ReceivedFrame]:
        """Materialize every record, in row order.

        ``strict=False`` skips malformed records, reporting each to
        ``on_error(index, reason)`` — the lenient posture of the JSONL
        reader, applied to row decoding.
        """
        for index in range(len(self.records)):
            try:
                yield decode_row(self.records[index], self.aux,
                                 self.frame_types)
            except CaptureError as error:
                if strict:
                    raise CaptureError(
                        f"record {index}: {error}") from error
                if on_error is not None:
                    on_error(index, str(error))

    def filter_device(self, value: int) -> "FrameBatch":
        """Rows where ``value`` appears as src, dst, or bssid (a copy)."""
        records = self.records
        mask = ((records["src"] == value) | (records["dst"] == value)
                | (records["bssid"] == value))
        return FrameBatch(records[mask], self.aux, self.frame_types)
