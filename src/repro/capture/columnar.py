"""The columnar capture codec: memory-mapped, time-indexed, bloom-skippable.

On-disk layout (``MRDCAP01``)::

    offset 0        magic  b"MRDCAP01"
    ...             block 0 rows   (records * CAPTURE_DTYPE.itemsize bytes)
                    block 0 aux    (variable, may be empty)
                    block 1 rows
                    block 1 aux
                    ...
    ...             footer JSON    (the index, UTF-8)
                    u64 LE         footer length in bytes
                    magic  b"MRDIDX01"

Rows are raw :data:`~repro.capture.records.CAPTURE_DTYPE` bytes — a
reader maps the file and takes ``np.frombuffer`` views straight into
the page cache; no record is ever parsed, copied, or object-ified
until a consumer asks for it.  The footer JSON indexes the blocks::

    {"columnar_version": 1,
     "dtype": [["kind", "|u1"], ...],        # self-describing schema
     "frame_types": ["beacon", ...],          # kind-code table
     "record_bytes": 121, "records": N, "block_records": 65536,
     "globally_sorted": true,
     "bloom": {"bits": 32768, "hashes": 4},
     "blocks": [{"offset": ..., "records": ...,
                 "aux_offset": ..., "aux_bytes": ...,
                 "t_min": ..., "t_max": ..., "sorted": true,
                 "bloom": "<hex>"}, ...]}

Each block's ``t_min``/``t_max`` gates time-windowed replay and its
bloom filter (over every src/dst/bssid in the block) gates
device-filtered replay — both skip whole blocks without touching their
bytes, counted as ``repro.capture.blocks_skipped``.
"""

from __future__ import annotations

import json
import mmap
import struct
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.capture.bloom import BloomFilter
from repro.capture.records import (CAPTURE_DTYPE, FRAME_TYPES, NO_BSSID,
                                   FrameBatch, concat_batches,
                                   encode_frames, normalize_device)
from repro.faults import CaptureError
from repro.net80211.frames import FrameType
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame

PathLike = Union[str, Path]

MAGIC = b"MRDCAP01"
FOOTER_MAGIC = b"MRDIDX01"
COLUMNAR_VERSION = 1

#: Default rows per block: ~7.6 MB of rows at the 121-byte record —
#: large enough that footer overhead and per-block Python cost vanish,
#: small enough that a bloom/time skip saves real work.
DEFAULT_BLOCK_RECORDS = 65536
DEFAULT_BLOOM_BITS = 32768
DEFAULT_BLOOM_HASHES = 4


class ColumnarWriter:
    """Write a columnar capture file.

    Unlike :class:`~repro.capture.jsonl.JsonlWriter`, this codec is
    write-once: the footer index lands at close, so there is no append
    mode — extend a capture by compacting it together with new data
    (:func:`repro.capture.compact.compact_captures`).

    ``sort_within_block`` (default) stable-sorts each block by
    ``rx_ts`` before it hits disk, so single-source captures written in
    arrival order come out block-sorted; the footer records per-block
    and global sortedness so readers know whether replay needs a sort.
    """

    format = "columnar"

    def __init__(self, path: PathLike,
                 block_records: int = DEFAULT_BLOCK_RECORDS,
                 bloom_bits: int = DEFAULT_BLOOM_BITS,
                 bloom_hashes: int = DEFAULT_BLOOM_HASHES,
                 sort_within_block: bool = True):
        if block_records < 1:
            raise ValueError(
                f"block_records must be >= 1, got {block_records}")
        self.path = Path(path)
        self.block_records = block_records
        self.bloom_bits = bloom_bits
        self.bloom_hashes = bloom_hashes
        self.sort_within_block = sort_within_block
        self._handle = self.path.open("wb")
        self._handle.write(MAGIC)
        self._offset = len(MAGIC)
        self._pending: List[ReceivedFrame] = []
        self._blocks: List[dict] = []
        self._records = 0
        self._closed = False

    def write(self, received: ReceivedFrame) -> None:
        """Buffer one record; flushes a block when the buffer fills."""
        self._pending.append(received)
        if len(self._pending) >= self.block_records:
            self._flush_pending()

    def write_rows(self, records: np.ndarray, aux: bytes = b"") -> None:
        """Bulk path: append already-encoded rows (the compactor's seam).

        ``records`` must use :data:`CAPTURE_DTYPE`; ``aux_off`` offsets
        must address ``aux``.  Rows are re-chunked into blocks and each
        block's aux slices are rebased into a per-block blob.
        """
        if records.dtype != CAPTURE_DTYPE:
            raise CaptureError(
                f"rows dtype {records.dtype} != capture dtype")
        self._flush_pending()
        for start in range(0, len(records), self.block_records):
            chunk = records[start:start + self.block_records]
            self._write_block(chunk, aux)

    def close(self) -> None:
        if self._closed:
            return
        self._flush_pending()
        self._write_footer()
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        rows, aux = encode_frames(self._pending)
        self._pending = []
        self._write_block(rows, aux)

    def _write_block(self, rows: np.ndarray, aux: bytes) -> None:
        if len(rows) == 0:
            return
        # Each block carries exactly its own overflow bytes.
        batch = concat_batches([FrameBatch(rows, aux)])
        rows, aux = batch.records, batch.aux
        rx_ts = rows["rx_ts"]
        is_sorted = bool(np.all(rx_ts[:-1] <= rx_ts[1:]))
        if self.sort_within_block and not is_sorted:
            # Stable: records with equal rx_ts keep arrival order, the
            # same tie-break the replay ReorderBuffer uses.
            order = np.argsort(rx_ts, kind="stable")
            rows = rows[order]
            is_sorted = True
        bloom = BloomFilter(bits=self.bloom_bits, hashes=self.bloom_hashes)
        devices = np.unique(np.concatenate([
            rows["src"], rows["dst"],
            rows["bssid"][rows["bssid"] != np.uint64(NO_BSSID)]]))
        bloom.add_many(devices)
        block_bytes = rows.tobytes()
        entry = {
            "offset": self._offset,
            "records": int(len(rows)),
            "aux_offset": self._offset + len(block_bytes),
            "aux_bytes": len(aux),
            "t_min": float(rows["rx_ts"].min()),
            "t_max": float(rows["rx_ts"].max()),
            "sorted": is_sorted,
            "bloom": bloom.to_hex(),
        }
        self._handle.write(block_bytes)
        self._handle.write(aux)
        self._offset += len(block_bytes) + len(aux)
        self._blocks.append(entry)
        self._records += len(rows)

    def _write_footer(self) -> None:
        globally_sorted = all(b["sorted"] for b in self._blocks) and all(
            self._blocks[i]["t_max"] <= self._blocks[i + 1]["t_min"]
            for i in range(len(self._blocks) - 1))
        footer = {
            "columnar_version": COLUMNAR_VERSION,
            "dtype": [list(field) for field in CAPTURE_DTYPE.descr],
            "frame_types": [ft.value for ft in FRAME_TYPES],
            "record_bytes": CAPTURE_DTYPE.itemsize,
            "records": self._records,
            "block_records": self.block_records,
            "globally_sorted": globally_sorted,
            "bloom": {"bits": self.bloom_bits, "hashes": self.bloom_hashes},
            "blocks": self._blocks,
        }
        blob = json.dumps(footer, sort_keys=True).encode("utf-8")
        self._handle.write(blob)
        self._handle.write(struct.pack("<Q", len(blob)))
        self._handle.write(FOOTER_MAGIC)


class ColumnarReader:
    """Memory-mapped reader over a ``MRDCAP01`` capture.

    The file is mapped once at open; every :class:`FrameBatch` this
    reader yields views the map directly (zero copy) unless filtering
    or sorting forces one.  Structural corruption — bad magic,
    truncated footer, index pointing outside the file — always raises
    :class:`~repro.faults.CaptureError`, even with ``strict=False``:
    like a bad JSONL header, it voids the whole capture, not one
    record.  ``strict`` only governs per-record decode errors during
    frame iteration.
    """

    format = "columnar"

    def __init__(self, path: PathLike, strict: bool = True,
                 on_skip: Optional[Callable[[int, str], None]] = None,
                 device: Optional[Union[MacAddress, str, int]] = None):
        self.path = Path(path)
        self.strict = strict
        self.on_skip = on_skip
        self.device = normalize_device(device)
        #: Malformed records skipped by the most recent iteration.
        self.skipped = 0
        self._file = self.path.open("rb")
        try:
            self._mmap = mmap.mmap(self._file.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        except ValueError as error:  # empty file cannot be mapped
            self._file.close()
            raise CaptureError(f"{self.path}: not a capture file "
                               f"({error})") from error
        try:
            self._load_footer()
        except CaptureError:
            self.close()
            raise

    def _load_footer(self) -> None:
        view = self._mmap
        tail = len(FOOTER_MAGIC) + 8
        if len(view) < len(MAGIC) + tail:
            raise CaptureError(f"{self.path}: truncated capture file")
        if view[:len(MAGIC)] != MAGIC:
            raise CaptureError(
                f"{self.path}: bad magic {bytes(view[:len(MAGIC)])!r}")
        if view[-len(FOOTER_MAGIC):] != FOOTER_MAGIC:
            raise CaptureError(f"{self.path}: missing footer "
                               "(capture not closed cleanly?)")
        (footer_len,) = struct.unpack(
            "<Q", view[-tail:-len(FOOTER_MAGIC)])
        footer_end = len(view) - tail
        if footer_len > footer_end - len(MAGIC):
            raise CaptureError(f"{self.path}: footer length {footer_len} "
                               "exceeds file size")
        blob = view[footer_end - footer_len:footer_end]
        try:
            footer = json.loads(bytes(blob).decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise CaptureError(
                f"{self.path}: corrupt footer index: {error}") from error
        version = footer.get("columnar_version")
        if version != COLUMNAR_VERSION:
            raise CaptureError(
                f"{self.path}: unsupported columnar version {version}")
        try:
            self.dtype = np.dtype([tuple(field)
                                   for field in footer["dtype"]])
            self.frame_types = tuple(FrameType(value)
                                     for value in footer["frame_types"])
            self.blocks = footer["blocks"]
            self.records = int(footer["records"])
            self.globally_sorted = bool(footer["globally_sorted"])
            self.bloom_bits = int(footer["bloom"]["bits"])
            self.bloom_hashes = int(footer["bloom"]["hashes"])
            self.block_records = int(footer["block_records"])
        except (KeyError, TypeError, ValueError) as error:
            raise CaptureError(
                f"{self.path}: malformed footer index: {error}") from error
        data_end = footer_end - footer_len
        for number, block in enumerate(self.blocks):
            try:
                end = (block["offset"]
                       + block["records"] * self.dtype.itemsize)
                aux_end = block["aux_offset"] + block["aux_bytes"]
            except (KeyError, TypeError) as error:
                raise CaptureError(f"{self.path}: malformed block "
                                   f"{number}: {error}") from error
            if (block["offset"] < len(MAGIC) or end > data_end
                    or aux_end > data_end):
                raise CaptureError(
                    f"{self.path}: block {number} extends outside file")

    def close(self) -> None:
        # NumPy views handed out earlier keep the map alive; mmap.close
        # raises BufferError while views exist, so tolerate it and let
        # the map die with its last view.
        try:
            self._mmap.close()
        except BufferError:
            pass
        self._file.close()

    def __enter__(self) -> "ColumnarReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def iter_batches(self, batch_records: Optional[int] = None,
                     device: Optional[Union[MacAddress, str, int]] = None,
                     start_ts: Optional[float] = None,
                     end_ts: Optional[float] = None
                     ) -> Iterator[FrameBatch]:
        """Yield zero-copy :class:`FrameBatch` slices in block order.

        ``device`` consults each block's bloom filter before touching
        its bytes; ``start_ts``/``end_ts`` consult the time index.
        Skipped blocks count under ``repro.capture.blocks_skipped``;
        blocks a bloom filter admitted that turn out to hold no
        matching row count under ``repro.capture.bloom.false_positives``
        (the filter can over-admit, never under-admit).
        """
        registry = obs.current_registry()
        skipped_blocks = registry.counter("repro.capture.blocks_skipped")
        read_blocks = registry.counter("repro.capture.blocks_read")
        false_positives = registry.counter(
            "repro.capture.bloom.false_positives")
        filtered = registry.counter("repro.capture.records_filtered")
        batches = registry.counter("repro.capture.batches")
        wanted = normalize_device(device)
        if wanted is None:
            wanted = self.device
        wanted_value = None if wanted is None else int(wanted.value)
        for block in self.blocks:
            if start_ts is not None and block["t_max"] < start_ts:
                skipped_blocks.inc()
                continue
            if end_ts is not None and block["t_min"] > end_ts:
                skipped_blocks.inc()
                continue
            if wanted_value is not None:
                bloom = BloomFilter.from_hex(block["bloom"],
                                             bits=self.bloom_bits,
                                             hashes=self.bloom_hashes)
                if wanted_value not in bloom:
                    skipped_blocks.inc()
                    continue
            read_blocks.inc()
            rows = np.frombuffer(self._mmap, dtype=self.dtype,
                                 count=block["records"],
                                 offset=block["offset"])
            aux = memoryview(self._mmap)[
                block["aux_offset"]:
                block["aux_offset"] + block["aux_bytes"]]
            if not block.get("sorted", False):
                order = np.argsort(rows["rx_ts"], kind="stable")
                rows = rows[order]
            if start_ts is not None or end_ts is not None:
                mask = np.ones(len(rows), dtype=bool)
                if start_ts is not None:
                    mask &= rows["rx_ts"] >= start_ts
                if end_ts is not None:
                    mask &= rows["rx_ts"] <= end_ts
                if not mask.all():
                    rows = rows[mask]
            if wanted_value is not None:
                value = np.uint64(wanted_value)
                mask = ((rows["src"] == value) | (rows["dst"] == value)
                        | (rows["bssid"] == value))
                kept = int(mask.sum())
                filtered.inc(len(rows) - kept)
                if kept == 0:
                    # The bloom filter admitted the block but no row
                    # matched: a false positive (or every matching row
                    # fell outside the time window).
                    false_positives.inc()
                    continue
                if kept < len(rows):
                    rows = rows[mask]
            if len(rows) == 0:
                continue
            if batch_records is None or batch_records >= len(rows):
                batches.inc()
                yield FrameBatch(rows, aux, self.frame_types)
            else:
                for start in range(0, len(rows), batch_records):
                    batches.inc()
                    yield FrameBatch(rows[start:start + batch_records],
                                     aux, self.frame_types)

    def __iter__(self) -> Iterator[ReceivedFrame]:
        self.skipped = 0
        for batch in self.iter_batches():
            yield from batch.iter_frames(strict=self.strict,
                                         on_error=self._record_skip)

    def _record_skip(self, index: int, reason: str) -> None:
        self.skipped += 1
        if self.on_skip is not None:
            self.on_skip(index, reason)

    def info(self) -> dict:
        """Summary statistics from the footer index (O(blocks))."""
        fills = []
        for block in self.blocks:
            bloom = BloomFilter.from_hex(block["bloom"],
                                         bits=self.bloom_bits,
                                         hashes=self.bloom_hashes)
            fills.append(bloom.fill_ratio())
        times = ([min(b["t_min"] for b in self.blocks),
                  max(b["t_max"] for b in self.blocks)]
                 if self.blocks else None)
        return {
            "format": self.format,
            "path": str(self.path),
            "file_bytes": self.path.stat().st_size,
            "records": self.records,
            "record_bytes": self.dtype.itemsize,
            "blocks": len(self.blocks),
            "block_records": self.block_records,
            "globally_sorted": self.globally_sorted,
            "time": times,
            "aux_bytes": sum(b["aux_bytes"] for b in self.blocks),
            "bloom": {
                "bits": self.bloom_bits,
                "hashes": self.bloom_hashes,
                "mean_fill": (sum(fills) / len(fills)) if fills else 0.0,
            },
        }


def sniff_columnar(path: PathLike) -> bool:
    """True when the file starts with the columnar magic."""
    with open(path, "rb") as handle:
        return handle.read(len(MAGIC)) == MAGIC
