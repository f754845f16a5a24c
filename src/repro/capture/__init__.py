"""Capture I/O: format dispatch and the columnar capture store.

This package is the single public surface for reading and writing
capture files.  The two formats are ``"jsonl"`` (the legacy
line-per-record format, append-friendly and lenient) and
``"columnar"`` (memory-mapped NumPy blocks with a time index and
per-block device bloom filters — the ingest hot path).

Typical use::

    from repro.capture import open_capture, make_capture_writer

    with make_capture_writer("walk.cap") as writer:   # columnar
        for received in frames:
            writer.write(received)

    reader = open_capture("walk.cap")                  # format sniffed
    for batch in reader.iter_batches(device="aa:bb:cc:dd:ee:ff"):
        ...                                            # bloom-skipped
"""

from repro.capture.bloom import BloomFilter
from repro.capture.columnar import (ColumnarReader, ColumnarWriter,
                                    sniff_columnar)
from repro.capture.compact import compact_captures, convert_capture
from repro.capture.jsonl import (FORMAT_VERSION, JsonlReader, JsonlWriter,
                                 frame_from_dict, frame_to_dict)
from repro.capture.records import (CAPTURE_DTYPE, FRAME_TYPES, NO_BSSID,
                                   FrameBatch, check_rows, concat_batches,
                                   decode_row, encode_frames, mac_from_int)
from repro.capture.formats import (capture_info, make_capture_writer,
                                   open_capture, sniff_format)

__all__ = [
    "BloomFilter",
    "CAPTURE_DTYPE",
    "ColumnarReader",
    "ColumnarWriter",
    "FORMAT_VERSION",
    "FRAME_TYPES",
    "FrameBatch",
    "JsonlReader",
    "JsonlWriter",
    "NO_BSSID",
    "capture_info",
    "check_rows",
    "compact_captures",
    "concat_batches",
    "convert_capture",
    "decode_row",
    "encode_frames",
    "frame_from_dict",
    "frame_to_dict",
    "mac_from_int",
    "make_capture_writer",
    "open_capture",
    "sniff_columnar",
    "sniff_format",
]
