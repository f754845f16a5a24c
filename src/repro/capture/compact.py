"""Convert and merge captures into sorted columnar blocks.

The compactor is how legacy JSONL field captures enter the columnar
world, and how multi-sniffer captures (one file per channel-hopping
card) merge into one globally time-sorted store.  All sources are
decoded batch-wise, concatenated into one kind-code table by
:func:`~repro.capture.records.concat_batches`, stable-sorted by
``rx_ts`` — the stable sort preserves file/argument order for equal
timestamps, the same tie-break replay's ReorderBuffer applies — and
re-blocked through
:meth:`~repro.capture.columnar.ColumnarWriter.write_rows`.

The merge sorts in memory: at the 121-byte record a 1M-record compact
holds ~121 MB of rows, fine for the corpus sizes this repo targets.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from repro.capture.records import FrameBatch, concat_batches
from repro.capture.formats import make_capture_writer, open_capture

PathLike = Union[str, Path]


def compact_captures(sources: Sequence[PathLike], dst: PathLike,
                     format: str = "columnar", strict: bool = False,
                     **writer_options) -> dict:
    """Merge capture files into one sorted capture at ``dst``.

    Sources may mix formats (sniffed per file).  ``strict`` defaults to
    lenient here — compaction is the recovery path for week-long field
    captures, where malformed records are skipped and counted rather
    than voiding the run.  Returns a report dict.
    """
    if not sources:
        raise ValueError("compact_captures needs at least one source")
    owned: List[FrameBatch] = []
    skipped = 0
    for source in sources:
        reader = open_capture(source, strict=strict)
        try:
            # Owned copies, in one kind-code table, before the reader
            # (and any mmap its batches view) closes.
            owned.extend(concat_batches([batch])
                         for batch in reader.iter_batches())
            skipped += getattr(reader, "skipped", 0)
        finally:
            close = getattr(reader, "close", None)
            if close is not None:
                close()
    merged = concat_batches(owned)
    order = np.argsort(merged.records["rx_ts"], kind="stable")
    merged = FrameBatch(merged.records[order], merged.aux)
    report = {
        "sources": [str(Path(s)) for s in sources],
        "records": len(merged),
        "skipped": int(skipped),
        "output": str(Path(dst)),
        "format": format,
    }
    if format == "columnar":
        with make_capture_writer(dst, format="columnar",
                                 **writer_options) as writer:
            writer.write_rows(merged.records, merged.aux)
        report["blocks"] = len(writer._blocks)
    else:
        with make_capture_writer(dst, format=format,
                                 **writer_options) as writer:
            for received in merged.iter_frames():
                writer.write(received)
    return report


def convert_capture(src: PathLike, dst: PathLike,
                    format: str = "columnar", strict: bool = True,
                    **writer_options) -> dict:
    """Convert one capture file to another format (or re-block it)."""
    return compact_captures([src], dst, format=format, strict=strict,
                            **writer_options)
