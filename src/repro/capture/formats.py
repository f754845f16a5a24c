"""Capture format dispatch: one public seam for capture I/O.

Every in-repo consumer — replay, the engines, the CLI — opens captures
through :func:`open_capture` and writes them through
:func:`make_capture_writer`; neither names a concrete codec class.
There are two formats, ``"columnar"`` and ``"jsonl"``.
:func:`open_capture` sniffs the on-disk one: the columnar magic, else
JSONL, whatever the first bytes are, so the legacy lenient posture —
garbage first line, valid records later — still works.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.capture.columnar import (ColumnarReader, ColumnarWriter,
                                    sniff_columnar)
from repro.capture.jsonl import JsonlReader, JsonlWriter

PathLike = Union[str, Path]

_READERS = {"columnar": ColumnarReader, "jsonl": JsonlReader}
_WRITERS = {"columnar": ColumnarWriter, "jsonl": JsonlWriter}


def _pick(table: dict, format: str):
    try:
        return table[format]
    except KeyError:
        raise ValueError(f"unknown capture format {format!r}; "
                         "known: columnar, jsonl") from None


def sniff_format(path: PathLike) -> str:
    """Detect a capture file's format from its bytes.

    Raises ``OSError`` if the file cannot be read (missing, perms) —
    callers that want a friendly message catch that at the seam.
    Anything without the columnar magic reads as ``"jsonl"``.
    """
    return "columnar" if sniff_columnar(path) else "jsonl"


def open_capture(path: PathLike, format: str = None, **options):
    """Open a capture for reading, sniffing the format by default.

    ``options`` pass through to the reader — ``strict``, ``on_skip``,
    and ``device`` are common to both.
    """
    name = format if format is not None else sniff_format(path)
    return _pick(_READERS, name)(path, **options)


def make_capture_writer(path: PathLike, format: str = "columnar",
                        **options):
    """Create a capture writer for the chosen format (columnar default)."""
    return _pick(_WRITERS, format)(path, **options)


def capture_info(path: PathLike, format: str = None) -> dict:
    """Summary statistics for a capture in either format."""
    reader = open_capture(path, format=format, strict=False)
    try:
        return reader.info()
    finally:
        close = getattr(reader, "close", None)
        if close is not None:
            close()
