"""Offline replay: run the attack from a recorded capture file.

The paper's pipeline separates capture from analysis ("The extracted
information is then stored in a database.  ... the adversary uses our
proposed M-Loc and AP-Rad algorithm ...").  Replay rebuilds the
observation database from a capture file (legacy JSONL or the columnar
block store, sniffed by :func:`repro.capture.open_capture`) so
localization can run long after the antenna came down — the
tcpdump-then-analyze workflow of the feasibility study.

One replay order, two shapes:

* :func:`iter_capture` — record-at-a-time :class:`ReceivedFrame`
  iteration through a reorder buffer, for consumers built on
  ``StreamingEngine.ingest``; it is the oracle;
* :func:`iter_capture_batches` — the same records in the same order,
  as :class:`FrameBatch` row slices, for the vectorized
  ``ingest_batch`` path and the network ingest client.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Union

import numpy as np

from repro import faults, obs
from repro.capture import (ColumnarReader, FrameBatch, check_rows,
                           concat_batches, encode_frames, open_capture)
from repro.capture.jsonl import DEFAULT_BATCH_RECORDS
from repro.engine.reorder import ReorderBuffer
from repro.faults import DROPPED, CaptureError
from repro.localization.base import LocalizationEstimate, Localizer
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.sniffer.observation import ObservationStore
from repro.sniffer.tracker import PseudonymLinker

PathLike = Union[str, Path]


def iter_capture(path: PathLike,
                 reorder_buffer: int = 256,
                 strict: bool = True,
                 device: Optional[Union[MacAddress, str]] = None,
                 format: Optional[str] = None) -> Iterator[ReceivedFrame]:
    """Yield a capture's frames in rx-timestamp order, streaming.

    The streaming engine's ingest path consumes this: memory stays
    O(``reorder_buffer``) regardless of capture size, unlike
    :func:`replay_capture`-era list materialization.  Multi-card
    captures interleave channels, so records can be locally out of
    order; a bounded min-heap look-ahead restores timestamp order
    exactly whenever no record is displaced by more than
    ``reorder_buffer`` positions.  ``reorder_buffer=0`` yields file
    order unchanged.

    ``strict=False`` skips (and counts, under
    ``repro.sniffer.replay.skipped``) malformed capture records instead
    of raising :class:`~repro.faults.CaptureError` on the first one —
    the right posture for week-long field captures.

    ``device`` restricts replay to records mentioning one MAC; on
    columnar captures the per-block bloom filters skip whole blocks
    (``repro.capture.blocks_skipped``) without touching their bytes.
    ``format`` pins a codec; default sniffs the file.
    """
    if reorder_buffer < 0:
        raise ValueError(
            f"reorder_buffer must be >= 0, got {reorder_buffer}")
    # Resolved at generator start, not per frame: replay counts flow to
    # whichever registry is routed when iteration begins (the engine's,
    # when this feeds StreamingEngine.run).
    registry = obs.current_registry()
    frames = registry.counter("repro.sniffer.replay.frames")
    skips = registry.counter("repro.sniffer.replay.skipped")
    reader = open_capture(
        path, format=format, strict=strict, device=device,
        on_skip=lambda line_number, reason: skips.inc())

    def records() -> Iterator[ReceivedFrame]:
        for received in reader:
            # Fault-injection seam: a spec on ``capture.record`` can
            # drop or corrupt records to exercise the lenient path.
            received = faults.hook("capture.record", received)
            if received is DROPPED:
                skips.inc()
                continue
            if not isinstance(received, ReceivedFrame):
                if strict:
                    raise CaptureError(
                        f"corrupt capture record: {received!r}")
                skips.inc()
                continue
            frames.inc()
            yield received

    buffer: ReorderBuffer[ReceivedFrame] = ReorderBuffer(reorder_buffer)
    for received in records():
        yield from buffer.push(received.rx_timestamp, received)
    yield from buffer.drain()


def iter_capture_batches(path: PathLike,
                         batch_records: int = DEFAULT_BATCH_RECORDS,
                         reorder_buffer: int = 256,
                         strict: bool = True,
                         device: Optional[Union[MacAddress, str]] = None,
                         format: Optional[str] = None
                         ) -> Iterator[FrameBatch]:
    """:func:`iter_capture`'s records, in its order, as batches.

    The capture is cut every ``batch_records`` records, and each batch
    holds the rows ``encode_frames`` writes for its records, so an
    engine fed by ``ingest_batch`` ends where :func:`iter_capture` into
    ``ingest`` ends.  The other arguments mean what they mean there.

    The path is decided once per capture, before the first batch: a
    columnar capture whose rows all decode in replay order goes out as
    its own row slices, without decoding a record, marked ``checked``
    (every row was checked to decode while choosing the path); anything
    else — JSONL, an armed ``capture.record`` fault spec, a columnar
    capture with a late or malformed row — goes through
    :func:`iter_capture` from the first record, unchecked, the columnar
    case counted per batch under ``repro.sniffer.replay.fallbacks``.
    Arguments are checked here, not at the first batch.
    """
    if batch_records < 1:
        raise ValueError(
            f"batch_records must be >= 1, got {batch_records}")
    if reorder_buffer < 0:
        raise ValueError(
            f"reorder_buffer must be >= 0, got {reorder_buffer}")
    return _batches(path, batch_records, reorder_buffer, strict, device,
                    format)


def _batches(path: PathLike, size: int, reorder_buffer: int,
             strict: bool, device, format: Optional[str]
             ) -> Iterator[FrameBatch]:
    # Counters and the fault check resolve at the first batch, as in
    # iter_capture: the registry and injector routed then are the ones
    # the replay reports to.
    registry = obs.current_registry()
    reader = None
    if not faults.armed("capture.record"):
        reader = open_capture(path, format=format, strict=strict,
                              device=device)
    columnar = isinstance(reader, ColumnarReader)
    if columnar:
        with reader:
            if _rows_as_replayed(reader, size, reorder_buffer):
                frames = registry.counter("repro.sniffer.replay.frames")
                for batch in _row_slices(reader.iter_batches(), size):
                    frames.inc(len(batch))
                    # _rows_as_replayed has checked every row.
                    batch.checked = True
                    yield batch
                return
        fallbacks = registry.counter("repro.sniffer.replay.fallbacks")
    records = iter_capture(path, reorder_buffer=reorder_buffer,
                           strict=strict, device=device, format=format)
    while True:
        chunk = list(itertools.islice(records, size))
        if not chunk:
            return
        if columnar:
            fallbacks.inc()
        yield FrameBatch(*encode_frames(chunk))


def _rows_as_replayed(reader: ColumnarReader, size: int,
                      reorder_buffer: int) -> bool:
    """Whether :func:`iter_capture` would yield ``reader``'s rows as
    they lie: every row decodes and, unless ``reorder_buffer`` is 0,
    ``rx_ts`` never decreases (the reorder buffer is then the identity;
    equal stamps keep arrival order, and a NaN fails every comparison).

    Slices of ``size`` rows keep the checks' temporaries small whatever
    the block size.  The pass runs under a scratch registry so the
    reader's block counters count the replay, not this look.
    """
    last = -np.inf
    with obs.use_registry(obs.MetricsRegistry()):
        for batch in reader.iter_batches(batch_records=size):
            ts = batch.records["rx_ts"]
            if reorder_buffer and not (ts[0] >= last
                                       and bool((ts[1:] >= ts[:-1]).all())):
                return False
            try:
                check_rows(batch.records, batch.aux, batch.frame_types)
            except CaptureError:
                return False
            last = ts[-1]
    return True


def _row_slices(blocks: Iterator[FrameBatch], size: int
                ) -> Iterator[FrameBatch]:
    """``blocks``' rows cut every ``size`` rows across block
    boundaries, as :func:`iter_capture` records would be cut."""
    runs: List[FrameBatch] = []
    count = 0
    for block in blocks:
        start = 0
        while start < len(block):
            stop = min(len(block), start + size - count)
            runs.append(FrameBatch(block.records[start:stop], block.aux,
                                   block.frame_types))
            count += stop - start
            start = stop
            if count == size:
                yield _encoded_rows(runs)
                runs, count = [], 0
    if runs:
        yield _encoded_rows(runs)


def _encoded_rows(runs: List[FrameBatch]) -> FrameBatch:
    """``runs`` as one batch, byte for byte what ``encode_frames``
    writes for their rows decoded.

    A row with no aux payload that decodes (``check_rows``) re-encodes
    to itself once its kind code is in :data:`~repro.capture.FRAME_TYPES` and its
    unused ``aux_off`` is 0, which :func:`concat_batches` sees to.  The
    rare aux-bearing rows are re-encoded outright: their JSON need not
    be in the canonical form the encoder writes.
    """
    batch = concat_batches(runs)
    overflow = np.nonzero(batch.records["aux_len"] > 0)[0]
    if len(overflow):
        rows, aux = encode_frames([batch.frame_at(index)
                                   for index in overflow])
        batch.records[overflow] = rows
        batch = FrameBatch(batch.records, aux)
    return batch


@dataclass
class ReplayResult:
    """Everything reconstructed from one capture file."""

    store: ObservationStore
    linker: PseudonymLinker
    frames_replayed: int

    @property
    def mobiles(self) -> Set[MacAddress]:
        return self.store.seen_mobiles

    def locate_all(self, localizer: Localizer
                   ) -> Dict[MacAddress, Optional[LocalizationEstimate]]:
        """Run a localizer over every mobile's all-time Γ."""
        estimates: Dict[MacAddress, Optional[LocalizationEstimate]] = {}
        for mobile, gamma in self.store.all_observations().items():
            estimates[mobile] = localizer.locate(gamma)
        return estimates


def replay_capture(path: PathLike,
                   window_s: float = 30.0,
                   strict: bool = True) -> ReplayResult:
    """Rebuild the observation database from a capture file."""
    store = ObservationStore(window_s=window_s)
    linker = PseudonymLinker()
    count = 0
    for received in iter_capture(path, strict=strict):
        store.ingest(received)
        linker.ingest(received.frame)
        count += 1
    return ReplayResult(store=store, linker=linker, frames_replayed=count)
