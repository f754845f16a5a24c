"""The streaming localization engine.

Wires the pipeline stages together::

    frames ──> ingest (GammaState, PseudonymLinker)
                 │  Γ changed?
                 v
               dirty-set scheduler ──> micro-batch flush
                                          │  Γ-set memo cache
                                          v
                                       localizer.locate(Γ)
                                          │
                                          v
                                       sinks (tracker, display, ...)

Design points (see DESIGN.md "Streaming engine"):

* **Incremental Γ** — one bounded update per frame; no replaying of
  history.
* **Dirty-set scheduling** — a device is re-localized only when an
  event changes its streaming Γ; estimates for an unchanged
  neighborhood would be identical anyway.
* **Γ-set memoization** — localization is a pure function of
  (localizer identity, Γ); devices sharing an AP neighborhood share one
  disc intersection.  Mutating the AP knowledge base invalidates the
  cache (call :meth:`StreamingEngine.invalidate_cache`, or use a
  localizer whose ``cache_key()`` changes, as AP-Rad's does on re-fit).
* **Micro-batching** — dirty devices drain in configurable batches, so
  ingest latency and localization cost can be traded off explicitly.
* **Checkpoint/restore** — Γ sets, the dirty set and each device's
  newest fix (the engine keeps no history: tracks are a
  :class:`~repro.engine.TrackerSink`'s job) serialize to JSON; a
  restored run emits exactly what an uninterrupted one emits next.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Union)

import numpy as np

from repro import faults, obs
from repro.faults import CheckpointError, ReproError, RetryPolicy
from repro.capture.records import FrameBatch, check_rows, mac_from_int
from repro.engine.cache import GammaCache
from repro.engine.ingest import (BatchFold, Evidence, GammaState,
                                 classify_rows, extract_evidence)
from repro.engine.scheduler import MicroBatchScheduler
from repro.engine.sinks import EngineSink, LatestFixSink
from repro.engine.stats import EngineStats
from repro.localization.base import (LocalizationEstimate, Localizer,
                                     decode_fix, fix_record)
from repro.net80211.frames import FrameType
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.sniffer.tracker import PseudonymLinker

PathLike = Union[str, Path]

#: v5: one JSON payload behind a first line holding the decimal CRC32 of
#: its bytes; newest fixes only, counters and gauges only, so two runs
#: over one stream write the same bytes.  Only v5 restores.
CHECKPOINT_VERSION = 5


class StreamingEngine:
    """Event-driven localization over a stream of captured frames.

    Parameters
    ----------
    localizer:
        Any :class:`Localizer`.  It must be ready to ``locate`` before
        the first flush (AP-Rad must be fitted up front).
    window_s:
        Sliding co-observation window for the streaming Γ.
    batch_size:
        Dirty devices per micro-batch; a full batch flushes during
        ingest, stragglers flush on :meth:`flush` / :meth:`run` end.
    cache_size:
        Capacity of the Γ-set memoization cache; ``0`` disables it.
    sinks:
        :class:`EngineSink` consumers of every fix; attach a
        :class:`~repro.engine.TrackerSink` for whole tracks.
    refit_every:
        Re-fit the localizer's model every N evidence events (``0``
        disables).  Each Γ change is accumulated as a pending
        observation; on schedule the batch is handed to the
        localizer's ``partial_fit`` (AP-Rad's incremental radius LP
        warm-starts from its previous basis), every device is marked
        dirty (new radii can move every estimate), and the fit wall
        time lands in the ``fit`` stage of :class:`EngineStats`.
        Localizers that do not declare ``supports_partial_fit`` ignore
        the schedule.  Until the first re-fit completes, an unfitted
        localizer (``is_fitted`` false) yields no estimates — devices
        flushed early are re-localized after the fit.
    registry:
        The :class:`~repro.obs.MetricsRegistry` this engine reports
        into.  Defaults to a fresh private registry, so concurrent
        engines never share counters; pass
        :func:`repro.obs.default_registry` to publish process-wide.
        While the engine works — ingest, flush, re-fit — its registry
        is routed as :func:`repro.obs.current_registry`, so metrics
        emitted deep in the LP solvers, the spatial grid, and batch
        localization all land here too.
    retry:
        The :class:`~repro.faults.RetryPolicy` wrapped around the
        fallible stages — batch localization, sink emission, and model
        re-fits.  Only :class:`~repro.faults.ReproError` (and the
        policy's configured ``retryable`` types) are retried; anything
        else propagates.  Defaults to 3 attempts with short exponential
        backoff and no jitter, so retried runs stay deterministic.
    quarantine_after:
        After this many consecutive per-device localization failures
        the device is quarantined — dropped from scheduling with the
        failing error recorded — so one poison Γ cannot stall the rest
        of the stream.  ``0`` disables quarantine.

    One engine localizes in-process; to spread devices across cores or
    hosts, shard them with :class:`repro.service.ShardedEngine`.
    """

    def __init__(self, localizer: Localizer, window_s: float = 30.0,
                 batch_size: int = 32, cache_size: int = 4096,
                 sinks: Sequence[EngineSink] = (), refit_every: int = 0,
                 registry: Optional[obs.MetricsRegistry] = None,
                 retry: Optional[RetryPolicy] = None,
                 quarantine_after: int = 3):
        if refit_every < 0:
            raise ValueError(
                f"refit_every must be >= 0, got {refit_every}")
        if quarantine_after < 0:
            raise ValueError(
                f"quarantine_after must be >= 0, got {quarantine_after}")
        self.localizer = localizer
        self.refit_every = refit_every
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, base_delay=0.02, multiplier=2.0, jitter=0.0)
        self.quarantine_after = quarantine_after
        self.gamma_state = GammaState(window_s=window_s)
        self.scheduler = MicroBatchScheduler(batch_size=batch_size)
        self.cache: Optional[GammaCache] = (
            GammaCache(cache_size) if cache_size > 0 else None)
        # The head table: each device's newest fix (checkpoint "latest").
        self.tracker = LatestFixSink()
        self.linker = PseudonymLinker()
        self.sinks: List[EngineSink] = list(sinks)
        self.registry = (registry if registry is not None
                         else obs.MetricsRegistry())
        # Bound instrument handles (hot path: attribute access, no
        # registry lookup).  Binding at init also guarantees the core
        # series appear in every snapshot, even at zero.
        self._c_frames = self.registry.counter("repro.engine.frames")
        self._c_evidence = self.registry.counter("repro.engine.evidence")
        self._c_probes = self.registry.counter(
            "repro.engine.probe_requests")
        self._c_batches = self.registry.counter("repro.engine.batches")
        self._c_estimates = self.registry.counter("repro.engine.estimates")
        self._c_unlocatable = self.registry.counter(
            "repro.engine.unlocatable")
        self._c_refits = self.registry.counter("repro.engine.refits")
        self._g_fit_iterations = self.registry.gauge(
            "repro.engine.fit.iterations")
        self._g_devices = self.registry.gauge("repro.engine.devices.seen")
        self._t_flush = self.registry.timer("repro.engine.flush.duration")
        if self.cache is not None:
            for event in ("hit", "miss", "eviction", "invalidation"):
                self.registry.counter(f"repro.engine.cache.{event}")
            self.registry.gauge("repro.engine.cache.entries")
        self._seen: Set[MacAddress] = set()
        # Consecutive localization failures per device; at
        # ``quarantine_after`` the device moves to the quarantine map
        # (mobile → failing error text) and stops being scheduled.
        self._failures: Dict[MacAddress, int] = {}
        self._quarantine: Dict[MacAddress, str] = {}
        # Re-fit scheduling: Γ snapshots accumulated since the last
        # model fit, handed to localizer.partial_fit on schedule.
        self._pending_refit: List[FrozenSet[MacAddress]] = []
        self._events_since_refit = 0
        # Stage timers and retry callbacks, bound on first use.
        self._stage_timers: Dict[str, obs.Timer] = {}
        self._retry_callbacks: Dict[str, Callable] = {}

    # ------------------------------------------------------------------
    # Ingest stage
    # ------------------------------------------------------------------

    def ingest(self, received: ReceivedFrame) -> None:
        """Consume one captured frame; flush if a micro-batch is due."""
        with self._stage("ingest"):
            self._c_frames.inc()
            frame = received.frame
            if frame.frame_type is FrameType.PROBE_REQUEST:
                self._c_probes.inc()
                self._seen.add(frame.source)
                self.linker.ingest(frame)
            else:
                evidence = extract_evidence(received)
                if evidence is not None:
                    self._c_evidence.inc()
                    self._fold(evidence)
            self._g_devices.set(len(self._seen))
        self._settle()

    def ingest_stream(self, stream: Iterable[ReceivedFrame]) -> None:
        """Consume frames without the end-of-stream flush (resumable)."""
        for received in stream:
            self.ingest(received)

    def ingest_batch(self, batch: FrameBatch) -> None:
        """Consume one :class:`~repro.capture.records.FrameBatch`.

        The columnar hot path: :func:`~repro.engine.ingest.classify_rows`
        classifies the whole batch over its NumPy columns, and a
        :class:`~repro.engine.ingest.BatchFold` picks the evidence rows
        that can change a Γ; only those touch Python one at a time, and
        the rest raise their devices' times in bulk.  Probe requests
        feed the pseudonym linker once per distinct (source, SSID) pair,
        straight from the columns (a row with an aux payload is decoded
        in full); beacons, deauths and multicast traffic never
        materialize.  Unless the batch is already ``checked`` (the wire
        codec checks what a socket shard receives), the probe and
        evidence rows are checked to decode first, so a malformed one
        raises :class:`~repro.faults.CaptureError` naming its row and
        leaves the engine untouched.

        Exactly equivalent to calling :meth:`ingest` per record in row
        order: the Γ-changing rows fold one event at a time, and the
        refit-schedule and micro-batch-flush checks run after each row
        at which something can fall due (after any other row they find
        nothing due), so flush interleaving — and therefore emitted
        fixes and checkpoints — match the record-at-a-time path bit for
        bit.  Probe rows never mark a device dirty, so linking them
        ahead of the evidence changes no flush.  The ``ingest`` stage is
        timed once per run of rows between two flush points, not per
        row.
        """
        total = len(batch)
        if total == 0:
            return
        started = time.perf_counter()
        records = batch.records
        probe, evidence, mobiles = classify_rows(batch)
        if not batch.checked:
            check_rows(records, batch.aux, batch.frame_types,
                       rows=probe | evidence)
        timer = self._stage_timer("ingest")
        self._c_frames.inc(total)
        self._c_probes.inc(int(probe.sum()))
        self._c_evidence.inc(int(evidence.sum()))
        self._link_probes(batch, probe)
        # The record path settles after row 0 whatever it carries.
        due_first = self._settle_due()
        if due_first and not evidence[0]:
            timer.observe(time.perf_counter() - started)
            self._settle()
            started = time.perf_counter()
            due_first = False
        rows = np.flatnonzero(evidence)
        if rows.size:
            plan = BatchFold(self.gamma_state, mobiles[rows],
                             records["bssid"][rows], records["rx_ts"][rows])
            started = self._fold_plan(plan, rows.size, due_first, timer,
                                      started)
        self._g_devices.set(len(self._seen))
        timer.observe(time.perf_counter() - started)

    def _fold_plan(self, plan: BatchFold, count: int, due_first: bool,
                   timer: obs.Timer, started: float) -> float:
        """Fold a batch's ``count`` evidence rows as :meth:`ingest` would.

        Only the plan's rows go through :meth:`_fold`.  The others
        change no Γ and dirty no device, so a settle can follow only a
        folded row, a row at which a re-fit falls due, or row 0 when a
        settle was due before the batch (``due_first``); the plan raises
        the skipped rows' times just before each settle, and a re-fit
        engine queues their Γ as pending observations in row order.
        Returns the ingest stage's new start time.
        """
        folds = plan.rows + [count]
        refit_every = self.refit_every
        fold_index = 0
        done = 0                 # rows [0, done) are accounted for
        while True:
            row = folds[fold_index]
            if refit_every:
                # The row whose event count reaches the schedule.
                row = min(row, max(done, done + refit_every
                                   - self._events_since_refit - 1))
            if due_first:
                row, due_first = 0, False
            if row >= count:
                break
            folded = row == folds[fold_index]
            if refit_every:
                skipped = row if folded else row + 1
                self._pending_refit.extend(plan.gammas(done, skipped))
                self._events_since_refit += skipped - done
            if folded:
                self._fold(plan.evidence(row))
                fold_index += 1
            done = row + 1
            if self._settle_due():
                plan.raise_through(row)
                timer.observe(time.perf_counter() - started)
                self._settle()
                started = time.perf_counter()
        if refit_every:
            self._pending_refit.extend(plan.gammas(done, count))
            self._events_since_refit += count - done
        plan.raise_through(count - 1)
        return started

    def _link_probes(self, batch: FrameBatch, probe: np.ndarray) -> None:
        """Feed the batch's probe requests to the linker from columns.

        Each distinct (source, SSID) pair goes over once, in first-seen
        order, which is all the linker's state depends on.  A row with
        an aux payload (an SSID that overflowed its column) is keyed by
        its index and decoded in full.
        """
        rows = np.nonzero(probe)[0]
        if rows.size == 0:
            return
        records = batch.records
        firsts = dict.fromkeys(
            (source, ssid) if not aux_len else index
            for index, source, ssid, aux_len in zip(
                rows.tolist(), records["src"][rows].tolist(),
                records["ssid"][rows].tolist(),
                records["aux_len"][rows].tolist()))
        for first in firsts:
            if isinstance(first, int):
                frame = batch.frame_at(first).frame
                source, ssid = frame.source, frame.ssid
            else:
                source = mac_from_int(first[0])
                ssid = Ssid(first[1].decode("utf-8"))
            self._seen.add(source)
            self.linker.observe(source, ssid)

    def _fold(self, evidence: Evidence) -> None:
        """Fold one evidence event into Γ, the dirty set and the refit
        queue.

        The Γ state hands back a new frozenset exactly when the event
        changes a device's Γ, so an identity test marks the device dirty:
        a device neither dirty nor quarantined was last localized with
        the Γ it holds now.
        """
        mobile = evidence.mobile
        self._seen.add(mobile)
        before = self.gamma_state.gamma(mobile)
        gamma = self.gamma_state.observe(evidence)
        if gamma is not before and mobile not in self._quarantine:
            self.scheduler.mark_dirty(mobile)
        if self.refit_every > 0:
            if gamma:
                self._pending_refit.append(gamma)
            self._events_since_refit += 1

    def _refit_due(self) -> bool:
        return (self.refit_every > 0
                and self._events_since_refit >= self.refit_every)

    def _settle_due(self) -> bool:
        """Whether :meth:`_settle` has a re-fit or a flush to run."""
        return self.scheduler.ready or self._refit_due()

    def _settle(self) -> None:
        """Run a due re-fit, then flush every full micro-batch."""
        if self._refit_due():
            self._refit()
        while self.scheduler.ready:
            self._flush_batch()

    def ingest_batches(self, stream: Iterable[FrameBatch]) -> None:
        """Consume batches without the end-of-stream flush (resumable)."""
        for batch in stream:
            self.ingest_batch(batch)

    def run(self, stream: Iterable[ReceivedFrame]) -> EngineStats:
        """Consume a whole stream, drain every device, close sinks.

        The whole run executes with the engine's registry routed as
        :func:`repro.obs.current_registry`, so instrumentation anywhere
        below — the capture reader, the LP solver inside a re-fit, the
        spatial grid — reports into this engine.
        """
        return self._run(self.ingest_stream, stream)

    def run_batches(self, stream: Iterable[FrameBatch]) -> EngineStats:
        """:meth:`run`, fed by :class:`FrameBatch` slices.

        Fed by :func:`repro.sniffer.replay.iter_capture_batches`, it
        ends where :meth:`run` over
        :func:`~repro.sniffer.replay.iter_capture` of the same capture
        ends: the batches hold the same records in the same order.
        """
        return self._run(self.ingest_batches, stream)

    def _run(self, ingest: Callable[[Iterable], None],
             stream: Iterable) -> EngineStats:
        with obs.use_registry(self.registry), obs.trace("engine.run"):
            ingest(stream)
            self.drain()
            for sink in self.sinks:
                sink.close()
            self.close()
        return self.stats()

    def drain(self) -> int:
        """End-of-stream settling: catch-up re-fit, then full flush.

        Exactly what :meth:`run` does when its stream ends, callable on
        its own — the sharded service sends a drain barrier through the
        bus and each shard settles without owning the stream.  Returns
        the estimates emitted by the flush.
        """
        with obs.use_registry(self.registry):
            if self.refit_every > 0 and self._pending_refit:
                # Catch-up fit so end-of-stream evidence (and any
                # devices skipped while the model was unfitted) is not
                # lost.
                self._refit()
            return self.flush()

    def close(self) -> None:
        """End-of-run hook; the engine holds no resources to release."""

    # ------------------------------------------------------------------
    # Localize + sink stages
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Drain the entire dirty set; returns estimates emitted."""
        emitted = 0
        while self.scheduler.pending():
            emitted += self._flush_batch()
        return emitted

    def _refit(self) -> None:
        """Hand the pending Γ snapshots to the localizer's partial_fit."""
        pending = self._pending_refit
        self._pending_refit = []
        self._events_since_refit = 0
        if not self.localizer.supports_partial_fit or not pending:
            return
        # Evidence ingestion happens before the solve inside
        # partial_fit and is NOT idempotent (AP-Rad's evidence counts
        # accumulate), so a retry after a mid-solve fault must hand the
        # localizer an *empty* batch: the already-absorbed evidence
        # stays, and partial_fit([]) just re-runs the identical solve.
        batches = iter([pending])

        def attempt():
            faults.hook("engine.refit")
            batch = next(batches, [])
            with obs.use_registry(self.registry), \
                    obs.trace("engine.refit", observations=len(pending)), \
                    self._stage("fit"):
                return self.localizer.partial_fit(batch)

        try:
            estimate = self.retry.call(
                attempt, on_retry=self._count_retry("engine.refit"))
        except ReproError as error:
            # The model keeps its previous radii; estimates stay
            # answerable, just stale until the next scheduled re-fit.
            self.registry.counter("repro.engine.refit.failures",
                                  error=type(error).__name__).inc()
            return
        self._c_refits.inc()
        self._g_fit_iterations.set(int(
            getattr(estimate, "solver_iterations", 0)))
        # New radii can move every estimate: every device with a live Γ
        # goes back through localization, except a quarantined one,
        # which is never rescheduled.  The memo cache keys on
        # localizer.cache_key(), which the re-fit bumped.
        for mobile in self.gamma_state.devices():
            if (self.gamma_state.gamma(mobile)
                    and mobile not in self._quarantine):
                self.scheduler.mark_dirty(mobile)

    def _localizer_ready(self) -> bool:
        return bool(getattr(self.localizer, "is_fitted", True))

    def _flush_batch(self) -> int:
        batch = self.scheduler.next_batch()
        if not batch:
            return 0
        self._c_batches.inc()
        gammas = [self.gamma_state.gamma(mobile) for mobile in batch]
        if not self._localizer_ready():
            # Model not fitted yet (refit_every engines start cold):
            # nothing can be located.  The batch still clears — the
            # first fit marks every Γ-holding device dirty again.
            return 0
        with obs.use_registry(self.registry), \
                obs.trace("engine.flush", batch=len(batch)), \
                self._t_flush.time():
            try:
                estimates = self._locate_with_retry(gammas)
            except ReproError as error:
                return self._flush_degraded(batch, gammas, error)
            except BaseException:
                # Back in the dirty set: the next flush localizes them.
                for mobile in batch:
                    self.scheduler.mark_dirty(mobile)
                raise
            emitted = 0
            for mobile, estimate in zip(batch, estimates):
                self._failures.pop(mobile, None)
                if estimate is None:
                    self._c_unlocatable.inc()
                    continue
                timestamp = self.gamma_state.last_seen(mobile)
                with self._stage("sink"):
                    self._emit(mobile, timestamp, estimate)
                emitted += 1
        return emitted

    def _locate_with_retry(
        self, gammas: Sequence[FrozenSet[MacAddress]]
    ) -> List[Optional[LocalizationEstimate]]:
        def attempt():
            faults.hook("engine.flush")
            with self._stage("localize"):
                return self._locate_batch_memoized(gammas)

        return self.retry.call(
            attempt, on_retry=self._count_retry("engine.flush"))

    def _flush_degraded(self, batch: Sequence[MacAddress],
                        gammas: Sequence[FrozenSet[MacAddress]],
                        error: ReproError) -> int:
        """Per-device salvage after the batch path exhausted its retries.

        Devices are located one at a time, so the failure isolates to
        whichever Γ actually triggers it; healthy devices still emit.
        A device that keeps failing is re-dispatched until
        :attr:`quarantine_after` consecutive failures quarantine it.
        """
        self.registry.counter("repro.engine.flush.degraded",
                              error=type(error).__name__).inc()
        emitted = 0
        for index, (mobile, gamma) in enumerate(zip(batch, gammas)):
            try:
                faults.hook("engine.localize", key=str(mobile))
                with self._stage("localize"):
                    estimate = self.localizer.locate(gamma)
            except ReproError as device_error:
                self._record_failure(mobile, device_error)
                continue
            except BaseException:
                for mobile in batch[index:]:
                    self.scheduler.mark_dirty(mobile)
                raise
            self._failures.pop(mobile, None)
            if estimate is None:
                self._c_unlocatable.inc()
                continue
            timestamp = self.gamma_state.last_seen(mobile)
            with self._stage("sink"):
                self._emit(mobile, timestamp, estimate)
            emitted += 1
        return emitted

    def _record_failure(self, mobile: MacAddress,
                        error: BaseException) -> None:
        count = self._failures.get(mobile, 0) + 1
        self._failures[mobile] = count
        self.registry.counter("repro.engine.localize.failures",
                              error=type(error).__name__).inc()
        if self.quarantine_after and count >= self.quarantine_after:
            self._failures.pop(mobile, None)
            self._quarantine[mobile] = f"{type(error).__name__}: {error}"
            self.registry.counter("repro.engine.quarantined").inc()
        elif self.quarantine_after:
            # Bounded re-dispatch: the flush drain loop keeps retrying
            # this device until it answers or quarantines.
            self.scheduler.mark_dirty(mobile)
        # With quarantine disabled the device is not re-queued: it waits
        # for its next Γ change, so a permanently failing device cannot
        # spin the drain loop.

    def _count_retry(self, site: str):
        """The ``on_retry`` callback counting ``site``'s retries into the
        engine registry, bound on first use."""
        on_retry = self._retry_callbacks.get(site)
        if on_retry is None:
            counter = self.registry.counter("repro.engine.retries",
                                            site=site)

            def on_retry(attempt: int, error: BaseException,
                         delay: float) -> None:
                counter.inc()

            self._retry_callbacks[site] = on_retry
        return on_retry

    def quarantined(self) -> Dict[MacAddress, str]:
        """Quarantined devices and the error text that condemned them."""
        return dict(self._quarantine)

    def _locate_batch_memoized(
        self, gammas: Sequence[FrozenSet[MacAddress]]
    ) -> List[Optional[LocalizationEstimate]]:
        """One ``locate_batch`` call for a micro-batch's worth of Γ sets.

        Cache hits are resolved up front; the remaining *distinct* Γ
        sets (duplicates within a batch collapse to one computation)
        go through :meth:`Localizer.locate_batch` in one shot, and
        results merge back in the batch's submission order.
        """
        results: List[Optional[LocalizationEstimate]] = [None] * len(gammas)
        key = (self.localizer.cache_key() if self.cache is not None
               else None)
        # Insertion-ordered, so the pending list is deterministic.
        pending: Dict[FrozenSet[MacAddress], List[int]] = {}
        for index, gamma in enumerate(gammas):
            if not gamma:
                continue
            if gamma in pending:
                # Intra-batch duplicate: one computation will serve it.
                pending[gamma].append(index)
                if self.cache is not None:
                    self.cache.count_pending_hit()
                continue
            if self.cache is not None:
                cached = self.cache.get(key, gamma)
                if cached is not GammaCache.ABSENT:
                    results[index] = cached
                    continue
            pending[gamma] = [index]
        if not pending:
            return results
        order = list(pending.keys())
        estimates = self.localizer.locate_batch(order)
        for gamma, estimate in zip(order, estimates):
            if self.cache is not None:
                self.cache.put(key, gamma, estimate)
            for index in pending[gamma]:
                results[index] = estimate
        return results

    def _emit(self, mobile: MacAddress, timestamp: float,
              estimate: LocalizationEstimate) -> None:
        self._c_estimates.inc()
        latest = self.tracker.latest(mobile)
        if latest is not None and timestamp < latest.timestamp:
            # A late, out-of-order burst for an already-located device:
            # keep its fixes monotonic rather than raising mid-stream.
            timestamp = latest.timestamp
        self.tracker.emit(mobile, timestamp, estimate)
        if not self.sinks:
            return
        # The fault seam's key is formatted only when an injector is
        # armed to match on it.
        key = (str(mobile) if faults.active_injector() is not None
               else None)
        on_retry = self._count_retry("sink.emit")
        for sink in self.sinks:
            def attempt(sink=sink):
                faults.hook("sink.emit", key=key)
                sink.emit(mobile, timestamp, estimate)

            try:
                self.retry.call(attempt, on_retry=on_retry)
            except Exception as error:
                # A sink is an observer, never the pipeline: drop the
                # emission, count it, keep streaming.  The head table
                # above already holds the authoritative fix.
                self.registry.counter("repro.engine.sink.failures",
                                      error=type(error).__name__).inc()

    def invalidate_cache(self) -> None:
        """Flush the Γ memoization after an AP knowledge-base mutation.

        Counted in the engine's registry, whichever one the caller has
        routed.
        """
        if self.cache is not None:
            with obs.use_registry(self.registry):
                self.cache.invalidate()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _stage_timer(self, name: str) -> obs.Timer:
        """One stage's timer, bound on first use (lazy per-stage series:
        a stage that never runs never appears in a snapshot)."""
        timer = self._stage_timers.get(name)
        if timer is None:
            timer = self.registry.timer("repro.engine.stage.duration",
                                        stage=name)
            self._stage_timers[name] = timer
        return timer

    def _stage(self, name: str):
        """Timing context for one pipeline stage."""
        return self._stage_timer(name).time()

    def metrics_snapshot(self) -> dict:
        """The engine registry's JSON-compatible snapshot."""
        return self.registry.snapshot()

    def stats(self) -> EngineStats:
        """A consistent snapshot of every pipeline counter, read from
        :attr:`registry` (:meth:`EngineStats.from_snapshot`)."""
        return EngineStats.from_snapshot(self.registry.snapshot())

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict:
        """Serialize resumable state (Γ sets, dirty set, newest fixes)
        to JSON-compatible types.

        Each device's newest fix is held in full under ``"latest"``
        (:func:`~repro.localization.base.fix_record`: region, inflation,
        emptiness), so a restored engine serves exactly the fixes it
        served before; older fixes are not kept.  ``"metrics"`` holds
        counters and gauges only: timers measure wall time, so a resumed
        engine's start from zero.  The pseudonym linker is rebuilt from
        the live stream after restore.
        """
        latest = {}
        for mobile in self.tracker.devices():
            head = self.tracker.latest(mobile)
            latest[str(mobile)] = fix_record(head.timestamp, head.estimate)
        metrics = self.registry.snapshot()
        return {
            "engine_checkpoint": CHECKPOINT_VERSION,
            "config": {
                "window_s": self.gamma_state.window_s,
                "batch_size": self.scheduler.batch_size,
                "cache_size": (self.cache.max_entries
                               if self.cache is not None else 0),
                "refit_every": self.refit_every,
                "quarantine_after": self.quarantine_after,
            },
            "gamma": self.gamma_state.to_dict(),
            "dirty": self.scheduler.to_list(),
            "seen": sorted(str(mobile) for mobile in self._seen),
            "latest": latest,
            "metrics": {"counters": metrics["counters"],
                        "gauges": metrics["gauges"]},
            # Pending re-fit evidence: the localizer's own model (LP
            # basis, radii) is NOT serialized, so a restored engine
            # must be given a localizer refitted from the same corpus
            # — or simply re-accumulates and refits on schedule.
            "refit": {
                "events_since_refit": self._events_since_refit,
                "pending": [sorted(str(ap) for ap in gamma)
                            for gamma in self._pending_refit],
            },
            # Fault-tolerance state: a resumed run must not re-admit
            # devices the interrupted run already condemned.
            "quarantine": {str(mobile): reason
                           for mobile, reason in self._quarantine.items()},
            "failure_counts": {str(mobile): count
                               for mobile, count in self._failures.items()},
        }

    def save_checkpoint(self, path: PathLike, keep: int = 1,
                        extra: Optional[dict] = None) -> None:
        """Durably write a v5 checkpoint to ``path``.

        The file is the decimal CRC32 of the JSON payload's bytes on a
        first line, then those bytes: the payload is serialized once.
        It lands in a temp file first, is fsync'd, and replaces ``path``
        atomically — a crash at any instant leaves either the old
        checkpoint or the new one, never a torn file.  With
        ``keep > 1``, previous generations rotate logrotate-style to
        ``path.1``, ``path.2``, ... so :func:`load_checkpoint_data`
        can fall back past a checkpoint that was corrupted at rest.

        ``extra`` is caller metadata (JSON-serializable) stored under
        the payload's ``"extra"`` key, covered by the CRC, and ignored
        by :meth:`restore` — the sharded service uses it to bind a
        checkpoint to the exact ingest position it covers, atomically
        with the state itself.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        payload = self.checkpoint()
        if extra is not None:
            payload["extra"] = extra
        body = json.dumps(payload).encode("utf-8")
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(b"%d\n" % zlib.crc32(body))
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        # The crash-mid-checkpoint injection site: a fault here proves
        # the previous checkpoint at ``path`` survives intact.
        faults.hook("engine.checkpoint", key=str(path))
        if keep > 1 and path.exists():
            for generation in range(keep - 1, 0, -1):
                older = path.with_name(f"{path.name}.{generation}")
                newer = (path if generation == 1 else
                         path.with_name(f"{path.name}.{generation - 1}"))
                if newer.exists():
                    os.replace(newer, older)
        os.replace(tmp, path)

    @classmethod
    def restore(cls, data: dict, localizer: Localizer,
                sinks: Sequence[EngineSink] = ()) -> "StreamingEngine":
        """Rebuild an engine from :meth:`checkpoint` output.

        The caller supplies the localizer (algorithm state is not
        serialized); it must be configured identically to the original
        for the resumed run to match an uninterrupted one.  Only a v5
        payload restores, and every key it holds is read.  ``data`` is
        trusted: integrity is checked where a checkpoint is read from
        disk (:func:`load_checkpoint_data`).
        """
        version = data.get("engine_checkpoint")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported engine checkpoint version {version!r}")
        config = data["config"]
        engine = cls(localizer,
                     window_s=float(config["window_s"]),
                     batch_size=int(config["batch_size"]),
                     cache_size=int(config["cache_size"]),
                     sinks=sinks,
                     refit_every=int(config["refit_every"]),
                     quarantine_after=int(config["quarantine_after"]))
        engine.gamma_state = GammaState.from_dict(data["gamma"])
        engine.scheduler.restore(data["dirty"])
        engine._seen = {MacAddress.parse(m) for m in data["seen"]}
        for mobile, head in data["latest"].items():
            engine.tracker.emit(MacAddress.parse(mobile), *decode_fix(head))
        # Merging the counters makes resumed totals exactly those of an
        # uninterrupted run; timers were not saved and start from zero.
        engine.registry.merge(data["metrics"])
        engine._g_devices.set(len(engine._seen))
        if engine.cache is not None:
            # The saved gauge counted the lost cache; this one is empty.
            engine.registry.gauge("repro.engine.cache.entries").set(0)
        refit = data["refit"]
        engine._events_since_refit = int(refit["events_since_refit"])
        engine._pending_refit = [
            frozenset(MacAddress.parse(ap) for ap in gamma)
            for gamma in refit["pending"]
        ]
        engine._quarantine = {
            MacAddress.parse(mobile): str(reason)
            for mobile, reason in data["quarantine"].items()
        }
        engine._failures = {
            MacAddress.parse(mobile): int(count)
            for mobile, count in data["failure_counts"].items()
        }
        return engine

    @classmethod
    def load_checkpoint(cls, path: PathLike, localizer: Localizer,
                        sinks: Sequence[EngineSink] = (),
                        fallback: bool = True) -> "StreamingEngine":
        """Restore from ``path``, falling back through rotations.

        With ``fallback`` (the default), a corrupt or unreadable
        ``path`` does not end the campaign: :func:`load_checkpoint_data`
        walks ``path.1``, ``path.2``, ... and restores the newest
        generation that validates.
        """
        data = load_checkpoint_data(path, fallback=fallback)
        return cls.restore(data, localizer, sinks=sinks)


def _validate_checkpoint(path: Path) -> dict:
    """Integrity-check then parse one checkpoint file, raising on any
    flaw: the CRC header is checked on the raw bytes."""
    try:
        header, newline, body = path.read_bytes().partition(b"\n")
    except OSError as error:
        raise CheckpointError(
            f"unreadable checkpoint {path}: {error}") from error
    if not newline or not header.isdigit():
        raise CheckpointError(f"checkpoint {path} carries no crc32 header")
    if int(header) != zlib.crc32(body):
        raise CheckpointError(
            f"checkpoint CRC mismatch in {path} — file is corrupt")
    try:
        data = json.loads(body)
    except ValueError as error:
        raise CheckpointError(
            f"unreadable checkpoint {path}: {error}") from error
    if not isinstance(data, dict):
        raise CheckpointError(
            f"checkpoint {path} is not a JSON object")
    version = data.get("engine_checkpoint")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported engine checkpoint version {version!r} in {path}")
    return data


def load_checkpoint_data(path: PathLike, fallback: bool = True) -> dict:
    """Read the newest valid checkpoint generation at ``path``.

    Tries ``path`` itself, then — when ``fallback`` is set — each
    rotated generation ``path.1``, ``path.2``, ... in age order,
    returning the first payload that parses and passes its CRC.  When
    every candidate fails, raises :class:`~repro.faults.CheckpointError`
    naming each file tried, so the operator sees the whole story.
    """
    path = Path(path)
    candidates = [path]
    if fallback:
        generation = 1
        while path.with_name(f"{path.name}.{generation}").exists():
            candidates.append(path.with_name(f"{path.name}.{generation}"))
            generation += 1
    problems: List[str] = []
    for candidate in candidates:
        if not candidate.exists():
            problems.append(f"{candidate}: not found")
            continue
        try:
            data = _validate_checkpoint(candidate)
        except CheckpointError as error:
            problems.append(str(error))
            continue
        if candidate is not path:
            obs.current_registry().counter(
                "repro.engine.checkpoint.fallback").inc()
        return data
    raise CheckpointError(
        "no valid checkpoint found; tried: " + "; ".join(problems))
