"""The sharded tracking service: router, supervision, merged read side.

:class:`ShardedEngine` partitions devices across N
:class:`~repro.engine.StreamingEngine` shards by hashed device id
(:mod:`repro.service.sharding`), feeds them through a pluggable
:class:`~repro.service.bus.Bus`, and re-exposes the single-engine
surface — ``run`` / ``ingest`` / ``drain`` / ``locate`` / ``stats`` —
over the fleet:

* **Equivalence** — the router splits each
  :class:`~repro.capture.records.FrameBatch` by shard without decoding
  it (:func:`~repro.service.sharding.route_batch`), so a device's
  whole frame history lands on one shard in arrival order, and shard
  engines are plain StreamingEngines, so the final per-device
  localizations of a sharded run equal a single-engine run's,
  independent of shard count.
* **Durability** — the router retains every published message until
  the owning shard acks a checkpoint barrier covering it.  A dead shard is
  restarted (supervised by a :class:`~repro.faults.RetryPolicy`) from
  its last checkpoint, the retained tail is replayed, and because
  ingest is deterministic the restarted shard converges to exactly the
  state the crash destroyed — invisible to the rest of the fleet.
* **Merged reads** — shards answer with JSON-native results on every
  transport; ``locate()`` / ``snapshot()`` rebuild estimates with
  :func:`~repro.localization.base.decode_fix`, and
  ``metrics_snapshot()`` / ``render_prometheus()`` fold per-shard
  registry snapshots through :func:`repro.obs.merge_snapshots`, each
  shard's gauges labelled ``shard=<index>``.  ``stats()`` and
  ``drain()`` read :class:`~repro.engine.EngineStats` from that merged
  snapshot (:meth:`~repro.engine.EngineStats.from_snapshot`): the
  registries are the fleet's only counter store.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import threading
import uuid
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro import obs
from repro.capture.records import (FrameBatch, check_rows, concat_batches,
                                   encode_frames)
from repro.engine.core import load_checkpoint_data
from repro.engine.stats import EngineStats
from repro.faults import ReproError, RetryPolicy
from repro.localization.base import LocalizationEstimate, decode_fix
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.service.bus import Bus, BusTimeout, QueueBus
from repro.service.shard import LocalizerFactory, ShardConfig, run_shard
from repro.service.sharding import device_shard, route_batch
from repro.service.socketbus import SocketBus

PathLike = Union[str, Path]

MANIFEST_NAME = "service.manifest.json"
MANIFEST_VERSION = 1

#: Transport names; ``socket-process`` runs each shard as an OS process.
TRANSPORTS = ("thread", "socket", "socket-process")


class ServiceError(ReproError):
    """A sharded-service failure (dead shard, timeout, bad manifest)."""


class _ShardHandle:
    """Router-side bookkeeping for one shard."""

    def __init__(self, index: int):
        self.index = index
        self.worker = None            # Thread or Process
        self.crash_event = None       # thread workers only
        # Serializes this shard's outbox reads and request/reply pairs.
        self.lock = threading.RLock()
        # Messages published since the last acked checkpoint barrier.
        self.retention: List[FrameBatch] = []
        # Routed rows not yet published, and how many frames they hold.
        self.pending: List[FrameBatch] = []
        self.pending_frames = 0
        self.published = 0
        self.since_checkpoint = 0
        # (marker, retained messages at barrier send), one in flight.
        self.inflight_checkpoint: Optional[Tuple[int, int]] = None
        self.next_request = 0
        self.restarts = 0

    def alive(self) -> bool:
        return self.worker is not None and self.worker.is_alive()

    def retained_frames(self) -> int:
        return sum(len(message) for message in self.retention)


class ShardedEngine:
    """N StreamingEngine shards behind one bus and one serving surface.

    Parameters
    ----------
    localizer_factory:
        Zero-arg callable building one shard's localizer.  Each shard
        gets its own instance; for ``transport="socket-process"`` it
        must be picklable (``functools.partial(make_localizer, spec,
        database=db)`` is the canonical form).
    shards:
        Fleet width (>= 1).
    transport:
        ``"thread"`` (QueueBus, shared process), ``"socket"``
        (SocketBus over TCP, shard threads in this process — the
        single-host shape of a distributed fleet), or
        ``"socket-process"`` (SocketBus + one OS process per shard —
        real parallelism, connected over TCP exactly as remote shards
        would be).
    config:
        Per-shard :class:`~repro.service.shard.ShardConfig`.
    checkpoint_dir:
        Directory for per-shard checkpoint-v4 files plus the fleet
        manifest.  ``None`` disables durable checkpoints; restarts then
        replay the full retention (which is never trimmed).
    checkpoint_every:
        Send a checkpoint barrier to a shard every N published frames
        (``0`` disables scheduled barriers; explicit
        :meth:`save_checkpoints` still works).
    publish_batch:
        Frames a shard accumulates before its routed rows go out as one
        bus message — the message-count/latency trade-off knob.
    resume:
        Restore every shard from ``checkpoint_dir`` (validating the
        manifest) instead of starting cold.
    request_timeout_s:
        Serving-request deadline per shard before the router checks for
        a dead worker.
    publish_timeout_s:
        How long one bus publish may block on a full inbox before the
        router probes the consumer for death (the back-pressure /
        crash-detection latency trade-off).
    worker_join_timeout_s:
        How long :meth:`stop` / :meth:`kill_shard` wait for a worker to
        exit before giving up on the join.
    restart_retry:
        :class:`~repro.faults.RetryPolicy` supervising shard restarts.
    """

    def __init__(self, localizer_factory: LocalizerFactory,
                 shards: int = 2, transport: str = "thread",
                 config: ShardConfig = ShardConfig(),
                 bus: Optional[Bus] = None,
                 checkpoint_dir: Optional[PathLike] = None,
                 checkpoint_every: int = 0,
                 publish_batch: int = 64,
                 resume: bool = False,
                 request_timeout_s: float = 30.0,
                 publish_timeout_s: float = 1.0,
                 worker_join_timeout_s: float = 10.0,
                 restart_retry: Optional[RetryPolicy] = None,
                 registry: Optional[obs.MetricsRegistry] = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if transport not in TRANSPORTS:
            expected = ", ".join(repr(name) for name in TRANSPORTS)
            raise ValueError(
                f"transport must be one of {expected}, got "
                f"{transport!r}")
        if publish_timeout_s <= 0.0:
            raise ValueError(
                f"publish_timeout_s must be > 0, got {publish_timeout_s}")
        if worker_join_timeout_s <= 0.0:
            raise ValueError(
                f"worker_join_timeout_s must be > 0, got "
                f"{worker_join_timeout_s}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if publish_batch < 1:
            raise ValueError(
                f"publish_batch must be >= 1, got {publish_batch}")
        self.localizer_factory = localizer_factory
        self.shards = shards
        self.transport = transport
        self.config = config
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.checkpoint_every = checkpoint_every
        self.publish_batch = publish_batch
        self.request_timeout_s = request_timeout_s
        self.publish_timeout_s = publish_timeout_s
        self.worker_join_timeout_s = worker_join_timeout_s
        self.restart_retry = restart_retry if restart_retry is not None \
            else RetryPolicy(max_attempts=3, base_delay=0.05,
                             multiplier=2.0, jitter=0.0)
        self.registry = (registry if registry is not None
                         else obs.MetricsRegistry())
        # Namespaces checkpoint markers: a marker embedded by a prior
        # service run must not trim *this* run's retention.
        self.run_id = uuid.uuid4().hex
        self._c_published = self.registry.counter(
            "repro.service.frames.published")
        self._c_restarts = self.registry.counter(
            "repro.service.shard.restarts")
        self._c_barriers = self.registry.counter(
            "repro.service.checkpoint.barriers")
        self._g_inbox = [self.registry.gauge(
            "repro.service.bus.inbox_depth", shard=index)
            for index in range(shards)]
        if bus is None:
            if transport == "thread":
                bus = QueueBus(shards)
            else:
                bus = SocketBus(shards, run_id=self.run_id,
                                registry=self.registry)
        self.bus = bus
        self._handles = [_ShardHandle(index) for index in range(shards)]
        self._drained: Optional[List[dict]] = None
        self._stopped = False
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            if resume:
                self._validate_manifest()
            else:
                self._write_manifest()
        elif resume:
            raise ServiceError("resume=True requires a checkpoint_dir")
        for handle in self._handles:
            self._start_worker(handle, resume=resume)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _checkpoint_path(self, index: int) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return str(self.checkpoint_dir / f"shard-{index:03d}.ckpt.json")

    def _write_manifest(self) -> None:
        manifest = {
            "service_manifest": MANIFEST_VERSION,
            "shards": self.shards,
            "transport": self.transport,
        }
        (self.checkpoint_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8")

    def _validate_manifest(self) -> None:
        path = self.checkpoint_dir / MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise ServiceError(
                f"cannot resume: unreadable manifest {path}: {error}"
            ) from error
        stored = manifest.get("shards")
        if stored != self.shards:
            # The partition function is keyed by shard count: resuming
            # with a different width would strand device state on the
            # wrong shard.
            raise ServiceError(
                f"cannot resume: checkpoint fleet has {stored} shards, "
                f"requested {self.shards}")

    def _start_worker(self, handle: _ShardHandle, resume: bool) -> None:
        inbox, outbox = self.bus.endpoints(handle.index)
        args = (handle.index, self.localizer_factory, self.config,
                self._checkpoint_path(handle.index), resume, self.run_id,
                inbox, outbox)
        if self.transport == "socket-process":
            handle.worker = multiprocessing.Process(
                target=run_shard, args=args,
                name=f"repro-shard-{handle.index}", daemon=True)
        else:
            handle.crash_event = threading.Event()
            handle.worker = threading.Thread(
                target=run_shard, args=args + (handle.crash_event,),
                name=f"repro-shard-{handle.index}", daemon=True)
        handle.worker.start()

    def kill_shard(self, index: int) -> None:
        """Hard-kill one shard (chaos/testing): no drain, no checkpoint.

        The next interaction with the shard — a publish, a serving
        request — triggers the supervised restart path.
        """
        handle = self._handles[index]
        if self.transport == "socket-process":
            if handle.worker is not None:
                handle.worker.terminate()
                handle.worker.join(timeout=self.worker_join_timeout_s)
        else:
            if handle.crash_event is not None:
                handle.crash_event.set()
            # Wake a get()-blocked runtime so the event is observed.
            try:
                self.bus.publish(index, ("crash",),
                                 timeout=self.publish_timeout_s)
            except BusTimeout:
                pass  # full inbox: the runtime sees the event next get()
            if handle.worker is not None:
                handle.worker.join(timeout=self.worker_join_timeout_s)

    def kill_connection(self, index: int) -> bool:
        """Sever one shard's transport connection (chaos/testing).

        Socket transports only: the worker stays alive, its TCP
        connection dies mid-stream, and the heartbeat/supervised-
        reconnect machinery must stitch the streams back together with
        no loss.  Returns whether a live connection was killed.
        """
        kill = getattr(self.bus, "kill_connection", None)
        if kill is None:
            raise ServiceError(
                f"transport {self.transport!r} has no connections "
                f"to kill")
        return kill(index)

    def restart_shard(self, index: int) -> None:
        """Supervised restart: fresh endpoints, checkpoint restore,
        retention replay.

        Safe only for a dead shard (the live engine would otherwise
        fork).  Raises :class:`ServiceError` if the shard is alive.
        """
        handle = self._handles[index]
        if handle.alive():
            raise ServiceError(
                f"shard {index} is alive; kill it before restarting")

        def attempt():
            self.bus.reset(index)
            handle.inflight_checkpoint = None
            handle.since_checkpoint = 0
            path = self._checkpoint_path(index)
            resume = path is not None and Path(path).exists()
            if resume:
                # The checkpoint may cover frames whose ack died with
                # the shard; its embedded marker says exactly how far.
                # Markers fall on message boundaries.
                covered = self._covered_marker(path)
                drop = covered - (handle.published
                                  - handle.retained_frames())
                while drop > 0:
                    drop -= len(handle.retention.pop(0))
            self._start_worker(handle, resume=resume)
            # Deterministic replay of everything the checkpoint does
            # not cover; the restarted engine converges to the exact
            # pre-crash state.
            for message in handle.retention:
                self.bus.publish(index, ("frames", message))
            if not handle.alive():
                raise ServiceError(
                    f"shard {index} died during restart")

        self.restart_retry.call(attempt)
        handle.restarts += 1
        self._c_restarts.inc()
        if self._drained is not None:
            # The fleet was settled when this shard died: replay alone
            # rebuilds Γ but leaves the re-ingested devices unflushed.
            # Re-drain the survivor so its serving state (tracker,
            # cached report) is exactly what the crash destroyed.
            self._drained[index] = self._request(index, "drain")

    def _covered_marker(self, path: str) -> int:
        """The ingest position a shard's checkpoint file covers.

        Only markers stamped by *this* service run count; a prior run's
        marker is meaningless against this run's published counters.
        """
        try:
            data = load_checkpoint_data(path)
        except ReproError:
            return 0
        extra = data.get("extra") or {}
        if extra.get("service_run") != self.run_id:
            return 0
        return int(extra.get("service_marker", 0))

    def _ensure_alive(self, handle: _ShardHandle) -> None:
        if not handle.alive():
            self.restart_shard(handle.index)

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------

    def ingest(self, received: ReceivedFrame) -> None:
        """Route one frame: a batch of one."""
        self.ingest_batch(FrameBatch(*encode_frames([received])))

    def ingest_stream(self, stream: Iterable[ReceivedFrame]) -> None:
        """Route frames in ``publish_batch``-sized encoded chunks."""
        stream = iter(stream)
        while True:
            chunk = list(itertools.islice(stream, self.publish_batch))
            if not chunk:
                return
            self.ingest_batch(FrameBatch(*encode_frames(chunk)))

    def ingest_batch(self, batch: FrameBatch) -> None:
        """Route one :class:`~repro.capture.records.FrameBatch`.

        Rows are not decoded: :func:`~repro.service.sharding.\
route_batch` picks each row's shard, and each shard's rows join its
        pending messages in arrival order.  A batch not already
        ``checked`` (the wire codec checks what the gateway hands over)
        is first checked to decode, so a malformed row fails here, in
        the caller, not inside a shard.
        """
        if self._stopped:
            raise ServiceError("service is stopped")
        if len(batch) == 0:
            return
        if not batch.checked:
            check_rows(batch.records, batch.aux, batch.frame_types)
        # New traffic invalidates any cached drain report.
        self._drained = None
        owners = route_batch(batch, self.shards)
        for handle in self._handles:
            mine = owners == handle.index
            count = int(mine.sum())
            if count == 0:
                continue
            handle.pending.append(FrameBatch(batch.records[mine],
                                             batch.aux, batch.frame_types))
            handle.pending_frames += count
            if handle.pending_frames >= self.publish_batch:
                self._publish_pending(handle)

    def ingest_batches(self, stream) -> None:
        for batch in stream:
            self.ingest_batch(batch)

    def run(self, stream: Iterable[ReceivedFrame]) -> EngineStats:
        """Consume a whole stream, drain the fleet, return merged stats.

        The fleet stays up afterwards — serving requests keep working
        until :meth:`stop`.
        """
        self.ingest_stream(stream)
        return self.drain()

    def _publish_pending(self, handle: _ShardHandle) -> None:
        if not handle.pending:
            return
        with handle.lock:
            self._ensure_alive(handle)
            self._publish_pending_locked(handle)
            self._pump_acks(handle)
            if (self.checkpoint_every > 0
                    and handle.since_checkpoint >= self.checkpoint_every
                    and handle.inflight_checkpoint is None):
                self._send_barrier(handle)

    def _publish_message(self, handle: _ShardHandle, message) -> None:
        """Publish with back-pressure, surviving a mid-block crash."""
        while True:
            try:
                self.bus.publish(handle.index, message,
                                 timeout=self.publish_timeout_s)
                return
            except BusTimeout:
                if not handle.alive():
                    # The inbox filled because the consumer died;
                    # restart resets the endpoints, then re-publish.
                    self.restart_shard(handle.index)

    def _send_barrier(self, handle: _ShardHandle) -> None:
        marker = handle.published
        self._publish_message(handle, ("checkpoint", marker))
        handle.inflight_checkpoint = (marker, len(handle.retention))
        handle.since_checkpoint = 0
        self._c_barriers.inc()

    def _pump_acks(self, handle: _ShardHandle,
                   block_for: Optional[int] = None,
                   timeout: Optional[float] = None):
        """Drain the shard's outbox; return a matching reply if asked.

        Processes checkpoint acks inline (trimming retention).  With
        ``block_for`` set, blocks until the reply with that request id
        arrives or ``timeout`` elapses (:class:`BusTimeout`).
        """
        while True:
            try:
                message = self.bus.collect(
                    handle.index, block=block_for is not None,
                    timeout=timeout)
            except BusTimeout:
                if block_for is None:
                    return None
                raise
            reply = self._handle_message(handle, message)
            if reply is not None and block_for is not None \
                    and reply[0] == block_for:
                return reply[1]

    def _handle_message(self, handle: _ShardHandle, message
                        ) -> Optional[Tuple[int, object]]:
        """Process one outbox message; return (req_id, result) replies."""
        kind = message[0]
        if kind == "ckpt_ack":
            inflight = handle.inflight_checkpoint
            if inflight is not None and message[1] == inflight[0]:
                del handle.retention[:inflight[1]]
                handle.inflight_checkpoint = None
            return None
        if kind == "reply":
            # A reply nobody is waiting for (an abandoned request from
            # before a restart) is dropped by the caller.
            return message[1], message[2]
        if kind == "fatal":
            raise ServiceError(
                f"shard {handle.index} failed: {message[1]}")
        return None  # pragma: no cover - unknown message

    # ------------------------------------------------------------------
    # Serving requests
    # ------------------------------------------------------------------

    def _request(self, index: int, what: str, payload=None,
                 timeout: Optional[float] = None):
        handle = self._handles[index]
        deadline = timeout if timeout is not None else \
            self.request_timeout_s
        with handle.lock:
            self._ensure_alive(handle)
            req_id = handle.next_request
            handle.next_request += 1
            self._publish_message(handle, ("request", req_id, what,
                                           payload))
            try:
                return self._pump_acks(handle, block_for=req_id,
                                       timeout=deadline)
            except BusTimeout:
                if not handle.alive():
                    # Died mid-request: restart and retry once.
                    self.restart_shard(index)
                    req_id = handle.next_request
                    handle.next_request += 1
                    self._publish_message(
                        handle, ("request", req_id, what, payload))
                    return self._pump_acks(handle, block_for=req_id,
                                           timeout=deadline)
                raise ServiceError(
                    f"shard {index} did not answer {what!r} within "
                    f"{deadline}s") from None

    def locate(self, mobile: Union[MacAddress, str]
               ) -> Optional[Tuple[float, LocalizationEstimate]]:
        """The newest (timestamp, estimate) fix for a device, or None."""
        if isinstance(mobile, str):
            mobile = MacAddress.parse(mobile)
        index = device_shard(mobile, self.shards)
        if self._stopped:
            record = self._drained_reports()[index]["fixes"].get(
                str(mobile))
        else:
            record = self._request(index, "locate", str(mobile))
        return None if record is None else decode_fix(record)

    def _drained_reports(self) -> List[dict]:
        if self._drained is None:
            raise ServiceError("service is stopped")
        return self._drained

    def snapshot(self) -> Dict[MacAddress,
                               Tuple[float, LocalizationEstimate]]:
        """Latest fix per device, merged across the fleet."""
        if self._stopped:
            per_shard = [report["fixes"]
                         for report in self._drained_reports()]
        else:
            per_shard = [self._request(index, "snapshot")
                         for index in range(self.shards)]
        return {MacAddress.parse(mobile): decode_fix(record)
                for fixes in per_shard for mobile, record in fixes.items()}

    def health(self) -> dict:
        """Per-shard liveness + lag; never raises for a dead shard."""
        reports = []
        for handle in self._handles:
            if not handle.alive():
                reports.append({"shard": handle.index, "alive": False,
                                "restarts": handle.restarts})
                continue
            try:
                report = self._request(handle.index, "health",
                                       timeout=self.request_timeout_s)
            except (ServiceError, BusTimeout):
                report = {"shard": handle.index, "alive": False}
            report["restarts"] = handle.restarts
            report["retained_frames"] = handle.retained_frames()
            report["inbox_depth"] = self._inbox_depth(handle.index)
            reports.append(report)
        return {
            "healthy": all(r.get("alive") for r in reports),
            "shards": reports,
        }

    def stats(self) -> EngineStats:
        """Fleet stats, read from :meth:`metrics_snapshot`."""
        return EngineStats.from_snapshot(self.metrics_snapshot())

    def metrics_snapshot(self) -> dict:
        """Merged registry snapshot: every shard plus the router."""
        if self._drained is not None:
            snapshots = [result["metrics"] for result in self._drained]
        else:
            snapshots = [self._request(index, "metrics")
                         for index in range(self.shards)]
        for index in range(self.shards):
            self._inbox_depth(index)
        merged = obs.merge_snapshots(
            [_shard_gauges(snapshot, index)
             for index, snapshot in enumerate(snapshots)]
            + [self.registry.snapshot()])
        return merged.snapshot()

    def _inbox_depth(self, index: int) -> int:
        """Read one shard's inbox depth into its gauge."""
        depth = self.bus.inbox_depth(index)
        self._g_inbox[index].set(depth)
        return depth

    def render_prometheus(self) -> str:
        """One Prometheus text exposition for the whole fleet."""
        merged = obs.MetricsRegistry()
        merged.merge(self.metrics_snapshot())
        return merged.render_prometheus()

    # ------------------------------------------------------------------
    # Drain / checkpoint / stop
    # ------------------------------------------------------------------

    def flush_publishes(self) -> None:
        """Push every batched-but-unpublished frame onto the bus."""
        for handle in self._handles:
            self._publish_pending(handle)

    def drain(self) -> EngineStats:
        """Settle the whole fleet (pending publishes, refits, flushes).

        Caches each shard's drain report — fixes and metrics — as it
        arrived, so the read side keeps answering after :meth:`stop`
        and decodes fixes only when they are read.  Returns
        :meth:`stats` over the drained reports.
        """
        self.flush_publishes()
        self._drained = [self._request(index, "drain")
                         for index in range(self.shards)]
        return self.stats()

    def save_checkpoints(self, timeout: Optional[float] = None) -> None:
        """Synchronous checkpoint barrier across the fleet.

        Returns once every shard's checkpoint covers every frame
        published to it: a barrier already in flight covers only the
        frames before it, so its ack is followed by a fresh barrier
        while frames stay retained.
        """
        if self.checkpoint_dir is None:
            raise ServiceError(
                "save_checkpoints requires a checkpoint_dir")
        deadline = timeout if timeout is not None else \
            self.request_timeout_s
        for handle in self._handles:
            with handle.lock:
                self._ensure_alive(handle)
                self._publish_pending_locked(handle)
                if handle.inflight_checkpoint is None:
                    self._send_barrier(handle)
                while handle.inflight_checkpoint is not None:
                    try:
                        message = self.bus.collect(handle.index,
                                                   timeout=deadline)
                    except BusTimeout:
                        raise ServiceError(
                            f"shard {handle.index} did not ack its "
                            f"checkpoint within {deadline}s") from None
                    self._handle_message(handle, message)
                    if (handle.inflight_checkpoint is None
                            and handle.retention):
                        self._send_barrier(handle)

    def _publish_pending_locked(self, handle: _ShardHandle) -> None:
        """Publish pending rows as one message (caller holds the lock)."""
        if not handle.pending:
            return
        message = concat_batches(handle.pending)
        handle.pending = []
        handle.pending_frames = 0
        self._publish_message(handle, ("frames", message))
        handle.retention.append(message)
        handle.published += len(message)
        handle.since_checkpoint += len(message)
        self._c_published.inc(len(message))

    def stop(self) -> None:
        """Graceful shutdown: drain if needed, stop workers, close bus."""
        if self._stopped:
            return
        if self._drained is None:
            try:
                self.drain()
            except (ServiceError, BusTimeout):  # pragma: no cover
                pass
        for handle in self._handles:
            if handle.alive():
                try:
                    self._publish_message(handle, ("stop",))
                except (ServiceError, BusTimeout):  # pragma: no cover
                    continue
        for handle in self._handles:
            if handle.worker is not None:
                handle.worker.join(timeout=self.worker_join_timeout_s)
        self._stopped = True
        self.bus.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def _shard_gauges(snapshot: dict, index: int) -> dict:
    """``snapshot`` with each gauge that no ``shard`` label names
    labelled ``shard=<index>``: a merge keeps a gauge's last value, so
    every shard's gauge must be its own series."""
    labelled = obs.MetricsRegistry()
    for key, value in snapshot["gauges"].items():
        name, labels = obs.parse_key(key)
        labelled.gauge(name, **{"shard": index, **dict(labels)}).set(value)
    return {**snapshot, "gauges": labelled.snapshot()["gauges"]}
