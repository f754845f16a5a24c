"""The four workloads and one measured pass of each.

A pass is one closed loop over the whole corpus: a single producer
hands capture batches to the engine (or, for the fleet, streams them
to the gateway over one client connection) as fast as they are
accepted, then drains until the fixes are readable.  Each pass builds
its system from scratch, so ``setup_s`` is timed every pass.
"""

from __future__ import annotations

import functools
import shutil
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro import obs
from repro.engine import StreamingEngine, make_sink
from repro.localization import MLoc
from repro.localization.aprad import APRad
from repro.service import (FrameIngestServer, ShardConfig, ShardedEngine,
                           SocketBus, stream_capture_to)
from repro.sniffer.replay import iter_capture_batches

from corpus import CorpusSpec, build_database, fixes_of_tracker
from layers import (GatewayEngine, LagSink, TimedBus, TimedLocalizer,
                    TimedSink, Tracer, fix_lags)

#: AP-Rad's deterministic objective perturbation: makes the radius LP
#: optimum unique, so every ingest path refits to identical radii.
TIE_BREAK = 1e-6

#: Container layers on the critical path: their self times plus
#: ``other_s`` add up to the wall time.  Single-engine passes run them
#: all on the producer thread; a fleet's router-side layers run on the
#: gateway's client thread while the client and shard threads overlap
#: them under the same interpreter lock.  The per-call wrappers
#: (``gamma.observe`` inside ``engine.ingest``, ``mloc.probe`` inside
#: ``localize``, ``wire.*`` on every thread) are reported inclusively,
#: beside the sum.
SINGLE_CRITICAL = ("capture.read", "engine.ingest", "localize", "fit",
                   "sink", "drain", "checkpoint")
FLEET_CRITICAL = ("gateway.ingest", "route", "bus.publish", "drain")
LAYERS = frozenset(SINGLE_CRITICAL + FLEET_CRITICAL)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: CorpusSpec
    localizer: str = "m-loc"
    refit_every: int = 0
    #: Fleet workloads stream through a gateway into socket shards.
    fleet: bool = False
    checkpoint_every: int = 0
    batch_records: int = 1024

    def make_localizer(self):
        if self.localizer == "m-loc":
            return MLoc(build_database(self.spec.grid))
        return APRad(build_database(self.spec.grid, ranges=False),
                     r_max=200.0, solver="revised", tie_break=TIE_BREAK)

    def engine_options(self) -> dict:
        return {"window_s": 600.0, "batch_size": 32,
                "refit_every": self.refit_every}

    def engine_key(self) -> list:
        return [self.localizer, TIE_BREAK, self.engine_options()]


#: Why each workload exists, and what it exercises and bypasses, is
#: set out in README.md beside this file.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("short-gamma",
             CorpusSpec(devices=5_000, records_per_device=20)),
    Workload("large-gamma",
             CorpusSpec(devices=40, records_per_device=500)),
    Workload("aprad-refit",
             CorpusSpec(devices=1_600, records_per_device=20, grid=8,
                        seeded_walk=False),
             localizer="ap-rad", refit_every=5_000),
    Workload("fleet-gateway",
             CorpusSpec(devices=1_000, records_per_device=20),
             fleet=True, checkpoint_every=5_000, batch_records=128),
)}


@dataclass
class PassResult:
    wall_s: float
    setup_s: float
    frames_offered: int
    frames_ingested: int
    fixes: Dict[str, tuple]
    lags_s: List[float]
    #: failure kind -> count (all zero on a healthy pass)
    failures: Dict[str, int]
    stats: object = None
    metrics: dict = field(default_factory=dict)
    localizers: List[TimedLocalizer] = field(default_factory=list)
    sink_fixes: int = 0
    checkpoint_bytes: int = 0
    bus_messages: int = 0
    shard_frames: List[int] = field(default_factory=list)


def _counter(metrics: dict, name: str) -> float:
    return sum(value for key, value in metrics.get("counters", {}).items()
               if obs.parse_key(key)[0] == name)


def _engine_failures(stats) -> Dict[str, int]:
    return {"quarantined": stats.quarantined,
            "sink_failures": stats.sink_failures,
            "retries": stats.retries}


def _engine(workload: Workload, tracer: Tracer, lag: LagSink
            ) -> StreamingEngine:
    return StreamingEngine(
        TimedLocalizer(workload.make_localizer(), tracer),
        sinks=[TimedSink(make_sink("latest"), tracer),
               TimedSink(lag, tracer)],
        **workload.engine_options())


def run_single(workload: Workload, path: Path, tracer: Tracer,
               scratch: Path) -> PassResult:
    """One StreamingEngine pass over the columnar corpus."""
    start = time.perf_counter()
    lag = LagSink()
    engine = _engine(workload, tracer, lag)
    setup_s = time.perf_counter() - start
    checkpoint = scratch / "engine.ckpt.json"
    handoffs = []
    start = time.perf_counter()
    with obs.use_registry(engine.registry):
        batches = iter_capture_batches(path,
                                       batch_records=workload.batch_records)
        while True:
            with tracer.span("capture.read"):
                batch = next(batches, None)
            if batch is None:
                break
            handoffs.append((float(batch.records["rx_ts"][0]),
                             time.perf_counter()))
            with tracer.span("engine.ingest"):
                engine.ingest_batch(batch)
        with tracer.span("drain"):
            engine.drain()
        for sink in engine.sinks:
            sink.close()
        engine.close()
        with tracer.span("checkpoint"):
            engine.save_checkpoint(checkpoint)
    wall_s = time.perf_counter() - start
    stats = engine.stats()
    return PassResult(
        wall_s=wall_s, setup_s=setup_s,
        frames_offered=workload.spec.records,
        frames_ingested=stats.frames_ingested,
        fixes=fixes_of_tracker(engine.tracker),
        lags_s=fix_lags(lag.events, handoffs),
        failures=_engine_failures(stats),
        stats=stats, metrics=engine.metrics_snapshot(),
        localizers=[engine.localizer], sink_fixes=len(lag.events),
        checkpoint_bytes=checkpoint.stat().st_size)


class Fleet:
    """A socket-transport fleet behind a network ingest gateway."""

    def __init__(self, workload: Workload, tracer: Tracer,
                 checkpoint_dir: Path):
        self.localizers: List[TimedLocalizer] = []
        self.lag = LagSink()
        registry = obs.MetricsRegistry()
        self.bus = TimedBus(SocketBus(2, registry=registry), tracer)
        self.fleet = ShardedEngine(
            functools.partial(self._localizer, workload, tracer),
            shards=2, transport="socket", bus=self.bus,
            config=ShardConfig(**workload.engine_options(),
                               sink_specs=(TimedSink(self.lag, tracer),)),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=workload.checkpoint_every,
            registry=registry)
        self.gateway = GatewayEngine(self.fleet, tracer)
        self.server = FrameIngestServer(self.gateway, registry=registry)

    def _localizer(self, workload: Workload, tracer: Tracer):
        localizer = TimedLocalizer(workload.make_localizer(), tracer)
        self.localizers.append(localizer)
        return localizer

    def close(self) -> None:
        self.server.close()
        self.fleet.stop()


def run_fleet(workload: Workload, path: Path, tracer: Tracer,
              scratch: Path) -> PassResult:
    """One gateway-fed socket fleet pass; ends at the BYE ack."""
    checkpoint_dir = scratch / "fleet"
    start = time.perf_counter()
    fleet = Fleet(workload, tracer, checkpoint_dir)
    setup_s = time.perf_counter() - start
    try:
        if tracer.enabled:
            route = fleet.fleet.ingest

            def traced_route(received):
                with tracer.span("route"):
                    route(received)

            fleet.fleet.ingest = traced_route
        start = time.perf_counter()
        sent = stream_capture_to(path, fleet.server.address,
                                 batch_records=workload.batch_records,
                                 client_id=f"perfbench-{uuid.uuid4().hex}")
        wall_s = time.perf_counter() - start
        snapshot = fleet.fleet.snapshot()
        health = fleet.fleet.health()
        stats = fleet.fleet.stats()
        metrics = fleet.fleet.metrics_snapshot()
    finally:
        fleet.close()
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    failures = _engine_failures(stats)
    failures.update({
        "client_reconnects": sent.reconnects,
        "client_resends": sent.batches_resent,
        "socket_reconnects": int(_counter(metrics,
                                          "repro.socket.reconnects")),
        "gateway_duplicates": int(_counter(metrics,
                                           "repro.ingest.duplicates")),
    })
    return PassResult(
        wall_s=wall_s, setup_s=setup_s,
        frames_offered=workload.spec.records,
        frames_ingested=stats.frames_ingested,
        fixes={str(mobile): (ts, estimate.position.x, estimate.position.y)
               for mobile, (ts, estimate) in snapshot.items()},
        lags_s=fix_lags(fleet.lag.events, fleet.gateway.handoffs),
        failures=failures, stats=stats, metrics=metrics,
        localizers=fleet.localizers, sink_fixes=len(fleet.lag.events),
        bus_messages=fleet.bus.messages,
        shard_frames=[int(shard.get("frames_ingested", 0))
                      for shard in health["shards"]])


def run_pass(workload: Workload, path: Path, tracer: Tracer,
             scratch: Path) -> PassResult:
    scratch.mkdir(parents=True, exist_ok=True)
    runner = run_fleet if workload.fleet else run_single
    return runner(workload, path, tracer, scratch)


def time_setup(workload: Workload, scratch: Path) -> float:
    """Build (and tear down) the workload's system once; seconds."""
    tracer = Tracer(False)
    start = time.perf_counter()
    if workload.fleet:
        fleet = Fleet(workload, tracer, scratch / "setup")
        elapsed = time.perf_counter() - start
        fleet.close()
        shutil.rmtree(scratch / "setup", ignore_errors=True)
        return elapsed
    _engine(workload, tracer, LagSink())
    return time.perf_counter() - start


def mismatches(fixes: Dict[str, tuple], oracle: Dict[str, tuple]) -> int:
    """Devices whose final fix differs from the oracle's (or is
    missing on either side)."""
    devices = set(fixes) | set(oracle)
    return sum(1 for device in devices
               if fixes.get(device) != oracle.get(device))

