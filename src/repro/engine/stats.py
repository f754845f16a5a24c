"""Pipeline observability: the stats snapshot.

A production engine is judged by its counters — estimates per second,
cache hit rate, where the wall time goes.  :class:`EngineStats` is the
immutable snapshot the engine hands out (and the CLI prints), a
*view* read from a :class:`~repro.obs.MetricsRegistry` snapshot by
:meth:`EngineStats.from_snapshot`: the registry is the only counter
store, for one engine and for a fleet alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs import parse_key


@dataclass(frozen=True)
class EngineStats:
    """One consistent snapshot of the engine's counters.

    Built only by :meth:`from_snapshot` — over the engine's registry
    for :meth:`StreamingEngine.stats`, over the fleet's merged snapshot
    for :meth:`ShardedEngine.stats <repro.service.ShardedEngine.stats>`
    — so the registry is the source of truth and this is the ergonomic
    read side.
    """

    frames_ingested: int = 0
    evidence_events: int = 0
    probe_requests: int = 0
    devices_seen: int = 0
    batches_flushed: int = 0
    estimates_emitted: int = 0
    unlocatable: int = 0
    cache_enabled: bool = True
    cache_hits: int = 0
    cache_misses: int = 0
    cache_entries: int = 0
    refits: int = 0
    last_fit_iterations: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    retries: int = 0
    sink_failures: int = 0
    quarantined: int = 0
    degraded: int = 0

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "EngineStats":
        """The stats held in a registry snapshot: one engine's
        :meth:`~repro.obs.MetricsRegistry.snapshot`, or a fleet's
        per-shard snapshots folded by :func:`repro.obs.merge_snapshots`.

        Counters and gauges are summed over their label sets (a fleet
        labels each shard's gauges ``shard=<index>``), except the last
        fit's iteration count, which takes the max.  ``stage_seconds``
        are the stage timers' sums, and the cache counts as enabled
        when its series are present: an engine with a cache binds them
        at construction.
        """
        totals: Dict[str, float] = {}
        iterations = 0.0
        for kind in ("counters", "gauges"):
            for key, value in snapshot[kind].items():
                name = parse_key(key)[0]
                totals[name] = totals.get(name, 0.0) + value
                if name == "repro.engine.fit.iterations":
                    iterations = max(iterations, value)
        stage_seconds: Dict[str, float] = {}
        for key, histogram in snapshot["histograms"].items():
            name, labels = parse_key(key)
            if name == "repro.engine.stage.duration":
                stage = dict(labels).get("stage", "")
                stage_seconds[stage] = (stage_seconds.get(stage, 0.0)
                                        + histogram["sum"])

        def total(*names: str) -> int:
            return int(sum(totals.get(name, 0.0) for name in names))

        return cls(
            frames_ingested=total("repro.engine.frames"),
            evidence_events=total("repro.engine.evidence"),
            probe_requests=total("repro.engine.probe_requests"),
            devices_seen=total("repro.engine.devices.seen"),
            batches_flushed=total("repro.engine.batches"),
            estimates_emitted=total("repro.engine.estimates"),
            unlocatable=total("repro.engine.unlocatable"),
            cache_enabled=any(name.startswith("repro.engine.cache.")
                              for name in totals),
            cache_hits=total("repro.engine.cache.hit"),
            cache_misses=total("repro.engine.cache.miss"),
            cache_entries=total("repro.engine.cache.entries"),
            refits=total("repro.engine.refits"),
            last_fit_iterations=int(iterations),
            stage_seconds=stage_seconds,
            retries=total("repro.engine.retries"),
            sink_failures=total("repro.engine.sink.failures"),
            quarantined=total("repro.engine.quarantined"),
            degraded=total("repro.engine.flush.degraded",
                           "repro.localization.fallback.degraded"),
        )

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def elapsed_s(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def estimates_per_sec(self) -> float:
        elapsed = self.elapsed_s
        return self.estimates_emitted / elapsed if elapsed > 0.0 else 0.0

    def to_dict(self) -> dict:
        """JSON-compatible form (what ``--metrics-json`` consumers read)."""
        return {
            "frames_ingested": self.frames_ingested,
            "evidence_events": self.evidence_events,
            "probe_requests": self.probe_requests,
            "devices_seen": self.devices_seen,
            "batches_flushed": self.batches_flushed,
            "estimates_emitted": self.estimates_emitted,
            "unlocatable": self.unlocatable,
            "cache_enabled": self.cache_enabled,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_entries": self.cache_entries,
            "refits": self.refits,
            "last_fit_iterations": self.last_fit_iterations,
            "retries": self.retries,
            "sink_failures": self.sink_failures,
            "quarantined": self.quarantined,
            "degraded": self.degraded,
            "fit_seconds": self.stage_seconds.get("fit", 0.0),
            "stage_seconds": dict(self.stage_seconds),
            "elapsed_s": self.elapsed_s,
            "estimates_per_sec": self.estimates_per_sec,
        }

    def format(self) -> str:
        """The human-readable block ``marauder engine`` prints."""
        lines = [
            "EngineStats:",
            f"  frames ingested   : {self.frames_ingested}",
            f"  evidence events   : {self.evidence_events}",
            f"  probe requests    : {self.probe_requests}",
            f"  devices seen      : {self.devices_seen}",
            f"  batches flushed   : {self.batches_flushed}",
            f"  estimates emitted : {self.estimates_emitted}",
            f"  unlocatable       : {self.unlocatable}",
        ]
        if self.cache_enabled:
            lines.append(
                f"  cache             : {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"(hit rate {self.cache_hit_rate:.1%}, "
                f"{self.cache_entries} entries)")
        else:
            lines.append("  cache             : disabled")
        if self.refits:
            lines.append(
                f"  re-fits           : {self.refits} "
                f"(last solve {self.last_fit_iterations} iterations)")
        if self.retries:
            lines.append(f"  retries           : {self.retries}")
        if self.sink_failures:
            lines.append(f"  sink failures     : {self.sink_failures}")
        if self.quarantined:
            lines.append(f"  quarantined       : {self.quarantined}")
        if self.degraded:
            lines.append(f"  degraded          : {self.degraded}")
        for name in sorted(self.stage_seconds):
            lines.append(f"  {name + ' time':18s}: "
                         f"{self.stage_seconds[name] * 1e3:.2f} ms")
        lines.append(f"  throughput        : "
                     f"{self.estimates_per_sec:.0f} estimates/s")
        return "\n".join(lines)
