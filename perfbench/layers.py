"""Measurement from outside the program: proxies, wrappers, span maths.

Every number here is taken at a public seam.  Untraced runs use only
the proxies' counters and hand-off clocks; the traced run also records
an ``obs.trace`` span per call into a private :class:`SpanRecorder` and
temporarily wraps four hot functions (``GammaState.observe``,
``kernels.nonempty_at_scale``, ``wire.pack_data`` and
``wire.unpack_data``).  A container layer's self time is its span time
minus the time its nearest container child spans cover; the engine's
own spans (``engine.flush``, ``engine.refit``) and the per-call
wrappers are transparent.
"""

from __future__ import annotations

import contextlib
import time
from bisect import bisect_right
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine import EngineSink
from repro.engine.ingest import GammaState
from repro.geometry import kernels
from repro.localization.base import Localizer
from repro.service import wire

#: Enough for every span of the largest traced pass; a ring that
#: wrapped would silently lose parents, so overflow is an error.
SPAN_CAPACITY = 2_000_000

_NULL = contextlib.nullcontext()


class Tracer:
    """Span factory: real ``obs.trace`` spans when enabled, else no-ops."""

    def __init__(self, enabled: bool):
        self.recorder = (obs.SpanRecorder(SPAN_CAPACITY) if enabled
                         else None)

    @property
    def enabled(self) -> bool:
        return self.recorder is not None

    def span(self, name: str):
        if self.recorder is None:
            return _NULL
        return obs.trace(name, recorder=self.recorder)

    def spans(self) -> List[obs.Span]:
        """This tracer's spans merged with the default recorder's.

        ``use_recorder`` is thread-local, so engine spans opened on
        shard threads land in ``obs.default_recorder()``; they are
        needed to resolve parent links.
        """
        spans = self.recorder.spans() + obs.default_recorder().spans()
        if len(self.recorder) >= SPAN_CAPACITY:
            raise RuntimeError("span recorder overflowed; raise "
                               "SPAN_CAPACITY")
        return spans


@contextlib.contextmanager
def traced_functions(tracer: Tracer):
    """Wrap the four hot functions for one traced pass, then restore."""
    observe = GammaState.observe
    nonempty = kernels.nonempty_at_scale
    pack, unpack = wire.pack_data, wire.unpack_data

    def traced_observe(self, evidence):
        with tracer.span("gamma.observe") as span:
            gamma = observe(self, evidence)
            span.args["size"] = len(gamma)
        return gamma

    def traced_nonempty(geom, scale):
        with tracer.span("mloc.probe"):
            return nonempty(geom, scale)

    def traced_pack(seq, message):
        with tracer.span("wire.pack") as span:
            payload = pack(seq, message)
            span.args["bytes"] = len(payload)
        return payload

    def traced_unpack(payload):
        with tracer.span("wire.unpack"):
            return unpack(payload)

    GammaState.observe = traced_observe
    kernels.nonempty_at_scale = traced_nonempty
    wire.pack_data, wire.unpack_data = traced_pack, traced_unpack
    try:
        yield
    finally:
        GammaState.observe = observe
        kernels.nonempty_at_scale = nonempty
        wire.pack_data, wire.unpack_data = pack, unpack


class TimedLocalizer(Localizer):
    """Delegates to a real localizer; spans ``localize`` and ``fit``."""

    def __init__(self, inner: Localizer, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.gammas = 0
        self.located = 0
        self.inflated = 0

    @property
    def supports_partial_fit(self) -> bool:
        return self.inner.supports_partial_fit

    @property
    def is_fitted(self) -> bool:
        return self.inner.is_fitted

    def cache_key(self) -> str:
        return self.inner.cache_key()

    def partial_fit(self, observations):
        with self.tracer.span("fit"):
            return self.inner.partial_fit(observations)

    def locate(self, observed):
        return self.locate_batch([observed])[0]

    def locate_batch(self, observations, executor=None, supervisor=None):
        with self.tracer.span("localize"):
            results = self.inner.locate_batch(
                observations, executor=executor, supervisor=supervisor)
        self.gammas += len(results)
        for estimate in results:
            if estimate is not None:
                self.located += 1
                if estimate.inflation_factor > 1.0:
                    self.inflated += 1
        return results


class TimedSink(EngineSink):
    """Spans ``sink`` around another sink's emit."""

    def __init__(self, inner: EngineSink, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def emit(self, mobile, timestamp, estimate) -> None:
        with self.tracer.span("sink"):
            self.inner.emit(mobile, timestamp, estimate)

    def close(self) -> None:
        self.inner.close()


class LagSink(EngineSink):
    """Records (device, evidence time, emit clock) for every fix.

    List appends are atomic under the interpreter lock, so one instance
    serves every shard thread of a fleet.
    """

    def __init__(self):
        self.events: List[Tuple[object, float, float]] = []

    def emit(self, mobile, timestamp, estimate) -> None:
        self.events.append((mobile, timestamp, time.perf_counter()))


class TimedBus:
    """A Bus proxy: counts and spans ``publish``, delegates the rest."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.messages = 0

    def publish(self, shard, message, timeout=None) -> None:
        self.messages += 1
        with self.tracer.span("bus.publish"):
            self.inner.publish(shard, message, timeout=timeout)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class GatewayEngine:
    """The engine a ``FrameIngestServer`` feeds: forwards to a fleet.

    Records each batch's hand-off clock (entry to ``ingest_batch``) and
    spans ``gateway.ingest`` and ``drain``.
    """

    def __init__(self, fleet, tracer: Tracer):
        self.fleet = fleet
        self.tracer = tracer
        self.registry = fleet.registry
        self.handoffs: List[Tuple[float, float]] = []

    def ingest_batch(self, batch) -> None:
        handoff = time.perf_counter()
        with self.tracer.span("gateway.ingest"):
            first = next(iter(batch.iter_frames()), None)
            if first is not None:
                self.handoffs.append((first.rx_timestamp, handoff))
            self.fleet.ingest_batch(batch)

    def drain(self):
        with self.tracer.span("drain"):
            return self.fleet.drain()


def fix_lags(events: Iterable[Tuple[object, float, float]],
             handoffs: Sequence[Tuple[float, float]]) -> List[float]:
    """Seconds from each fix's evidence hand-off to its first emission.

    ``handoffs`` holds (first rx time, hand-off clock) per batch in
    capture order, so the batch holding an evidence frame is found by
    bisecting its rx time.  Only the first fix per (device, evidence
    time) counts: a re-localization after a refit is not a new fix.
    """
    starts = [start for start, _ in handoffs]
    first: Dict[Tuple[object, float], float] = {}
    for mobile, evidence_ts, emitted in events:
        key = (mobile, evidence_ts)
        if key not in first or emitted < first[key]:
            first[key] = emitted
    lags = []
    for (_, evidence_ts), emitted in first.items():
        index = bisect_right(starts, evidence_ts) - 1
        lags.append(emitted - handoffs[index][1])
    return lags


class SpanTable:
    """Per-layer totals derived from a set of recorded spans.

    ``layers`` are the container layers: each gets a self time, its
    span time minus what its nearest container descendants cover.
    Every other span (the engine's own, and the per-call wrappers such
    as ``gamma.observe``) is transparent to that arithmetic and only
    totalled, inclusively, by name.
    """

    def __init__(self, spans: Sequence[obs.Span], layers: Iterable[str]):
        layers = set(layers)
        by_id = {span.span_id: span for span in spans}

        def layer_parent(span) -> Optional[obs.Span]:
            parent_id = span.parent_id
            while parent_id is not None:
                parent = by_id.get(parent_id)
                if parent is None:
                    return None
                if parent.name in layers:
                    return parent
                parent_id = parent.parent_id
            return None

        #: name -> inclusive seconds, span count, recorded span args
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.args: Dict[str, List[dict]] = defaultdict(list)
        mine = []
        for span in spans:
            self.total_s[span.name] += span.duration_s
            self.calls[span.name] += 1
            if span.args:
                self.args[span.name].append(span.args)
            if span.name in layers:
                mine.append(span)
        covered: Dict[int, float] = defaultdict(float)
        parents = {}
        for span in mine:
            parent = layer_parent(span)
            parents[span.span_id] = parent
            if parent is not None:
                covered[parent.span_id] += span.duration_s
        #: name -> seconds not covered by child layer spans
        self.self_s: Dict[str, float] = defaultdict(float)
        #: (thread, name) -> self seconds, for critical-path sums
        self.thread_self_s: Dict[Tuple[int, str], float] = defaultdict(float)
        #: (thread, name) -> seconds of spans with no layer ancestor
        self.thread_top_s: Dict[Tuple[int, str], float] = defaultdict(
            float)
        self.min_self_s = 0.0
        for span in mine:
            own = span.duration_s - covered[span.span_id]
            self.min_self_s = min(self.min_self_s, own)
            self.self_s[span.name] += own
            self.thread_self_s[(span.thread_id, span.name)] += own
            if parents[span.span_id] is None:
                self.thread_top_s[(span.thread_id, span.name)] += (
                    span.duration_s)

    def thread_of(self, name: str) -> Optional[int]:
        """The thread that recorded the most ``name`` self time."""
        candidates = [(seconds, thread) for (thread, layer), seconds
                      in self.thread_self_s.items() if layer == name]
        return max(candidates)[1] if candidates else None

    def critical_sums(self, thread: int, names: Iterable[str]
                      ) -> Tuple[float, float]:
        """(self seconds, top-level span seconds) of ``names`` on one
        thread.  They agree exactly when no other layer runs nested
        inside the critical ones, i.e. when the layers add up."""
        names = list(names)
        return (sum(self.thread_self_s.get((thread, name), 0.0)
                    for name in names),
                sum(self.thread_top_s.get((thread, name), 0.0)
                    for name in names))
