"""The streaming localization engine (``repro.engine``).

Turns the batch pieces — capture replay, localizers, tracker, display —
into a live pipeline: frames stream in, per-device Γ sets update
incrementally, a dirty-set scheduler re-localizes only devices whose
neighborhood changed (in micro-batches, through a Γ-set memoization
cache), and estimates fan out to pluggable sinks.  See
:mod:`repro.engine.core` for the stage diagram and DESIGN.md for the
memoization invariant.
"""

from repro.engine.cache import GammaCache
from repro.engine.core import (
    StreamingEngine,
    load_checkpoint_data,
)
from repro.engine.ingest import Evidence, GammaState, extract_evidence
from repro.engine.reorder import ReorderBuffer
from repro.engine.scheduler import MicroBatchScheduler
from repro.engine.sinks import (
    CallbackSink,
    EngineSink,
    FanoutSink,
    LatestFixSink,
    NullSink,
    RendererSink,
    TrackerSink,
    make_sink,
    sink_names,
)
from repro.engine.stats import EngineStats

__all__ = [
    "StreamingEngine",
    "load_checkpoint_data",
    "GammaCache",
    "GammaState",
    "Evidence",
    "extract_evidence",
    "MicroBatchScheduler",
    "ReorderBuffer",
    "EngineStats",
    "EngineSink",
    "TrackerSink",
    "CallbackSink",
    "LatestFixSink",
    "NullSink",
    "RendererSink",
    "FanoutSink",
    "make_sink",
    "sink_names",
]
