#!/usr/bin/env python3
"""The pipeline benchmark: one workload, end-to-end or per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload short-gamma --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` repeats untraced passes for ``--seconds`` and reports the
end-to-end metrics (medians over passes; fix lags pooled over passes).
``--trace 1`` runs an untraced pass, a traced pass and another untraced
pass, and reports the per-layer metrics of the traced one.  Every pass
is checked against the single-engine record-path oracle.  The last
stdout line is the JSON result; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up-only builds before each pass, beside the one every pass
#: times.  A fleet build starts and stops threads and sockets, so it
#: gets fewer.
SETUP_REPEATS = 10
FLEET_SETUP_REPEATS = 2


def prepare(workload, seed: int) -> None:
    """Write the corpus and its oracle fixes into the cache."""
    from corpus import corpus_path, oracle_fixes
    corpus_path(workload.spec, seed)
    oracle_fixes(workload, seed)


def check(result, oracle) -> dict:
    """Failure counts for one pass: every kind counts against frames."""
    from workloads import mismatches
    failures = dict(result.failures)
    failures["frames_lost"] = abs(result.frames_offered
                                  - result.frames_ingested)
    failures["fix_mismatches"] = mismatches(result.fixes, oracle)
    return failures


def end_to_end(workload, path, oracle, seconds: float, scratch: Path):
    from layers import Tracer
    from workloads import run_pass, time_setup

    # Set-up-only builds interleave with the passes, so their median
    # samples the whole run, not one moment of it.
    repeats = FLEET_SETUP_REPEATS if workload.fleet else SETUP_REPEATS
    setups, passes, failures = [], [], []
    began = time.perf_counter()
    while True:
        started = time.perf_counter()
        # Each pass starts from a clean heap, not the last pass's garbage.
        gc.collect()
        setups += [time_setup(workload, scratch) for _ in range(repeats)]
        result = run_pass(workload, path, Tracer(False), scratch)
        passes.append(result)
        failures.append(check(result, oracle))
        print(f"pass {len(passes)}: {result.frames_ingested} frames in "
              f"{result.wall_s:.3f} s, {len(result.lags_s)} fixes, "
              f"failures {sum(failures[-1].values())}", flush=True)
        now = time.perf_counter()
        if now - began + (now - started) > seconds:
            break
    lags_ms = [lag * 1e3 for result in passes for lag in result.lags_s]
    metrics = {
        "frames_per_s": statistics.median(
            r.frames_ingested / r.wall_s for r in passes),
        "fix_lag_p50_ms": statistics.median(lags_ms),
        "fix_lag_p90_ms": statistics.quantiles(
            lags_ms, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setups + [r.setup_s for r in passes]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, failures, metrics, {}


def per_layer(workload, path, oracle, scratch: Path):
    from repro import obs
    from layers import SpanTable, Tracer, traced_functions
    from workloads import (FLEET_CRITICAL, LAYERS, SINGLE_CRITICAL,
                           run_pass)

    warm = run_pass(workload, path, Tracer(False), scratch)
    tracer = Tracer(True)
    obs.default_recorder().clear()
    with obs.use_recorder(tracer.recorder), traced_functions(tracer):
        traced = run_pass(workload, path, tracer, scratch)
    cool = run_pass(workload, path, Tracer(False), scratch)
    passes = [warm, traced, cool]
    failures = [check(result, oracle) for result in passes]
    spans = tracer.spans()
    merged = obs.SpanRecorder(len(spans) or 1)
    for span in spans:
        merged.record(span)
    merged.export_chrome(scratch.parent / f"trace-{workload.name}.json")

    table = SpanTable(spans, LAYERS)
    critical = FLEET_CRITICAL if workload.fleet else SINGLE_CRITICAL
    thread = table.thread_of(critical[0])
    self_sum, top_sum = table.critical_sums(thread, critical)
    wall = traced.wall_s
    other = wall - self_sum
    additive = (abs(self_sum - top_sum) <= 1e-6 * (1 + len(spans))
                and top_sum <= wall and table.min_self_s >= -1e-6)
    print(f"critical path: layers {self_sum:.4f} s + other {other:.4f} s "
          f"= wall {wall:.4f} s ({'adds up' if additive else 'BROKEN'})",
          flush=True)

    stats, registry = traced.stats, traced.metrics
    counters = registry.get("counters", {})
    histograms = registry.get("histograms", {})

    def counter(name):
        return sum(v for k, v in counters.items()
                   if obs.parse_key(k)[0] == name)

    def hist_sum(name, **labels):
        want = set(labels.items())
        return sum(h["sum"] for k, h in histograms.items()
                   if obs.parse_key(k)[0] == name
                   and want <= set(obs.parse_key(k)[1]))

    sizes = [args["size"] for args in table.args["gamma.observe"]]
    lookups = stats.cache_hits + stats.cache_misses
    localizers = traced.localizers
    located = sum(loc.located for loc in localizers)
    stage_s = hist_sum("repro.engine.stage.duration")
    probes = table.calls["mloc.probe"]
    frames = traced.shard_frames
    s = table.self_s
    metrics = {
        "capture.read_s": s["capture.read"],
        "capture.records": traced.frames_offered,
        "engine.ingest_s": s["engine.ingest"],
        "engine.evidence": stats.evidence_events,
        "engine.probe_requests": stats.probe_requests,
        "engine.flushes": stats.batches_flushed,
        "engine.stage_share": stage_s / wall,
        "cache.hit_rate": stats.cache_hits / lookups if lookups else 0.0,
        "gamma.observe_s": table.total_s["gamma.observe"],
        "gamma.observe_calls": table.calls["gamma.observe"],
        "gamma.size_p50": statistics.median(sizes) if sizes else 0,
        "gamma.size_max": max(sizes, default=0),
        "localize.s": s["localize"],
        "localize.gammas": sum(loc.gammas for loc in localizers),
        "mloc.probes": probes,
        "mloc.probe_s": table.total_s["mloc.probe"],
        "mloc.probes_per_fix": (probes / traced.sink_fixes
                                if traced.sink_fixes else 0.0),
        "mloc.inflated_frac": (sum(loc.inflated for loc in localizers)
                               / located if located else 0.0),
        "fit.s": s["fit"],
        "fit.refits": stats.refits,
        "lp.pivots": counter("repro.lp.revised.pivots"),
        "lp.refactorizations": counter("repro.lp.revised.refactorizations"),
        "lp.solve_s": hist_sum("repro.localization.radius_fit.duration"),
        "sink.s": s["sink"],
        "sink.fixes": traced.sink_fixes,
        "checkpoint.s": s["checkpoint"],
        "checkpoint.bytes": traced.checkpoint_bytes,
        "checkpoint.count": (counter("repro.service.shard.checkpoints")
                             if workload.fleet else table.calls["checkpoint"]),
        "gateway.ingest_s": s["gateway.ingest"],
        "route.s": s["route"],
        "bus.publish_s": s["bus.publish"],
        "bus.messages": traced.bus_messages,
        "wire.pack_s": table.total_s["wire.pack"],
        "wire.unpack_s": table.total_s["wire.unpack"],
        "wire.bytes": sum(args["bytes"] for args in table.args["wire.pack"]),
        "drain.s": s["drain"],
        "shard.busy_s": stage_s if workload.fleet else 0.0,
        "shard.skew": (max(frames) / statistics.mean(frames) - 1.0
                       if frames and sum(frames) else 0.0),
        "socket.reconnects": counter("repro.socket.reconnects"),
        "ingest.duplicates": counter("repro.ingest.duplicates"),
        "other_s": other,
        "other.share": other / wall,
        "trace.wall_s": wall,
        "trace.overhead": wall / min(warm.wall_s, cool.wall_s) - 1.0,
    }
    return passes, failures, metrics, {"additive": additive}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from corpus import CACHE_DIR, corpus_path, oracle_fixes
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.prepare:
        prepare(workload, args.seed)
        return 0
    # One CPU for the whole measurement: the fleet's router, client and
    # shard threads then contend for the interpreter lock, not for cores
    # the host shares, which made fleet passes up to 1.6x apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Corpus generation and the oracle run in a child process, so their
    # memory never reaches this process's peak_rss_mb.
    subprocess.run([sys.executable, __file__, "--prepare",
                    "--workload", workload.name, "--seed", str(args.seed)],
                   check=True, timeout=170)
    path = corpus_path(workload.spec, args.seed)
    oracle = oracle_fixes(workload, args.seed)
    scratch = CACHE_DIR / f"run-{os.getpid()}"
    try:
        if args.trace:
            passes, failures, metrics, extra = per_layer(
                workload, path, oracle, scratch)
        else:
            passes, failures, metrics, extra = end_to_end(
                workload, path, oracle, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    totals = {}
    for counts in failures:
        for kind, count in counts.items():
            totals[kind] = totals.get(kind, 0) + int(count)
    failed = sum(totals.values())
    # BENCHMARK.json is the one list of metric names and units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in
             declared["per_layer" if args.trace else "end_to_end"]}
    for name, unit in units.items():
        print(f"{name:24s} {metrics[name]:>16.6g} {unit}")
    print(f"failures: {totals}")
    print(json.dumps({
        "correct": failed == 0 and extra.get("additive", True),
        "attempted": sum(result.frames_offered for result in passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
