"""Command-line interface for the digital Marauder's map.

Subcommands::

    marauder theory    — print the Theorem 2/3 curves (Figs 2, 5, 6)
    marauder coverage  — Theorem 1 coverage radii per receiver chain
    marauder simulate  — run the full campus attack and report accuracy
    marauder map       — render the Marauder's-map HTML display
    marauder week      — the 7-day probing-feasibility statistics
    marauder engine    — streaming engine (``--metrics-json``/``--trace``
                         export observability data)
    marauder capture   — capture-file tooling: convert between JSONL and
                         the columnar block store, compact/merge capture
                         files, and print block/bloom statistics
    marauder metrics   — inspect a metrics snapshot JSON

Every subcommand accepts ``--seed`` for reproducibility.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="marauder",
        description="Reproduction of 'The Digital Marauder's Map' "
                    "(ICDCS 2009)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="Theorem 2/3 curves")
    p_theory.add_argument("--max-k", type=int, default=20)

    sub.add_parser("coverage", help="Theorem 1 coverage radii (Fig 12)")

    p_sim = sub.add_parser("simulate", help="campus attack accuracy")
    p_sim.add_argument("--seed", type=int, default=11)
    p_sim.add_argument("--cases", type=int, default=120)
    p_sim.add_argument("--markdown", metavar="FILE",
                       help="also write a markdown report to FILE")

    p_map = sub.add_parser("map", help="render the map display")
    p_map.add_argument("--seed", type=int, default=7)
    p_map.add_argument("--output", default="marauders_map.html")
    p_map.add_argument("--duration", type=float, default=240.0)
    p_map.add_argument("--geojson", metavar="FILE",
                       help="also export a GeoJSON FeatureCollection")

    p_week = sub.add_parser("week", help="7-day probing statistics")
    p_week.add_argument("--seed", type=int, default=2008)
    p_week.add_argument("--active", action="store_true",
                        help="enable the active (deauth) attack")

    p_plan = sub.add_parser(
        "plan", help="channel planning from a WiGLE-style CSV")
    p_plan.add_argument("wigle", help="WiGLE-style CSV with AP channels")
    p_plan.add_argument("--cards", type=int, default=3)
    p_plan.add_argument("--lat", type=float, default=42.6555)
    p_plan.add_argument("--lon", type=float, default=-71.3262)

    p_replay = sub.add_parser(
        "replay", help="localize devices from a capture file")
    p_replay.add_argument("capture", help="JSONL capture file")
    p_replay.add_argument("--wigle", required=True,
                          help="WiGLE-style CSV with AP knowledge")
    p_replay.add_argument("--lat", type=float, default=42.6555,
                          help="tangent-plane origin latitude")
    p_replay.add_argument("--lon", type=float, default=-71.3262,
                          help="tangent-plane origin longitude")
    p_replay.add_argument("--r-max", type=float, default=150.0,
                          help="radius upper bound for the AP-Rad LP")
    p_replay.add_argument("--lenient", action="store_true",
                          help="skip (and count) malformed capture "
                               "records instead of aborting on the "
                               "first one")

    p_engine = sub.add_parser(
        "engine",
        help="streaming localization engine over a capture file")
    p_engine.add_argument("capture", nargs="?", default=None,
                          help="capture file (JSONL or columnar)")
    p_engine.add_argument("--capture", dest="capture_flag", metavar="FILE",
                          default=None,
                          help="capture file (alternative to the "
                               "positional argument)")
    p_engine.add_argument("--format", default=None,
                          help="capture format, 'jsonl' or 'columnar' "
                               "(default: sniff the file)")
    p_engine.add_argument("--device", metavar="MAC", default=None,
                          help="replay only records mentioning this "
                               "device (columnar captures skip whole "
                               "blocks via per-block bloom filters)")
    p_engine.add_argument("--wigle", required=True,
                          help="WiGLE-style CSV with AP knowledge")
    p_engine.add_argument("--lat", type=float, default=42.6555,
                          help="tangent-plane origin latitude")
    p_engine.add_argument("--lon", type=float, default=-71.3262,
                          help="tangent-plane origin longitude")
    p_engine.add_argument("--fallback-range", type=float, default=150.0,
                          help="assumed AP range (m) when the knowledge "
                               "base has none (the WiGLE case)")
    # The flags a checkpoint's config records default to None, so a
    # --resume can tell a flag given from one left out.
    p_engine.add_argument("--window", type=float, default=None,
                          help="sliding co-observation window (s; "
                               "default 30)")
    p_engine.add_argument("--batch", type=int, default=None,
                          help="dirty devices per micro-batch "
                               "(default 32)")
    p_engine.add_argument("--cache-size", type=int, default=None,
                          help="Γ-set memoization entries (0 disables; "
                               "default 4096)")
    p_engine.add_argument("--no-cache", action="store_true",
                          help="disable Γ-set memoization")
    p_engine.add_argument("--refit-every", type=int, default=0,
                          help="re-fit AP radii (incremental AP-Rad LP) "
                               "every N evidence events; 0 keeps the "
                               "static M-Loc fallback range")
    p_engine.add_argument("--r-max", type=float, default=150.0,
                          help="radius upper bound for the AP-Rad LP "
                               "(used with --refit-every)")
    p_engine.add_argument("--checkpoint", metavar="FILE",
                          help="write an engine checkpoint after the run")
    p_engine.add_argument("--checkpoint-keep", type=int, default=1,
                          metavar="N",
                          help="checkpoint generations to keep (rotated "
                               "to FILE.1, FILE.2, ...; default 1)")
    p_engine.add_argument("--resume", metavar="FILE",
                          help="restore engine state from a checkpoint "
                               "before ingesting (falls back to the "
                               "newest valid FILE.N rotation when FILE "
                               "is corrupt); the engine keeps the "
                               "checkpoint's --window, --batch, "
                               "--cache-size, --quarantine-after and "
                               "--refit-every, and a flag that differs "
                               "is an error")
    p_engine.add_argument("--lenient", action="store_true",
                          help="skip (and count) malformed capture "
                               "records instead of aborting on the "
                               "first one")
    p_engine.add_argument("--inject", action="append", metavar="SPEC",
                          default=None,
                          help="arm a deterministic fault for chaos "
                               "testing, e.g. "
                               "'sink.emit:raise=SinkError,times=3' or "
                               "'lp.solve:delay=0.05'; repeatable")
    p_engine.add_argument("--inject-seed", type=int, default=0,
                          help="seed for the fault injector's "
                               "probability streams")
    p_engine.add_argument("--quarantine-after", type=int, default=None,
                          help="quarantine a device after N consecutive "
                               "localization failures (0 disables; "
                               "default 3)")
    p_engine.add_argument("--tracks", action="store_true",
                          help="also print the tracks of the fixes this "
                               "run emits (after --resume, its own only)")
    p_engine.add_argument("--localizer", metavar="SPEC",
                          help="localizer spec, e.g. 'm-loc', "
                               "'ap-rad:r_max=200,min_evidence=2', or a "
                               "degradation chain "
                               "'ap-rad:r_max=200+fallback:m-loc,centroid' "
                               "(default: ap-rad when --refit-every is "
                               "set, else m-loc)")
    p_engine.add_argument("--metrics-json", metavar="FILE",
                          help="write the engine's metrics-registry "
                               "snapshot as JSON")
    p_engine.add_argument("--trace", metavar="FILE",
                          help="write a Chrome trace_event JSON of the "
                               "run's spans")

    p_serve = sub.add_parser(
        "serve",
        help="sharded tracking service over a capture file")
    p_serve.add_argument("capture", nargs="?", default=None,
                         help="capture file (JSONL or columnar)")
    p_serve.add_argument("--capture", dest="capture_flag", metavar="FILE",
                         default=None,
                         help="capture file (alternative to the "
                              "positional argument)")
    p_serve.add_argument("--format", default=None,
                         help="capture format, 'jsonl' or 'columnar' "
                              "(default: sniff the file)")
    p_serve.add_argument("--wigle", required=True,
                         help="WiGLE-style CSV with AP knowledge")
    p_serve.add_argument("--lat", type=float, default=42.6555,
                         help="tangent-plane origin latitude")
    p_serve.add_argument("--lon", type=float, default=-71.3262,
                         help="tangent-plane origin longitude")
    p_serve.add_argument("--shards", type=int, default=2,
                         help="engine shards in the fleet (default 2)")
    p_serve.add_argument("--transport",
                         choices=("thread", "socket", "socket-process"),
                         default="thread",
                         help="shard transport: in-process queues with "
                              "thread workers, or the TCP SocketBus "
                              "with thread workers (socket) or one OS "
                              "process per shard (socket-process)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="HTTP bind address")
    p_serve.add_argument("--port", type=int, default=8737,
                         help="HTTP port (0 picks a free one)")
    p_serve.add_argument("--window", type=float, default=30.0,
                         help="sliding co-observation window (s)")
    p_serve.add_argument("--batch", type=int, default=32,
                         help="dirty devices per micro-batch")
    p_serve.add_argument("--fallback-range", type=float, default=150.0,
                         help="assumed AP range (m) when the knowledge "
                              "base has none (the WiGLE case)")
    p_serve.add_argument("--localizer", metavar="SPEC",
                         help="localizer spec per shard (default m-loc)")
    p_serve.add_argument("--publish-batch", type=int, default=64,
                         help="frames per bus message")
    p_serve.add_argument("--checkpoint-dir", metavar="DIR",
                         help="directory for per-shard checkpoints "
                              "(enables crash recovery)")
    p_serve.add_argument("--checkpoint-every", type=int, default=0,
                         metavar="N",
                         help="checkpoint a shard every N published "
                              "frames (0 = only explicit barriers)")
    p_serve.add_argument("--resume", action="store_true",
                         help="restore the fleet from --checkpoint-dir "
                              "before ingesting")
    p_serve.add_argument("--serve-seconds", type=float, default=None,
                         metavar="S",
                         help="keep serving S seconds after ingest, "
                              "then drain and exit (default: until "
                              "SIGINT/SIGTERM)")
    p_serve.add_argument("--chaos", action="store_true",
                         help="enable the POST /chaos/kill endpoint "
                              "(testing only)")
    p_serve.add_argument("--lenient", action="store_true",
                         help="skip (and count) malformed capture "
                              "records instead of aborting on the "
                              "first one")
    p_serve.add_argument("--ingest-port", type=int, default=None,
                         metavar="PORT",
                         help="also listen for network ingest (framed "
                              "capture batches over TCP, see the "
                              "'ingest' command) on this port "
                              "(0 picks a free one); with no local "
                              "capture file the gateway is the only "
                              "ingest path")
    p_serve.add_argument("--inject", action="append", metavar="SPEC",
                         default=None,
                         help="arm a deterministic fault for chaos "
                              "testing, e.g. 'socket.recv:drop,times=5' "
                              "or 'bus.publish:delay=0.01'; repeatable")
    p_serve.add_argument("--inject-seed", type=int, default=0,
                         help="seed for the fault injector's "
                              "probability streams")

    p_ingest = sub.add_parser(
        "ingest",
        help="stream a capture file to a serving fleet's ingest "
             "gateway")
    p_ingest.add_argument("capture",
                          help="capture file (JSONL or columnar)")
    p_ingest.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="ingest gateway address (a 'serve "
                               "--ingest-port' listener)")
    p_ingest.add_argument("--format", default=None,
                          help="capture format, 'jsonl' or 'columnar' "
                               "(default: sniff the file)")
    p_ingest.add_argument("--batch-records", type=int, default=128,
                          help="frames per wire batch (default 128)")
    p_ingest.add_argument("--window", type=int, default=8,
                          help="unacked batches in flight (default 8)")
    p_ingest.add_argument("--client-id", default=None, metavar="ID",
                          help="stable delivery-stream id; rerunning "
                               "with the same id against the same "
                               "server resumes instead of "
                               "double-ingesting (default: fresh UUID)")
    p_ingest.add_argument("--lenient", action="store_true",
                          help="skip (and count) malformed capture "
                               "records instead of aborting on the "
                               "first one")

    p_capture = sub.add_parser(
        "capture",
        help="capture-file tooling: convert, compact, info")
    cap_sub = p_capture.add_subparsers(dest="capture_command",
                                       required=True)

    def _columnar_options(cap_parser):
        cap_parser.add_argument("--format", default="columnar",
                                help="output format, 'columnar' or "
                                     "'jsonl' (default columnar)")
        cap_parser.add_argument("--block-records", type=int, default=65536,
                                help="rows per columnar block")
        cap_parser.add_argument("--bloom-bits", type=int, default=32768,
                                help="bloom filter width per block")
        cap_parser.add_argument("--bloom-hashes", type=int, default=4,
                                help="bloom probes per device")
        cap_parser.add_argument("--no-sort", action="store_true",
                                help="keep arrival order inside blocks "
                                     "instead of sorting by rx time")

    p_cap_convert = cap_sub.add_parser(
        "convert", help="convert one capture between formats")
    p_cap_convert.add_argument("src", help="source capture (any format)")
    p_cap_convert.add_argument("dst", help="destination path")
    _columnar_options(p_cap_convert)
    p_cap_convert.add_argument("--lenient", action="store_true",
                               help="skip (and count) malformed source "
                                    "records instead of aborting")

    p_cap_compact = cap_sub.add_parser(
        "compact",
        help="merge captures into one globally time-sorted capture")
    p_cap_compact.add_argument("sources", nargs="+",
                               help="source captures (formats may mix)")
    p_cap_compact.add_argument("--output", required=True, metavar="FILE",
                               help="merged capture destination")
    _columnar_options(p_cap_compact)
    p_cap_compact.add_argument("--strict", action="store_true",
                               help="abort on the first malformed "
                                    "source record (default: lenient)")

    p_cap_info = cap_sub.add_parser(
        "info", help="summary, block, and bloom statistics")
    p_cap_info.add_argument("path", help="capture file")
    p_cap_info.add_argument("--format", default=None,
                            help="capture format, 'jsonl' or 'columnar' "
                                 "(default: sniff the file)")
    p_cap_info.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON")

    p_metrics = sub.add_parser(
        "metrics", help="inspect a metrics snapshot JSON")
    p_metrics.add_argument("snapshot",
                           help="snapshot file written by "
                                "'engine --metrics-json'")
    p_metrics.add_argument("--prometheus", action="store_true",
                           help="render Prometheus text exposition "
                                "instead of the human-readable block")

    args = parser.parse_args(argv)
    handler = {
        "theory": _cmd_theory,
        "coverage": _cmd_coverage,
        "simulate": _cmd_simulate,
        "map": _cmd_map,
        "week": _cmd_week,
        "plan": _cmd_plan,
        "replay": _cmd_replay,
        "engine": _cmd_engine,
        "serve": _cmd_serve,
        "ingest": _cmd_ingest,
        "capture": _cmd_capture,
        "metrics": _cmd_metrics,
    }[args.command]
    return handler(args)


def _fail(message: str) -> int:
    """Print a clear one-line error (no traceback) and exit non-zero."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_capture(args) -> Optional[str]:
    """The capture path from the positional arg or ``--capture``.

    Returns ``None`` when neither or both were given — the caller turns
    that into a usage error.
    """
    positional = getattr(args, "capture", None)
    flag = getattr(args, "capture_flag", None)
    if positional and flag:
        return None
    return positional or flag


def _cmd_capture(args) -> int:
    import json

    from repro.capture import capture_info, compact_captures
    from repro.faults import CaptureError

    if args.capture_command == "info":
        try:
            info = capture_info(args.path, format=args.format)
        except OSError as error:
            return _fail(f"cannot read capture {args.path!r}: {error}")
        except (CaptureError, ValueError) as error:
            return _fail(f"corrupt capture {args.path!r}: {error}")
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
            return 0
        print(f"{info['path']}: {info['format']} capture, "
              f"{info['records']} records, {info['file_bytes']} bytes")
        if info.get("time"):
            t_min, t_max = info["time"]
            print(f"  time range: {t_min:.3f} .. {t_max:.3f} s "
                  f"({t_max - t_min:.3f} s)")
        if info["format"] == "columnar":
            bloom = info["bloom"]
            print(f"  {info['blocks']} block(s) of up to "
                  f"{info['block_records']} x {info['record_bytes']}-byte "
                  f"records, aux {info['aux_bytes']} bytes, globally "
                  f"sorted: {info['globally_sorted']}")
            print(f"  bloom: {bloom['bits']} bits x {bloom['hashes']} "
                  f"hashes per block, mean fill "
                  f"{bloom['mean_fill'] * 100.0:.2f}%")
        else:
            print(f"  skipped (malformed) records: {info['skipped']}, "
                  f"distinct devices: {info['devices']}")
        return 0

    writer_options = {}
    if args.format == "columnar":
        writer_options = {
            "block_records": args.block_records,
            "bloom_bits": args.bloom_bits,
            "bloom_hashes": args.bloom_hashes,
            "sort_within_block": not args.no_sort,
        }
    if args.capture_command == "convert":
        sources, output = [args.src], args.dst
        strict = not args.lenient
    else:
        sources, output = list(args.sources), args.output
        strict = args.strict
    try:
        report = compact_captures(sources, output, format=args.format,
                                  strict=strict, **writer_options)
    except OSError as error:
        return _fail(f"cannot read capture: {error}")
    except (CaptureError, ValueError) as error:
        return _fail(f"corrupt capture: {error}")
    summary = (f"{report['records']} records -> {report['output']} "
               f"[{report['format']}]")
    if "blocks" in report:
        summary += f", {report['blocks']} block(s)"
    if report["skipped"]:
        summary += f", {report['skipped']} malformed record(s) skipped"
    print(f"Compacted {len(report['sources'])} capture(s): {summary}")
    return 0


def _cmd_theory(args) -> int:
    from repro.theory import (
        coverage_probability_underestimate,
        expected_area_overestimate,
        expected_intersected_area,
    )

    print("Theorem 2 — expected intersected area vs k (r = 1):")
    for k in range(1, args.max_k + 1):
        print(f"  k={k:2d}  CA={expected_intersected_area(k):8.4f}")
    print("\nTheorem 3 — area vs estimated radius R (k = 10, r = 1):")
    for big_r in (1.0, 1.1, 1.2, 1.4, 1.6, 1.8, 2.0):
        area = expected_area_overestimate(10, 1.0, big_r)
        print(f"  R={big_r:.1f}  CA={area:8.4f}")
    print("\nTheorem 3 — coverage probability vs R < r (k = 10, r = 1):")
    for big_r in (0.5, 0.7, 0.8, 0.9, 0.95, 1.0):
        p = coverage_probability_underestimate(10, 1.0, big_r)
        print(f"  R={big_r:.2f}  p={p:.6f}")
    return 0


def _cmd_coverage(args) -> int:
    from repro.radio.link_budget import LinkBudget, Transmitter
    from repro.sniffer.receiver import (
        build_dlink_chain,
        build_hg2415u_chain,
        build_marauder_chain,
        build_src_chain,
    )

    mobile = Transmitter(power_dbm=15.0, antenna_gain_dbi=0.0)
    print("Theorem 1 free-space coverage radius per receiver chain")
    print("(transmitter: 15 dBm mobile, 0 dBi antenna, channel 6):\n")
    for chain in (build_dlink_chain(), build_src_chain(),
                  build_hg2415u_chain(), build_marauder_chain()):
        budget = LinkBudget(mobile, chain)
        print(f"  {chain.name:10s} NF={chain.noise_figure_db:5.2f} dB  "
              f"sensitivity={chain.sensitivity_dbm:7.1f} dBm  "
              f"radius={budget.coverage_radius_m():9.1f} m")
    return 0


def _cmd_simulate(args) -> int:
    from repro.analysis import run_localization_experiment
    from repro.localization import CentroidLocalizer, MLoc
    from repro.sim.scenarios import build_disc_model_experiment

    print(f"Building campus experiment (seed={args.seed}) ...")
    exp = build_disc_model_experiment(seed=args.seed,
                                      case_count=args.cases)
    aprad = exp.make_aprad()
    aprad.fit(exp.corpus)
    reports = run_localization_experiment(
        {"M-Loc": MLoc(exp.mloc_db), "AP-Rad": aprad,
         "Centroid": CentroidLocalizer(exp.location_db)},
        exp.cases)
    print(f"{len(exp.cases)} test points, "
          f"{len(exp.corpus)} observation-corpus entries\n")
    print("Average localization error (meters):")
    for name, report in reports.items():
        print(f"  {name:10s} {report.mean_error():6.2f}")
    print("\nPaper (UML campus): M-Loc 9.41, AP-Rad 13.75, "
          "Centroid 17.28 meters")
    if args.markdown:
        from pathlib import Path

        from repro.analysis.report import render_markdown_report

        document = render_markdown_report(
            reports,
            paper_means={"M-Loc": 9.41, "AP-Rad": 13.75,
                         "Centroid": 17.28},
            title=f"Marauder's-map accuracy (seed {args.seed})")
        Path(args.markdown).write_text(document, encoding="utf-8")
        print(f"Markdown report written to {args.markdown}")
    return 0


def _cmd_map(args) -> int:
    from repro.display import MapRenderer, render_html_map
    from repro.localization import MLoc
    from repro.sim import build_attack_scenario

    scenario = build_attack_scenario(seed=args.seed)
    scenario.world.run(duration_s=args.duration)
    store = scenario.world.sniffer.store
    renderer = MapRenderer(width_m=600.0, height_m=600.0)
    for record in scenario.truth_db:
        renderer.add_access_point(record.location, label=str(record.ssid))
    renderer.add_sniffer(scenario.world.sniffer.position)
    mloc = MLoc(scenario.truth_db)
    located = 0
    estimates = {}
    for mobile in store.seen_mobiles:
        gamma = store.gamma(mobile, at_time=scenario.world.now)
        if not gamma:
            continue
        estimate = mloc.locate(gamma)
        if estimate is None:
            continue
        renderer.add_estimate(estimate.position, label=str(mobile))
        estimates[mobile] = estimate
        located += 1
    for station in scenario.world.stations:
        renderer.add_true_position(station.position, label=str(station.mac))
    render_html_map(
        renderer,
        caption=f"{located} mobiles located after {args.duration:.0f} s "
                f"of monitoring (seed {args.seed})",
        output_path=args.output)
    print(f"Wrote {args.output} ({located} mobiles located)")
    if args.geojson:
        from repro.display.geojson import export_geojson
        from repro.geo.sites import uml_plane

        export_geojson(uml_plane(), database=scenario.truth_db,
                       estimates=estimates,
                       truths=[(s.mac, s.position)
                               for s in scenario.world.stations],
                       output_path=args.geojson)
        print(f"Wrote {args.geojson}")
    return 0


def _cmd_week(args) -> int:
    from repro.numerics import make_rng
    from repro.sim.population import PopulationConfig, simulate_week

    stats = simulate_week(PopulationConfig(), make_rng(args.seed),
                          active_attack=args.active)
    mode = "active attack" if args.active else "passive monitoring"
    print(f"7-day probing statistics ({mode}):\n")
    print(f"{'day':8s} {'dow':4s} {'found':>6s} {'probing':>8s} {'pct':>7s}")
    for day in stats:
        print(f"{day.label:8s} {day.weekday:4s} {day.found_mobiles:6d} "
              f"{day.probing_mobiles:8d} {day.probing_percentage:6.1f}%")
    print("\nPaper: every day above 50%, peak 91.61% on Oct 25 (Sat)")
    return 0


def _cmd_plan(args) -> int:
    from repro.geo.enu import LocalTangentPlane
    from repro.geo.wgs84 import GeodeticCoordinate
    from repro.knowledge.wigle import import_wigle_csv
    from repro.sniffer.planning import plan_channels

    plane = LocalTangentPlane(GeodeticCoordinate(args.lat, args.lon))
    database = import_wigle_csv(args.wigle, plane)
    histogram = {}
    skipped = 0
    for record in database:
        if record.channel is None:
            skipped += 1
            continue
        histogram[record.channel] = histogram.get(record.channel, 0) + 1
    if not histogram:
        print("No channel information in the CSV; cannot plan.")
        return 1
    print(f"{len(database)} APs ({skipped} without channel info).")
    print("Channel histogram:")
    peak = max(histogram.values())
    for channel in sorted(histogram):
        count = histogram[channel]
        bar = "#" * max(1, int(30 * count / peak))
        print(f"  ch {channel:2d}: {count:5d} {bar}")
    plan = plan_channels(histogram, cards=args.cards)
    print(f"\nWith {args.cards} card(s): {plan.describe()}")
    return 0


def _cmd_replay(args) -> int:
    from repro.geo.enu import LocalTangentPlane
    from repro.geo.wgs84 import GeodeticCoordinate
    from repro.knowledge.wigle import import_wigle_csv
    from repro.localization import make_localizer
    from repro.sniffer.replay import replay_capture

    plane = LocalTangentPlane(GeodeticCoordinate(args.lat, args.lon))
    try:
        database = import_wigle_csv(args.wigle, plane)
    except OSError as error:
        return _fail(f"cannot read WiGLE CSV {args.wigle!r}: {error}")
    try:
        result = replay_capture(args.capture, strict=not args.lenient)
    except OSError as error:
        return _fail(f"cannot read capture {args.capture!r}: {error}")
    except (ValueError, KeyError) as error:
        return _fail(f"corrupt capture {args.capture!r}: {error}")
    print(f"Replayed {result.frames_replayed} frames: "
          f"{len(result.mobiles)} mobiles, "
          f"{len(result.store.observed_aps)} APs observed.")
    if not result.store.all_observations():
        print("No (mobile, AP) communication evidence in the capture.")
        return 0
    # WiGLE knowledge has locations only: AP-Rad is the right algorithm.
    aprad = make_localizer("ap-rad", database=database,
                           r_max=args.r_max, min_evidence=2,
                           overestimate_factor=1.2)
    aprad.fit(result.store.corpus())
    located = 0
    for mobile, estimate in sorted(
            result.locate_all(aprad).items()):
        if estimate is None:
            print(f"  {mobile}  (no known APs in its evidence)")
            continue
        located += 1
        coordinate = plane.from_point(estimate.position)
        print(f"  {mobile}  -> ({coordinate.latitude_deg:.6f}, "
              f"{coordinate.longitude_deg:.6f})  "
              f"[{estimate.used_ap_count} APs]")
    print(f"Located {located}/{len(result.mobiles)} devices.")
    return 0


def _resume_conflict(args, config: dict) -> Optional[str]:
    """The first ``engine`` flag on the command line that differs from
    the checkpoint ``config`` it resumes, described; None when every
    given flag agrees (a nonzero ``--refit-every`` counts as given)."""
    given = (
        ("--window", args.window, "window_s", float),
        ("--batch", args.batch, "batch_size", int),
        ("--cache-size", args.cache_size, "cache_size", int),
        ("--no-cache", 0 if args.no_cache else None, "cache_size", int),
        ("--quarantine-after", args.quarantine_after, "quarantine_after",
         int),
        ("--refit-every", args.refit_every or None, "refit_every", int),
    )
    for flag, value, key, kind in given:
        if value is None:
            continue
        saved = kind(config.get(key))
        if kind(value) != saved:
            shown = flag if flag == "--no-cache" else f"{flag} {value}"
            return f"{shown} differs from {key} = {saved}"
    return None


def _cmd_engine(args) -> int:
    import json
    from pathlib import Path

    from repro import obs
    from repro.engine import (
        StreamingEngine,
        load_checkpoint_data,
        make_sink,
    )
    from repro.faults import (
        CheckpointError,
        FaultInjector,
        parse_fault_spec,
        use_injector,
    )
    from repro.geo.enu import LocalTangentPlane
    from repro.geo.wgs84 import GeodeticCoordinate
    from repro.knowledge.wigle import import_wigle_csv
    from repro.localization import make_localizer
    from repro.net80211.mac import MacAddress
    from repro.sniffer.replay import iter_capture_batches

    capture_path = _resolve_capture(args)
    if capture_path is None:
        return _fail("give the capture file once, either positionally "
                     "or via --capture")
    device = None
    if args.device is not None:
        try:
            device = MacAddress.parse(args.device)
        except ValueError as error:
            return _fail(f"bad --device MAC {args.device!r}: {error}")
    plane = LocalTangentPlane(GeodeticCoordinate(args.lat, args.lon))
    try:
        database = import_wigle_csv(args.wigle, plane)
    except OSError as error:
        return _fail(f"cannot read WiGLE CSV {args.wigle!r}: {error}")
    if args.refit_every < 0:
        return _fail(f"--refit-every must be >= 0, got {args.refit_every}")
    if args.checkpoint_keep < 1:
        return _fail(
            f"--checkpoint-keep must be >= 1, got {args.checkpoint_keep}")
    if args.quarantine_after is not None and args.quarantine_after < 0:
        return _fail(f"--quarantine-after must be >= 0, "
                     f"got {args.quarantine_after}")
    injector = None
    if args.inject:
        try:
            specs = [parse_fault_spec(text) for text in args.inject]
        except ValueError as error:
            return _fail(str(error))
        injector = FaultInjector(specs, seed=args.inject_seed)
    checkpoint_data = None
    refit_every = args.refit_every
    if args.resume:
        try:
            checkpoint_data = load_checkpoint_data(args.resume)
        except CheckpointError as error:
            return _fail(f"corrupt checkpoint {args.resume!r}: {error}")
        except OSError as error:
            return _fail(f"cannot read checkpoint {args.resume!r}: {error}")
        config = (checkpoint_data.get("config")
                  if isinstance(checkpoint_data, dict) else None)
        if isinstance(config, dict):
            try:
                conflict = _resume_conflict(args, config)
                # A checkpointed schedule survives the restart even
                # when --refit-every is not repeated on the resume
                # command line; the localizer choice below must match.
                refit_every = int(config.get("refit_every", 0))
            except (TypeError, ValueError) as error:
                return _fail(f"corrupt checkpoint {args.resume!r}: {error}")
            if conflict is not None:
                return _fail(f"{conflict} in checkpoint {args.resume!r}; "
                             "a resumed engine keeps its checkpointed "
                             "configuration")
    try:
        if args.localizer:
            localizer = make_localizer(args.localizer, database=database)
        elif refit_every > 0:
            # Streaming AP-Rad: radii re-estimated from the
            # accumulating evidence on schedule, warm-starting the
            # incremental LP.
            localizer = make_localizer(
                "ap-rad", database=database, r_max=args.r_max,
                min_evidence=2, overestimate_factor=1.2)
        else:
            # WiGLE knowledge carries locations only: M-Loc with an
            # assumed range is the stream-friendly choice when no
            # re-fit schedule is requested.
            localizer = make_localizer(
                "m-loc", database=database,
                fallback_range_m=args.fallback_range)
    except ValueError as error:
        return _fail(str(error))
    cache_size = (0 if args.no_cache
                  else 4096 if args.cache_size is None else args.cache_size)
    # Fix lines come from engine.tracker; --tracks from this run's sink.
    tracks = make_sink("tracker")
    sinks = [tracks] if args.tracks else []
    if checkpoint_data is not None:
        try:
            engine = StreamingEngine.restore(
                checkpoint_data, localizer, sinks=sinks)
        except (ValueError, KeyError, TypeError) as error:
            return _fail(f"corrupt checkpoint {args.resume!r}: {error}")
        print(f"Resumed from {args.resume} "
              f"({engine.stats().frames_ingested} frames already seen).")
    else:
        try:
            engine = StreamingEngine(
                localizer,
                window_s=30.0 if args.window is None else args.window,
                batch_size=32 if args.batch is None else args.batch,
                cache_size=cache_size, sinks=sinks, refit_every=refit_every,
                quarantine_after=(3 if args.quarantine_after is None
                                  else args.quarantine_after))
        except ValueError as error:
            return _fail(str(error))
    recorder = obs.SpanRecorder() if args.trace else None

    def run_engine():
        batches = iter_capture_batches(
            capture_path, strict=not args.lenient, device=device,
            format=args.format)
        if injector is not None:
            with use_injector(injector):
                return engine.run_batches(batches)
        return engine.run_batches(batches)

    try:
        if recorder is not None:
            with obs.use_recorder(recorder):
                stats = run_engine()
        else:
            stats = run_engine()
    except OSError as error:
        return _fail(f"cannot read capture {capture_path!r}: {error}")
    except (ValueError, KeyError) as error:
        return _fail(f"corrupt capture {capture_path!r}: {error}")

    for mobile in engine.tracker.devices():
        point = engine.tracker.latest(mobile)
        coordinate = plane.from_point(point.estimate.position)
        print(f"  {mobile}  -> ({coordinate.latitude_deg:.6f}, "
              f"{coordinate.longitude_deg:.6f})  "
              f"at t={point.timestamp:.1f}s  "
              f"[{point.estimate.used_ap_count} APs]")
    if args.tracks:
        for mobile in tracks.tracker.devices():
            track = tracks.tracker.track_of(mobile)
            print(f"  track {mobile}: "
                  + " -> ".join(f"({p.estimate.position.x:.0f},"
                                f"{p.estimate.position.y:.0f})@{p.timestamp:.0f}s"
                                for p in track))
    print(stats.format())
    if injector is not None:
        fired = injector.fired()
        if fired:
            print("Injected faults: "
                  + ", ".join(f"{site} x{count}"
                              for site, count in sorted(fired.items())))
        else:
            print("Injected faults: none fired")
    if args.metrics_json:
        Path(args.metrics_json).write_text(
            json.dumps(engine.metrics_snapshot(), indent=2, sort_keys=True),
            encoding="utf-8")
        print(f"Metrics snapshot written to {args.metrics_json}")
    if recorder is not None:
        recorder.export_chrome(args.trace)
        print(f"Trace ({len(recorder)} spans) written to {args.trace}")
    if args.checkpoint:
        engine.save_checkpoint(args.checkpoint, keep=args.checkpoint_keep)
        print(f"Checkpoint written to {args.checkpoint}")
    return 0


def _cmd_serve(args) -> int:
    import contextlib
    import functools
    import signal
    import threading

    from repro import faults
    from repro.geo.enu import LocalTangentPlane
    from repro.geo.wgs84 import GeodeticCoordinate
    from repro.knowledge.wigle import import_wigle_csv
    from repro.localization import make_localizer
    from repro.service import (
        FrameIngestServer,
        ServiceError,
        ServiceServer,
        ShardConfig,
        ShardedEngine,
    )
    from repro.sniffer.replay import iter_capture_batches

    capture_path = _resolve_capture(args)
    if capture_path is None and args.ingest_port is None:
        return _fail("give a capture file (positionally or via "
                     "--capture), or --ingest-port for network-only "
                     "ingest")
    injector = None
    if args.inject:
        try:
            specs = [faults.parse_fault_spec(text)
                     for text in args.inject]
        except ValueError as error:
            return _fail(str(error))
        injector = faults.FaultInjector(specs, seed=args.inject_seed)
    plane = LocalTangentPlane(GeodeticCoordinate(args.lat, args.lon))
    try:
        database = import_wigle_csv(args.wigle, plane)
    except OSError as error:
        return _fail(f"cannot read WiGLE CSV {args.wigle!r}: {error}")
    if args.shards < 1:
        return _fail(f"--shards must be >= 1, got {args.shards}")
    spec = args.localizer or "m-loc"
    try:
        # A picklable factory: each shard (possibly another process)
        # builds its own localizer from the same spec and knowledge.
        factory = functools.partial(
            make_localizer, spec, database=database,
            **({} if args.localizer else
               {"fallback_range_m": args.fallback_range}))
        factory()  # validate the spec before spawning the fleet
    except ValueError as error:
        return _fail(str(error))
    config = ShardConfig(window_s=args.window, batch_size=args.batch)
    try:
        engine = ShardedEngine(
            factory, shards=args.shards, transport=args.transport,
            config=config, checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            publish_batch=args.publish_batch, resume=args.resume)
    except (ServiceError, ValueError) as error:
        return _fail(str(error))

    stop_event = threading.Event()
    # Signal handlers only install from the main thread (tests drive
    # this handler from workers; there the deadline is the only stop).
    previous = {}
    if threading.current_thread() is threading.main_thread():
        previous = {signum: signal.signal(signum,
                                          lambda *_: stop_event.set())
                    for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        with contextlib.ExitStack() as stack:
            if injector is not None:
                # Process-wide: the socket transports' reader/sender
                # threads must see the faults too.
                stack.enter_context(
                    faults.use_injector(injector, all_threads=True))
            server = stack.enter_context(
                ServiceServer(engine, host=args.host, port=args.port,
                              allow_chaos=args.chaos))
            host, port = server.address
            print(f"Serving {args.shards} shard(s) [{args.transport}] "
                  f"on http://{host}:{port}", flush=True)
            if args.ingest_port is not None:
                gateway = stack.enter_context(
                    FrameIngestServer(engine, host=args.host,
                                      port=args.ingest_port))
                ghost, gport = gateway.address
                print(f"Ingest gateway on {ghost}:{gport}", flush=True)
            if capture_path is not None:
                try:
                    engine.ingest_batches(iter_capture_batches(
                        capture_path, batch_records=args.publish_batch,
                        strict=not args.lenient, format=args.format))
                    stats = engine.drain()
                    if args.checkpoint_dir is not None:
                        # Barriers ride on publishes: the tail after the
                        # last one would otherwise stay uncheckpointed.
                        engine.save_checkpoints()
                except OSError as error:
                    engine.stop()
                    return _fail(
                        f"cannot read capture {capture_path!r}: {error}")
                except (ValueError, KeyError) as error:
                    engine.stop()
                    return _fail(
                        f"corrupt capture {capture_path!r}: {error}")
                print(f"Ingest complete: {stats.frames_ingested} "
                      f"frames, {stats.devices_seen} devices, "
                      f"{stats.estimates_emitted} localizations.",
                      flush=True)
            # Serve until the deadline or a signal; queries (and chaos
            # kills + supervised restarts) keep flowing meanwhile.
            stop_event.wait(timeout=args.serve_seconds)
            print("Draining fleet for shutdown...", flush=True)
            engine.stop()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    if injector is not None:
        fired = injector.fired()
        if fired:
            summary = ", ".join(f"{site} x{count}"
                                for site, count in sorted(fired.items()))
            print(f"Injected faults: {summary}")
        else:
            print("Injected faults: none fired")
    final = engine.stats()
    print(f"Served fleet stopped cleanly "
          f"({final.estimates_emitted} localizations total).")
    return 0


def _cmd_ingest(args) -> int:
    from repro.faults import ReproError
    from repro.service import stream_capture_to

    host, sep, port_text = args.connect.rpartition(":")
    if not sep or not host:
        return _fail(f"--connect must be HOST:PORT, got "
                     f"{args.connect!r}")
    try:
        port = int(port_text)
    except ValueError:
        return _fail(f"--connect port must be an integer, got "
                     f"{port_text!r}")
    if args.batch_records < 1:
        return _fail(f"--batch-records must be >= 1, got "
                     f"{args.batch_records}")
    if args.window < 1:
        return _fail(f"--window must be >= 1, got {args.window}")
    try:
        stats = stream_capture_to(
            args.capture, (host, port),
            batch_records=args.batch_records, window=args.window,
            client_id=args.client_id, format=args.format,
            strict=not args.lenient)
    except OSError as error:
        return _fail(f"cannot stream {args.capture!r} to "
                     f"{args.connect}: {error}")
    except (ReproError, ValueError, KeyError) as error:
        return _fail(str(error))
    print(f"Ingest complete: {stats.frames} frames in {stats.batches} "
          f"batches to {args.connect} "
          f"({stats.reconnects} reconnects, "
          f"{stats.batches_resent} batches resent).")
    return 0


def _cmd_metrics(args) -> int:
    import json
    from pathlib import Path

    from repro import obs

    try:
        data = json.loads(Path(args.snapshot).read_text(encoding="utf-8"))
    except OSError as error:
        return _fail(f"cannot read snapshot {args.snapshot!r}: {error}")
    except ValueError as error:
        return _fail(f"corrupt snapshot {args.snapshot!r}: {error}")
    if not isinstance(data, dict):
        return _fail(f"corrupt snapshot {args.snapshot!r}: expected a "
                     "JSON object")
    if args.prometheus:
        registry = obs.MetricsRegistry()
        try:
            registry.merge(data)
        except (KeyError, TypeError, ValueError) as error:
            return _fail(
                f"corrupt snapshot {args.snapshot!r}: {error}")
        print(registry.render_prometheus(), end="")
    else:
        print(obs.format_snapshot(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
