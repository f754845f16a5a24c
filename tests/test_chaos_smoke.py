"""Chaos smoke: seeded fault runs must match their fault-free twins.

This is the CI canary for the fault-tolerance stack: inject transient
faults at every supervised site, and require the exact same estimates
as an unfaulted run — the retries must be invisible in the output.
"""

from repro.engine import StreamingEngine, TrackerSink
from repro.engine.sinks import LatestFixSink
from repro.faults import (
    FaultInjector,
    RetryPolicy,
    parse_fault_spec,
    use_injector,
)
from repro.localization import MLoc, make_localizer

from tests.test_engine_checkpoint import build_stream, final_tracks


def noop_sleep(_seconds):
    pass


def latest_fixes(sink):
    return {mobile: (timestamp, (estimate.position.x, estimate.position.y))
            for mobile, (timestamp, estimate) in sink.fixes.items()}


def run_mloc(square_db, frames, injector=None):
    sink, tracks = LatestFixSink(), TrackerSink()
    # Six attempts: enough headroom to absorb two untyped engine.flush
    # faults followed by two typed ones inside one retry budget.
    engine = StreamingEngine(
        MLoc(square_db), window_s=30.0, batch_size=3, sinks=[sink, tracks],
        retry=RetryPolicy(max_attempts=6, base_delay=0.0,
                          sleep=noop_sleep))
    if injector is None:
        engine.run(iter(frames))
    else:
        with use_injector(injector):
            engine.run(iter(frames))
    return engine, sink, tracks


def test_faulted_run_matches_fault_free_output(square_db):
    frames = build_stream(square_db)
    baseline, baseline_sink, baseline_tracks = run_mloc(square_db, frames)

    injector = FaultInjector(
        [parse_fault_spec(spec) for spec in [
            "sink.emit:raise=SinkError,times=2",
            "engine.flush:raise,times=2",
            "engine.flush:raise=SolverError,times=2",
        ]],
        seed=5)
    chaotic, chaotic_sink, chaotic_tracks = run_mloc(square_db, frames,
                                                     injector)

    assert injector.total_fired == 6
    stats = chaotic.stats()
    assert stats.retries > 0
    assert stats.quarantined == 0
    assert stats.sink_failures == 0
    assert final_tracks(chaotic_tracks) == final_tracks(baseline_tracks)
    assert latest_fixes(chaotic_sink) == latest_fixes(baseline_sink)


def run_aprad(square_db, frames, injector=None):
    localizer = make_localizer("ap-rad:r_max=150",
                               database=square_db)
    tracks = TrackerSink()
    engine = StreamingEngine(
        localizer, window_s=30.0, batch_size=3, refit_every=20,
        sinks=[tracks],
        retry=RetryPolicy(max_attempts=3, base_delay=0.0,
                          sleep=noop_sleep))
    if injector is None:
        engine.run(iter(frames))
    else:
        with use_injector(injector):
            engine.run(iter(frames))
    return engine, tracks


def test_refit_retry_is_invisible_in_aprad_output(square_db):
    frames = build_stream(square_db)
    baseline, baseline_tracks = run_aprad(square_db, frames)

    injector = FaultInjector(
        [parse_fault_spec("lp.solve:raise=SolverError,times=1")], seed=5)
    chaotic, chaotic_tracks = run_aprad(square_db, frames, injector)

    assert injector.total_fired == 1
    stats = chaotic.stats()
    assert stats.retries > 0
    assert stats.refits == baseline.stats().refits > 0
    assert final_tracks(chaotic_tracks) == final_tracks(baseline_tracks)


def test_socket_fleet_survives_killed_connections_and_lost_frames(
        square_db):
    """The TCP twin of the canary: a socket fleet under dropped wire
    frames *and* mid-stream connection kills must match a single
    fault-free engine exactly."""
    from tests.test_service_socket import (FAST_SOCKET, socket_fleet,
                                           wait_connected)
    from tests.test_service_engine import (build_stream as service_stream,
                                           fleet_fixes,
                                           single_engine_fixes)

    frames = service_stream(square_db, devices=12, rounds=4)
    want = single_engine_fixes(square_db, frames)

    # socket.recv drops exercise the resend path on top of the kills;
    # all_threads because the transport reads frames on its own
    # reader threads, never on this one.  The injector arms only once
    # the fleet is connected, so the drops land on live traffic rather
    # than stretching the initial handshakes.
    injector = FaultInjector(
        [parse_fault_spec("socket.recv:drop,times=4")], seed=5)
    with socket_fleet(square_db) as engine:
        half = len(frames) // 2
        engine.ingest_stream(frames[:half])
        engine.flush_publishes()
        wait_connected(engine)
        with use_injector(injector, all_threads=True):
            for shard in range(engine.shards):
                engine.kill_connection(shard)
            engine.ingest_stream(frames[half:])
            engine.drain()
        assert fleet_fixes(engine) == want

    assert injector.total_fired == 4
