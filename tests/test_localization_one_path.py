"""One disc-intersection path: single and batched answers are the same bits.

``locate(Γ)`` is ``locate_batch([Γ])[0]`` for M-Loc and AP-Rad, and a
sequential ``locate`` loop equals one ``locate_batch`` call, down to the
last bit of every position, inflation factor and vertex.  The engine's
degraded flush (one ``locate`` per device) therefore emits exactly what
its normal flush (one ``locate_batch``) does.
"""

from unittest import mock

import numpy as np
import pytest

from repro.engine import StreamingEngine, TrackerSink
from repro.faults import FaultInjector, FaultSpec, RetryPolicy, use_injector
from repro.geometry import kernels
from repro.geometry.point import mean_point
from repro.knowledge.apdb import ApDatabase
from repro.localization import MLoc
from repro.localization.aprad import APRad
from repro.net80211.frames import probe_request, probe_response
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid

from tests.helpers import make_record
from tests.test_engine_checkpoint import station

AP_COUNT = 40


@pytest.fixture(scope="module")
def scattered_db():
    """40 APs at random positions with random ranges: no grid symmetry."""
    rng = np.random.default_rng(2009)
    return ApDatabase(
        make_record(index, float(x), float(y), float(r))
        for index, (x, y, r) in enumerate(zip(
            rng.uniform(0.0, 400.0, AP_COUNT),
            rng.uniform(0.0, 400.0, AP_COUNT),
            rng.uniform(50.0, 160.0, AP_COUNT))))


def gammas_k1_to_10(db, per_k=12, seed=3):
    """Γ sets of k = 1…10 APs: the k nearest to a random point (often a
    non-empty intersection) alternating with k random APs (often empty,
    so M-Loc inflates)."""
    rng = np.random.default_rng(seed)
    records = list(db)
    coords = np.array([r.location.as_tuple() for r in records])
    gammas = []
    for k in range(1, 11):
        for n in range(per_k):
            if n % 2:
                rows = rng.choice(len(records), size=k, replace=False)
            else:
                spot = rng.uniform(0.0, 400.0, 2)
                rows = np.argsort(np.hypot(*(coords - spot).T))[:k]
            gammas.append([records[int(row)].bssid for row in rows])
    return gammas


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a.position == b.position
        assert a.inflation_factor == b.inflation_factor
        assert a.region_empty == b.region_empty
        assert a.region.vertices == b.region.vertices
        assert a.algorithm == b.algorithm
        assert a.used_ap_count == b.used_ap_count


def localizers(db, gammas):
    aprad = APRad(ApDatabase(make_record(i, r.location.x, r.location.y)
                             for i, r in enumerate(db)), r_max=200.0)
    aprad.fit(gammas)
    return {"m-loc": MLoc(db), "ap-rad": aprad}


@pytest.mark.parametrize("name", ["m-loc", "ap-rad"])
class TestLocateIsBatchOfOne:
    def test_single_gamma(self, scattered_db, name):
        gammas = gammas_k1_to_10(scattered_db)
        localizer = localizers(scattered_db, gammas)[name]
        for gamma in gammas:
            assert_same_bits([localizer.locate(gamma)],
                             localizer.locate_batch([gamma]))

    def test_sequential_equals_one_batch(self, scattered_db, name):
        gammas = gammas_k1_to_10(scattered_db, seed=4)
        localizer = localizers(scattered_db, gammas)[name]
        estimates = [localizer.locate(gamma) for gamma in gammas]
        assert any(e.inflation_factor > 1.0 for e in estimates)
        assert any(e.inflation_factor == 1.0 and len(e.region.vertices) > 2
                   for e in estimates)
        assert_same_bits(localizer.locate_batch(gammas), estimates)


def lattice_db(width=9, height=8, spacing=100.0, radius=40.0):
    """A ``width × height`` AP lattice whose ranges are too short to
    meet: the shape of the large Γ sets M-Loc inflates (72 APs)."""
    return ApDatabase(
        make_record(index, (index % width) * spacing,
                    (index // width) * spacing, radius)
        for index in range(width * height))


def test_probe_runs_through_the_module_at_every_k():
    # Every Γ is empty and inflated: two discs 300 m apart, and lattice
    # corners of k = 3, 4, 9 and 72 APs.  Each costs exactly one probe.
    pair = ApDatabase([make_record(0, 0.0, 0.0, 60.0),
                       make_record(1, 300.0, 0.0, 60.0)])
    lattice = lattice_db()
    cases = [(pair, pair.bssids)] + [
        (lattice, lattice.bssids[:k]) for k in (3, 4, 9, 72)]
    for db, gamma in cases:
        with mock.patch.object(kernels, "nonempty_at_scale",
                               wraps=kernels.nonempty_at_scale) as probe:
            estimate = MLoc(db).locate(gamma)
        assert estimate.inflation_factor > 1.0
        assert probe.call_count == 1
    gammas = [gamma for db, gamma in cases[1:]]
    with mock.patch.object(kernels, "nonempty_at_scale",
                           wraps=kernels.nonempty_at_scale) as probe:
        MLoc(lattice).locate_batch(gammas)
    assert probe.call_count == len(gammas)


def full_tensor_vertices(discs, scale):
    """Δ of ``discs`` with radii scaled, every containment test on the
    whole ``(2P, k)`` candidates × discs tensor (no screen)."""
    centers, radii = kernels.discs_as_arrays(discs)
    z = centers[:, 0] + 1j * centers[:, 1]
    i, j = np.triu_indices(len(radii), k=1)
    scaled = radii * scale
    candidates, valid = kernels._candidate_points(
        z[i], z[j] - z[i], np.abs(z[j] - z[i]), scaled[i], scaled[j],
        kernels.INTERSECT_TOL)
    flat = candidates.reshape(-1)
    slack = 1e-9 * max(1.0, float(scaled.max()))
    w = flat[:, None] - z[None, :]
    reach = scaled + slack
    inside = (w.real ** 2 + w.imag ** 2 <= reach * reach).all(axis=1)
    kept = kernels._dedupe_complex(flat[valid.reshape(-1) & inside],
                                   slack * 10.0)
    return kernels._as_coords(kept)


def test_large_gamma_matches_the_full_tensor():
    db = lattice_db()
    gamma = db.bssids
    assert len(gamma) == 72
    discs = MLoc(db)._discs_for(gamma)
    centers, radii = kernels.discs_as_arrays(discs)
    _, exact = kernels.minimax_scale(centers, radii)
    factor = max(1.0, exact) + 5e-4
    raw = full_tensor_vertices(discs, 1.0)
    inflated = full_tensor_vertices(discs, factor)
    assert raw.size == 0 and len(inflated) >= 2
    position = mean_point(kernels.array_as_points(inflated))

    seen = []

    def recording(geom, scale):
        coords = vertices_at_scale(geom, scale)
        seen.append(coords)
        return coords

    vertices_at_scale = kernels.vertices_at_scale
    with mock.patch.object(kernels, "vertices_at_scale", recording):
        single = MLoc(db).locate(gamma)
        (batched,) = MLoc(db).locate_batch([gamma])
    for estimate, coords in zip((single, batched), seen):
        assert estimate.region_empty
        assert estimate.region.vertices == kernels.array_as_points(raw)
        assert estimate.inflation_factor == factor
        assert estimate.position == position
        # The inflated region's Δ, bit for bit.
        assert coords.tobytes() == inflated.tobytes()
    assert len(seen) == 2


def device_stream(db, gammas):
    """Each device probes, then hears one probe response per AP of Γ."""
    by_bssid = {record.bssid: record for record in db}
    frames = []
    t = 0.0
    for device, gamma in enumerate(gammas):
        frames.append(ReceivedFrame(
            probe_request(station(device), 6, t, ssid=Ssid("home")),
            rssi_dbm=-70.0, snr_db=20.0, rx_channel=6, rx_timestamp=t))
        for bssid in gamma:
            t += 0.01
            frame = probe_response(bssid, station(device), 6, t,
                                   ssid=by_bssid[bssid].ssid)
            frames.append(ReceivedFrame(frame, rssi_dbm=-70.0,
                                        snr_db=20.0, rx_channel=6,
                                        rx_timestamp=t))
        t += 1.0
    return frames


def exact_tracks(sink):
    return {
        mobile: [(point.timestamp, point.estimate.position,
                  point.estimate.inflation_factor,
                  tuple(point.estimate.region.vertices))
                 for point in sink.tracker.track_of(mobile)]
        for mobile in sink.tracker.devices()
    }


def test_degraded_flush_matches_clean_run(scattered_db):
    frames = device_stream(scattered_db, gammas_k1_to_10(scattered_db,
                                                         per_k=4))
    clean_tracks, faulted_tracks = TrackerSink(), TrackerSink()
    clean = StreamingEngine(MLoc(scattered_db), batch_size=8,
                            sinks=[clean_tracks])
    clean.run(iter(frames))

    injector = FaultInjector([FaultSpec("engine.flush", mode="raise",
                                        error="SolverError")])
    faulted = StreamingEngine(
        MLoc(scattered_db), batch_size=8, sinks=[faulted_tracks],
        retry=RetryPolicy(max_attempts=1, sleep=lambda s: None))
    with use_injector(injector):
        stats = faulted.run(iter(frames))
    assert stats.degraded > 0
    assert stats.estimates_emitted == clean.stats().estimates_emitted
    assert exact_tracks(faulted_tracks) == exact_tracks(clean_tracks)
