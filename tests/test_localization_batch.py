"""locate_batch equals sequential locate.

The batch API is a pure throughput optimization: for any sequence of Γ
sets it must produce exactly the estimates the sequential ``locate``
loop produces, in the same order.  Batches run in-process; devices
spread across cores through the sharded service, not an executor.
"""

from unittest import mock

import numpy as np
import pytest

from repro.geometry import kernels
from repro.knowledge.apdb import ApDatabase
from repro.localization.centroid import CentroidLocalizer
from repro.localization.mloc import MLoc
from repro.net80211.mac import MacAddress

from tests.helpers import make_record


@pytest.fixture
def grid_db():
    """12 APs on a 3x4 grid with staggered ranges → mixed-size Γ sets."""
    records = []
    index = 0
    for row in range(3):
        for col in range(4):
            records.append(make_record(index, col * 70.0, row * 70.0,
                                       90.0 + 15.0 * (index % 3)))
            index += 1
    return ApDatabase(records)


def mixed_gammas(db, count=40, seed=77):
    """Γ sets of varied size: full-coverage points, edges, and unknowns."""
    rng = np.random.default_rng(seed)
    from repro.geometry.point import Point

    gammas = []
    for i in range(count):
        x = float(rng.uniform(-60.0, 280.0))
        y = float(rng.uniform(-60.0, 200.0))
        gamma = set(db.observable_from(Point(x, y)))
        if i % 7 == 0:
            gamma.add(MacAddress(0xDEAD0000 + i))  # unknown AP, skipped
        if i % 11 == 0:
            gamma = set()  # unlocatable
        gammas.append(frozenset(gamma))
    # Duplicates exercise any intra-batch sharing.
    gammas.extend(gammas[:5])
    return gammas


def assert_estimates_match(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a is not None
        assert a.position.is_close(b.position, 1e-9)
        assert a.used_ap_count == b.used_ap_count
        assert a.algorithm == b.algorithm
        assert a.area_m2 == pytest.approx(b.area_m2, abs=1e-6, rel=1e-9)


class TestMLocBatch:
    def test_matches_sequential_locate(self, grid_db):
        localizer = MLoc(grid_db)
        gammas = mixed_gammas(grid_db)
        sequential = [localizer.locate(g) for g in gammas]
        batched = localizer.locate_batch(gammas)
        assert_estimates_match(batched, sequential)

    def test_vertex_mode_batch(self, grid_db):
        localizer = MLoc(grid_db, mode="vertex")
        gammas = mixed_gammas(grid_db, count=16, seed=9)
        sequential = [localizer.locate(g) for g in gammas]
        assert_estimates_match(localizer.locate_batch(gammas), sequential)

    def test_empty_batch(self, grid_db):
        assert MLoc(grid_db).locate_batch([]) == []

    def test_all_unlocatable(self, grid_db):
        gammas = [frozenset(), frozenset({MacAddress(0xDEAD)})]
        assert MLoc(grid_db).locate_batch(gammas) == [None, None]


def assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a.position == b.position
        assert a.inflation_factor == b.inflation_factor
        assert a.region_empty == b.region_empty
        assert a.region.vertices == b.region.vertices
        assert a.area_m2 == b.area_m2


class TestSeparatedPairSkip:
    """Sets proved empty by one far pair skip the vertex kernel only."""

    @staticmethod
    def without_skip(localizer, gammas):
        def never(centers, radii):
            return np.zeros(len(radii), dtype=bool)

        with mock.patch.object(kernels, "separated_pair_mask", never):
            return localizer.locate_batch(gammas)

    def test_identical_estimates(self, grid_db):
        # Γ observed with the true ranges, localized with knowledge
        # that underestimates them: many sets are empty, some provably.
        gammas = mixed_gammas(grid_db, count=40, seed=21)
        shrunk = ApDatabase([
            make_record(i, r.location.x, r.location.y, r.max_range_m * 0.5)
            for i, r in enumerate(grid_db.records_for(grid_db.bssids))])
        for db in (grid_db, shrunk):
            localizer = MLoc(db)
            assert_identical(localizer.locate_batch(gammas),
                             self.without_skip(localizer, gammas))

    @pytest.mark.parametrize("step", [0, 1])
    def test_pair_at_the_two_slack_boundary(self, step):
        # slack = 1e-9 * 50 m; step 0 sits exactly on r_i + r_j + 2·slack
        # (kept), step 1 one float beyond it (skipped).
        gap = (50.0 + 40.0) + 2.0 * (1e-9 * 50.0)
        if step:
            gap = float(np.nextafter(gap, np.inf))
        records = [make_record(0, 0.0, 0.0, 50.0),
                   make_record(1, gap, 0.0, 40.0)]
        rng = np.random.default_rng(step)
        for index in range(2, 8):
            x, y = rng.uniform(-20.0, 110.0, 2)
            records.append(make_record(index, float(x), float(y),
                                       float(rng.uniform(30.0, 50.0))))
        db = ApDatabase(records)
        pair = db.bssids[:2]
        gammas = [pair, db.bssids[:5], db.bssids, db.bssids[1:]]
        centers, radii = kernels.discs_as_arrays(
            MLoc(db)._discs_for(pair))
        assert kernels.separated_pair_mask(
            centers[None], radii[None]).tolist() == [bool(step)]
        localizer = MLoc(db)
        assert_identical(localizer.locate_batch(gammas),
                         self.without_skip(localizer, gammas))


class TestBaseLocalizerBatch:
    """The default locate_batch works for any Localizer subclass."""

    def test_centroid_matches_sequential(self, grid_db):
        localizer = CentroidLocalizer(grid_db)
        gammas = mixed_gammas(grid_db, count=20, seed=3)
        sequential = [localizer.locate(g) for g in gammas]
        assert_estimates_match(localizer.locate_batch(gammas), sequential)

    @pytest.mark.parametrize("keyword", ["executor", "supervisor"])
    def test_executor_and_supervisor_are_refused(self, grid_db, keyword):
        localizer = CentroidLocalizer(grid_db)
        with pytest.raises(TypeError, match="ShardedEngine"):
            localizer.locate_batch(mixed_gammas(grid_db, count=3),
                                   **{keyword: object()})
