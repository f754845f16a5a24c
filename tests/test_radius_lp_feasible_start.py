"""AP-Rad's cold radius LP starts from a feasible basis.

Every cold solve (``fit``, and the rebuild after compaction) hands the
revised simplex a basis with every radius at ``r_max`` and each
separated row's penalty slack basic, so phase 1 never pivots.  These
properties pin that start against HiGHS over random layouts and
corpora, and pin the estimator's flat row bookkeeping against a
brute-force model of the evidence after every refit.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.geometry.point import Point
from repro.localization import radius_lp
from repro.localization.radius_lp import RadiusEstimator
from repro.net80211.mac import MacAddress
from tests.helpers import highs_fit

pytest.importorskip("scipy.optimize")

#: Large enough that adjacent objective weights differ by far more
#: than HiGHS's dual tolerance, so both solvers reach the same vertex.
TIE = 1e-3


def mac(i):
    return MacAddress(0x0A0000000000 + i)


class EvidenceModel:
    """Brute-force expectation of the estimator's LP bookkeeping."""

    def __init__(self, coords, r_max, min_evidence, cap):
        self.coords = coords
        self.r_max = r_max
        self.min_evidence = min_evidence
        self.cap = cap
        self.counts = {}
        self.co_pairs = set()
        self.live = set()
        self.inert = 0

    def absorb(self, gammas):
        for gamma in gammas:
            indices = sorted(set(gamma))
            for i in indices:
                self.counts[i] = self.counts.get(i, 0) + 1
            self.co_pairs.update(combinations(indices, 2))

    def distance(self, i, j):
        return math.hypot(self.coords[i][0] - self.coords[j][0],
                          self.coords[i][1] - self.coords[j][1])

    def desired(self):
        partners = {}
        for i, j in combinations(range(len(self.coords)), 2):
            if (self.counts.get(i, 0) < self.min_evidence
                    or self.counts.get(j, 0) < self.min_evidence
                    or (i, j) in self.co_pairs
                    or not self.distance(i, j) < 2.0 * self.r_max):
                continue
            partners.setdefault(i, []).append((self.distance(i, j), j))
            partners.setdefault(j, []).append((self.distance(i, j), i))
        kept = set()
        for i, near in partners.items():
            near.sort()
            for _, j in (near if self.cap is None else near[:self.cap]):
                kept.add((min(i, j), max(i, j)))
        return kept

    def rebuild(self):
        self.live = self.desired()
        self.inert = 0

    def refit(self):
        """Returns whether the refit compacts (a cold rebuild)."""
        desired = self.desired()
        self.inert += len(self.live - desired)
        self.live = desired
        rows = len(self.co_pairs) + len(self.live)
        if (self.inert > radius_lp._COMPACT_THRESHOLD
                and self.inert > rows):
            self.rebuild()
            return True
        return False

    def check(self, estimator, estimate):
        assert estimate.co_observed_pairs == len(self.co_pairs)
        assert estimate.separated_pairs == len(self.live)
        assert estimator.inert_rows == self.inert
        assert estimate.lp_rows == estimator.lp_rows == (
            len(self.co_pairs) + len(self.live) + self.inert)


def run_chain(locations, chunks, **options):
    """Fit the first chunk, then ingest + refit each later one.

    Checks every solve against the model and HiGHS; returns how many
    refits compacted.
    """
    coords = [(p.x, p.y) for p in locations.values()]
    macs = list(locations)
    model = EvidenceModel(coords, options["r_max"],
                          options.get("min_evidence", 1),
                          options.get("max_separated_neighbors"))
    estimator = RadiusEstimator(locations, tie_break=TIE, **options)
    rebuilds = []
    rebuild = estimator._rebuild_problem

    def spy():
        rebuilds.append(True)
        rebuild()

    estimator._rebuild_problem = spy
    seen = []
    compactions = 0
    for step, chunk in enumerate(chunks):
        gammas = [{macs[i] for i in gamma} for gamma in chunk]
        seen.extend(gammas)
        model.absorb(chunk)
        rebuilds.clear()
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            if step == 0:
                estimate = estimator.fit(gammas)
                model.rebuild()
                cold = True
            else:
                estimator.ingest(gammas)
                estimate = estimator.refit()
                cold = model.refit()
                compactions += cold
        assert bool(rebuilds) == cold
        model.check(estimator, estimate)
        counters = registry.snapshot()["counters"]
        if cold:
            assert counters["repro.lp.revised.phase1_pivots"] == 0
            assert not estimate.warm_started
        else:
            # A row-less LP is solved without a basis at all.
            assert estimate.warm_started == (estimate.lp_rows > 0)

        radii, total_slack = highs_fit(
            RadiusEstimator(locations, tie_break=TIE, **options), seen)
        for m in locations:
            assert estimate.radii[m] == pytest.approx(radii[m], abs=1e-6)
        assert estimate.total_slack == pytest.approx(total_slack, abs=1e-5)
    return compactions


@st.composite
def layouts(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    side = draw(st.sampled_from([30.0, 120.0, 400.0]))
    # Quarter-metre positions keep the LP well scaled for both solvers.
    cells = int(side * 4)
    points = draw(st.lists(
        st.tuples(st.integers(0, cells), st.integers(0, cells)),
        min_size=n, max_size=n, unique=True))
    locations = {mac(k): Point(x / 4.0, y / 4.0)
                 for k, (x, y) in enumerate(points)}
    r_max = draw(st.sampled_from([15.0, 60.0, 150.0]))
    r_min = draw(st.sampled_from([0.0, 0.25, 1.0])) * r_max
    options = {
        "r_max": r_max,
        "r_min": r_min,
        "min_evidence": draw(st.integers(min_value=1, max_value=3)),
        "max_separated_neighbors": draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=3))),
    }
    # Random Γ ignore geometry, so co-observed pairs may sit far apart
    # (beyond 2*r_max): conflicting evidence the soft rows absorb.
    gamma = st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
    chunks = draw(st.lists(st.lists(gamma, min_size=1, max_size=8),
                           min_size=1, max_size=4))
    return locations, chunks, options


class TestFeasibleStart:
    @settings(max_examples=60, deadline=None)
    @given(layouts())
    def test_random_corpora_match_highs_and_the_evidence(self, case):
        locations, chunks, options = case
        run_chain(locations, chunks, **options)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_refit_chain_crosses_the_compaction_threshold(self, seed):
        # Per cluster: four APs observed together (so they never pick
        # each other) and a walker revealed one position per refit,
        # each nearer the cluster than the last and nearest to the
        # previous one.  With one separated neighbor per AP every
        # refit retires the four rows to the previous position: inert
        # rows pile up while live rows barely grow, until compaction.
        rng = np.random.default_rng(seed)
        distances = (185.0, 165.0, 147.0, 131.0, 117.0, 105.0, 95.0,
                     87.0)
        locations, clusters = {}, []
        for cluster in range(4):
            anchor = np.array([cluster * 1000.0, 0.0])
            members = []
            for _ in range(4):
                offset = rng.uniform(-5.0, 5.0, size=2)
                members.append(len(locations))
                locations[mac(len(locations))] = Point(*(anchor + offset))
            angle = rng.uniform(0.0, 2.0 * np.pi)
            ray = np.array([np.cos(angle), np.sin(angle)])
            walker = []
            for distance in distances:
                walker.append(len(locations))
                locations[mac(len(locations))] = Point(
                    *(anchor + distance * ray))
            clusters.append((members, walker))
        chunks = []
        for step in range(len(distances)):
            chunk = [[walker[step]] for _, walker in clusters]
            if step == 0:
                chunk += [members for members, _ in clusters]
            chunks.append(chunk)
        compactions = run_chain(locations, chunks, r_max=100.0,
                                max_separated_neighbors=1)
        assert compactions >= 1


class TestWarmStart:
    def test_appended_separated_rows_start_feasible(self):
        # Three collinear APs 100 m apart; C is seen once, below
        # min_evidence, so the fit has only the co-observed row A-B and
        # every radius at r_max.  A second sighting of C appends the
        # separated rows A-C and B-C, both violated by those radii:
        # their penalty slacks start basic, so phase 1 has no work.
        locations = {mac(i): Point(100.0 * i, 0.0) for i in range(3)}
        a, b, c = locations
        estimator = RadiusEstimator(locations, r_max=200.0, min_evidence=2,
                                    tie_break=TIE)
        fitted = estimator.fit([{a, b}, {a, b}, {c}])
        assert estimator.lp_rows == 1
        assert list(fitted.radii.values()) == pytest.approx([200.0] * 3)
        estimator.ingest([{c}])
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            estimate = estimator.refit()
        assert estimate.warm_started
        assert estimate.lp_rows == 3 and estimate.separated_pairs == 2
        counters = registry.snapshot()["counters"]
        assert counters["repro.lp.revised.phase1_pivots"] == 0
        radii, _ = highs_fit(
            RadiusEstimator(locations, r_max=200.0, min_evidence=2,
                            tie_break=TIE), [{a, b}, {a, b}, {c}, {c}])
        for m in locations:
            assert estimate.radii[m] == pytest.approx(radii[m], abs=1e-6)
