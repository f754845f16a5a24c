"""Edge-case tests for paths not exercised elsewhere."""

import numpy as np
import pytest

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.region import DiscIntersection
from repro.lp.problem import LpProblem


class TestSimplexLimits:
    def test_iteration_limit_status(self):
        # A legitimate LP with max_iter too small to finish.
        problem = LpProblem()
        for _ in range(3):
            problem.add_variable(low=0.0, up=10.0)
        problem.set_objective({0: 1.0, 1: 1.0, 2: 1.0})
        for i, j in ((0, 1), (1, 2), (0, 2)):
            problem.add_constraint({i: 1.0, j: 1.0}, ">=", 1.0)
        result = problem.solve(max_iter=1)
        assert result.status in ("iteration_limit", "optimal")
        if result.status == "iteration_limit":
            assert result.x is None

    def test_zero_variable_edge(self):
        problem = LpProblem()
        x = problem.add_variable(low=2.0, up=2.0)
        problem.set_objective({x: 5.0})
        result = problem.solve()
        assert result.is_optimal
        assert result.x[0] == pytest.approx(2.0)


class TestRegionMonteCarloEdges:
    def test_disjoint_region_monte_carlo(self):
        region = DiscIntersection([Circle(Point(0, 0), 1.0),
                                   Circle(Point(10, 0), 1.0)])
        rng = np.random.default_rng(0)
        assert region.monte_carlo_area(rng, samples=100) == 0.0
        assert region.monte_carlo_centroid(rng, samples=100) is None

    def test_zero_radius_disc(self):
        region = DiscIntersection([Circle(Point(3, 4), 0.0)])
        assert region.area == 0.0
        assert region.centroid() == Point(3, 4)

    def test_tiny_sliver_region_numerics(self):
        # Two circles overlapping by a hair: a near-degenerate lens.
        region = DiscIntersection([Circle(Point(0, 0), 1.0),
                                   Circle(Point(1.999999, 0), 1.0)])
        assert not region.is_empty
        assert region.area < 1e-3
        centroid = region.centroid()
        assert centroid.x == pytest.approx(1.0, abs=1e-3)


class TestHopperInWorld:
    def test_hopping_sniffer_misses_most_bursts(self):
        """A single hopping card (the feasibility rig) sees far fewer
        frames than the three fixed cards (the deployed rig)."""
        from repro.net80211.mac import MacAddress
        from repro.net80211.medium import Medium
        from repro.net80211.station import PROFILES, MobileStation
        from repro.radio.channels import CHANNELS_80211BG
        from repro.radio.propagation import FreeSpaceModel
        from repro.sim.world import CampusWorld
        from repro.sniffer.capture import ChannelHopper, Sniffer, SnifferCard
        from repro.sniffer.receiver import (
            build_marauder_chain,
            build_marauder_sniffer,
        )
        from tests.test_sim_world import make_ap

        aps = [make_ap(i, 100.0 + 50.0 * i, 100.0,
                       channel=(1, 6, 11)[i % 3]) for i in range(3)]

        def run(sniffer_factory):
            medium = Medium(FreeSpaceModel())
            sniffer = sniffer_factory(medium)
            world = CampusWorld(aps, medium, sniffer=sniffer, seed=2)
            station = MobileStation(
                mac=MacAddress.random(np.random.default_rng(5)),
                position=Point(150.0, 120.0),
                profile=PROFILES["aggressive"])
            world.add_station(station)
            world.run(duration_s=120.0)
            return sniffer.store.frame_count

        def hopping(medium):
            chain = build_marauder_chain()
            hopper = ChannelHopper(channels=CHANNELS_80211BG, dwell_s=4.0)
            return Sniffer(position=Point(150.0, 150.0),
                           cards=[SnifferCard(chain=chain, channel=hopper)],
                           medium=medium)

        def fixed(medium):
            return build_marauder_sniffer(Point(150.0, 150.0), medium)

        assert run(hopping) < run(fixed)


class TestFrameTypeHelpers:
    def test_is_probe_traffic(self):
        from repro.net80211.frames import FrameType

        assert FrameType.PROBE_REQUEST.is_probe_traffic
        assert FrameType.PROBE_RESPONSE.is_probe_traffic
        assert not FrameType.BEACON.is_probe_traffic
        assert not FrameType.DATA.is_probe_traffic
        assert not FrameType.DEAUTHENTICATION.is_probe_traffic
