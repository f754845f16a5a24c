"""DiscIntersection tests: the geometric heart of the attack.

The exact arc-polygon area/centroid is validated against closed-form
lens formulas and Monte-Carlo rejection sampling, including a hypothesis
sweep over random disc configurations.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geometry.circle import Circle, lens_area
from repro.geometry.point import Point
from repro.geometry.region import DiscIntersection

coord = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
radius = st.floats(min_value=0.5, max_value=8.0,
                   allow_nan=False, allow_infinity=False)


def disc_strategy():
    return st.builds(lambda x, y, r: Circle(Point(x, y), r),
                     coord, coord, radius)


class TestConstruction:
    def test_requires_discs(self):
        with pytest.raises(ValueError):
            DiscIntersection([])

    def test_single_disc(self):
        region = DiscIntersection([Circle(Point(3, 4), 2.0)])
        assert not region.is_empty
        assert region.area == pytest.approx(4 * math.pi)
        assert region.centroid() == Point(3, 4)
        assert region.vertices == []
        assert region.vertex_centroid() is None


class TestTwoDiscs:
    def test_lens_area_matches_formula(self):
        a = Circle(Point(0, 0), 1.0)
        b = Circle(Point(1.2, 0), 1.0)
        region = DiscIntersection([a, b])
        assert region.area == pytest.approx(lens_area(a, b), rel=1e-9)

    def test_lens_centroid_on_symmetry_axis(self):
        region = DiscIntersection([Circle(Point(0, 0), 1.0),
                                   Circle(Point(1, 0), 1.0)])
        centroid = region.centroid()
        assert centroid.x == pytest.approx(0.5)
        assert centroid.y == pytest.approx(0.0, abs=1e-9)

    def test_asymmetric_lens_centroid_vs_monte_carlo(self):
        region = DiscIntersection([Circle(Point(0, 0), 2.0),
                                   Circle(Point(1.5, 0.5), 1.0)])
        rng = np.random.default_rng(0)
        mc = region.monte_carlo_centroid(rng, samples=60000)
        exact = region.centroid()
        assert exact.x == pytest.approx(mc.x, abs=0.02)
        assert exact.y == pytest.approx(mc.y, abs=0.02)

    def test_disjoint_is_empty(self):
        region = DiscIntersection([Circle(Point(0, 0), 1.0),
                                   Circle(Point(5, 0), 1.0)])
        assert region.is_empty
        assert region.area == 0.0
        assert region.centroid() is None

    def test_nested_is_inner_disc(self):
        inner = Circle(Point(0.5, 0), 1.0)
        region = DiscIntersection([Circle(Point(0, 0), 5.0), inner])
        assert region.area == pytest.approx(inner.area)
        assert region.centroid() == inner.center

    def test_tangent_single_point(self):
        region = DiscIntersection([Circle(Point(0, 0), 1.0),
                                   Circle(Point(2, 0), 1.0)])
        assert not region.is_empty
        assert region.area == pytest.approx(0.0, abs=1e-6)
        centroid = region.centroid()
        assert centroid.x == pytest.approx(1.0, abs=1e-6)

    def test_major_arc_lens(self):
        # Small circle mostly inside the big one: its boundary arc on
        # the region exceeds pi.  Validated against the lens formula.
        a = Circle(Point(0, 0), 3.0)
        b = Circle(Point(2.9, 0), 1.0)
        region = DiscIntersection([a, b])
        assert region.area == pytest.approx(lens_area(a, b), rel=1e-9)


class TestManyDiscs:
    def test_three_disc_area_vs_monte_carlo(self):
        region = DiscIntersection([Circle(Point(0, 0), 1.0),
                                   Circle(Point(1, 0), 1.0),
                                   Circle(Point(0.5, 0.9), 1.0)])
        rng = np.random.default_rng(1)
        mc = region.monte_carlo_area(rng, samples=80000)
        assert region.area == pytest.approx(mc, rel=0.03)

    def test_adding_a_disc_never_grows_region(self):
        base = [Circle(Point(0, 0), 2.0), Circle(Point(1, 0), 2.0)]
        smaller = DiscIntersection(base + [Circle(Point(0.5, 1.0), 1.5)])
        assert smaller.area <= DiscIntersection(base).area + 1e-9

    def test_vertices_inside_all_discs(self):
        discs = [Circle(Point(0, 0), 1.5), Circle(Point(1, 0), 1.5),
                 Circle(Point(0.5, 1), 1.5)]
        region = DiscIntersection(discs)
        for vertex in region.vertices:
            for disc in discs:
                assert disc.contains(vertex, tol=1e-6)

    def test_centroid_inside_region(self):
        discs = [Circle(Point(0, 0), 2.0), Circle(Point(1.5, 0), 2.0),
                 Circle(Point(0.7, 1.2), 2.0)]
        region = DiscIntersection(discs)
        assert region.contains(region.centroid(), tol=1e-6)

    def test_vertex_centroid_is_vertex_mean(self):
        discs = [Circle(Point(0, 0), 1.0), Circle(Point(1, 0), 1.0)]
        region = DiscIntersection(discs)
        vertices = region.vertices
        mean = region.vertex_centroid()
        assert mean.x == pytest.approx(
            sum(v.x for v in vertices) / len(vertices))

    def test_contains_respects_all_discs(self):
        region = DiscIntersection([Circle(Point(0, 0), 1.0),
                                   Circle(Point(1, 0), 1.0)])
        assert region.contains(Point(0.5, 0.0))
        assert not region.contains(Point(-0.5, 0.0))  # only in disc A

    def test_bounding_box_contains_region(self):
        discs = [Circle(Point(0, 0), 2.0), Circle(Point(2, 1), 2.0)]
        region = DiscIntersection(discs)
        min_x, min_y, max_x, max_y = region.bounding_box()
        for vertex in region.vertices:
            assert min_x - 1e-9 <= vertex.x <= max_x + 1e-9
            assert min_y - 1e-9 <= vertex.y <= max_y + 1e-9


class TestInternalTangency:
    """A disc touching its container from inside is still nested."""

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_region_is_the_inner_disc(self, precomputed):
        # precomputed: the one-vertex Δ is handed in, as M-Loc's batch
        # path and the shard decoder do, instead of computed here.
        discs = [Circle(Point(0, 0), 1.0), Circle(Point(0, 1), 2.0)]
        region = DiscIntersection(
            discs, precomputed_vertices=[Point(0, -1)] if precomputed
            else None)
        assert not region.is_empty
        assert region.area == pytest.approx(math.pi)
        assert region.centroid() == Point(0, 0)
        # Δ counts as empty, as for strict nesting (DESIGN.md §5c).
        assert region.vertices == []
        assert region.vertex_centroid() is None

    def test_external_tangency_stays_a_point(self):
        region = DiscIntersection([Circle(Point(0, 0), 1.0),
                                   Circle(Point(3, 0), 2.0)])
        assert not region.is_empty
        assert region.area == 0.0
        assert region.centroid().is_close(Point(1, 0), 1e-9)


class TestRegionProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(disc_strategy(), min_size=2, max_size=5))
    # Internal tangency: one vertex, yet the region is the inner disc.
    @example([Circle(Point(0, 0), 1.0), Circle(Point(0, 1), 2.0)])
    def test_exact_area_matches_monte_carlo(self, discs):
        region = DiscIntersection(discs)
        rng = np.random.default_rng(7)
        mc = region.monte_carlo_area(rng, samples=40000)
        exact = region.area
        scale = max(exact, mc, 0.05)
        # MC with 40k samples: allow a few percent plus a floor for
        # sliver regions where relative error is meaningless.
        assert abs(exact - mc) <= 0.08 * scale + 0.02

    @settings(max_examples=40, deadline=None)
    @given(st.lists(disc_strategy(), min_size=1, max_size=5))
    def test_area_no_larger_than_smallest_disc(self, discs):
        region = DiscIntersection(discs)
        assert region.area <= min(d.area for d in discs) + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.lists(disc_strategy(), min_size=1, max_size=5))
    def test_centroid_inside_when_nonempty(self, discs):
        region = DiscIntersection(discs)
        if region.is_empty:
            assert region.centroid() is None
        else:
            centroid = region.centroid()
            # Allow tolerance proportional to the disc scale: sliver
            # regions have centroids right on the boundary.
            tol = 1e-4 * max(d.radius for d in discs)
            assert region.contains(centroid, tol=max(tol, 1e-6))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(disc_strategy(), min_size=2, max_size=4))
    def test_vertex_centroid_none_iff_no_vertices(self, discs):
        region = DiscIntersection(discs)
        if region.vertices:
            assert region.vertex_centroid() is not None
        else:
            assert region.vertex_centroid() is None
