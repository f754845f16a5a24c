"""Circle, pairwise intersection, and lens-area tests."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.geometry.circle import Circle, circle_intersections, lens_area
from repro.geometry.point import Point

coord = st.floats(min_value=-100.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)
radius = st.floats(min_value=0.1, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


class TestCircle:
    def test_area(self):
        assert Circle(Point(0, 0), 2.0).area == pytest.approx(4 * math.pi)

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), -1.0)

    def test_contains_interior_boundary_exterior(self):
        disc = Circle(Point(0, 0), 1.0)
        assert disc.contains(Point(0.5, 0.0))
        assert disc.contains(Point(1.0, 0.0))
        assert not disc.contains(Point(1.1, 0.0))

    def test_contains_tolerance(self):
        disc = Circle(Point(0, 0), 1.0)
        assert disc.contains(Point(1.0 + 1e-10, 0.0))

    def test_on_boundary(self):
        disc = Circle(Point(0, 0), 5.0)
        assert disc.on_boundary(Point(5.0, 0.0))
        assert not disc.on_boundary(Point(4.0, 0.0))

    def test_point_at(self):
        disc = Circle(Point(1, 1), 2.0)
        p = disc.point_at(math.pi / 2)
        assert p.x == pytest.approx(1.0)
        assert p.y == pytest.approx(3.0)

    def test_contains_circle(self):
        big = Circle(Point(0, 0), 10.0)
        small = Circle(Point(3, 0), 2.0)
        assert big.contains_circle(small)
        assert not small.contains_circle(big)

    def test_contains_circle_identical(self):
        disc = Circle(Point(0, 0), 5.0)
        assert disc.contains_circle(Circle(Point(0, 0), 5.0))


class TestCircleIntersections:
    def test_two_points(self):
        points = circle_intersections(Circle(Point(0, 0), 1.0),
                                      Circle(Point(1, 0), 1.0))
        assert len(points) == 2
        for p in points:
            assert p.x == pytest.approx(0.5)
            assert abs(p.y) == pytest.approx(math.sqrt(0.75))

    def test_disjoint(self):
        assert circle_intersections(Circle(Point(0, 0), 1.0),
                                    Circle(Point(5, 0), 1.0)) == []

    def test_nested(self):
        assert circle_intersections(Circle(Point(0, 0), 5.0),
                                    Circle(Point(1, 0), 1.0)) == []

    def test_external_tangency(self):
        points = circle_intersections(Circle(Point(0, 0), 1.0),
                                      Circle(Point(2, 0), 1.0))
        assert len(points) == 1
        assert points[0].x == pytest.approx(1.0)
        assert points[0].y == pytest.approx(0.0, abs=1e-9)

    def test_concentric(self):
        assert circle_intersections(Circle(Point(0, 0), 1.0),
                                    Circle(Point(0, 0), 2.0)) == []

    def test_identical_circles(self):
        assert circle_intersections(Circle(Point(0, 0), 1.0),
                                    Circle(Point(0, 0), 1.0)) == []

    @given(coord, coord, radius, coord, coord, radius)
    def test_intersection_points_lie_on_both_circles(self, ax, ay, ar,
                                                     bx, by, br):
        a = Circle(Point(ax, ay), ar)
        b = Circle(Point(bx, by), br)
        for p in circle_intersections(a, b):
            scale = max(1.0, ar, br)
            assert a.on_boundary(p, tol=1e-6 * scale)
            assert b.on_boundary(p, tol=1e-6 * scale)


class TestLensArea:
    def test_disjoint_zero(self):
        assert lens_area(Circle(Point(0, 0), 1.0),
                         Circle(Point(3, 0), 1.0)) == 0.0

    def test_nested_is_smaller_disc(self):
        area = lens_area(Circle(Point(0, 0), 5.0),
                         Circle(Point(1, 0), 1.0))
        assert area == pytest.approx(math.pi)

    def test_identical(self):
        area = lens_area(Circle(Point(0, 0), 2.0), Circle(Point(0, 0), 2.0))
        assert area == pytest.approx(4 * math.pi)

    def test_known_half_overlap(self):
        # Unit circles at distance 1: classic lens area.
        area = lens_area(Circle(Point(0, 0), 1.0), Circle(Point(1, 0), 1.0))
        expected = 2 * math.acos(0.5) - 0.5 * math.sqrt(3)
        assert area == pytest.approx(expected)

    def test_symmetry(self):
        a = Circle(Point(0, 0), 2.0)
        b = Circle(Point(1.5, 0.5), 1.0)
        assert lens_area(a, b) == pytest.approx(lens_area(b, a))

    @given(coord, coord, radius, coord, coord, radius)
    @example(0.0, 5e-324, 0.25, 0.0, 0.0, 0.25)  # subnormal center offset
    def test_bounds(self, ax, ay, ar, bx, by, br):
        a = Circle(Point(ax, ay), ar)
        b = Circle(Point(bx, by), br)
        area = lens_area(a, b)
        assert 0.0 <= area <= min(a.area, b.area) + 1e-9

    @given(coord, coord, radius)
    def test_tangent_circles_zero_area(self, x, y, r):
        a = Circle(Point(x, y), r)
        b = Circle(Point(x + 2 * r, y), r)
        # Rounding can push tangency marginally either way; the area
        # must be non-negative and negligible relative to the discs.
        area = lens_area(a, b)
        assert 0.0 <= area <= 1e-4 * a.area
