"""Circle primitive, pairwise intersection, and lens area.

These implement the building blocks used by M-Loc (pairwise
intersection points, paper Section III-D) and by Theorem 2/3 (the
lens-area formula, paper equations (21) and (36)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.geometry.point import Point


@dataclass(frozen=True)
class Circle:
    """A circle (or the disc it bounds) with center and radius in meters."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError(f"circle radius must be >= 0, got {self.radius}")

    @property
    def area(self) -> float:
        """Area of the bounded disc."""
        return math.pi * self.radius * self.radius

    def contains(self, point: Point, tol: float = 1e-9) -> bool:
        """True when ``point`` lies in the closed disc (with tolerance)."""
        slack = self.radius + tol
        return point.squared_distance_to(self.center) <= slack * slack

    def on_boundary(self, point: Point, tol: float = 1e-6) -> bool:
        """True when ``point`` lies on the circle within ``tol`` meters."""
        return abs(point.distance_to(self.center) - self.radius) <= tol

    def point_at(self, angle: float) -> Point:
        """Point on the circle at polar ``angle`` (radians) from center."""
        return Point(self.center.x + self.radius * math.cos(angle),
                     self.center.y + self.radius * math.sin(angle))

    def contains_circle(self, other: "Circle", tol: float = 1e-9) -> bool:
        """True when ``other``'s disc is entirely inside this disc."""
        distance = self.center.distance_to(other.center)
        return distance + other.radius <= self.radius + tol


def circle_intersections(a: Circle, b: Circle, tol: float = 1e-12) -> List[Point]:
    """Intersection points of two circles.

    Returns an empty list (disjoint or nested), one point (tangent), or
    two points.  This is step 3 of the paper's M-Loc pseudocode: "Compute
    U as the set of intersected points of the two circles ... U may be
    empty or contains one or two points."
    """
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    distance = math.hypot(dx, dy)
    if distance <= tol:
        # Concentric circles: either identical (infinite intersection,
        # which we report as no discrete vertices) or disjoint.
        return []
    if distance > a.radius + b.radius + tol:
        return []  # too far apart
    if distance < abs(a.radius - b.radius) - tol:
        return []  # one disc strictly inside the other
    # Distance along the center line from a.center to the chord.
    along = (distance * distance + a.radius * a.radius
             - b.radius * b.radius) / (2.0 * distance)
    # Half chord length; clamp tiny negatives from rounding.
    half_chord_sq = a.radius * a.radius - along * along
    if half_chord_sq < 0.0:
        half_chord_sq = 0.0
    half_chord = math.sqrt(half_chord_sq)
    ux = dx / distance
    uy = dy / distance
    foot = Point(a.center.x + along * ux, a.center.y + along * uy)
    if half_chord <= tol * max(1.0, a.radius + b.radius):
        return [foot]
    offset = Point(-uy * half_chord, ux * half_chord)
    return [Point(foot.x + offset.x, foot.y + offset.y),
            Point(foot.x - offset.x, foot.y - offset.y)]


def lens_area(a: Circle, b: Circle) -> float:
    """Area of the intersection (lens) of two discs.

    Implements the standard two-circle lens formula the paper uses in
    the proofs of Theorems 2 and 3 (equations (21) and (36)), with the
    containment and disjoint cases handled explicitly.
    """
    distance = a.center.distance_to(b.center)
    r1, r2 = a.radius, b.radius
    if distance >= r1 + r2:
        return 0.0
    # Centers closer than ``2 * distance * r`` can resolve (a subnormal
    # distance) are concentric for the lens formula's denominators.
    if distance <= abs(r1 - r2) or 2.0 * distance * min(r1, r2) == 0.0:
        smaller = min(r1, r2)
        return math.pi * smaller * smaller
    # General lens: two circular segments, one from each circle.
    cos1 = (distance * distance + r1 * r1 - r2 * r2) / (2.0 * distance * r1)
    cos2 = (distance * distance + r2 * r2 - r1 * r1) / (2.0 * distance * r2)
    cos1 = min(1.0, max(-1.0, cos1))
    cos2 = min(1.0, max(-1.0, cos2))
    angle1 = math.acos(cos1)
    angle2 = math.acos(cos2)
    triangle_term = 0.5 * math.sqrt(
        max(0.0, (r1 + r2 + distance) * (-distance + r1 + r2)
            * (distance - r1 + r2) * (distance + r1 - r2))
    )
    # Clamp tiny negatives from near-tangent rounding.
    return max(0.0, r1 * r1 * angle1 + r2 * r2 * angle2 - triangle_term)
