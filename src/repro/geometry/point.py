"""2-D point primitive used throughout the geometry and localization code."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple


@dataclass(frozen=True)
class Point:
    """An immutable 2-D point (planar coordinates, meters)."""

    __slots__ = ("x", "y")

    x: float
    y: float

    def __reduce__(self):
        # Frozen with manual slots: unpickling must go through __init__.
        return (type(self), (self.x, self.y))

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (avoids the sqrt in hot loops)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Point":
        return Point(self.x / scalar, self.y / scalar)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def norm(self) -> float:
        """Distance from the origin."""
        return math.hypot(self.x, self.y)

    def angle(self) -> float:
        """Polar angle ``atan2(y, x)`` in radians."""
        return math.atan2(self.y, self.x)

    def rotated(self, radians: float) -> "Point":
        """Return this point rotated about the origin."""
        cos_a = math.cos(radians)
        sin_a = math.sin(radians)
        return Point(self.x * cos_a - self.y * sin_a,
                     self.x * sin_a + self.y * cos_a)

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def is_close(self, other: "Point", tol: float = 1e-9) -> bool:
        """True when both coordinates match within ``tol``."""
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol


def mean_point(points: Iterable[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points.

    This is the paper's ``AVG(Δ)`` operator (M-Loc line 11).
    """
    total_x = 0.0
    total_y = 0.0
    count = 0
    for point in points:
        total_x += point.x
        total_y += point.y
        count += 1
    if count == 0:
        raise ValueError("mean_point of an empty collection is undefined")
    return Point(total_x / count, total_y / count)
