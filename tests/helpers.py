"""Shared test helpers (importable as ``tests.helpers``)."""

from repro.geometry.circle import circle_intersections
from repro.geometry.point import Point
from repro.knowledge.apdb import ApRecord
from repro.net80211.mac import MacAddress
from repro.net80211.ssid import Ssid


def make_record(index: int, x: float, y: float,
                max_range_m=None, channel=6) -> ApRecord:
    """A deterministic AP record for hand-built databases."""
    return ApRecord(
        bssid=MacAddress(0x001B63000000 + index),
        ssid=Ssid(f"test-ap-{index}"),
        location=Point(x, y),
        max_range_m=max_range_m,
        channel=channel,
    )


# ----------------------------------------------------------------------
# Scalar disc-intersection reference
# ----------------------------------------------------------------------
#
# M-Loc's pseudocode as per-pair Python loops over Circle/Point.  The
# program computes all of this with repro.geometry.kernels; these loops
# are the reference the kernel property tests pin it against.

def reference_slack(discs, tol=1e-9):
    """The region tolerance: ``tol`` scaled by the largest radius."""
    return tol * max(1.0, max(disc.radius for disc in discs))


def reference_vertices(discs, tol=1e-9):
    """Δ: every pairwise intersection point inside all discs, deduped.

    Pairs in ``i < j`` order; a point within ``10·slack`` (Chebyshev)
    of an already kept point is dropped, keep-first.
    """
    slack = reference_slack(discs, tol)
    candidates = []
    for i in range(len(discs)):
        for j in range(i + 1, len(discs)):
            for point in circle_intersections(discs[i], discs[j]):
                if all(disc.contains(point, slack) for disc in discs):
                    candidates.append(point)
    unique = []
    for point in candidates:
        if not any(point.is_close(kept, slack * 10.0) for kept in unique):
            unique.append(point)
    return unique


def reference_nested_disc(discs, tol=1e-9):
    """The smallest disc contained in all others (earliest on ties)."""
    slack = reference_slack(discs, tol)
    for candidate in sorted(discs, key=lambda disc: disc.radius):
        if all(other.contains_circle(candidate, slack) for other in discs):
            return candidate
    return None


def reference_is_empty(discs, tol=1e-9):
    """No vertex survives and no disc is nested in all the others."""
    return (not reference_vertices(discs, tol)
            and reference_nested_disc(discs, tol) is None)
