"""Shared test helpers (importable as ``tests.helpers``)."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

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


# ----------------------------------------------------------------------
# The LP oracle
# ----------------------------------------------------------------------
#
# The library solves every LP with its in-tree revised simplex
# (repro.lp); scipy's HiGHS is the independent solver the tests and
# bench_aprad_lp compare it against.  scipy is a test dependency only.

@dataclass
class HighsResult:
    """Status, solution and objective of a :func:`highs_solve`."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: Optional[np.ndarray]
    objective: Optional[float]

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def highs_solve(problem) -> HighsResult:
    """Solve an :class:`~repro.lp.LpProblem`'s rows with
    ``scipy.optimize.linprog`` (HiGHS); ``objective`` is in the
    problem's own sense."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n = problem.num_variables
    cost = np.array(problem._cost)
    start, col, val, sense, rhs = problem._rows.arrays()
    # Sparse triplet assembly: AP-Rad instances have thousands of rows
    # with only 2-3 nonzeros each.  ">=" rows enter A_ub negated.
    row = np.repeat(np.arange(len(rhs)), np.diff(start))
    sign = np.where(sense == 1, -1.0, 1.0)
    equality = sense == 2

    def block(selected: np.ndarray):
        if not selected.any():
            return None, None
        renumber = np.cumsum(selected) - 1
        entries = selected[row]
        matrix = csr_matrix(
            ((sign[row] * val)[entries],
             (renumber[row][entries], col[entries])),
            shape=(int(selected.sum()), n))
        return matrix, (sign * rhs)[selected]

    a_ub, b_ub = block(~equality)
    a_eq, b_eq = block(equality)
    obj_sign = -1.0 if problem.maximize else 1.0
    outcome = linprog(
        obj_sign * cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=list(zip(problem._low, problem._up)),
        method="highs",
    )
    if outcome.status == 0:
        return HighsResult("optimal", outcome.x, float(cost @ outcome.x))
    if outcome.status == 2:
        return HighsResult("infeasible", None, None)
    if outcome.status == 3:
        return HighsResult("unbounded", None, None)
    return HighsResult("iteration_limit", None, None)



def highs_fit(estimator, observations):
    """Fit ``estimator`` cold on ``observations``, then solve the LP it
    assembled with HiGHS.

    Returns HiGHS's radii, scaled and capped as the estimator scales
    and caps its own, and HiGHS's total penalty slack.
    """
    estimator.fit(observations)
    result = highs_solve(estimator._problem)
    assert result.is_optimal, result.status
    radii = {bssid: min(estimator.r_max,
                        float(result.x[index])
                        * estimator.overestimate_factor)
             for index, bssid in enumerate(estimator._bssids)}
    total_slack = float(sum(result.x[len(radii):].tolist()))
    return radii, total_slack
