"""A small LP modeling layer over the revised simplex solver.

Lets AP-Rad express its radius-estimation program naturally::

    problem = LpProblem(maximize=True)
    radii = [problem.add_variable(f"r_{bssid}", low=0, up=r_max) ...]
    problem.add_constraint({i: 1.0, j: 1.0}, ">=", d_ij)
    problem.set_objective({i: 1.0 for i in range(n)})
    result = problem.solve()

``solve`` runs the in-tree sparse revised simplex, which warm-starts
from a previous solve's basis.  The test suite pins it against
``scipy.optimize.linprog`` (HiGHS) on the same rows.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

import numpy as np

from repro import faults
from repro.faults import InfeasibleError, SolverError, UnboundedError
from repro.lp.revised import (SENSES, LpRows, LpState, RevisedResult,
                              solve_rows)


def _check_result(result: RevisedResult,
                  raise_on_failure: bool) -> RevisedResult:
    """Optionally promote a non-optimal status to a typed exception."""
    if not raise_on_failure or result.is_optimal:
        return result
    if result.status == "infeasible":
        raise InfeasibleError()
    if result.status == "unbounded":
        raise UnboundedError()
    raise SolverError(f"LP solve failed: {result.status}",
                      status=result.status)


class LpProblem:
    """A linear program assembled incrementally.

    Everything lives in flat typed arrays that grow by appending: per
    variable its bounds and objective coefficient, per row the
    :class:`~repro.lp.revised.LpRows` entries.  A fitted AP-Rad model
    keeps its LP resident for warm re-fits, so this is what it holds.
    """

    def __init__(self, maximize: bool = False):
        self.maximize = maximize
        self._low = array("d")
        self._up = array("d")  # inf: unbounded above
        self._cost = array("d")
        self._rows = LpRows()

    @property
    def num_variables(self) -> int:
        return len(self._low)

    @property
    def num_constraints(self) -> int:
        return len(self._rows)

    def add_variable(self, name: str = "", low: float = 0.0,
                     up: Optional[float] = None) -> int:
        """Add a variable and return its index (``name`` only labels a
        bounds error; it is not kept)."""
        if up is not None and up < low:
            raise ValueError(
                f"variable {name!r}: upper bound {up} < lower bound {low}")
        index = len(self._low)
        self._low.append(low)
        self._up.append(np.inf if up is None else up)
        self._cost.append(0.0)
        return index

    def _check_indices(self, coefficients: Dict[int, float]) -> None:
        for index in coefficients:
            if not 0 <= index < len(self._low):
                raise IndexError(f"unknown variable index {index}")

    def add_constraint(self, coefficients: Dict[int, float], sense: str,
                       rhs: float, name: str = "") -> None:
        """Add ``sum(coef_i * x_i) <sense> rhs`` (``name`` is not kept)."""
        if sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}, got {sense!r}")
        self._check_indices(coefficients)
        self._rows.append(coefficients, sense, float(rhs))

    def set_objective(self, coefficients: Dict[int, float]) -> None:
        """Set the (sparse) objective vector."""
        self._check_indices(coefficients)
        self._cost = array("d", [0.0]) * len(self._cost)
        for index, value in coefficients.items():
            self._cost[index] = value

    def set_objective_coefficient(self, index: int, value: float) -> None:
        """Set a single objective coefficient in place."""
        if not 0 <= index < len(self._low):
            raise IndexError(f"unknown variable index {index}")
        self._cost[index] = float(value)

    def set_constraint_rhs(self, index: int, rhs: float) -> None:
        """Retune an existing constraint's right-hand side in place.

        This is the incremental-refit hook: tightening or relaxing a
        row does not invalidate a warm-start basis, so the next
        ``solve(warm_start=...)`` only repairs the
        rows whose rhs actually moved.
        """
        if not 0 <= index < len(self._rows):
            raise IndexError(f"unknown constraint index {index}")
        self._rows.rhs[index] = float(rhs)

    def solve(self, *, max_iter: int = 20000,
              warm_start: Optional[LpState] = None,
              raise_on_failure: bool = False) -> RevisedResult:
        """Solve with the sparse revised simplex.

        ``warm_start`` restarts from a previous solve's basis.  With
        ``raise_on_failure=True`` a non-optimal outcome raises the
        typed :class:`~repro.faults.InfeasibleError`,
        :class:`~repro.faults.UnboundedError`, or
        :class:`~repro.faults.SolverError` instead of making every
        caller string-match ``result.status``.
        """
        faults.hook("lp.solve")
        return _check_result(
            solve_rows(np.array(self._cost), self._rows,
                       np.array(self._low), np.array(self._up),
                       maximize=self.maximize,
                       warm_start=warm_start, max_iter=max_iter),
            raise_on_failure)

    def value(self, result: RevisedResult, index: int) -> float:
        """Value of variable ``index`` in an optimal result."""
        if not result.is_optimal or result.x is None:
            raise ValueError("LP result is not optimal")
        return float(result.x[index])
