"""A small LP modeling layer over the revised simplex solver.

Lets AP-Rad express its radius-estimation program naturally::

    problem = LpProblem(maximize=True)
    radii = [problem.add_variable(f"r_{bssid}", low=0, up=r_max) ...]
    problem.add_constraint({i: 1.0, j: 1.0}, ">=", d_ij)
    problem.set_objective({i: 1.0 for i in range(n)})
    result = problem.solve()

The ``solver`` argument selects the in-tree sparse revised simplex
(``"revised"``, the default — supports warm starts from a previous
solve's basis) or ``scipy.optimize.linprog`` (``"scipy"``, the
cross-check the test suite pins it against).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.faults import InfeasibleError, SolverError, UnboundedError
from repro.lp.revised import LpState, RevisedResult, solve_revised

_SENSES = ("<=", ">=", "==")


@dataclass
class LpResult:
    """Outcome of a scipy cross-check solve.

    Carries the same status/solution/counter fields as
    :class:`~repro.lp.revised.RevisedResult`, so callers read either
    uniformly; HiGHS never reports basis refactorizations, so
    ``refactorizations`` stays 0.
    """

    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int = 0
    refactorizations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _check_result(result: LpResult, raise_on_failure: bool) -> LpResult:
    """Optionally promote a non-optimal status to a typed exception."""
    if not raise_on_failure or result.is_optimal:
        return result
    if result.status == "infeasible":
        raise InfeasibleError()
    if result.status == "unbounded":
        raise UnboundedError()
    raise SolverError(f"LP solve failed: {result.status}",
                      status=result.status)


@dataclass
class _Constraint:
    coefficients: Dict[int, float]
    sense: str
    rhs: float
    name: str = ""


@dataclass
class LpProblem:
    """A linear program assembled incrementally."""

    maximize: bool = False
    _names: List[str] = field(default_factory=list)
    _bounds: List[Tuple[float, Optional[float]]] = field(default_factory=list)
    _constraints: List[_Constraint] = field(default_factory=list)
    _objective: Dict[int, float] = field(default_factory=dict)

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def add_variable(self, name: str = "", low: float = 0.0,
                     up: Optional[float] = None) -> int:
        """Add a variable and return its index."""
        if up is not None and up < low:
            raise ValueError(
                f"variable {name!r}: upper bound {up} < lower bound {low}")
        index = len(self._names)
        self._names.append(name or f"x{index}")
        self._bounds.append((low, up))
        return index

    def add_constraint(self, coefficients: Dict[int, float], sense: str,
                       rhs: float, name: str = "") -> None:
        """Add ``sum(coef_i * x_i) <sense> rhs``."""
        if sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {sense!r}")
        for index in coefficients:
            if not 0 <= index < len(self._names):
                raise IndexError(f"unknown variable index {index}")
        self._constraints.append(
            _Constraint(dict(coefficients), sense, float(rhs), name))

    def set_objective(self, coefficients: Dict[int, float]) -> None:
        """Set the (sparse) objective vector."""
        for index in coefficients:
            if not 0 <= index < len(self._names):
                raise IndexError(f"unknown variable index {index}")
        self._objective = dict(coefficients)

    def set_objective_coefficient(self, index: int, value: float) -> None:
        """Set a single objective coefficient in place."""
        if not 0 <= index < len(self._names):
            raise IndexError(f"unknown variable index {index}")
        self._objective[index] = float(value)

    def set_constraint_rhs(self, index: int, rhs: float) -> None:
        """Retune an existing constraint's right-hand side in place.

        This is the incremental-refit hook: tightening or relaxing a
        row does not invalidate a warm-start basis, so the next
        ``solve(solver="revised", warm_start=...)`` only repairs the
        rows whose rhs actually moved.
        """
        if not 0 <= index < len(self._constraints):
            raise IndexError(f"unknown constraint index {index}")
        self._constraints[index].rhs = float(rhs)

    def solve(self, solver: str = "revised", max_iter: int = 20000,
              warm_start: Optional[LpState] = None,
              raise_on_failure: bool = False) -> LpResult:
        """Solve with the chosen backend.

        ``"revised"`` is the in-tree sparse revised simplex (the only
        backend that honors ``warm_start``), ``"scipy"`` linprog/HiGHS
        as an external cross-check.

        With ``raise_on_failure=True`` a non-optimal outcome raises the
        typed :class:`~repro.faults.InfeasibleError`,
        :class:`~repro.faults.UnboundedError`, or
        :class:`~repro.faults.SolverError` instead of making every
        caller string-match ``result.status``.
        """
        if solver == "revised":
            return self.solve_revised(max_iter=max_iter,
                                      warm_start=warm_start,
                                      raise_on_failure=raise_on_failure)
        if solver != "scipy":
            raise ValueError(f"unknown solver {solver!r}")
        faults.hook("lp.solve")
        return _check_result(self._solve_scipy(), raise_on_failure)

    def solve_revised(self, max_iter: int = 20000,
                      warm_start: Optional[LpState] = None,
                      raise_on_failure: bool = False,
                      ) -> RevisedResult:
        """Solve with the sparse revised simplex, keeping its richer
        result (warm-start state, phase-1/refactorization counters).
        """
        faults.hook("lp.solve")
        n = len(self._names)
        cost = np.zeros(n)
        for index, value in self._objective.items():
            cost[index] = value
        constraints = [(c.coefficients, c.sense, c.rhs)
                       for c in self._constraints]
        lower = np.array([low for low, _ in self._bounds]) \
            if n else np.zeros(0)
        upper = [up for _, up in self._bounds]
        return _check_result(
            solve_revised(cost, constraints, lower, upper,
                          maximize=self.maximize,
                          warm_start=warm_start, max_iter=max_iter),
            raise_on_failure)

    def _solve_scipy(self) -> LpResult:
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix

        n = len(self._names)
        cost = np.zeros(n)
        for index, value in self._objective.items():
            cost[index] = value

        # Sparse triplet assembly: AP-Rad instances have thousands of
        # rows with only 2-3 nonzeros each.
        ub_rows: List[int] = []
        ub_cols: List[int] = []
        ub_data: List[float] = []
        b_ub: List[float] = []
        eq_rows: List[int] = []
        eq_cols: List[int] = []
        eq_data: List[float] = []
        b_eq: List[float] = []
        for constraint in self._constraints:
            if constraint.sense == "==":
                row_index = len(b_eq)
                for col, value in constraint.coefficients.items():
                    eq_rows.append(row_index)
                    eq_cols.append(col)
                    eq_data.append(value)
                b_eq.append(constraint.rhs)
            else:
                sign = 1.0 if constraint.sense == "<=" else -1.0
                row_index = len(b_ub)
                for col, value in constraint.coefficients.items():
                    ub_rows.append(row_index)
                    ub_cols.append(col)
                    ub_data.append(sign * value)
                b_ub.append(sign * constraint.rhs)

        a_ub = (csr_matrix((ub_data, (ub_rows, ub_cols)),
                           shape=(len(b_ub), n)) if b_ub else None)
        a_eq = (csr_matrix((eq_data, (eq_rows, eq_cols)),
                           shape=(len(b_eq), n)) if b_eq else None)
        obj_sign = -1.0 if self.maximize else 1.0
        outcome = linprog(
            obj_sign * cost,
            A_ub=a_ub,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=a_eq,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=self._bounds,
            method="highs",
        )
        if outcome.status == 0:
            return LpResult("optimal", outcome.x, float(cost @ outcome.x),
                            iterations=int(getattr(outcome, "nit", 0)))
        if outcome.status == 2:
            return LpResult("infeasible", None, None)
        if outcome.status == 3:
            return LpResult("unbounded", None, None)
        return LpResult("iteration_limit", None, None)

    def value(self, result: LpResult, index: int) -> float:
        """Value of variable ``index`` in an optimal result."""
        if not result.is_optimal or result.x is None:
            raise ValueError("LP result is not optimal")
        return float(result.x[index])
