"""Sparse revised-simplex solver with warm starts.

A dense tableau simplex carries the whole ``m × (n + m)`` tableau
through every pivot — O(m·n) work per iteration and a from-scratch
rebuild per solve.  AP-Rad's streaming re-fits are the opposite
workload: thousands of rows with 2–3 nonzeros each, solved over and
over with only a handful of rows changed.  This module is the engine
built for that shape:

* **Sparse storage** — the constraint matrix lives in CSC form
  (``indptr`` / ``indices`` / ``data`` arrays); the tableau is never
  materialized.  Row slacks make every row an equality, and variable
  bounds are handled directly by the bounded-variable simplex instead
  of being expanded into extra rows.
* **Sparse basis factor** — the ``m × m`` basis is factorized by
  SuperLU (``scipy.sparse.linalg.splu``) straight from its CSC column
  slices, so no dense ``m × m`` array is ever built, and each pivot
  appends a product-form eta vector instead of refactorizing.  The
  basis is refactorized — and the basic solution recomputed to wash
  out drift — every :data:`REFACTOR_EVERY` pivots or on a degenerate
  pivot element.
* **Dantzig pricing with Bland fallback** — steepest reduced cost
  normally, switching to Bland's least-index rule after a pivot budget
  so degenerate instances terminate.  Pricing and the ratio test are
  whole-array NumPy passes; no per-row or per-column Python loop runs
  inside a pivot.
* **Phase 1 without artificials** — a composite infeasibility phase:
  basic variables outside their bounds price with ±1 costs and the
  ratio test stops at the first breakpoint where an infeasible basic
  reaches its violated bound.  Starting from a warm basis this loop
  runs for the *delta*, not the problem size, which is what makes
  incremental AP-Rad re-fits cheap.
* **Warm starts** — :class:`LpState` records the optimal basis in
  solver-independent column codes (variable ``j`` or row ``k``'s
  slack), so a caller can append rows/columns to a problem and
  restart from the previous optimum; unknown or clashing codes
  degrade gracefully to that row's slack.

The solver accepts LPs with finite lower bounds and optional upper
bounds, and is pinned against ``scipy.optimize.linprog`` by the
property tests in ``tests/test_lp_revised.py``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

#: Reduced-cost optimality tolerance.
DUAL_TOL = 1e-9
#: Primal feasibility tolerance.
FEAS_TOL = 1e-7
#: Smallest acceptable pivot element before forcing a refactorization.
PIVOT_TOL = 1e-10
#: Pivots between basis refactorizations.
REFACTOR_EVERY = 64

_BASIC = 0
_AT_LOWER = 1
_AT_UPPER = 2


def slack_code(row: int) -> int:
    """The :class:`LpState` code of row ``row``'s slack column."""
    return -1 - row


@dataclass(frozen=True, eq=False)
class LpState:
    """A warm-start snapshot in solver-independent coordinates.

    ``row_basic[i]`` codes the column basic in row ``i``: ``j >= 0``
    for structural variable ``j``, :func:`slack_code` ``(k) = -1 - k``
    for row ``k``'s slack.  ``at_upper`` codes the nonbasic columns
    resting at their upper bound (everything else defaults to its
    lower bound, or the upper one when the lower is infinite).  Codes
    that no longer resolve in a grown problem fall back to the row's
    own slack, so a state taken before rows/columns were appended
    remains a valid (if partially cold) starting point.  Both are int
    arrays: a fitted model keeps its last state resident.
    """

    row_basic: np.ndarray
    at_upper: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_basic",
                           np.asarray(self.row_basic, dtype=np.int64))
        object.__setattr__(self, "at_upper",
                           np.asarray(self.at_upper, dtype=np.int64))


#: :class:`LpRows` sense codes, in order.
SENSES = ("<=", ">=", "==")


class LpRows:
    """Constraint rows in flat typed arrays that grow by appending.

    Row ``i``'s coefficients are ``col``/``val`` entries
    ``start[i]:start[i + 1]`` (COO order: rows ascending, each row's
    entries in insertion order); ``sense[i]`` indexes :data:`SENSES`.
    """

    __slots__ = ("start", "col", "val", "sense", "rhs")

    def __init__(self):
        self.start = array("q", [0])
        self.col = array("q")
        self.val = array("d")
        self.sense = array("b")
        self.rhs = array("d")

    def __len__(self) -> int:
        return len(self.rhs)

    def append(self, coefficients: Dict[int, float], sense: str,
               rhs: float) -> None:
        """Add ``sum(coef_j * x_j) <sense> rhs``."""
        if sense not in SENSES:
            raise ValueError(f"unknown constraint sense {sense!r}")
        self.col.extend(coefficients.keys())
        self.val.extend(coefficients.values())
        self.start.append(len(self.col))
        self.sense.append(SENSES.index(sense))
        self.rhs.append(rhs)

    @classmethod
    def of(cls, constraints: Sequence[Tuple[Dict[int, float], str, float]]
           ) -> "LpRows":
        """Rows from ``(coefficients, sense, rhs)`` triples."""
        rows = cls()
        for coefficients, sense, rhs in constraints:
            rows.append(coefficients, sense, rhs)
        return rows

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray, np.ndarray]:
        """``(start, col, val, sense, rhs)`` as NumPy arrays (copies)."""
        return (np.array(self.start, dtype=np.int64),
                np.array(self.col, dtype=np.int64),
                np.array(self.val, dtype=float),
                np.array(self.sense, dtype=np.int8),
                np.array(self.rhs, dtype=float))


@dataclass
class RevisedResult:
    """Outcome of a revised-simplex solve."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: Optional[np.ndarray]  # structural variable values
    objective: Optional[float]
    iterations: int = 0
    phase1_iterations: int = 0
    refactorizations: int = 0
    warm_started: bool = False
    state: Optional[LpState] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


class _Csc:
    """Minimal CSC matrix: just the three arrays and column slicing."""

    __slots__ = ("m", "n", "indptr", "indices", "data")

    def __init__(self, m: int, n: int, indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray):
        self.m = m
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.data = data

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        start, end = self.indptr[j], self.indptr[j + 1]
        return self.indices[start:end], self.data[start:end]

    def columns(self, selected: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSC ``(data, indices, indptr)`` of the chosen columns."""
        starts = self.indptr[selected]
        counts = self.indptr[selected + 1] - starts
        indptr = np.zeros(len(selected) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        gather = (np.repeat(starts - indptr[:-1], counts)
                  + np.arange(indptr[-1]))
        return self.data[gather], self.indices[gather], indptr

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``A x`` for all rows in one vectorized pass."""
        counts = np.diff(self.indptr)
        return np.bincount(self.indices,
                           weights=self.data * np.repeat(x, counts),
                           minlength=self.m)

    def transpose_dot(self, y: np.ndarray) -> np.ndarray:
        """``A^T y`` for all columns in one vectorized pass."""
        out = np.zeros(self.n)
        if self.data.size == 0:
            return out
        prod = self.data * y[self.indices]
        starts = self.indptr[:-1]
        nonempty = self.indptr[1:] > starts
        sums = np.add.reduceat(prod, np.minimum(starts, prod.size - 1))
        out[nonempty] = sums[nonempty]
        return out


def _build_csc(rows: LpRows, n: int
               ) -> Tuple[_Csc, np.ndarray, np.ndarray, np.ndarray]:
    """Assemble ``[A | I]`` in CSC plus rhs and slack bound arrays.

    Row ``i``'s slack column is ``n + i`` with coefficient ``+1``;
    its bounds encode the sense: ``<=`` → ``[0, ∞)``, ``>=`` →
    ``(-∞, 0]``, ``==`` → ``[0, 0]``.  Zero coefficients are dropped;
    each column lists its rows in ascending order.
    """
    start, col, val, sense, rhs = rows.arrays()
    m = len(rhs)
    row = np.repeat(np.arange(m, dtype=np.int64), np.diff(start))
    keep = val != 0.0
    row, col, val = row[keep], col[keep], val[keep]
    # A stable sort by column keeps each column's rows ascending.
    order = np.argsort(col, kind="stable")
    total = n + m
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=n), out=indptr[1:n + 1])
    nnz_structural = int(indptr[n])
    indptr[n + 1:] = nnz_structural + np.arange(1, m + 1)
    indices = np.concatenate([row[order], np.arange(m, dtype=np.int64)])
    data = np.concatenate([val[order], np.ones(m)])
    slack_lower = np.where(sense == 1, -np.inf, 0.0)
    slack_upper = np.where(sense == 0, np.inf, 0.0)
    return (_Csc(m, total, indptr, indices, data), rhs,
            slack_lower, slack_upper)


class _SingularBasis(Exception):
    """Raised when the (warm) basis matrix cannot be factorized."""


def _superlu(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
             m: int):
    """SuperLU factor of the ``m × m`` CSC matrix ``(data, indices,
    indptr)``.

    ``scipy.sparse`` loads on the first factorization, not at import:
    a process that never solves an LP pays neither its import time nor
    its memory.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu
    return splu(csc_matrix((data, indices, indptr), shape=(m, m)))


class _BasisFactor:
    """Sparse LU-factorized basis with product-form eta updates.

    ``ftran`` solves ``B x = a`` and ``btran`` solves ``B^T y = c``.
    Each pivot appends one eta vector; the owner refactorizes when the
    eta file grows past :data:`REFACTOR_EVERY` or a pivot is too small.
    """

    def __init__(self, matrix: _Csc, basis: np.ndarray):
        data, indices, indptr = matrix.columns(basis)
        try:
            self._lu = _superlu(data, indices, indptr, matrix.m)
        except RuntimeError as error:  # SuperLU: "exactly singular"
            raise _SingularBasis from error
        scale = max(1.0, float(np.abs(data).max(initial=0.0)))
        if np.abs(self._lu.U.diagonal()).min() <= 1e-11 * scale:
            raise _SingularBasis
        self._etas: List[Tuple[int, np.ndarray]] = []

    @property
    def eta_count(self) -> int:
        return len(self._etas)

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        x = self._lu.solve(rhs)
        for position, eta in self._etas:
            pivot_value = x[position]
            if pivot_value != 0.0:
                x[position] = 0.0
                x += eta * pivot_value
        return x

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        y = np.array(rhs, dtype=float, copy=True)
        for position, eta in reversed(self._etas):
            y[position] = float(eta @ y)
        return self._lu.solve(y, trans="T")

    def update(self, position: int, w: np.ndarray) -> bool:
        """Fold in a pivot replacing basis ``position`` (``w = B⁻¹ a_q``).

        Returns False when the pivot element is numerically degenerate
        and the caller must refactorize instead.
        """
        pivot_value = w[position]
        if abs(pivot_value) < PIVOT_TOL:
            return False
        eta = -w / pivot_value
        eta[position] = 1.0 / pivot_value
        self._etas.append((position, eta))
        return True


def solve_revised(
    cost: np.ndarray,
    constraints: Sequence[Tuple[Dict[int, float], str, float]],
    lower: np.ndarray,
    upper: Sequence[Optional[float]],
    maximize: bool = False,
    warm_start: Optional[LpState] = None,
    max_iter: int = 20000,
    bland_after: Optional[int] = None,
) -> RevisedResult:
    """Solve a bounded LP with the sparse revised simplex.

    Parameters mirror the modeling layer: ``cost`` over ``n``
    structural variables, ``constraints`` as ``(coefficients, sense,
    rhs)`` rows with sparse coefficient dicts, finite ``lower`` bounds
    and optional ``upper`` bounds (``None`` = unbounded above).
    ``warm_start`` is an :class:`LpState` from a previous solve of this
    (possibly since-grown) problem.
    """
    return solve_rows(
        cost, LpRows.of(constraints), lower,
        [np.inf if bound is None else float(bound) for bound in upper],
        maximize=maximize, warm_start=warm_start, max_iter=max_iter,
        bland_after=bland_after)


def solve_rows(
    cost: np.ndarray,
    rows: LpRows,
    lower: np.ndarray,
    upper: np.ndarray,
    maximize: bool = False,
    warm_start: Optional[LpState] = None,
    max_iter: int = 20000,
    bland_after: Optional[int] = None,
) -> RevisedResult:
    """:func:`solve_revised` over :class:`LpRows`, with ``upper`` as
    floats (``inf`` = unbounded above)."""
    c_struct = np.asarray(cost, dtype=float)
    n = c_struct.shape[0]
    if maximize:
        c_struct = -c_struct
    matrix, rhs, slack_lower, slack_upper = _build_csc(rows, n)
    m = matrix.m
    total = matrix.n

    lo = np.empty(total)
    hi = np.empty(total)
    lo[:n] = np.asarray(lower, dtype=float)
    if not np.all(np.isfinite(lo[:n])):
        raise ValueError(
            "lower bounds must be finite (shift variables if needed)")
    hi[:n] = np.asarray(upper, dtype=float)
    lo[n:] = slack_lower
    hi[n:] = slack_upper
    if np.any(hi < lo - FEAS_TOL):
        return RevisedResult("infeasible", None, None)
    # Degenerate-range guard (upper < lower within tolerance): pin.
    hi = np.maximum(hi, lo)

    c_full = np.zeros(total)
    c_full[:n] = c_struct

    solver = _RevisedSimplex(matrix, rhs, lo, hi, c_full, n,
                             max_iter=max_iter, bland_after=bland_after)
    status = solver.run(warm_start)
    # Register-then-inc so the series exist (at zero) from the first
    # solve, however trivial; a snapshot taken right after always shows
    # them.
    registry = obs.current_registry()
    registry.counter("repro.lp.revised.pivots").inc(solver.iterations)
    registry.counter("repro.lp.revised.phase1_pivots").inc(
        solver.phase1_iterations)
    registry.counter("repro.lp.revised.refactorizations").inc(
        solver.refactorizations)
    result = RevisedResult(
        status=status,
        x=None,
        objective=None,
        iterations=solver.iterations,
        phase1_iterations=solver.phase1_iterations,
        refactorizations=solver.refactorizations,
        warm_started=solver.warm_started,
        state=None,
    )
    if status == "optimal":
        x_full = solver.solution()
        structural = x_full[:n]
        sign = -1.0 if maximize else 1.0
        result.x = structural
        result.objective = float(sign * (c_struct @ structural))
        result.state = solver.export_state()
    return result


def _ratio_test(delta: np.ndarray, x_b: np.ndarray, lo_b: np.ndarray,
                hi_b: np.ndarray, basis: np.ndarray, phase: int,
                bland: bool) -> Tuple[int, int, float]:
    """Pick the leaving row for basic velocities ``delta``.

    Returns ``(row, bound, t)``: the blocking row, the bound it lands
    on (:data:`_AT_LOWER` / :data:`_AT_UPPER`) and the step length,
    which is the shortest blocking step, or ``(-1, _AT_LOWER, inf)``
    when no basic variable blocks.  A basic
    variable moving towards a finite bound blocks when it reaches it;
    in phase 1 one that is infeasible below (above) blocks only when
    moving up (down), onto the bound it violates.  Among the rows within
    :data:`FEAS_TOL` of the shortest step, the largest ``|delta|`` wins
    (the earliest row on a tie), or the least basis index once Bland's
    rule is active.
    """
    up = delta > 0.0
    if phase == 1:
        below = x_b < lo_b - FEAS_TOL
        above = x_b > hi_b + FEAS_TOL
    else:
        below = above = np.zeros(delta.shape, dtype=bool)
    lands_upper = above | (~below & up)
    target = np.where(lands_upper, hi_b, lo_b)
    # A phase-1 row outside its bounds and moving further out never
    # blocks.
    blocks = ((np.abs(delta) > PIVOT_TOL) & np.isfinite(target)
              & ~(below & ~up) & ~(above & up))
    rows = np.nonzero(blocks)[0]
    if rows.size == 0:
        return -1, _AT_LOWER, np.inf
    t = np.maximum((target[rows] - x_b[rows]) / delta[rows], 0.0)
    t_min = float(t.min())
    near = rows[t <= t_min + FEAS_TOL]
    if bland:
        row = int(near[np.argmin(basis[near])])
    else:
        row = int(near[np.argmax(np.abs(delta[near]))])
    bound = _AT_UPPER if lands_upper[row] else _AT_LOWER
    return row, bound, t_min


class _RevisedSimplex:
    """One solve's worth of revised-simplex state."""

    def __init__(self, matrix: _Csc, rhs: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, cost: np.ndarray, n_struct: int,
                 max_iter: int, bland_after: Optional[int]):
        self.matrix = matrix
        self.rhs = rhs
        self.lo = lo
        self.hi = hi
        self.cost = cost
        self.n_struct = n_struct
        self.m = matrix.m
        self.total = matrix.n
        self.max_iter = max_iter
        self.bland_after = (bland_after if bland_after is not None
                            else max(1000, 10 * (self.m + self.total)))
        self.iterations = 0
        self.phase1_iterations = 0
        self.refactorizations = 0
        self.warm_started = False
        # Columns that can never usefully enter: fixed range.
        self.fixed = (self.hi - self.lo) <= 0.0
        self.status = np.empty(self.total, dtype=np.int8)
        self.basis = np.empty(self.m, dtype=np.int64)
        self.x_basic = np.zeros(self.m)
        self.nonbasic_value = np.zeros(self.total)
        self.factor: Optional[_BasisFactor] = None

    # -- setup ---------------------------------------------------------

    def _default_status(self) -> None:
        """Every column at its lower bound, or its upper if that is
        the only finite one."""
        self.status[:] = np.where(np.isfinite(self.lo), _AT_LOWER,
                                  _AT_UPPER)

    def _cold_basis(self) -> None:
        self.basis = np.arange(self.n_struct, self.n_struct + self.m,
                               dtype=np.int64)
        self._default_status()
        self.status[self.basis] = _BASIC

    def _warm_basis(self, state: LpState) -> None:
        taken = set()
        chosen = np.full(self.m, -1, dtype=np.int64)
        codes = state.row_basic.tolist()
        for row in range(self.m):
            column = -1
            if row < len(codes):
                code = codes[row]
                if 0 <= code < self.n_struct:
                    column = code
                elif 0 <= slack_code(code) < self.m:
                    column = self.n_struct + slack_code(code)
            if column < 0 or column in taken:
                column = self.n_struct + row
            if column in taken:  # foreign slack claim clashed
                continue
            taken.add(column)
            chosen[row] = column
        for row in range(self.m):  # fill rows whose claim clashed
            if chosen[row] < 0:
                fallback = self.n_struct + row
                if fallback in taken:
                    raise _SingularBasis
                taken.add(fallback)
                chosen[row] = fallback
        self.basis = chosen
        self._default_status()
        for code in state.at_upper.tolist():
            column = (code if code >= 0
                      else self.n_struct + slack_code(code))
            if (0 <= column < self.total
                    and column not in taken
                    and np.isfinite(self.hi[column])):
                self.status[column] = _AT_UPPER
        self.status[self.basis] = _BASIC

    def _refresh_nonbasic_values(self) -> None:
        at_lower = self.status == _AT_LOWER
        at_upper = self.status == _AT_UPPER
        self.nonbasic_value = np.where(at_lower, self.lo,
                                       np.where(at_upper, self.hi, 0.0))

    def _refactorize(self) -> None:
        self.factor = _BasisFactor(self.matrix, self.basis)
        self.refactorizations += 1
        self._recompute_basics()

    def _recompute_basics(self) -> None:
        self._refresh_nonbasic_values()  # basic columns read 0 here
        residual = self.rhs - self.matrix.dot(self.nonbasic_value)
        self.x_basic = self.factor.ftran(residual)

    # -- main loop -----------------------------------------------------

    def run(self, warm_start: Optional[LpState]) -> str:
        if self.m == 0:
            return self._solve_unconstrained()
        if warm_start is not None:
            try:
                self._warm_basis(warm_start)
                self._refactorize()
                self.warm_started = True
            except _SingularBasis:
                self.factor = None
        if self.factor is None:
            self._cold_basis()
            try:
                self._refactorize()
            except _SingularBasis:  # pragma: no cover - identity basis
                return "infeasible"
        phase = 1
        while self.iterations < self.max_iter:
            if phase == 1 and self._infeasibility() <= FEAS_TOL:
                phase = 2
            entering, direction = self._price(phase)
            if entering < 0:
                # Phase 1 prices only while the basis is infeasible, so
                # no improving column there means no feasible point.
                return "infeasible" if phase == 1 else "optimal"
            step = self._step(entering, direction, phase)
            if step == "unbounded":
                return "unbounded"
            self.iterations += 1
            if phase == 1:
                self.phase1_iterations += 1
            if (self.factor.eta_count >= REFACTOR_EVERY
                    or step == "refactor"):
                try:
                    self._refactorize()
                except _SingularBasis:
                    return "infeasible"
        return "iteration_limit"

    def _solve_unconstrained(self) -> str:
        finite_needed = (self.cost > 0) & ~np.isfinite(self.lo)
        unbounded = ((self.cost < 0) & ~np.isfinite(self.hi)).any() \
            or finite_needed.any()
        if unbounded:
            return "unbounded"
        self.status[:] = np.where(self.cost >= 0, _AT_LOWER, _AT_UPPER)
        self._refresh_nonbasic_values()
        return "optimal"

    # -- pricing -------------------------------------------------------

    def _infeasibility(self) -> float:
        lo_b = self.lo[self.basis]
        hi_b = self.hi[self.basis]
        below = np.maximum(0.0, lo_b - self.x_basic)
        above = np.maximum(0.0, self.x_basic - hi_b)
        return float(below.sum() + above.sum())

    def _phase1_gradient(self) -> np.ndarray:
        lo_b = self.lo[self.basis]
        hi_b = self.hi[self.basis]
        g = np.zeros(self.m)
        g[self.x_basic < lo_b - FEAS_TOL] = -1.0
        g[self.x_basic > hi_b + FEAS_TOL] = 1.0
        return g

    def _price(self, phase: int) -> Tuple[int, float]:
        """Pick the entering column; returns (column, direction σ)."""
        if phase == 1:
            basic_cost = self._phase1_gradient()
            offset = np.zeros(self.total)
        else:
            basic_cost = self.cost[self.basis]
            offset = self.cost
        y = self.factor.btran(basic_cost)
        reduced = offset - self.matrix.transpose_dot(y)
        at_lower = self.status == _AT_LOWER
        at_upper = self.status == _AT_UPPER
        candidates = ~self.fixed & (
            (at_lower & (reduced < -DUAL_TOL))
            | (at_upper & (reduced > DUAL_TOL)))
        indices = np.nonzero(candidates)[0]
        if indices.size == 0:
            return -1, 0.0
        if self.iterations < self.bland_after:
            scores = np.abs(reduced[indices])
            entering = int(indices[int(np.argmax(scores))])
        else:
            entering = int(indices[0])  # Bland: least index
        direction = 1.0 if self.status[entering] == _AT_LOWER else -1.0
        return entering, direction

    # -- ratio test + pivot --------------------------------------------

    def _step(self, entering: int, direction: float, phase: int) -> str:
        rows, values = self.matrix.column(entering)
        column_dense = np.zeros(self.m)
        column_dense[rows] = values
        w = self.factor.ftran(column_dense)
        delta = -direction * w  # basic-variable velocity per unit step

        x_b = self.x_basic
        best_row, best_bound, best_t = _ratio_test(
            delta, x_b, self.lo[self.basis], self.hi[self.basis],
            self.basis, phase, bland=self.iterations >= self.bland_after)

        bound_span = self.hi[entering] - self.lo[entering]
        if bound_span < best_t and np.isfinite(bound_span):
            # Bound flip: the entering variable crosses its own range
            # before any basic blocks; no basis change.
            self.x_basic = x_b - direction * bound_span * w
            self.status[entering] = (_AT_UPPER if direction > 0
                                     else _AT_LOWER)
            return "ok"
        if best_row < 0:
            return "unbounded"

        entering_start = (self.lo[entering] if direction > 0
                          else self.hi[entering])
        entering_value = entering_start + direction * best_t
        self.x_basic = x_b - direction * best_t * w
        leaving = int(self.basis[best_row])
        self.status[leaving] = best_bound
        # Snap the leaving variable's stored value onto its bound.
        self.basis[best_row] = entering
        self.status[entering] = _BASIC
        self.x_basic[best_row] = entering_value
        if not self.factor.update(best_row, w):
            return "refactor"
        return "ok"

    # -- extraction ----------------------------------------------------

    def solution(self) -> np.ndarray:
        self._refresh_nonbasic_values()
        x = self.nonbasic_value.copy()
        if self.m:
            x[self.basis] = self.x_basic
            # Clamp basic values onto their bounds within tolerance so
            # downstream consumers see exactly-feasible numbers.
            np.clip(x, self.lo, np.where(np.isfinite(self.hi),
                                         self.hi, np.inf), out=x)
        return x

    def export_state(self) -> LpState:
        def codes(columns: np.ndarray) -> np.ndarray:
            return np.where(columns < self.n_struct, columns,
                            slack_code(columns - self.n_struct))

        return LpState(
            row_basic=codes(self.basis),
            at_upper=codes(np.nonzero(self.status == _AT_UPPER)[0]))
