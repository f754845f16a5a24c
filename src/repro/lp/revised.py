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
* **Singleton/core basis factor** — a basic column with one nonzero
  (a row slack, or AP-Rad's penalty slack of a separated row) covers
  its row and is solved by substitution; the ``k`` basic columns with
  more entries, on the ``k`` rows no singleton covers, form a dense
  ``k × k`` core kept as its explicit inverse.  ``ftran`` and
  ``btran`` cost ``O(k²)`` plus a pass over the core columns' entries,
  and every pivot updates the core in ``O(k²)``: a singleton moving to
  another row replaces one core row, and a column entering or leaving
  the core borders, shrinks or replaces it.  No dense array beyond
  ``k × k`` is built.  The basis is refactorized — and the basic
  solution recomputed to wash out drift — every
  :data:`REFACTOR_EVERY` pivots or when an update's denominator is
  tiny.
* **Dantzig pricing, long-step ratio test, Bland fallback** — steepest
  reduced cost normally, switching to Bland's least-index rule (and the
  plain ratio test) after a pivot budget so degenerate instances
  terminate.  Pricing reads the slack columns' reduced costs straight
  from the duals and takes only the structural columns through a
  sparse product; the ratio test runs over the nonzeros of the
  entering column's ``B⁻¹ a``.  In phase 2 a step passes *elastic
  breakpoints* (Fourer's piecewise-linear simplex): an elastic pair is
  a row's slack and a structural singleton on that row with a negative
  coefficient, both bounded ``[0, ∞)`` — AP-Rad's separated row and its
  penalty slack.  When the basic member reaches 0 its twin takes the
  row, a same-row singleton swap with no ftran and no core update, and
  the step goes on while the entering column's reduced cost, raised by
  each swap's cost change, still improves.  The step ends at the
  breakpoint where it stops improving, at the first other blocking
  basic, or at the entering column's bound flip.  No per-row or
  per-column Python loop runs inside a pivot.
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
from typing import Dict, Optional, Sequence, Tuple

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
    #: Elastic breakpoints the steps passed (see :func:`_elastic_twins`).
    breakpoints: int = 0
    refactorizations: int = 0
    warm_started: bool = False
    state: Optional[LpState] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


class _Csc:
    """Minimal CSC matrix: the three arrays, column slicing, each
    column's lone entry when it has exactly one, and the entries row by
    row.

    ``single_row[j]`` is the row of column ``j``'s only nonzero and
    ``single_val[j]`` its value; both read ``-1`` / ``0.0`` when column
    ``j`` has any other number of entries.  Row ``i``'s entries are
    ``row_col`` / ``row_val`` ``[row_ptr[i]:row_ptr[i + 1]]``.
    """

    __slots__ = ("m", "n", "indptr", "indices", "data", "single_row",
                 "single_val", "row_ptr", "row_col", "row_val",
                 "_nonempty", "_segments")

    def __init__(self, m: int, n: int, indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray):
        self.m = m
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.data = data
        starts = indptr[:-1]
        counts = indptr[1:] - starts
        single = counts == 1
        self.single_row = np.full(n, -1, dtype=np.int64)
        self.single_row[single] = indices[starts[single]]
        self.single_val = np.zeros(n)
        self.single_val[single] = data[starts[single]]
        order = indices.argsort(kind="stable")
        self.row_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(indices, minlength=m), out=self.row_ptr[1:])
        self.row_col = np.repeat(np.arange(n), counts)[order]
        self.row_val = data[order]
        self._nonempty = counts > 0
        self._segments = starts[self._nonempty]

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
        sums = np.add.reduceat(self.data * y[self.indices], self._segments)
        if self._segments.size == self.n:
            return sums
        out = np.zeros(self.n)
        out[self._nonempty] = sums
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


def _lu_pivots(core: np.ndarray) -> np.ndarray:
    """``|diag(U)|`` of the partial-pivoting LU of the square ``core``.

    Entries after an exactly zero pivot read 0.
    """
    work = core.copy()
    size = work.shape[0]
    pivots = np.zeros(size)
    for i in range(size):
        best = i + int(np.argmax(np.abs(work[i:, i])))
        if best != i:
            work[[i, best]] = work[[best, i]]
        pivot = work[i, i]
        pivots[i] = abs(pivot)
        if pivot == 0.0:
            break
        work[i + 1:, i + 1:] -= np.multiply.outer(work[i + 1:, i] / pivot,
                                                  work[i, i + 1:])
    return pivots


class _BasisFactor:
    """The basis as singleton columns around a small dense core.

    A basic column with one nonzero covers that row.  The ``k`` other
    basic columns, on the ``k`` rows no singleton covers, form the core
    ``K``: permuted, ``B = [[D, E], [0, K]]`` with ``D`` the
    singletons' diagonal.  ``ftran`` solves ``B x = a`` as ``K x_C =
    a_U`` and then each covered row by substitution; ``btran`` solves
    ``B^T y = c`` the other way round.  The core is kept as its
    explicit inverse — row ``i`` belongs to core column slot ``i``,
    column ``i`` to core row slot ``i`` — and :meth:`update` changes it
    in ``O(k²)`` per pivot.  The owner refactorizes after
    :data:`REFACTOR_EVERY` updates or when one is refused.

    A basis is singular when two singletons cover one row, or when a
    singleton value or a pivot of the core's partial-pivoting LU is at
    most ``1e-11 · max(1, max |B|)``.
    """

    def __init__(self, matrix: _Csc, basis: np.ndarray):
        m = matrix.m
        self.matrix = matrix
        self.updates = 0
        rows = matrix.single_row[basis]
        covered = rows >= 0
        if np.bincount(rows[covered], minlength=1).max() > 1:
            raise _SingularBasis
        # Per basis position: its singleton's row and value, or the
        # dummy row m (an appended zero) and 1.0 for a core column.
        self._pos_row = np.where(covered, rows, m)
        self._pos_val = np.where(covered, matrix.single_val[basis], 1.0)
        uncovered = np.ones(m, dtype=bool)
        uncovered[rows[covered]] = False
        self._core_rows = np.flatnonzero(uncovered)
        self._core_pos = np.flatnonzero(~covered)
        self._core_cols = basis[self._core_pos]
        self._col_slot = np.full(matrix.n, -1, dtype=np.int64)
        self._row_slot = np.full(m, -1, dtype=np.int64)
        self._pos_slot = np.full(m, -1, dtype=np.int64)
        size = self._core_pos.size
        self._row_slot[self._core_rows] = np.arange(size)
        self._pos_slot[self._core_pos] = np.arange(size)
        self._col_slot[self._core_cols] = np.arange(size)
        self._gather_core()
        core = np.zeros((size, size))
        slots = self._row_slot[self._entry_row]
        inside = slots >= 0
        core[slots[inside], self._entry_slot[inside]] = \
            self._entry_val[inside]
        tolerance = 1e-11 * max(
            1.0, float(np.abs(self._pos_val).max(initial=0.0)),
            float(np.abs(self._entry_val).max(initial=0.0)))
        if np.abs(self._pos_val[covered]).min(initial=np.inf) <= tolerance:
            raise _SingularBasis
        try:
            self._inv = np.linalg.inv(core)
        except np.linalg.LinAlgError:  # an exactly zero LU pivot
            raise _SingularBasis from None
        # With |L| <= 1, min |diag(U)| <= tolerance would force
        # max |K⁻¹| >= 1 / (size · ‖L‖_F · tolerance); only a larger
        # inverse (10x margin) needs the LU pivots themselves.
        if size and not np.abs(self._inv).max() < 0.1 / (
                size * np.sqrt(size * (size + 1) / 2.0) * tolerance):
            if _lu_pivots(core).min() <= tolerance:
                raise _SingularBasis

    def _gather_core(self) -> None:
        """The core columns' entries as flat (row, value, slot) arrays."""
        data, indices, indptr = self.matrix.columns(self._core_cols)
        self._entry_row = indices
        self._entry_val = data
        self._entry_slot = np.repeat(np.arange(self._core_cols.size),
                                     np.diff(indptr))

    # -- solves --------------------------------------------------------

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        """``x`` with ``B x = rhs``."""
        return self._substitute(np.append(rhs, 0.0),
                                self._inv @ rhs[self._core_rows])

    def ftran_column(self, column: int) -> np.ndarray:
        """``B⁻¹ a`` for column ``column`` of the matrix."""
        return self._substitute(*self._column(column))

    def _column(self, column: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column ``column`` of the matrix as a dense right-hand side
        plus a trailing zero, and its core part ``K⁻¹ a_U``."""
        rows, values = self.matrix.column(column)
        padded = np.zeros(self.matrix.m + 1)
        padded[rows] = values
        slot = self._row_slot[rows[0]] if rows.size == 1 else -1
        if slot >= 0:  # a singleton on a core row: a column of K⁻¹
            return padded, self._inv[:, slot] * values[0]
        return padded, self._inv @ padded[self._core_rows]

    def _substitute(self, padded: np.ndarray,
                    x_core: np.ndarray) -> np.ndarray:
        """Solve the covered rows once the core part ``x_core`` is
        known; ``padded`` is the right-hand side plus a trailing zero
        and is overwritten."""
        if x_core.size:
            padded[:-1] -= np.bincount(
                self._entry_row,
                weights=self._entry_val * x_core[self._entry_slot],
                minlength=self.matrix.m)
        x = padded[self._pos_row] / self._pos_val
        x[self._core_pos] = x_core
        return x

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        """``y`` with ``B^T y = rhs``."""
        m = self.matrix.m
        y = np.zeros(m + 1)
        # Covered rows directly; core positions all land on row m.
        y[self._pos_row] = rhs / self._pos_val
        if self._core_pos.size:
            y[m] = 0.0
            core_rhs = rhs[self._core_pos] - np.bincount(
                self._entry_slot,
                weights=self._entry_val * y[self._entry_row],
                minlength=self._core_pos.size)
            y[self._core_rows] = core_rhs @ self._inv
        return y[:m]

    # -- updates -------------------------------------------------------

    def update(self, position: int, column: int) -> bool:
        """Fold in the pivot that puts ``column`` at basis ``position``.

        Returns False when the pivot's denominator is numerically
        degenerate (or the new basis is singular) and the caller must
        refactorize instead.
        """
        row = int(self.matrix.single_row[column])
        value = float(self.matrix.single_val[column])
        slot = int(self._pos_slot[position])
        if slot < 0:
            left_row = int(self._pos_row[position])
            if row == left_row:
                self.swap(position, value)
                done = True
            elif row >= 0:
                done = self._move_singleton(position, left_row, row, value)
            else:
                done = self._border(position, left_row, column)
        elif row >= 0:
            done = self._shrink(position, slot, row, value)
        else:
            done = self._replace_column(slot, column)
        if done:
            self.updates += 1
        return done

    def swap(self, positions, values) -> None:
        """Singletons of ``values`` replace those at ``positions`` on
        their own rows.  Only the covered rows' divisors change, so the
        core inverse is untouched and this is no update."""
        self._pos_val[positions] = values

    def _core_row(self, row: int) -> Tuple[np.ndarray, np.ndarray]:
        """The core slots and values of the core columns' entries on
        (covered) row ``row``."""
        span = slice(self.matrix.row_ptr[row], self.matrix.row_ptr[row + 1])
        slots = self._col_slot[self.matrix.row_col[span]]
        core = slots >= 0
        return slots[core], self.matrix.row_val[span][core]

    def _move_singleton(self, position: int, left_row: int, row: int,
                        value: float) -> bool:
        """The singleton leaving ``left_row`` is replaced by one on core
        row ``row``: ``left_row`` takes ``row``'s core row slot."""
        i = int(self._row_slot[row])
        if i < 0:  # row already covered: singular
            return False
        slots, values = self._core_row(left_row)
        g = values @ self._inv[slots]
        denominator = g[i]
        if abs(denominator) < PIVOT_TOL:
            return False
        g[i] -= 1.0
        self._inv -= np.multiply.outer(self._inv[:, i], g / denominator)
        self._core_rows[i] = left_row
        self._row_slot[left_row] = i
        self._row_slot[row] = -1
        self._pos_row[position] = row
        self._pos_val[position] = value
        return True

    def _border(self, position: int, left_row: int, column: int) -> bool:
        """A multi-entry column replaces the singleton on ``left_row``:
        the core grows by that row and column."""
        padded, x_core = self._column(column)
        slots, entries = self._core_row(left_row)
        schur = float(padded[left_row]) - float(entries @ x_core[slots])
        if abs(schur) < PIVOT_TOL:
            return False
        g = entries @ self._inv[slots]
        size = x_core.size
        inv = np.empty((size + 1, size + 1))
        inv[:size, :size] = self._inv + np.multiply.outer(x_core / schur, g)
        inv[:size, size] = -x_core / schur
        inv[size, :size] = -g / schur
        inv[size, size] = 1.0 / schur
        self._inv = inv
        self._core_rows = np.append(self._core_rows, left_row)
        self._core_pos = np.append(self._core_pos, position)
        self._core_cols = np.append(self._core_cols, column)
        self._row_slot[left_row] = size
        self._pos_slot[position] = size
        self._col_slot[column] = size
        self._pos_row[position] = self.matrix.m
        self._pos_val[position] = 1.0
        rows, values = self.matrix.column(column)
        self._entry_row = np.concatenate([self._entry_row, rows])
        self._entry_val = np.concatenate([self._entry_val, values])
        self._entry_slot = np.concatenate(
            [self._entry_slot, np.full(rows.size, size)])
        return True

    def _shrink(self, position: int, slot: int, row: int,
                value: float) -> bool:
        """A singleton on core row ``row`` replaces core column
        ``slot``: the core loses that row and column."""
        i = int(self._row_slot[row])
        if i < 0:
            return False
        denominator = self._inv[slot, i]
        if abs(denominator) < PIVOT_TOL:
            return False
        inv = self._inv - np.multiply.outer(self._inv[:, i] / denominator,
                                            self._inv[slot])
        self._inv = np.delete(np.delete(inv, slot, axis=0), i, axis=1)
        self._pos_slot[position] = -1
        self._row_slot[row] = -1
        self._col_slot[self._core_cols[slot]] = -1
        self._core_pos = np.delete(self._core_pos, slot)
        self._core_cols = np.delete(self._core_cols, slot)
        self._core_rows = np.delete(self._core_rows, i)
        size = self._core_pos.size
        self._pos_slot[self._core_pos] = np.arange(size)
        self._col_slot[self._core_cols] = np.arange(size)
        self._row_slot[self._core_rows] = np.arange(size)
        self._pos_row[position] = row
        self._pos_val[position] = value
        self._gather_core()
        return True

    def _replace_column(self, slot: int, column: int) -> bool:
        """A multi-entry column replaces core column ``slot``."""
        x_core = self._column(column)[1]
        denominator = x_core[slot]
        if abs(denominator) < PIVOT_TOL:
            return False
        change = x_core.copy()
        change[slot] -= 1.0
        self._inv -= np.multiply.outer(change, self._inv[slot] / denominator)
        self._col_slot[self._core_cols[slot]] = -1
        self._col_slot[column] = slot
        self._core_cols[slot] = column
        self._gather_core()
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
    registry.counter("repro.lp.revised.breakpoints").inc(
        solver.breakpoints)
    registry.counter("repro.lp.revised.refactorizations").inc(
        solver.refactorizations)
    result = RevisedResult(
        status=status,
        x=None,
        objective=None,
        iterations=solver.iterations,
        phase1_iterations=solver.phase1_iterations,
        breakpoints=solver.breakpoints,
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
    lands_upper = up
    blocks = np.abs(delta) > PIVOT_TOL
    if phase == 1:
        below = x_b < lo_b - FEAS_TOL
        above = x_b > hi_b + FEAS_TOL
        lands_upper = above | (~below & up)
        # A row outside its bounds and moving further out never blocks.
        blocks &= ~(below & ~up) & ~(above & up)
    # A row that does not block steps NaN; one moving towards an
    # infinite bound steps +inf.
    t = np.maximum((np.where(lands_upper, hi_b, lo_b) - x_b)
                   / np.where(blocks, delta, np.nan), 0.0)
    t_min = float(np.fmin.reduce(t)) if t.size else np.inf
    if not t_min < np.inf:
        return -1, _AT_LOWER, np.inf
    near = (t <= t_min + FEAS_TOL).nonzero()[0]
    if bland:
        row = int(near[basis[near].argmin()])
    else:
        row = int(near[np.abs(delta[near]).argmax()])
    bound = _AT_UPPER if lands_upper[row] else _AT_LOWER
    return row, bound, t_min


def _elastic_twins(matrix: _Csc, n_struct: int, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """Each column's elastic twin, or -1.

    An elastic pair is a row's slack with bounds ``[0, ∞)`` and a
    structural singleton on that row with a negative coefficient and
    bounds ``[0, ∞)`` (the first such column when a row has several):
    AP-Rad's separated row and its penalty slack.  The two cover the
    same row with opposite signs, so at most one is basic, and when the
    basic one falls to 0 its twin can take the row and rise from 0.
    """
    twin = np.full(matrix.n, -1, dtype=np.int64)
    rows = matrix.single_row[:n_struct]
    elastic = ((rows >= 0) & (matrix.single_val[:n_struct] < 0.0)
               & (lo[:n_struct] == 0.0) & (hi[:n_struct] == np.inf))
    columns = np.flatnonzero(elastic)
    slacks = n_struct + rows[columns]
    open_slack = (lo[slacks] == 0.0) & (hi[slacks] == np.inf)
    columns, slacks = columns[open_slack], slacks[open_slack]
    slacks, first = np.unique(slacks, return_index=True)
    twin[columns[first]] = slacks
    twin[slacks] = columns[first]
    return twin


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
        self.breakpoints = 0
        self.refactorizations = 0
        self.warm_started = False
        # Columns that can never usefully enter: fixed range.
        self.fixed = (self.hi - self.lo) <= 0.0
        self.twin = _elastic_twins(matrix, n_struct, lo, hi)
        self.status = np.empty(self.total, dtype=np.int8)
        self.basis = np.empty(self.m, dtype=np.int64)
        self.x_basic = np.zeros(self.m)
        self.nonbasic_value = np.zeros(self.total)
        self.factor: Optional[_BasisFactor] = None
        # Pricing direction per column: +1 at lower, -1 at upper, 0
        # basic or fixed, so ``reduced * sign < 0`` marks an improving
        # column.  Set from ``status`` on every refactorization and kept
        # in step by each pivot.
        self.sign = np.zeros(self.total)
        # The structural columns alone: a slack's reduced cost is read
        # from its row's dual.
        nnz = int(matrix.indptr[n_struct])
        self.structural = _Csc(self.m, n_struct,
                               matrix.indptr[:n_struct + 1],
                               matrix.indices[:nnz], matrix.data[:nnz])

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

    def _refresh_from_status(self) -> None:
        """Nonbasic values and pricing signs from ``status``."""
        at_lower = self.status == _AT_LOWER
        at_upper = self.status == _AT_UPPER
        self.nonbasic_value = np.where(at_lower, self.lo,
                                       np.where(at_upper, self.hi, 0.0))
        self.sign = np.where(self.fixed, 0.0,
                             at_lower.astype(float) - at_upper)

    def _refactorize(self) -> None:
        self.factor = _BasisFactor(self.matrix, self.basis)
        self.refactorizations += 1
        self._recompute_basics()

    def _recompute_basics(self) -> None:
        self._refresh_from_status()  # basic columns read 0 here
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
            entering, slope = self._price(phase)
            if entering < 0:
                # Phase 1 prices only while the basis is infeasible, so
                # no improving column there means no feasible point.
                return "infeasible" if phase == 1 else "optimal"
            step = self._step(entering, slope, phase)
            if step == "unbounded":
                return "unbounded"
            self.iterations += 1
            if phase == 1:
                self.phase1_iterations += 1
            if (self.factor.updates >= REFACTOR_EVERY
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
        self._refresh_from_status()
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
        """Pick the entering column; returns ``(column, slope)``, the
        slope being the objective's rate of change as the column moves
        off its bound in direction ``sign[column]`` (negative while
        improving)."""
        if phase == 1:
            basic_cost = self._phase1_gradient()
            offset = np.zeros(self.total)
        else:
            basic_cost = self.cost[self.basis]
            offset = self.cost
        y = self.factor.btran(basic_cost)
        # score = (offset - A^T y) * sign, in one buffer.
        score = np.concatenate([self.structural.transpose_dot(y), y])
        np.subtract(offset, score, out=score)
        score *= self.sign
        if self.iterations < self.bland_after:
            # Steepest |reduced| among improving columns, least index
            # on a tie.
            entering = int(score.argmin())
            if not score[entering] < -DUAL_TOL:
                return -1, 0.0
        else:
            improving = np.flatnonzero(score < -DUAL_TOL)
            if improving.size == 0:
                return -1, 0.0
            entering = int(improving[0])  # Bland: least index
        return entering, float(score[entering])

    # -- ratio test + pivot --------------------------------------------

    def _step(self, entering: int, slope: float, phase: int) -> str:
        direction = float(self.sign[entering])
        w = self.factor.ftran_column(entering)
        # Only basic variables with w != 0 move, so only they can block.
        moving = w.nonzero()[0]
        w_moving = w[moving]
        basic = self.basis[moving]
        delta = -direction * w_moving
        x_moving = self.x_basic[moving]
        bland = self.iterations >= self.bland_after
        twins = self.twin[basic]
        # Long step: in phase 2, until Bland's rule takes over, a basic
        # elastic column falling to 0 is a breakpoint, not a block.
        elastic = ((twins >= 0) & (delta < -PIVOT_TOL) & (twins != entering)
                   & (phase == 2 and not bland))
        local, best_bound, best_t = _ratio_test(
            np.where(elastic, 0.0, delta), x_moving, self.lo[basic],
            self.hi[basic], basic, phase, bland)
        bound_span = float(self.hi[entering] - self.lo[entering])

        # Walk the breakpoints the step reaches in order.  Passing one
        # swaps the twin in, which raises the slope by the pair's cost
        # change; the step stops at the first breakpoint after which the
        # slope no longer improves, and that column leaves instead.
        passed = np.flatnonzero(elastic)
        if passed.size:
            t_site = np.maximum(x_moving[passed] / -delta[passed], 0.0)
            reached = t_site <= min(best_t, bound_span)
            passed, t_site = passed[reached], t_site[reached]
            order = np.argsort(t_site, kind="stable")
            passed, t_site = passed[order], t_site[order]
            leaving, twin = basic[passed], twins[passed]
            ratio = (self.matrix.single_val[leaving]
                     / self.matrix.single_val[twin])
            slopes = slope + np.cumsum(-delta[passed] * (
                self.cost[leaving] - self.cost[twin] * ratio))
            stops = np.flatnonzero(slopes >= -DUAL_TOL)
            if stops.size:
                # As in the plain test, the largest |delta| among the
                # breakpoints tied with the stopping one leaves.
                stop = int(stops[0])
                best_t = float(t_site[stop])
                near = passed[stop:][t_site[stop:] <= best_t + FEAS_TOL]
                local = int(near[np.abs(delta[near]).argmax()])
                best_bound = _AT_LOWER
                passed = passed[:stop]

        if bound_span < best_t:
            # Bound flip: the entering variable crosses its own range
            # before any basic blocks; no basis change.
            self.x_basic[moving] -= direction * bound_span * w_moving
            self._swap_twins(moving[passed])
            self.status[entering] = (_AT_UPPER if direction > 0
                                     else _AT_LOWER)
            self.sign[entering] = -direction
            return "ok"
        if local < 0:
            return "unbounded"

        best_row = int(moving[local])
        entering_start = (self.lo[entering] if direction > 0
                          else self.hi[entering])
        entering_value = entering_start + direction * best_t
        self.x_basic[moving] -= direction * best_t * w_moving
        self._swap_twins(moving[passed])
        leaving = int(self.basis[best_row])
        self.status[leaving] = best_bound
        if not self.fixed[leaving]:
            self.sign[leaving] = 1.0 if best_bound == _AT_LOWER else -1.0
        # Snap the leaving variable's stored value onto its bound.
        self.basis[best_row] = entering
        self.status[entering] = _BASIC
        self.sign[entering] = 0.0
        self.x_basic[best_row] = entering_value
        if not self.factor.update(best_row, entering):
            return "refactor"
        return "ok"

    def _swap_twins(self, rows: np.ndarray) -> None:
        """Pass the breakpoints at basis ``rows``: each basic elastic
        column, now at or past 0, leaves at 0 and its twin takes the row
        with the value ``v_basic · x / v_twin`` the row equation gives."""
        leaving = self.basis[rows]
        twin = self.twin[leaving]
        single_val = self.matrix.single_val
        self.x_basic[rows] *= single_val[leaving] / single_val[twin]
        self.status[leaving] = _AT_LOWER
        self.sign[leaving] = 1.0
        self.status[twin] = _BASIC
        self.sign[twin] = 0.0
        self.basis[rows] = twin
        self.factor.swap(rows, single_val[twin])
        self.breakpoints += rows.size

    # -- extraction ----------------------------------------------------

    def solution(self) -> np.ndarray:
        self._refresh_from_status()
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
