"""LP-based estimation of AP maximum transmission distances (AP-Rad core).

Paper Section III-C2: "if a mobile device can observe two APs within a
short period of time, then the maximum transmission distances of the two
APs, r1 and r2, must satisfy r1 + r2 >= d12 ... if over a sufficient
amount of time, the two APs have never been observed by the same mobile
device, then it is highly likely that r1 + r2 < d12. ... we would like
to find a solution in the feasibility region which maximizes Σ r_j".

Practical deviations (documented in DESIGN.md):

* Strict inequalities are not expressible in an LP; the never-co-observed
  constraints become ``r_i + r_j <= d_ij - margin`` with a small margin.
* Never-co-observed constraints are only *likely* true, and real
  observation sets can make the program infeasible.  We keep the
  co-observation constraints hard (they are direct evidence) and soften
  the never-co-observed ones with penalized slack variables, so the
  program is always feasible and slack is only used where the evidence
  conflicts.
* Pairs farther apart than ``2 * r_max`` are skipped: with radii bounded
  by ``r_max`` their "<" constraints can never bind.  Candidate pairs
  come from a :class:`~repro.geometry.grid.SpatialGrid` over the AP
  locations, so pair generation costs O(n + pairs-in-range) instead of
  the previous dense O(n²) distance matrix.
* A co-observed pair with ``d_ij > 2 * r_max`` (possible with noisy
  locations) has its ">=" right-hand side clamped to ``2 * r_max``.

Streaming refits
----------------

The estimator also supports an incremental protocol for streaming
corpora: :meth:`RadiusEstimator.ingest` folds new Γ observations into
the evidence counters, and :meth:`RadiusEstimator.refit` re-solves by
*mutating* the persistent LP instead of rebuilding it — new co-observed
pairs append ">=" rows, separated pairs that became co-observed have
their "<=" rows retuned to a never-binding right-hand side ("inerted"),
and the solve warm-starts from the previous optimal basis, so re-fit
cost scales with the evidence delta rather than the corpus size.  An
appended separated row that the last radii violate starts with its
penalty slack basic, so it starts feasible.  Inert rows are
garbage-collected by a full rebuild once they outnumber the live ones.

Every cold solve (a ``fit``, or the rebuild after compaction) starts
the revised simplex from a basis that is feasible by construction:
every radius rests at ``r_max``, each separated row's penalty slack is
basic in its row, and every co-observed row keeps its own row slack.
A co-observed row's rhs is at most ``2 * r_max`` and a separated
pair lies strictly inside ``2 * r_max``, so every basic value is in
bounds and phase 1 has no work; the solve goes straight to phase 2.
There the radii fall from ``r_max`` and most penalty slacks fall to 0
with them; each separated row's slack and penalty slack form an
elastic pair, so the solver's long step lets the row slack take the
row at that breakpoint without a pivot (``repro.lp.revised``).  The
cold ``aprad-refit`` LP takes 55 pivots and passes 393 breakpoints,
where one pivot per breakpoint took 642.
The estimator keeps its row bookkeeping in flat arrays: variable ``i``
is AP ``i``'s radius, the variables after the radii are the penalty
slacks in row order, and per slack it stores the packed pair, the row
and a live flag.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.faults import InfeasibleError, SolverError, UnboundedError
from repro.geometry.grid import SpatialGrid
from repro.geometry.point import Point
from repro.lp.problem import LpProblem
from repro.lp.revised import LpState, slack_code
from repro.net80211.mac import MacAddress

#: Objective weight penalizing slack on never-co-observed constraints.
_SLACK_PENALTY = 10.0
#: Margin standing in for the strict "<" of the paper.
_STRICT_MARGIN_M = 1e-6
#: Inert-row count (and excess over live rows) that triggers compaction.
_COMPACT_THRESHOLD = 64


@dataclass
class RadiusEstimate:
    """The result of an LP radius fit."""

    radii: Dict[MacAddress, float]
    co_observed_pairs: int
    separated_pairs: int
    total_slack: float
    #: Simplex iterations (pivots) the solve took.
    solver_iterations: int = 0
    #: Basis refactorizations the solve took.
    refactorizations: int = 0
    #: Wall-clock seconds spent inside the LP solve.
    solve_seconds: float = 0.0
    #: Whether the solve restarted from a previous optimal basis.
    warm_started: bool = False
    #: Constraint rows in the LP at solve time (including inert rows).
    lp_rows: int = 0


class RadiusEstimator:
    """Estimates every AP's maximum transmission distance by LP.

    Parameters
    ----------
    locations:
        Known AP locations (the AP-Rad input).
    r_max:
        Upper bound on any radius — the theoretical maximum transmission
        distance (Theorem 1 provides one; 802.11g APs rarely exceed a
        few hundred meters outdoors).
    r_min:
        Lower bound; a working AP has some nonzero range.
    tie_break:
        When > 0, adds a deterministic per-variable objective
        perturbation of this magnitude (scaled into ``(0, tie_break]``
        by variable index).  The radius LP routinely has alternate
        optima (any split of a separated pair's distance budget scores
        the same), so exact per-radius agreement across cold and warm
        solves, or with the test suite's HiGHS oracle, needs the
        optimum made unique.  Off by default: the perturbation slightly
        biases later APs.
    """

    def __init__(self, locations: Dict[MacAddress, Point], r_max: float,
                 r_min: float = 1.0,
                 max_separated_neighbors: Optional[int] = None,
                 min_evidence: int = 1,
                 overestimate_factor: float = 1.0,
                 tie_break: float = 0.0):
        if r_max <= 0.0:
            raise ValueError(f"r_max must be > 0, got {r_max}")
        if not 0.0 <= r_min <= r_max:
            raise ValueError(
                f"need 0 <= r_min <= r_max, got r_min={r_min}, r_max={r_max}")
        if max_separated_neighbors is not None and max_separated_neighbors < 1:
            raise ValueError("max_separated_neighbors must be >= 1")
        self.locations = dict(locations)
        self.r_max = r_max
        self.r_min = r_min
        if min_evidence < 1:
            raise ValueError(f"min_evidence must be >= 1, got {min_evidence}")
        self.max_separated_neighbors = max_separated_neighbors
        #: "if over a *sufficient amount of time*, the two APs have
        #: never been observed by the same mobile device" — a
        #: never-co-observed "<" constraint is only added when both APs
        #: individually appeared in at least ``min_evidence``
        #: observations, i.e. absence of co-observation is meaningful.
        self.min_evidence = min_evidence
        if overestimate_factor < 1.0:
            raise ValueError(
                f"overestimate_factor must be >= 1, got {overestimate_factor}")
        #: Safety margin applied to the solved radii (capped at r_max).
        #: "an overestimate of r is clearly preferred over an
        #: underestimate" (Theorem 3): a modest inflation protects the
        #: intersection from per-AP estimation scatter.
        self.overestimate_factor = overestimate_factor
        if tie_break < 0.0:
            raise ValueError(f"tie_break must be >= 0, got {tie_break}")
        self.tie_break = tie_break

        self._bssids = sorted(self.locations.keys())
        self._index_of = {b: i for i, b in enumerate(self._bssids)}
        # Fixed-seed jitter for the tie-break weights (see
        # _objective_coefficient); depends only on AP count, so every
        # estimator over the same locations perturbs identically.
        self._tie_jitter = np.random.default_rng(0x71EB).random(
            len(self._bssids))
        self._coords = np.array(
            [self.locations[b].as_tuple() for b in self._bssids],
            dtype=np.float64).reshape(len(self._bssids), 2)
        #: All index pairs closer than 2*r_max, from the spatial grid —
        #: the only pairs whose constraints can ever bind, as arrays
        #: ``(i, j, distance)``.  Locations are immutable, so this is
        #: computed once.
        self._range_pairs = self._pairs_in_range()

        # Streaming evidence state.
        self._counts: Dict[int, int] = {}
        self._co_pairs: Set[Tuple[int, int]] = set()
        # Co-observed pairs that have no ">=" row in the LP yet.
        self._new_co_pairs: Set[Tuple[int, int]] = set()
        # Persistent LP state (the incremental refit path).
        # Variable i < len(bssids) is AP i's radius; variable
        # len(bssids) + k is the penalty slack of the k-th separated
        # row, whose pair (packed as i * len(bssids) + j), row index and
        # live flag (0 once inerted) sit at position k of these arrays.
        self._problem: Optional[LpProblem] = None
        self._sep_key = array("q")
        self._sep_row = array("q")
        self._sep_live = array("b")
        self._lp_state: Optional[LpState] = None
        # The radii of the solve that left ``_lp_state``.
        self._lp_radii: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def fit(self, observations: Sequence[Iterable[MacAddress]]
            ) -> RadiusEstimate:
        """Solve the radius LP from a corpus of observed Γ sets.

        ``observations`` is one Γ (AP set) per monitored mobile device
        (or per mobile per observation window).  A full (cold) fit:
        any previously ingested evidence is discarded.
        """
        self._reset_evidence()
        self._absorb(observations)
        self._rebuild_problem()
        return self._solve(warm=False)

    def ingest(self, observations: Sequence[Iterable[MacAddress]]) -> int:
        """Fold new Γ observations into the evidence counters.

        Returns how many observations were absorbed.  Cheap — no LP
        work happens until :meth:`refit`.
        """
        return self._absorb(observations)

    def refit(self) -> RadiusEstimate:
        """Re-solve after :meth:`ingest`, reusing the previous LP.

        The existing constraint system is mutated in place (rows
        appended or inerted, never rebuilt) and the solve warm-starts
        from the last optimal basis.  Before any fit, this is a cold fit
        over the evidence ingested so far.
        """
        if self._problem is None:
            self._rebuild_problem()
            return self._solve(warm=False)
        self._apply_evidence_delta()
        if self._needs_compaction():
            self._rebuild_problem()
            return self._solve(warm=False)
        return self._solve(warm=self._lp_state is not None)

    @property
    def lp_rows(self) -> int:
        """Rows currently in the persistent LP (including inert)."""
        return 0 if self._problem is None else self._problem.num_constraints

    @property
    def inert_rows(self) -> int:
        """Rows neutralized by a separated→co-observed transition."""
        return self._sep_live.count(0)

    # ------------------------------------------------------------------
    # Evidence accounting
    # ------------------------------------------------------------------

    def _reset_evidence(self) -> None:
        self._counts = {}
        self._co_pairs = set()
        self._new_co_pairs = set()
        self._problem = None
        self._lp_state = None

    def _absorb(self, observations: Sequence[Iterable[MacAddress]]) -> int:
        # A refit window repeats the same few Γ many times over: index,
        # sort and pair each distinct Γ once, then add its multiplicity.
        absorbed = 0
        index_of = self._index_of
        for observed, times in Counter(map(frozenset, observations)).items():
            indices = sorted({index_of[b] for b in observed
                              if b in index_of})
            if not indices:
                continue  # no known AP in this Γ: zero evidence
            for i in indices:
                self._counts[i] = self._counts.get(i, 0) + times
            fresh = set(combinations(indices, 2)).difference(
                self._co_pairs)
            self._co_pairs.update(fresh)
            self._new_co_pairs.update(fresh)
            absorbed += times
        return absorbed

    def _pairs_in_range(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index pairs with ``d < 2*r_max``, sorted by (i, j)."""
        if len(self._bssids) < 2:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0)
        cutoff = 2.0 * self.r_max
        grid = SpatialGrid(self._coords, cell_size=cutoff)
        return grid.pairs_within(cutoff, strict=True)

    def _pair_distance(self, i: int, j: int) -> float:
        delta = self._coords[i] - self._coords[j]
        return float(np.hypot(delta[0], delta[1]))

    def _desired_separated(self) -> List[Tuple[int, int, float]]:
        """Never-co-observed pairs whose "<" constraint can bind.

        Candidates come from the precomputed in-range pair list (the
        spatial grid already discarded everything beyond ``2*r_max``);
        both endpoints must have ``min_evidence`` appearances.  With
        ``max_separated_neighbors`` set, each AP keeps only its nearest
        ``m`` separated partners — the closest pairs give the tightest
        (near-dominating) upper bounds, so this is a good approximation
        that keeps the LP tractable on dense campuses.
        """
        counts = self._counts
        need = self.min_evidence
        co = self._co_pairs
        candidates: Dict[int, List[Tuple[float, int]]] = {}
        for i, j, distance in zip(*(column.tolist()
                                    for column in self._range_pairs)):
            if counts.get(i, 0) < need or counts.get(j, 0) < need:
                continue
            if (i, j) in co:
                continue
            candidates.setdefault(i, []).append((distance, j))
            candidates.setdefault(j, []).append((distance, i))
        kept: Set[Tuple[int, int]] = set()
        limit = self.max_separated_neighbors
        for i, neighbors in candidates.items():
            neighbors.sort()
            selected = neighbors if limit is None else neighbors[:limit]
            for distance, j in selected:
                kept.add((min(i, j), max(i, j)))
        return sorted(
            (i, j, self._pair_distance(i, j)) for i, j in kept
        )

    # ------------------------------------------------------------------
    # LP construction
    # ------------------------------------------------------------------

    def _sep_rhs(self, distance: float) -> float:
        return max(self.r_min * 2.0, distance - _STRICT_MARGIN_M)

    def _co_rhs(self, distance: float) -> float:
        return min(distance, 2.0 * self.r_max)

    def _inert_rhs(self) -> float:
        # r_i + r_j - s <= 2*r_max can never bind: radii are capped at
        # r_max and the slack is nonnegative.
        return 2.0 * self.r_max

    def _objective_coefficient(self, var_index: int) -> float:
        if self.tie_break <= 0.0:
            return 1.0
        # Linear in the raw index, NOT normalized by AP count: adjacent
        # coefficients must differ by more than the solvers' reduced-
        # cost tolerance (~1e-9) or the perturbation is invisible and
        # alternate optima return.  The seeded-random component breaks
        # the degenerate cycles a purely linear ramp cannot: a balanced
        # radius transfer around a cycle of binding pair constraints
        # cancels linear weights exactly whenever the gaining and
        # losing index sums coincide.
        return 1.0 + self.tie_break * (var_index + 1
                                       + self._tie_jitter[var_index])

    def _add_co_rows(self, problem: LpProblem,
                     pairs: Set[Tuple[int, int]]) -> None:
        """Append a ">=" row per pair, in sorted order; after this every
        co-observed pair has its row."""
        for i, j in sorted(pairs):
            problem.add_constraint(
                {i: 1.0, j: 1.0}, ">=",
                self._co_rhs(self._pair_distance(i, j)))
        self._new_co_pairs = set()

    def _add_sep_row(self, problem: LpProblem, i: int, j: int,
                     distance: float) -> None:
        slack = problem.add_variable(low=0.0, up=None)
        problem.set_objective_coefficient(slack, -_SLACK_PENALTY)
        self._sep_key.append(i * len(self._bssids) + j)
        self._sep_row.append(problem.num_constraints)
        self._sep_live.append(1)
        problem.add_constraint({i: 1.0, j: 1.0, slack: -1.0},
                               "<=", self._sep_rhs(distance))

    def _rebuild_problem(self) -> None:
        """Cold assembly of the full LP from the current evidence."""
        problem = LpProblem(maximize=True)
        for _ in self._bssids:
            problem.add_variable(low=self.r_min, up=self.r_max)
        problem.set_objective({
            v: self._objective_coefficient(v)
            for v in range(len(self._bssids))})
        self._sep_key = array("q")
        self._sep_row = array("q")
        self._sep_live = array("b")
        self._lp_state = None
        self._add_co_rows(problem, self._co_pairs)
        for i, j, distance in self._desired_separated():
            self._add_sep_row(problem, i, j, distance)
        self._problem = problem

    def _apply_evidence_delta(self) -> None:
        """Mutate the persistent LP to match the current evidence."""
        problem = self._problem
        assert problem is not None
        desired = self._desired_separated()
        n = len(self._bssids)
        wanted = {i * n + j for i, j, _ in desired}
        # Separated rows invalidated by new evidence (the pair became
        # co-observed, or the neighbor cap now prefers a closer
        # partner): retune the rhs so the row can never bind.
        live = set()
        for k, key in enumerate(self._sep_key):
            if not self._sep_live[k]:
                continue
            if key in wanted:
                live.add(key)
            else:
                problem.set_constraint_rhs(self._sep_row[k],
                                           self._inert_rhs())
                self._sep_live[k] = 0
        # Newly desired separated rows (APs crossed min_evidence, or a
        # previously inerted pair is wanted again) append fresh rows.
        for i, j, distance in desired:
            if i * n + j not in live:
                self._add_sep_row(problem, i, j, distance)
        # New co-observations append hard ">=" rows.
        self._add_co_rows(problem, self._new_co_pairs)

    def _needs_compaction(self) -> bool:
        inert = self._sep_live.count(0)
        live = len(self._co_pairs) + self._sep_live.count(1)
        return inert > _COMPACT_THRESHOLD and inert > live

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def _feasible_start(self, problem: LpProblem) -> LpState:
        """A basis that is primal feasible by construction.

        Every radius rests at ``r_max``; each separated row's penalty
        slack is basic in that row and every other row keeps its own
        slack.  Co-observed rows then read ``2*r_max >= rhs`` (their
        rhs is clamped to ``2*r_max``), and a separated row's slack
        takes ``2*r_max - rhs >= 0`` (its pair lies strictly inside
        ``2*r_max``; an inert row's rhs is ``2*r_max``).  The basis is
        a signed identity, so phase 1 has nothing to do.
        """
        n = len(self._bssids)
        row_basic = slack_code(np.arange(problem.num_constraints))
        row_basic[np.array(self._sep_row, dtype=np.int64)] = np.arange(
            n, problem.num_variables)
        return LpState(row_basic=row_basic, at_upper=np.arange(n))

    def _warm_start(self, problem: LpProblem) -> LpState:
        """The last optimal basis, extended over the rows appended since.

        An appended row keeps its own slack basic, except a separated
        row that the last radii violate: its penalty slack is basic
        instead, as in :meth:`_feasible_start`, and takes the excess,
        so the row starts feasible.  An appended co-observed row the
        last radii violate still starts infeasible.
        """
        state = self._lp_state
        known = len(state.row_basic)
        row_basic = slack_code(np.arange(problem.num_constraints))
        row_basic[:known] = state.row_basic
        n = len(self._bssids)
        radii = self._lp_radii
        # Separated rows are appended in order: the new ones are last.
        for k in range(len(self._sep_row) - 1, -1, -1):
            row = self._sep_row[k]
            if row < known:
                break
            i, j = divmod(self._sep_key[k], n)
            if radii[i] + radii[j] > self._sep_rhs(self._pair_distance(i, j)):
                row_basic[row] = n + k
        return LpState(row_basic=row_basic, at_upper=state.at_upper)

    def _solve(self, warm: bool) -> RadiusEstimate:
        problem = self._problem
        assert problem is not None
        started = time.perf_counter()
        result = problem.solve(
            warm_start=self._warm_start(problem) if warm
            else self._feasible_start(problem))
        self._lp_state = result.state
        if result.x is not None:
            self._lp_radii = result.x[:len(self._bssids)].copy()
        warm_started = warm and result.warm_started
        elapsed = time.perf_counter() - started
        if not result.is_optimal:
            if result.status == "infeasible":
                raise InfeasibleError(
                    f"radius LP infeasible over {len(self._bssids)} APs")
            if result.status == "unbounded":
                raise UnboundedError("radius LP unbounded")
            raise SolverError(
                f"radius LP did not solve: status={result.status}",
                status=result.status)
        radii = {
            bssid: min(self.r_max,
                       float(result.x[self._index_of[bssid]])
                       * self.overestimate_factor)
            for bssid in self._bssids
        }
        total_slack = float(sum(result.x[len(self._bssids):].tolist()))
        registry = obs.current_registry()
        registry.timer(
            "repro.localization.radius_fit.duration").observe(elapsed)
        registry.counter("repro.localization.radius_fit.solves",
                         warm=str(bool(warm_started)).lower()).inc()
        return RadiusEstimate(
            radii=radii,
            co_observed_pairs=len(self._co_pairs),
            separated_pairs=self._sep_live.count(1),
            total_slack=total_slack,
            solver_iterations=result.iterations,
            refactorizations=result.refactorizations,
            solve_seconds=elapsed,
            warm_started=warm_started,
            lp_rows=problem.num_constraints,
        )
