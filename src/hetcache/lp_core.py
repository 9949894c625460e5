"""Self-contained linear programming over box-constrained variables.

The scheme optimizations downstream produce LPs with a particular shape:
every structural variable lives in a finite box [lo, hi], rows are sparse,
and the instances are heavily degenerate (many subfile variables sit at
zero in every optimum).  This module solves

    minimize    c . x
    subject to  eq_rows:  a . x  = b
                ub_rows:  a . x <= b
                lo <= x <= hi

with a two-phase revised simplex specialized to bounded variables.  Slack
and artificial columns are appended internally; the caller only ever sees
structural variables.

Design notes, fixed deliberately so results are reproducible run to run:

* Pricing is the largest-reduced-cost rule.  After 10 * (rows + cols)
  iterations in a phase it falls back to Bland's smallest-index rule,
  which cannot cycle, so termination is guaranteed.
* The basis inverse is kept explicitly and updated rank-one per pivot,
  with a fresh factorization every so often to shed accumulated error.
* Ties in pricing and in the ratio test break deterministically (first
  index; in the ratio test, the numerically largest pivot among the
  near-minimal ratios, then the smallest basis column).
* Tolerances: feasibility 1e-8, optimality 1e-8, pivot acceptance 1e-11.
  A pivot smaller than the acceptance threshold with no alternative is
  reported as a numerical breakdown naming the offending column.

Warm starts.  Every optimal solution carries its final :class:`Basis`.
Passed back as ``start`` for a program of the same layout (same rows,
columns and artificial rows) whose right-hand side moved, as in a budget
sweep, that basis is still dual feasible: the costs and the matrix did
not change, only which basic values violate their boxes.  The solver
installs it, refactors, and runs a bounded-variable dual simplex
(Koberstein 2005; Huangfu & Hall 2018): the leaving row is the largest
bound violation, the entering column comes from a ratio test over that
row of B^-1 A, with the same near-tie rule as the primal ratio test, and
the inverse takes the same rank-one update.  A primal phase 2 then
cleans up any reduced cost the refactorization nudged, and the result
passes the same feasibility audit as a cold solve.  A start that does
not fit falls back to the full cold solve: another layout, a singular
basis, dual infeasibility beyond the optimality tolerance, more than
10 * (rows + cols) dual pivots, a pivot below the acceptance threshold,
or a dual ray.  The cold solve therefore decides every infeasible,
unbounded or failed outcome, so a start never changes a status and never
raises where a cold solve would not.

Infeasible and unbounded are statuses, not exceptions; SolverError is
reserved for numerical trouble and iteration limits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

SparseRow = dict[int, float]

FEAS_TOL = 1e-8
OPT_TOL = 1e-8
PIVOT_TOL = 1e-11
RATIO_TIE_TOL = 1e-9
REFACTOR_EVERY = 100


class SolverError(RuntimeError):
    """Numerical breakdown or iteration exhaustion inside the simplex."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class Basis(NamedTuple):
    """Where an optimal solve ended, reusable as the start of another.

    ``cols`` names the basic column of each row and ``at_upper`` flags the
    nonbasic columns resting on their upper bound.  Both index the
    tableau's column layout: structural variables, one slack per
    inequality row, then one artificial per row listed in ``layout``,
    which is (structural count, equality rows, inequality rows,
    artificial rows).
    """

    cols: np.ndarray
    at_upper: np.ndarray
    layout: tuple


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray
    objective: float
    iterations: int = 0
    basis: Basis | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


@dataclass
class LinearProgram:
    """A box-constrained LP in the sparse row form the builders emit.

    ``eq_rows`` and ``ub_rows`` hold (coefficients, rhs) pairs where the
    coefficients map column index to value.  Bounds must be finite for
    every structural variable; unbounded slack handling is internal.
    ``names`` is optional and only used by the debug dump and error text.
    """

    c: np.ndarray
    eq_rows: list[tuple[SparseRow, float]] = field(default_factory=list)
    ub_rows: list[tuple[SparseRow, float]] = field(default_factory=list)
    lo: np.ndarray = None
    hi: np.ndarray = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        self.lo = np.zeros(n) if self.lo is None else np.asarray(self.lo, dtype=float)
        self.hi = np.ones(n) if self.hi is None else np.asarray(self.hi, dtype=float)

    @property
    def n_vars(self) -> int:
        return int(self.c.shape[0])

    @property
    def n_rows(self) -> int:
        return len(self.eq_rows) + len(self.ub_rows)

    def name_of(self, j: int) -> str:
        if self.names is not None and j < len(self.names):
            return self.names[j]
        return f"x{j}"

    def validate(self) -> list[str]:
        problems = []
        n = self.n_vars
        if self.lo.shape != (n,) or self.hi.shape != (n,):
            problems.append("bound arrays do not match variable count")
            return problems
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            problems.append("variable bounds must be finite")
        bad = np.nonzero(self.lo > self.hi + 1e-15)[0]
        for j in bad[:5]:
            problems.append(f"empty bound box for {self.name_of(int(j))}")
        for kind, rows in (("eq", self.eq_rows), ("ub", self.ub_rows)):
            for i, (coefs, rhs) in enumerate(rows):
                if not np.isfinite(rhs):
                    problems.append(f"{kind} row {i} has non-finite rhs")
                for j in coefs:
                    if not 0 <= j < n:
                        problems.append(f"{kind} row {i} references column {j}")
        return problems

    def check_point(self, x: np.ndarray, tol: float = FEAS_TOL) -> list[str]:
        """All constraint violations of ``x`` beyond ``tol``, for audits."""
        # each test is written so that NaN, which compares false, fails it
        problems = []
        for j in range(self.n_vars):
            if not self.lo[j] - tol <= x[j] <= self.hi[j] + tol:
                problems.append(
                    f"{self.name_of(j)}={x[j]} outside [{self.lo[j]}, {self.hi[j]}]"
                )
        for i, (coefs, rhs) in enumerate(self.eq_rows):
            lhs = sum(v * x[j] for j, v in coefs.items())
            if not abs(lhs - rhs) <= tol * (1.0 + abs(rhs)):
                problems.append(f"eq row {i}: {lhs} != {rhs}")
        for i, (coefs, rhs) in enumerate(self.ub_rows):
            lhs = sum(v * x[j] for j, v in coefs.items())
            if not lhs <= rhs + tol * (1.0 + abs(rhs)):
                problems.append(f"ub row {i}: {lhs} > {rhs}")
        return problems


def format_lp(lp: LinearProgram) -> str:
    """Human-readable dump, one row per line, for --dump-lp style debugging."""

    def term(j: int, v: float) -> str:
        return f"{v:+g}*{lp.name_of(j)}"

    lines = [f"min {' '.join(term(j, v) for j, v in enumerate(lp.c) if v != 0.0) or '0'}"]
    for coefs, rhs in lp.eq_rows:
        lines.append(f"  {' '.join(term(j, v) for j, v in sorted(coefs.items()))} == {rhs:g}")
    for coefs, rhs in lp.ub_rows:
        lines.append(f"  {' '.join(term(j, v) for j, v in sorted(coefs.items()))} <= {rhs:g}")
    for j in range(lp.n_vars):
        lines.append(f"  {lp.lo[j]:g} <= {lp.name_of(j)} <= {lp.hi[j]:g}")
    return "\n".join(lines)


class _Tableau:
    """Working state of one solve: dense matrix, bounds, basis, inverse."""

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        m_eq, m_ub = len(lp.eq_rows), len(lp.ub_rows)
        m = m_eq + m_ub
        self.n_struct = n
        self.m = m
        self.m_eq = m_eq

        ncols = n + m_ub  # structural then slack
        A = np.zeros((m, ncols))
        b = np.zeros(m)
        for i, (coefs, rhs) in enumerate(lp.eq_rows):
            b[i] = rhs
            for j, v in coefs.items():
                A[i, j] += v
        for i, (coefs, rhs) in enumerate(lp.ub_rows):
            r = m_eq + i
            b[r] = rhs
            for j, v in coefs.items():
                A[r, j] += v
            A[r, n + i] = 1.0
        self.A = A
        self.b = b
        self.lo = np.concatenate([lp.lo, np.zeros(m_ub)])
        self.hi = np.concatenate([lp.hi, np.full(m_ub, np.inf)])

        # Nonbasic structural variables start at their lower bound; each
        # row then gets either its slack or a fresh artificial as the
        # initial basic variable, giving a trivially invertible basis.
        x_nb = self.lo[:n].copy()
        resid = b - A[:, :n] @ x_nb
        basis = np.empty(m, dtype=int)
        art_cols = []
        art_sign = []
        for i in range(m):
            if i >= m_eq and resid[i] >= 0.0:
                basis[i] = n + (i - m_eq)
            else:
                art_cols.append(i)
                art_sign.append(1.0 if resid[i] >= 0.0 else -1.0)
        if art_cols:
            art = np.zeros((m, len(art_cols)))
            for k, (i, s) in enumerate(zip(art_cols, art_sign)):
                art[i, k] = s
            self.A = np.hstack([A, art])
            self.lo = np.concatenate([self.lo, np.zeros(len(art_cols))])
            self.hi = np.concatenate([self.hi, np.full(len(art_cols), np.inf)])
            for k, i in enumerate(art_cols):
                basis[i] = ncols + k
        self.first_art = ncols
        self.ncols = self.A.shape[1]
        self.layout = (n, m_eq, m_ub, tuple(art_cols))
        self.basis = basis
        self.in_basis = np.zeros(self.ncols, dtype=bool)
        self.in_basis[basis] = True
        self.at_upper = np.zeros(self.ncols, dtype=bool)
        self.binv = None
        self.xb = None

    def nonbasic_values(self) -> np.ndarray:
        vals = np.where(self.at_upper, self.hi, self.lo)
        vals[self.in_basis] = 0.0
        return vals

    def refactor(self):
        B = self.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B) if self.m else np.zeros((0, 0))
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis during refactorization") from exc
        rhs_eff = self.b - self.A @ self.nonbasic_values()
        self.xb = self.binv @ rhs_eff

    def x_full(self) -> np.ndarray:
        x = self.nonbasic_values()
        x[self.basis] = self.xb
        return x

    def pin_artificials(self):
        """Fix every artificial at zero once phase 1 no longer needs it."""
        self.lo[self.first_art:] = 0.0
        self.hi[self.first_art:] = 0.0
        self.at_upper[self.first_art:] = False

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        y = cost[self.basis] @ self.binv if self.m else np.zeros(0)
        return cost - y @ self.A if self.m else cost.copy()

    def pivot(self, r: int, j: int, col: np.ndarray):
        """Make column j basic in row r; ``col`` is B^-1 A[:, j].

        The caller has already moved the basic values and recorded which
        bound the leaving variable rests on.
        """
        leaving = self.basis[r]
        self.in_basis[leaving] = False
        self.in_basis[j] = True
        self.basis[r] = j
        self.at_upper[j] = False

        # Rank-one update of the inverse: row r scaled, others swept.
        piv_row = self.binv[r, :] / col[r]
        self.binv -= np.outer(col, piv_row)
        self.binv[r, :] = piv_row

    def limit(self, max_iterations: int | None) -> int:
        """Per-phase iteration limit, by default scaled to the tableau."""
        if max_iterations is None:
            return 50 * (self.m + self.ncols) + 2000
        return max_iterations

    def final_basis(self) -> Basis:
        return Basis(self.basis.copy(), self.at_upper.copy(), self.layout)


def _run_phase(t: _Tableau, cost: np.ndarray, iter_start: int, max_iterations: int,
               lp: LinearProgram) -> tuple[str, int]:
    """Drive one simplex phase to optimality.  Returns (status, iterations)
    where status is 'optimal' or 'unbounded'."""
    m, ncols = t.m, t.ncols
    fixed = t.lo == t.hi
    dantzig_budget = 10 * (m + ncols)
    iterations = iter_start
    phase_iter = 0
    while True:
        if iterations - iter_start >= max_iterations:
            raise SolverError(f"iteration limit {max_iterations} exceeded")
        if phase_iter and phase_iter % REFACTOR_EVERY == 0:
            t.refactor()
        iterations += 1
        phase_iter += 1

        red = t.reduced_costs(cost)

        can_rise = (~t.in_basis) & (~fixed) & (~t.at_upper) & (red < -OPT_TOL)
        can_fall = (~t.in_basis) & (~fixed) & t.at_upper & (red > OPT_TOL)
        eligible = can_rise | can_fall
        if not eligible.any():
            return "optimal", iterations

        if phase_iter <= dantzig_budget:
            scores = np.where(eligible, np.abs(red), -1.0)
            j = int(np.argmax(scores))
        else:
            j = int(np.nonzero(eligible)[0][0])  # Bland
        sigma = 1.0 if can_rise[j] else -1.0

        w = sigma * (t.binv @ t.A[:, j]) if m else np.zeros(0)

        # Ratio test: basic variable i moves by -t*w_i; find the first
        # bound hit among basic variables and the entering bound flip.
        lo_b = t.lo[t.basis]
        hi_b = t.hi[t.basis]
        ratios = np.full(m, np.inf)
        pos = w > PIVOT_TOL
        neg = w < -PIVOT_TOL
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios[pos] = (t.xb[pos] - lo_b[pos]) / w[pos]
            ratios[neg] = (t.xb[neg] - hi_b[neg]) / w[neg]
        np.maximum(ratios, 0.0, out=ratios)
        t_rows = ratios.min() if m else np.inf
        t_flip = t.hi[j] - t.lo[j]

        if t_rows == np.inf and not np.isfinite(t_flip):
            return "unbounded", iterations

        if t_flip <= t_rows:
            # The entering variable crosses its box before any basic
            # variable hits a bound: flip it, no basis change.
            t.xb -= t_flip * w
            t.at_upper[j] = ~t.at_upper[j]
            continue

        cand = np.nonzero(ratios <= t_rows + RATIO_TIE_TOL)[0]
        if phase_iter <= dantzig_budget:
            best = cand[np.argmax(np.abs(w[cand]))]
            r = int(best)
        else:
            r = int(cand[np.argmin(t.basis[cand])])
        if abs(w[r]) <= PIVOT_TOL:
            raise SolverError(
                f"numerical breakdown: pivot {w[r]:.3e} in column {lp.name_of(j) if j < t.n_struct else j}"
            )

        step = ratios[r]
        t.xb -= step * w
        enter_val = (t.lo[j] + step) if sigma > 0 else (t.hi[j] - step)
        t.xb[r] = enter_val
        t.at_upper[t.basis[r]] = w[r] < 0  # hit upper bound if it was falling
        t.pivot(r, j, sigma * w)


class _StartRejected(Exception):
    """A warm start did not fit; carries the pivots spent finding out."""

    def __init__(self, reason: str, iterations: int = 0):
        super().__init__(reason)
        self.iterations = iterations


def _run_dual(t: _Tableau, cost: np.ndarray, budget: int) -> int:
    """Bounded dual simplex from a dual feasible basis to a primal feasible
    one.  Returns its pivot count; raises _StartRejected if it cannot go on.
    """
    m = t.m
    fixed = t.lo == t.hi
    iterations = 0
    while True:
        if iterations and iterations % REFACTOR_EVERY == 0:
            try:
                t.refactor()
            except SolverError as exc:
                raise _StartRejected(str(exc), iterations) from None
        lo_b = t.lo[t.basis]
        hi_b = t.hi[t.basis]
        below = lo_b - t.xb
        above = t.xb - hi_b
        violation = np.maximum(below, above)
        r = int(np.argmax(violation)) if m else 0
        if not m or violation[r] <= FEAS_TOL:
            return iterations
        if iterations >= budget:
            raise _StartRejected(f"dual phase passed {budget} pivots", iterations)
        iterations += 1

        # The leaving variable goes to the bound it violates.  Column j can
        # push it there if moving j off its own bound moves row r the right
        # way; the dual ratio test keeps every other reduced cost signed.
        to_upper = bool(above[r] > below[r])
        alpha = t.binv[r] @ t.A
        toward = -alpha if to_upper else alpha
        free = (~t.in_basis) & (~fixed)
        eligible = (free & ~t.at_upper & (toward < -PIVOT_TOL)) | (
            free & t.at_upper & (toward > PIVOT_TOL)
        )
        if not eligible.any():
            raise _StartRejected("dual ray: row has no entering column", iterations)
        red = t.reduced_costs(cost)
        dual_slack = np.maximum(np.where(t.at_upper, -red, red), 0.0)
        ratios = np.full(t.ncols, np.inf)
        ratios[eligible] = dual_slack[eligible] / np.abs(alpha[eligible])
        cand = np.nonzero(ratios <= ratios.min() + RATIO_TIE_TOL)[0]
        j = int(cand[np.argmax(np.abs(alpha[cand]))])

        col = t.binv @ t.A[:, j]
        if abs(col[r]) <= PIVOT_TOL:
            raise _StartRejected(f"dual pivot {col[r]:.3e} below tolerance", iterations)
        step = (t.xb[r] - (hi_b[r] if to_upper else lo_b[r])) / col[r]
        enter_val = (t.hi[j] if t.at_upper[j] else t.lo[j]) + step
        t.xb -= step * col
        t.xb[r] = enter_val
        t.at_upper[t.basis[r]] = to_upper
        t.pivot(r, j, col)


def _finish(t: _Tableau, cost: np.ndarray, iterations: int, max_iterations: int,
            lp: LinearProgram) -> LpSolution:
    """Primal phase 2 to optimality, then the feasibility audit."""
    n = lp.n_vars
    status, iterations = _run_phase(t, cost, iterations, max_iterations, lp)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, np.full(n, np.nan), -np.inf, iterations)

    for attempt in range(3):
        x = t.x_full()[:n]
        if not lp.check_point(x, tol=FEAS_TOL * 10):
            break
        t.refactor()
        status, iterations = _run_phase(t, cost, iterations, max_iterations, lp)
        if status == "unbounded":
            return LpSolution(LpStatus.UNBOUNDED, np.full(n, np.nan), -np.inf, iterations)
    else:
        raise SolverError(
            "solution failed feasibility audit: " + "; ".join(lp.check_point(x)[:3])
        )
    return LpSolution(LpStatus.OPTIMAL, x, float(lp.c @ x), iterations, t.final_basis())


def _phase2_cost(t: _Tableau, lp: LinearProgram) -> np.ndarray:
    cost = np.zeros(t.ncols)
    cost[:lp.n_vars] = lp.c
    return cost


def _solve_warm(lp: LinearProgram, start: Basis, max_iterations: int | None) -> LpSolution:
    """Re-optimize from ``start``: dual simplex, primal clean-up, audit.

    Returns only optimal, audited solutions; anything else is reported as
    _StartRejected so the caller can solve cold instead.
    """
    t = _Tableau(lp)
    cols = np.asarray(start.cols, dtype=int)
    if (start.layout != t.layout or cols.shape != (t.m,)
            or np.shape(start.at_upper) != (t.ncols,)):
        raise _StartRejected("start comes from a program of another layout")
    if t.m and (cols.min() < 0 or cols.max() >= t.ncols or len(set(cols.tolist())) < t.m):
        raise _StartRejected("start does not name one column per row")
    t.basis = cols.copy()
    t.in_basis[:] = False
    t.in_basis[t.basis] = True
    t.pin_artificials()
    t.at_upper = np.asarray(start.at_upper, dtype=bool) & ~t.in_basis & np.isfinite(t.hi)
    try:
        t.refactor()
    except SolverError as exc:
        raise _StartRejected(str(exc)) from None

    cost = _phase2_cost(t, lp)
    red = t.reduced_costs(cost)
    free = (~t.in_basis) & (t.lo != t.hi)
    if (free & ((~t.at_upper & (red < -OPT_TOL)) | (t.at_upper & (red > OPT_TOL)))).any():
        raise _StartRejected("start is not dual feasible")

    iterations = _run_dual(t, cost, 10 * (t.m + t.ncols))
    try:
        solution = _finish(t, cost, iterations, t.limit(max_iterations), lp)
    except SolverError as exc:
        raise _StartRejected(str(exc), iterations) from None
    if not solution.is_optimal:
        raise _StartRejected(f"clean-up ended {solution.status.value}", solution.iterations)
    return solution


def solve_lp(lp: LinearProgram, start: Basis | None = None,
             max_iterations: int | None = None) -> LpSolution:
    """Solve ``lp`` to proven optimality, infeasibility, or unboundedness.

    ``start``, the ``basis`` of an earlier optimal solution, warm-starts the
    solve when it fits ``lp`` (see the module notes) and is otherwise
    ignored; ``iterations`` then also counts the pivots of the abandoned
    attempt.  Deterministic: the same program and the same start yield the
    same vertex every time.  Raises SolverError on numerical breakdown or
    iteration exhaustion.
    """
    problems = lp.validate()
    if problems:
        raise ValueError("malformed program: " + "; ".join(problems))

    spent = 0
    if start is not None:
        try:
            return _solve_warm(lp, start, max_iterations)
        except _StartRejected as exc:
            spent = exc.iterations

    t = _Tableau(lp)
    t.refactor()
    n = lp.n_vars
    max_iterations = t.limit(max_iterations)

    iterations = 0
    if t.first_art < t.ncols:
        cost1 = np.zeros(t.ncols)
        cost1[t.first_art:] = 1.0
        status, iterations = _run_phase(t, cost1, 0, max_iterations, lp)
        if status != "optimal":
            raise SolverError("feasibility phase terminated without optimum")
        art_total = float(t.x_full()[t.first_art:].sum())
        if art_total > FEAS_TOL:
            return LpSolution(LpStatus.INFEASIBLE, np.full(n, np.nan), np.nan,
                              iterations + spent)
        # Pin the artificials at zero; any still basic are degenerate and
        # will be forced out by the ratio test if they ever threaten to move.
        t.pin_artificials()

    solution = _finish(t, _phase2_cost(t, lp), iterations, max_iterations, lp)
    solution.iterations += spent
    return solution
