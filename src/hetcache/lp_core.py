"""Self-contained linear programming over box-constrained variables.

The scheme optimizations downstream produce LPs with a particular shape:
every structural variable lives in a finite box [lo, hi], rows are sparse,
and the instances are heavily degenerate (many subfile variables sit at
zero in every optimum).  This module solves

    minimize    c . x
    subject to  eq_rows:  a . x  = b
                ub_rows:  a . x <= b
                lo <= x <= hi

with one algorithm, a bounded-variable dual simplex (Koberstein 2005;
Huangfu & Hall 2018).  Each row gets a logical column, fixed at [0, 0]
for an equality and a [0, inf) slack for an inequality; the caller only
ever sees structural variables.

Design notes, fixed deliberately so results are reproducible run to run:

* A solve starts from the caller's ``start`` basis or from the
  all-logical basis, whose inverse is the identity.
* Dual feasibility comes from the choice of bounds.  Every structural box
  is finite, so any basis becomes dual feasible once each nonbasic column
  rests on the bound its reduced cost prefers.  Only an inequality slack,
  unbounded above, cannot follow a negative reduced cost; that never
  happens in the all-logical basis, where every slack is basic.
* The dual loop runs to primal feasibility, which is then optimality.
  The leaving row is chosen by dual steepest edge (Forrest & Goldfarb
  1992): among the rows whose bound violation exceeds the feasibility
  tolerance, the one with the largest violation^2 / w_r, where
  w_r = |e_r^T B^-1|^2.  The entering column comes from a two-pass
  (Harris) ratio test over that row of B^-1 A: among the ratios that push
  no reduced cost more than 1e-9 past zero, the largest pivot wins.  A
  violated row with no entering column is a dual ray: no point meets the
  rows and boxes, and the status is INFEASIBLE.
* After 10 * (rows + cols) pivots the loop switches to the smallest-index
  rule (leaving row by smallest basic column, entering column by smallest
  index among those ratios), which cannot cycle, so termination is
  guaranteed.
* There is no unbounded status: with every variable boxed the objective
  is bounded on any nonempty feasible set.
* A is stored column-wise and sparse; the pivot row e_r^T B^-1 A, the
  reduced costs and A x_N are sums over its nonzeros, and the entering
  column is B^-1 times a column's few nonzeros.  The basis inverse is
  kept as a dense m x m array and updated in place per pivot, only in the
  rows where the entering column is nonzero; the steepest-edge weights
  follow by the Forrest-Goldfarb recurrence, which costs one product
  B^-1 (e_r^T B^-1)^T per pivot, and the reduced costs by the pivot row.
  Every 100 pivots the basis is inverted afresh, which also resets the
  weights to their exact values and recomputes the reduced costs and the
  basic values, to shed accumulated error; the count runs on along a
  chain of warm starts that hand their inverse on (see below).  At the
  end the reduced costs are recomputed once more; if a column moves to
  its other bound, or the point fails the feasibility audit, the dual
  loop runs again, at most three times in all.
* The solver holds three m x m arrays (the inverse and two work arrays,
  one of which also holds B while it is inverted), and a warm start
  holds a fourth, the inverse it carries; a program with more rows than
  four such arrays fit in MAX_BASIS_MIB is refused with SolverError
  before anything is allocated.
* Tolerances: feasibility 1e-8, optimality 1e-8, pivot acceptance 1e-11.

Warm starts.  Every optimal solution carries its final :class:`Basis`.
Passed back as ``start`` for a program of the same layout whose
right-hand side moved, as in a budget sweep, that basis is still dual
feasible, so only a few dual pivots remain.  The basis also carries the
inverse and steepest-edge weights it ended with, and the columns of A
they belong to.  B^-1 depends only on A and the basic columns, not on
costs, bounds or b, so a start on an identical A copies them in and the
re-solve costs only its pivots; on any other A the basis is inverted.
A start is only read, so one basis can start many solves.  A start that
does not fit (another layout, a repeated column, a singular basis, an
unbounded slack that prices the wrong way) or that ends in a dual ray
or numerical trouble is dropped, and the solve reruns from the
all-logical basis.  So a start never changes a status and never raises
where a solve without one would not.

Infeasible is a status, not an exception; SolverError is reserved for
numerical trouble, iteration limits and programs too large to hold.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SparseRow = dict[int, float]

FEAS_TOL = 1e-8
OPT_TOL = 1e-8
PIVOT_TOL = 1e-11
RATIO_TIE_TOL = 1e-9
REFACTOR_EVERY = 100
# largest memory for the solver's m x m arrays: admits every program of up
# to 8 users (3595 rows, 394 MiB) and refuses 9 users (6447 rows, 1268 MiB)
MAX_BASIS_MIB = 512
# pivots per row and column before the smallest-index rule takes over
SMALLEST_INDEX_AFTER = 10


class SolverError(RuntimeError):
    """Numerical breakdown or iteration exhaustion inside the simplex."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class Factor(NamedTuple):
    """The basis inverse an optimal solve ended with, and what it is
    valid for: ``binv`` and the steepest-edge ``weights`` of the final
    basis, ``age`` pivots since the last scheduled inversion, and the
    column-wise nonzeros of the A they belong to."""

    binv: np.ndarray
    weights: np.ndarray
    age: int
    col_ptr: np.ndarray
    nz_row: np.ndarray
    nz_val: np.ndarray


class Basis(NamedTuple):
    """Where an optimal solve ended, reusable as the start of another.

    ``cols`` names the basic column of each row and ``at_upper`` flags the
    nonbasic columns resting on their upper bound.  Both index the
    tableau's column layout: structural variables, then one logical per
    row, equalities first; ``layout`` is (structural count, equality rows,
    inequality rows).  ``factor``, set on every optimal solution, lets a
    start on the same A skip inverting the basis; it is only ever read.
    """

    cols: np.ndarray
    at_upper: np.ndarray
    layout: tuple
    factor: Factor | None = None


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
            _lengths, cols, _vals, b = _row_arrays(rows)
            if np.isfinite(b).all() and (not cols.size or 0 <= cols.min() <= cols.max() < n):
                continue
            # name the bad rows and columns, in row order
            for i, (coefs, rhs) in enumerate(rows):
                if not np.isfinite(rhs):
                    problems.append(f"{kind} row {i} has non-finite rhs")
                for j in coefs:
                    if not 0 <= j < n:
                        problems.append(f"{kind} row {i} references column {j}")
        return problems

    def check_point(self, x: np.ndarray, tol: float = FEAS_TOL) -> list[str]:
        """All constraint violations of ``x`` beyond ``tol``, for audits.

        A broken row is named by its number, then by its first few terms
        in the order the builder emitted them.
        """
        # each test is written so that NaN, which compares false, fails it
        problems = []
        xs = np.asarray(x, dtype=float)
        inside = (self.lo - tol <= xs[:self.n_vars]) & (xs[:self.n_vars] <= self.hi + tol)
        for j in np.flatnonzero(~inside).tolist():
            problems.append(f"{self.name_of(j)}={x[j]} outside [{self.lo[j]}, {self.hi[j]}]")
        for kind, rows in (("eq", self.eq_rows), ("ub", self.ub_rows)):
            m = len(rows)
            lengths, cols, vals, rhs = _row_arrays(rows)
            # summed left to right in dict order, as a loop over the row would
            lhs = np.bincount(np.arange(m).repeat(lengths), vals * xs[cols], minlength=m)
            slack = tol * (1.0 + np.abs(rhs))
            if kind == "eq":
                broken, sign = ~(np.abs(lhs - rhs) <= slack), "!="
            else:
                broken, sign = ~(lhs <= rhs + slack), ">"
            for i in np.flatnonzero(broken).tolist():
                coefs, b = rows[i]
                # an empty row sums to the integer 0, as sum() would give
                value = lhs[i] if coefs else 0
                problems.append(f"{kind} row {i}: {value} {sign} {b} in {_row_head(self, coefs)}")
        return problems


def _row_arrays(rows: list[tuple[SparseRow, float]]):
    """(length, columns, values, rhs) arrays of sparse rows; the nonzeros
    run row by row, each row in its dict order."""
    m = len(rows)
    coefs = [coefs for coefs, _ in rows]
    lengths = np.fromiter(map(len, coefs), dtype=np.intp, count=m)
    nnz = int(lengths.sum())
    cols = np.fromiter(itertools.chain.from_iterable(coefs), dtype=np.intp, count=nnz)
    vals = np.fromiter(
        itertools.chain.from_iterable(row.values() for row in coefs), dtype=float, count=nnz
    )
    rhs = np.fromiter((b for _, b in rows), dtype=float, count=m)
    return lengths, cols, vals, rhs


def _term(lp: LinearProgram, j: int, v: float) -> str:
    return f"{v:+g}*{lp.name_of(j)}"


def _row_head(lp: LinearProgram, coefs: SparseRow) -> str:
    terms = [_term(lp, j, v) for j, v in list(coefs.items())[:4]]
    return " ".join(terms) + (" ..." if len(coefs) > 4 else "")


def format_lp(lp: LinearProgram) -> str:
    """Human-readable dump, one row per line, for debugging."""
    lines = [f"min {' '.join(_term(lp, j, v) for j, v in enumerate(lp.c) if v != 0.0) or '0'}"]
    for coefs, rhs in lp.eq_rows:
        lines.append(f"  {' '.join(_term(lp, j, v) for j, v in sorted(coefs.items()))} == {rhs:g}")
    for coefs, rhs in lp.ub_rows:
        lines.append(f"  {' '.join(_term(lp, j, v) for j, v in sorted(coefs.items()))} <= {rhs:g}")
    for j in range(lp.n_vars):
        lines.append(f"  {lp.lo[j]:g} <= {lp.name_of(j)} <= {lp.hi[j]:g}")
    return "\n".join(lines)


class _Tableau:
    """Working state of one solve: the columns of A, bounds and the bound
    each column rests on, basis, basis inverse, dual steepest-edge
    weights, basic values and reduced costs.

    A is held column-wise and sparse: the nonzeros of column j are
    ``nz_row[col_ptr[j]:col_ptr[j + 1]]`` and ``nz_val[...]`` in row
    order, and ``nz_col`` names the column of each nonzero.  The basis
    inverse is dense, m x m.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        m_eq, m_ub = len(lp.eq_rows), len(lp.ub_rows)
        m = m_eq + m_ub
        self.m = m
        self.ncols = n + m  # structural then one logical per row
        lengths, cols, vals, self.b = _row_arrays(lp.eq_rows + lp.ub_rows)
        # structural nonzeros in column order, then the logical of row i,
        # column n + i, as a unit entry in row i
        order = cols.argsort(kind="stable")
        logical = np.arange(m)
        self.nz_col = np.concatenate([cols[order], n + logical])
        self.nz_row = np.concatenate([logical.repeat(lengths)[order], logical])
        self.nz_val = np.concatenate([vals[order], np.ones(m)])
        self.col_ptr = np.zeros(self.ncols + 1, dtype=np.intp)
        np.bincount(self.nz_col, minlength=self.ncols).cumsum(out=self.col_ptr[1:])
        self.col_norm2 = np.bincount(self.nz_col, self.nz_val * self.nz_val, minlength=self.ncols)
        self.cost = np.concatenate([lp.c, np.zeros(m)])
        self.lo = np.concatenate([lp.lo, np.zeros(m)])
        self.hi = np.concatenate([lp.hi, np.zeros(m_eq), np.full(m_ub, np.inf)])
        self.movable = self.lo < self.hi
        self.layout = (n, m_eq, m_ub)
        self.iterations = 0
        # work space of the inverse update; rows_buf also holds B for inv
        self.rows_buf = np.empty((m, m))
        self.outer_buf = np.empty((m, m))

    def start_from(self, start: Basis | None):
        """Install ``start``, or the all-logical basis, made dual feasible.

        The start's factor is copied in when it was made for this same A,
        since B^-1 depends on nothing else; otherwise the basis is inverted.
        Raises SolverError when ``start`` names no basis of this program
        or cannot be made dual feasible.
        """
        n, m = self.layout[0], self.m
        # pivots since the last scheduled inversion, carried along a chain
        self.age = 0
        inverse = None
        if start is None:
            cols = np.arange(n, n + m)
            at_upper = np.zeros(self.ncols, dtype=bool)
            inverse = (np.eye(m), np.ones(m))  # the identity is its own inverse
        else:
            cols = np.asarray(start.cols, dtype=int)
            at_upper = np.asarray(start.at_upper, dtype=bool)
            if (start.layout != self.layout or cols.shape != (m,)
                    or at_upper.shape != (self.ncols,)):
                raise SolverError("start comes from a program of another layout")
            if m and (cols.min() < 0 or cols.max() >= self.ncols or len(set(cols.tolist())) < m):
                raise SolverError("start does not name one column per row")
            factor = start.factor
            if (factor is not None and np.array_equal(factor.col_ptr, self.col_ptr)
                    and np.array_equal(factor.nz_row, self.nz_row)
                    and np.array_equal(factor.nz_val, self.nz_val)):
                inverse = (factor.binv.copy(), factor.weights.copy())
                self.age = factor.age
        self.basis = cols.copy()
        self.in_basis = np.zeros(self.ncols, dtype=bool)
        self.in_basis[self.basis] = True
        at_upper = at_upper & ~self.in_basis & np.isfinite(self.hi)
        # +1 where a column rests on its lower bound, every basic column
        # included, and -1 where it rests on its upper bound
        self.sign = np.where(at_upper, -1.0, 1.0)
        # kept up to date by pivot(), not gathered on every pivot
        self.lo_b = self.lo[self.basis]
        self.hi_b = self.hi[self.basis]
        self.nonbasic_movable = self.movable & ~self.in_basis
        self.refactor(inverse)

    def nonbasic_values(self) -> np.ndarray:
        vals = np.where(self.sign < 0, self.hi, self.lo)
        vals[self.in_basis] = 0.0
        return vals

    def row(self, rho: np.ndarray) -> np.ndarray:
        """rho A over every column; for rho = e_r^T B^-1 the pivot row."""
        return np.bincount(self.nz_col, rho[self.nz_row] * self.nz_val, minlength=self.ncols)

    def column(self, j: int) -> np.ndarray:
        """B^-1 A[:, j]."""
        nz = slice(self.col_ptr[j], self.col_ptr[j + 1])
        return self.binv[:, self.nz_row[nz]] @ self.nz_val[nz]

    def refactor(self, inverse: tuple | None = None):
        """Invert the basis afresh, reset the steepest-edge weights, then
        re-price and recompute the basic values.  ``inverse``, a pair of
        B^-1 and its weights known already, replaces the inversion."""
        m = self.m
        self.binv = None  # freed before LAPACK allocates the new inverse
        if inverse is not None:
            self.binv, self.weights = inverse
        else:
            position = np.full(self.ncols, -1)
            position[self.basis] = np.arange(m)
            at = position[self.nz_col]
            basic = at >= 0
            B = self.rows_buf
            B.fill(0.0)
            B[self.nz_row[basic], at[basic]] = self.nz_val[basic]
            try:
                self.binv = np.linalg.inv(B) if m else np.zeros((0, 0))
            except np.linalg.LinAlgError as exc:
                raise SolverError("singular basis during refactorization") from exc
            self.weights = np.einsum("ij,ij->i", self.binv, self.binv)
        self.price()
        nonbasic = self.nonbasic_values()
        self.xb = self.binv @ (
            self.b - np.bincount(self.nz_row, self.nz_val * nonbasic[self.nz_col], minlength=m)
        )

    def price(self) -> bool:
        """Recompute the reduced costs and move every nonbasic column to
        the bound its reduced cost prefers.

        Returns whether a column moved, after which the basic values are
        stale until the next refactorization.  Raises SolverError for a
        slack that would have to move to infinity.
        """
        self.d = self.cost - self.row(self.cost[self.basis] @ self.binv)
        self.d[self.basis] = 0.0
        # a negative dual slack d_j * sign_j: column j prefers its other bound
        wrong = self.nonbasic_movable & (self.d * self.sign < -OPT_TOL)
        if not wrong.any():
            return False
        if np.isinf(self.hi[wrong]).any():
            raise SolverError("a slack prices below zero: the basis is not dual feasible")
        self.sign[wrong] = -self.sign[wrong]
        return True

    def x_full(self) -> np.ndarray:
        x = self.nonbasic_values()
        x[self.basis] = self.xb
        return x

    def pivot(self, r: int, j: int, col: np.ndarray):
        """Make column j basic in row r; ``col`` is B^-1 A[:, j].

        The caller has already moved the basic values and recorded which
        bound the leaving variable rests on.
        """
        leaving = self.basis[r]
        self.age += 1
        self.in_basis[leaving] = False
        self.in_basis[j] = True
        self.nonbasic_movable[leaving] = self.movable[leaving]
        self.nonbasic_movable[j] = False
        self.basis[r] = j
        self.lo_b[r] = self.lo[j]
        self.hi_b[r] = self.hi[j]
        self.sign[j] = 1.0

        # Dual steepest-edge weights (Forrest & Goldfarb 1992): row i of
        # the new inverse is rho_i - ratio_i rho_r, so its squared norm
        # follows from the old one and tau = B^-1 rho_r^T, whose entry r is
        # the exact |rho_r|^2; taking w_r from there keeps errors from
        # spreading through row r to every other weight.  No weight can
        # fall below ratio_i^2 / |a_leaving|^2, since the new row i meets
        # the leaving column in -ratio_i; that floor absorbs cancellation.
        rho = self.binv[r]
        tau = self.binv @ rho
        ratio = col / col[r]
        w_r = tau[r]
        self.weights += ratio * (ratio * w_r - 2.0 * tau)
        np.maximum(self.weights, ratio * ratio / self.col_norm2[leaving], out=self.weights)
        self.weights[r] = w_r / (col[r] * col[r])

        # Rank-one update of the inverse in place: row r scaled, the other
        # rows where the entering column is nonzero swept.
        piv_row = rho / col[r]
        nz = col.nonzero()[0]
        # mode="clip" lets take() write straight into ``out``; nz is in range
        swept = self.binv.take(nz, axis=0, out=self.rows_buf[:nz.size], mode="clip")
        swept -= np.multiply(col[nz, None], piv_row, out=self.outer_buf[:nz.size])
        self.binv[nz] = swept
        self.binv[r] = piv_row

    def final_basis(self) -> Basis:
        # the tableau is dropped after this, so its arrays are handed over
        factor = Factor(self.binv, self.weights, self.age,
                        self.col_ptr, self.nz_row, self.nz_val)
        return Basis(self.basis.copy(), self.sign < 0, self.layout, factor)


def _run_dual(t: _Tableau, first: int, limit: int) -> bool:
    """Dual simplex pivots until every basic value is within its bounds.

    ``first`` is the pivot count at which this solve started.  Returns
    False on a dual ray, which proves the program infeasible.
    """
    m = t.m
    if not m:
        return True
    switch = SMALLEST_INDEX_AFTER * (m + t.ncols)
    while True:
        pivots = t.iterations - first
        if t.age >= REFACTOR_EVERY:
            t.refactor()
            t.age = 0
        violation = np.maximum(t.lo_b - t.xb, t.xb - t.hi_b)
        # dual steepest edge: violation^2 / w_r on the violated rows, 0 elsewhere
        score = np.where(violation > FEAS_TOL, violation * violation / t.weights, 0.0)
        r = int(score.argmax())
        if not score[r]:
            return True
        if pivots >= limit:
            raise SolverError(f"iteration limit {limit} exceeded")
        smallest_index = pivots >= switch
        if smallest_index:
            rows = score.nonzero()[0]
            r = int(rows[t.basis[rows].argmin()])
        t.iterations += 1

        # The leaving variable goes to the bound it violates.  Column j can
        # push it there if moving j off its own bound moves row r the right
        # way; the dual ratio test keeps every other reduced cost signed.
        to_upper = bool(t.xb[r] - t.hi_b[r] > t.lo_b[r] - t.xb[r])
        alpha = t.row(t.binv[r])
        # push_j > 0: moving column j off its bound moves row r that way
        push = alpha * t.sign
        if not to_upper:
            np.negative(push, out=push)
        eligible = ((push > PIVOT_TOL) & t.nonbasic_movable).nonzero()[0]
        if not eligible.size:
            return False
        # Two-pass (Harris) ratio test: a step up to ``bound`` pushes no
        # reduced cost more than RATIO_TIE_TOL past zero, and among the
        # ratios within it the largest pivot is the most stable.
        dual_slack = t.d[eligible] * t.sign[eligible]
        size = push[eligible]  # |alpha| where eligible
        bound = ((dual_slack + RATIO_TIE_TOL) / size).min()
        cand = (dual_slack / size <= bound).nonzero()[0]
        pick = int(cand[0] if smallest_index else cand[size[cand].argmax()])
        j = int(eligible[pick])

        col = t.column(j)
        if abs(col[r]) <= PIVOT_TOL:
            raise SolverError(f"numerical breakdown: pivot {col[r]:.3e} in column {j}")
        step = (t.xb[r] - (t.hi_b[r] if to_upper else t.lo_b[r])) / col[r]
        enter_val = (t.hi[j] if t.sign[j] < 0 else t.lo[j]) + step
        t.xb -= step * col
        t.xb[r] = enter_val
        if dual_slack[pick] > 0.0:  # a slightly wrong-signed d_j takes a zero step
            t.d -= (t.d[j] / alpha[j]) * alpha
        t.d[j] = 0.0
        t.sign[t.basis[r]] = -1.0 if to_upper else 1.0
        t.pivot(r, j, col)


def _optimize(t: _Tableau, lp: LinearProgram, limit: int) -> LpSolution:
    """Dual simplex from the installed basis, then re-pricing and the
    feasibility audit, which send it back to the dual loop at most twice."""
    n = lp.n_vars
    first = t.iterations
    problems = ["re-pricing kept moving columns"]
    for _attempt in range(3):
        if not _run_dual(t, first, limit):
            return LpSolution(LpStatus.INFEASIBLE, np.full(n, np.nan), np.nan, t.iterations)
        if t.price():
            t.refactor()
            continue
        x = t.x_full()[:n]
        problems = lp.check_point(x, tol=FEAS_TOL * 10)
        if not problems:
            return LpSolution(LpStatus.OPTIMAL, x, float(lp.c @ x), t.iterations,
                              t.final_basis())
        t.refactor()
    raise SolverError("solution failed feasibility audit: " + "; ".join(problems[:3]))


def solve_lp(lp: LinearProgram, start: Basis | None = None,
             max_iterations: int | None = None) -> LpSolution:
    """Solve ``lp`` to proven optimality or infeasibility.

    ``start``, the ``basis`` of an earlier optimal solution, warm-starts the
    solve when it fits ``lp`` (see the module notes) and is otherwise
    dropped; ``iterations`` then also counts the pivots of the abandoned
    attempt.  ``max_iterations`` caps the pivots of each attempt.
    Deterministic: the same program and the same start yield the same
    vertex every time.  Raises SolverError on numerical breakdown,
    iteration exhaustion, or a program too large for MAX_BASIS_MIB.
    """
    m = lp.n_rows
    need_mib = 4 * m * m * 8 / 2**20
    if need_mib > MAX_BASIS_MIB:
        raise SolverError(
            f"program has {m} rows: its basis arrays need {need_mib:.0f} MiB, "
            f"above the {MAX_BASIS_MIB} MiB limit"
        )
    problems = lp.validate()
    if problems:
        raise ValueError("malformed program: " + "; ".join(problems))

    t = _Tableau(lp)
    limit = 50 * (t.m + t.ncols) + 2000 if max_iterations is None else max_iterations
    if start is not None:
        try:
            t.start_from(start)
            solution = _optimize(t, lp, limit)
            if solution.is_optimal:
                return solution
        except SolverError:
            pass  # the all-logical solve below decides, and raises if it must
    t.start_from(None)
    return _optimize(t, lp, limit)
