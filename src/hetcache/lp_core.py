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
  column is B^-1 times a column's few nonzeros.  These arrays are derived
  once per program, on first use, and shared by every program it is moved
  to (see :meth:`LinearProgram.at`).
* The basis inverse is kept in product form (Dantzig & Orchard-Hays
  1954): B0^-1, a dense m x m inverse, computed afresh or folded (below),
  and an outer-product eta file of the k pivots made since, so that
  B^-1 = B0^-1 - U^T V.  A pivot in row r on the entering column
  alpha = B^-1 a_j appends u = alpha - e_r to U and v = e_r^T B^-1 / alpha_r
  to V and writes nothing else.  Every read of B^-1 (a row, the entering
  column, B^-1 v and y^T B^-1) is one product with B0^-1 and two with the
  k pending rows.  The steepest-edge weights follow by the
  Forrest-Goldfarb recurrence, which costs one product B^-1 (e_r^T B^-1)^T
  per pivot, and the reduced costs by the pivot row.
* Refresh: when the eta file is full (REFACTOR_EVERY = 100 rows) it is
  folded, B0^-1 <- B0^-1 - U^T V in one matrix product; the weights are
  reset to the folded rows' squared norms and the reduced costs and basic
  values recomputed.  The file runs on along a chain of warm starts that
  hand their factor on (see below), so k never exceeds REFACTOR_EVERY.
  The basis is inverted afresh only on evidence: a fold whose probe
  fails (|B B^-1 z - z| > 1e-9 |z| for the fixed z_i = 1 + i/m) or a
  point that fails the feasibility audit; a start is never inverted.  At
  the end the reduced costs are recomputed once more; a column that moves
  to its other bound (basic values recomputed) or a failed audit (basis
  inverted) sends the dual loop round again, at most three times in all.
* Memory: a solve holds B0^-1, m x m, and an eta file of 2 *
  REFACTOR_EVERY rows of m, and an optimal basis keeps both.  A fold
  writes a B0^-1 of the solve's own in place; one shared with a start
  goes to a fresh array.  An inversion drops B0^-1 and holds four m x m
  arrays: B, and numpy's copy of B, the identity it solves into (LAPACK's
  gesv) and the inverse.  With the caller's start, the most a solve
  holds is 5 m^2 + 4 REFACTOR_EVERY m numbers, and a program whose count
  passes MAX_BASIS_MIB is refused with SolverError before anything is
  allocated.  The vectors, O(m + nnz), are not counted: on warm K=6 and
  K=7 budget solves tracemalloc read them at 0.21 and 0.11 m x m.
* Tolerances: feasibility 1e-8, optimality 1e-8, pivot acceptance 1e-11.
* A solve runs numpy's BLAS at one thread and then gives the caller's
  thread count back: the thread count moves the last bits of a product,
  and so the pivot path.  Where no control of that BLAS is found
  (:func:`_blas_pin`), a solve runs at the count the BLAS has.

Warm starts.  Every optimal solution carries its final :class:`Basis`,
which is also its factor: B0^-1, the eta rows and the steepest-edge
weights it ended with, and the column arrays of the A they belong to.  A
start is taken only on a program that holds those very arrays; one
identity test decides.  :meth:`LinearProgram.at` moves a program to
other right-hand sides and boxes over those arrays, and ``scheme_lp``
and ``bounds`` build each program as an ``at()`` of one kept per
variable index and constraint type, or per user and file count, so a
start is taken on every program moved from the same kept one.  Moved to
another right-hand side, as in a budget sweep, the basis is still dual
feasible, and since B^-1 depends only on A and the basic columns, the
start's factor is taken over: the solve shares B0^-1, copies the k eta
rows and goes on pivoting, so the re-solve costs only its pivots.  A
start is only read, so one basis can start many solves.  Along a
right-hand side that moves monotonically, as a sweep's memory does, a
chain is cheapest started where the cold solve is; for the scheme
programs that is at full memory, so their chains walk down.  A start
that does not fit (one from a program with other arrays, even of equal
A, a repeated column, an unbounded slack that prices the wrong way) or
that ends in numerical trouble is dropped, and the solve reruns from the
all-logical basis.  A warm solve that ends in a dual ray stands: the ray
proves the program infeasible from any basis, so a rerun would only
repeat the verdict.  So a start never changes a status and never raises
where a solve without one would not.

Infeasible is a status, not an exception; SolverError is reserved for
numerical trouble, iteration limits and programs too large to hold.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import itertools
import operator
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SparseRow = dict[int, float]

FEAS_TOL = 1e-8
OPT_TOL = 1e-8
PIVOT_TOL = 1e-11
RATIO_TIE_TOL = 1e-9
REFACTOR_EVERY = 100
# a fold's probe: the largest error of B (B^-1 z), relative to |z|
PROBE_TOL = 1e-9
# most memory check_basis_size admits: every program of up to 8 users
# (3602 rows, 506 MiB) and none of 9 (6447 rows and more, 1605 MiB)
MAX_BASIS_MIB = 512
# pivots per row and column before the smallest-index rule takes over
SMALLEST_INDEX_AFTER = 10
# a solve attempt raises past PER * (rows + cols) + BASE pivots
ITERATION_LIMIT_PER = 50
ITERATION_LIMIT_BASE = 2000


class SolverError(RuntimeError):
    """Numerical breakdown or iteration exhaustion inside the simplex."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class Basis(NamedTuple):
    """Where an optimal solve ended, reusable as the start of a solve of
    any program with the same coefficient arrays; only ever read.

    ``cols`` names the basic column of each row and ``at_upper`` flags the
    nonbasic columns resting on their upper bound.  Both index the
    tableau's columns: structural variables, then one logical per row,
    equalities first.  ``binv``, the dense B0^-1, and the eta rows
    ``eta_u`` and ``eta_v`` of the k pivots since, views of the solve's
    eta file, give the basis inverse B^-1 = binv - eta_u^T eta_v;
    ``weights`` are its steepest-edge weights; and ``columns`` is the
    column-array tuple of the A they belong to, the very object that
    ``LinearProgram.coefficients().columns()`` returns.
    """

    cols: np.ndarray
    at_upper: np.ndarray
    binv: np.ndarray
    weights: np.ndarray
    eta_u: np.ndarray
    eta_v: np.ndarray
    columns: tuple


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


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """A box-constrained LP in the sparse row form the builders emit; an
    immutable value.

    ``eq_rows`` and ``ub_rows`` are tuples of (coefficients, rhs) pairs
    where the coefficients map column index to value, and no dict is ever
    changed in place.  ``c``, ``lo`` and ``hi`` are read-only arrays (a
    writeable one passed in is copied).  Bounds must be finite for every
    structural variable; unbounded slack handling is internal.  ``names``
    is optional and only used in error text.

    The coefficient arrays that the audit and the solver read are derived
    from the row dicts once, on first use, and :meth:`at` hands them on.
    A ``dataclasses.replace`` copy derives arrays of its own, so a start
    from the original is dropped there for a cold solve.
    """

    c: np.ndarray
    eq_rows: tuple[tuple[SparseRow, float], ...] = ()
    ub_rows: tuple[tuple[SparseRow, float], ...] = ()
    lo: np.ndarray = None
    hi: np.ndarray = None
    names: tuple[str, ...] | None = None
    _arrays: _Coefficients | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        c = _read_only(self.c)
        n = c.shape[0]
        fields = {"c": c, "eq_rows": tuple(self.eq_rows), "ub_rows": tuple(self.ub_rows),
                  "lo": _read_only(np.zeros(n) if self.lo is None else self.lo),
                  "hi": _read_only(np.ones(n) if self.hi is None else self.hi)}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

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

    def coefficients(self) -> _Coefficients:
        """The coefficient arrays of the rows, each derived on first use."""
        if self._arrays is None:
            object.__setattr__(self, "_arrays", _Coefficients(self))
        return self._arrays

    def at(self, eq_rhs, ub_rhs, lo, hi) -> LinearProgram:
        """This program at the right-hand sides ``eq_rhs`` and ``ub_rhs``,
        one per row, and the boxes [lo, hi], over the same costs, names and
        coefficient arrays, so a start is taken on both programs alike."""
        moved = LinearProgram(self.c, tuple(zip(map(_COEFS, self.eq_rows), eq_rhs, strict=True)),
                              tuple(zip(map(_COEFS, self.ub_rows), ub_rhs, strict=True)),
                              lo, hi, self.names)
        object.__setattr__(moved, "_arrays", self.coefficients())
        return moved

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
        cols = self.coefficients().rows()[1]
        if (np.isfinite(_rhs(self.eq_rows + self.ub_rows)).all()
                and (not cols.size or 0 <= cols.min() <= cols.max() < n)):
            return problems
        # name the bad rows and columns, in row order
        for kind, rows in (("eq", self.eq_rows), ("ub", self.ub_rows)):
            for i, (coefs, rhs) in enumerate(rows):
                if not np.isfinite(rhs):
                    problems.append(f"{kind} row {i} has non-finite rhs")
                for j in coefs:
                    if not 0 <= j < n:
                        problems.append(f"{kind} row {i} references column {j}")
        return problems

    def check_point(self, x: np.ndarray, tol: float = FEAS_TOL) -> list[str]:
        """All constraint violations of ``x`` beyond ``tol``, for audits.

        The rows are summed from the program's own row arrays, not from a
        solver's.  A broken row is named by its number, then by its first
        few terms in the order the builder emitted them.
        """
        # each test is written so that NaN, which compares false, fails it
        problems = []
        xs = np.asarray(x, dtype=float)
        inside = (self.lo - tol <= xs[:self.n_vars]) & (xs[:self.n_vars] <= self.hi + tol)
        for j in np.flatnonzero(~inside).tolist():
            problems.append(f"{self.name_of(j)}={x[j]} outside [{self.lo[j]}, {self.hi[j]}]")
        row_of, cols, vals = self.coefficients().rows()
        rows = self.eq_rows + self.ub_rows
        m_eq, m = len(self.eq_rows), len(rows)
        # summed left to right in dict order, as a loop over the row would
        lhs = np.bincount(row_of, vals * xs[cols], minlength=m)
        rhs = _rhs(rows)
        slack = tol * (1.0 + np.abs(rhs))
        broken = np.concatenate([~(np.abs(lhs[:m_eq] - rhs[:m_eq]) <= slack[:m_eq]),
                                 ~(lhs[m_eq:] <= rhs[m_eq:] + slack[m_eq:])])
        for i in np.flatnonzero(broken).tolist():
            coefs, b = rows[i]
            kind, sign, at = ("eq", "!=", i) if i < m_eq else ("ub", ">", i - m_eq)
            # an empty row sums to the integer 0, as sum() would give
            value = lhs[i] if coefs else 0
            problems.append(f"{kind} row {at}: {value} {sign} {b} in {_row_head(self, coefs)}")
        return problems


class _Coefficients:
    """The coefficient arrays of a program's rows, eq rows first, row by
    row for the audit and column by column for the tableau; each derived
    on first use and read-only, so programs and bases can share them."""

    def __init__(self, lp: LinearProgram):
        self.n = lp.n_vars
        self.dicts = list(map(_COEFS, itertools.chain(lp.eq_rows, lp.ub_rows)))
        self._rows = None
        self._columns = None

    def rows(self):
        if self._rows is None:
            self._rows = _frozen(*_row_arrays(self.dicts))
        return self._rows

    def columns(self):
        if self._columns is None:
            self._columns = _frozen(*_column_arrays(self.n, len(self.dicts), *self.rows()))
        return self._columns


def _row_arrays(dicts: list[SparseRow]):
    """The row of each nonzero, its column and its value, row by row and
    each row in its dict order."""
    m = len(dicts)
    lengths = np.fromiter(map(len, dicts), dtype=np.intp, count=m)
    nnz = int(lengths.sum())
    cols = np.fromiter(itertools.chain.from_iterable(dicts), dtype=np.intp, count=nnz)
    vals = np.fromiter(itertools.chain.from_iterable(row.values() for row in dicts),
                       dtype=float, count=nnz)
    return np.arange(m).repeat(lengths), cols, vals


def _column_arrays(n: int, m: int, row_of: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """(col_ptr, nz_row, nz_val, nz_col, col_norm2): the structural
    nonzeros in column order, then the logical of row i, column n + i, as
    a unit entry in row i."""
    order = cols.argsort(kind="stable")
    logical = np.arange(m)
    nz_col = np.concatenate([cols[order], n + logical])
    nz_row = np.concatenate([row_of[order], logical])
    nz_val = np.concatenate([vals[order], np.ones(m)])
    col_ptr = np.zeros(n + m + 1, dtype=np.intp)
    np.bincount(nz_col, minlength=n + m).cumsum(out=col_ptr[1:])
    col_norm2 = np.bincount(nz_col, nz_val * nz_val, minlength=n + m)
    return col_ptr, nz_row, nz_val, nz_col, col_norm2


def _frozen(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _read_only(values) -> np.ndarray:
    """``values`` as a float array nothing writes: itself when it already
    is one, else a frozen copy, so a caller's own array stays writeable."""
    a = np.asarray(values, dtype=float)
    return _frozen(a.copy())[0] if a.flags.writeable else a


_COEFS = operator.itemgetter(0)
_RHS = operator.itemgetter(1)


def _rhs(rows: tuple[tuple[SparseRow, float], ...]) -> np.ndarray:
    return np.fromiter(map(_RHS, rows), dtype=float, count=len(rows))


def _row_head(lp: LinearProgram, coefs: SparseRow) -> str:
    terms = [f"{v:+g}*{lp.name_of(j)}" for j, v in list(coefs.items())[:4]]
    return " ".join(terms) + (" ..." if len(coefs) > 4 else "")


class _Tableau:
    """Working state of one solve: the columns of A, bounds and the bound
    each column rests on, basis, basis inverse, dual steepest-edge
    weights, basic values and reduced costs.

    A is held column-wise and sparse: the nonzeros of column j are
    ``nz_row[col_ptr[j]:col_ptr[j + 1]]`` and ``nz_val[...]`` in row
    order, and ``nz_col`` names the column of each nonzero.  The basis
    inverse is ``binv0``, dense and read-only while a start shares it,
    less the eta file's first ``k`` rows: B^-1 = binv0 - eta_u[:k]^T eta_v[:k].
    """

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        m_eq, m_ub = len(lp.eq_rows), len(lp.ub_rows)
        m = m_eq + m_ub
        self.m = m
        self.ncols = n + m  # structural then one logical per row
        self.b = _rhs(lp.eq_rows + lp.ub_rows)
        # shared with every copy of the program, and only read
        self.columns = lp.coefficients().columns()
        self.col_ptr, self.nz_row, self.nz_val, self.nz_col, self.col_norm2 = self.columns
        self.cost = np.concatenate([lp.c, np.zeros(m)])
        self.lo = np.concatenate([lp.lo, np.zeros(m)])
        self.hi = np.concatenate([lp.hi, np.zeros(m_eq), np.full(m_ub, np.inf)])
        self.movable = self.lo < self.hi
        self.iterations = 0
        # the eta file: B^-1 = binv0 - eta_u[:k]^T eta_v[:k], a row pair a pivot
        self.etas = np.empty((2, REFACTOR_EVERY, m))
        self.eta_u, self.eta_v = self.etas

    def start_from(self, start: Basis | None):
        """Install ``start``, or the all-logical basis, made dual feasible.

        A start is taken, with its factor, only when it holds this
        program's own column arrays, which a program shares with its
        copies; B^-1 depends on nothing else.  Raises
        SolverError when ``start`` comes from another program, names no
        basis, or cannot be made dual feasible.
        """
        m = self.m
        if start is None:
            cols = np.arange(self.ncols - m, self.ncols)
            at_upper = np.zeros(self.ncols, dtype=bool)
            # the identity is its own inverse, with no etas
            self.binv0, self.weights, self.k = np.eye(m), np.ones(m), 0
        else:
            if start.columns is not self.columns:
                raise SolverError("start comes from another program")
            cols, at_upper = start.cols, start.at_upper
            if m and (cols.min() < 0 or cols.max() >= self.ncols or len(set(cols.tolist())) < m):
                raise SolverError("start does not name one column per row")
            # only the weights and etas are copied: a start's binv0 is never written
            self.binv0, self.weights, self.k = start.binv, start.weights.copy(), len(start.eta_u)
            self.eta_u[:self.k] = start.eta_u
            self.eta_v[:self.k] = start.eta_v
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
        self.price()
        self.solve_basic()

    def nonbasic_values(self) -> np.ndarray:
        vals = np.where(self.sign < 0, self.hi, self.lo)
        vals[self.in_basis] = 0.0
        return vals

    def row(self, rho: np.ndarray) -> np.ndarray:
        """rho A over every column; for rho = e_r^T B^-1 the pivot row."""
        return np.bincount(self.nz_col, rho[self.nz_row] * self.nz_val, minlength=self.ncols)

    # The four reads of B^-1 = binv0 - U^T V, with U and V the k pending
    # rows of the eta file: each is one product with binv0 and two with U, V.

    def inverse_row(self, r: int) -> np.ndarray:
        """e_r^T B^-1."""
        k = self.k
        return self.binv0[r] - self.eta_u[:k, r] @ self.eta_v[:k]

    def column(self, j: int) -> np.ndarray:
        """B^-1 A[:, j]."""
        nz = slice(self.col_ptr[j], self.col_ptr[j + 1])
        rows, vals = self.nz_row[nz], self.nz_val[nz]
        k = self.k
        return self.binv0[:, rows] @ vals - (self.eta_v[:k, rows] @ vals) @ self.eta_u[:k]

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v."""
        k = self.k
        return self.binv0 @ v - (self.eta_v[:k] @ v) @ self.eta_u[:k]

    def btran(self, y: np.ndarray) -> np.ndarray:
        """y^T B^-1."""
        k = self.k
        return y @ self.binv0 - (self.eta_u[:k] @ y) @ self.eta_v[:k]

    def refactor(self):
        """Invert the basis afresh, which empties the eta file and resets
        the steepest-edge weights, then re-price and recompute the basic
        values."""
        self.binv0 = None  # freed before B and LAPACK's arrays are allocated
        rows, at, vals = self.basic_nonzeros()
        B = np.zeros((self.m, self.m))
        B[rows, at] = vals
        try:
            self.binv0 = np.linalg.inv(B) if self.m else B
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis during refactorization") from exc
        self.weights = np.einsum("ij,ij->i", self.binv0, self.binv0)
        self.k = 0
        self.price()
        self.solve_basic()

    def fold(self):
        """Multiply the eta file out, B0^-1 <- B0^-1 - U^T V, which empties
        it, then reset the weights, re-price and recompute the basic values,
        or invert the basis afresh if the folded factor fails the probe.
        A binv0 of this solve's own is written in place, 64 rows at a time;
        one shared with a start (read-only) is folded into a fresh array.

        The paths round differently (8 of 32 random factors of m = 24..1246
        rows and k = 1..100 eta rows differed in their last bits), so
        merging them would move the bits, and here the vertices, of warm
        chains."""
        U, V = self.eta_u[:self.k], self.eta_v[:self.k]
        if self.binv0.flags.writeable:
            for i in range(0, self.m, 64):
                self.binv0[i:i + 64] -= U[:, i:i + 64].T @ V
        else:
            # no local name keeps the folded array alive through a refactor()
            shared, self.binv0 = self.binv0, np.matmul(U.T, V)
            np.subtract(shared, self.binv0, out=self.binv0)
        self.k = 0
        # B (B^-1 z) must give back the fixed dense z; NaN fails as well
        z = 1.0 + np.arange(self.m) / self.m
        rows, at, vals = self.basic_nonzeros()
        w = self.binv0 @ z
        error = np.abs(np.bincount(rows, vals * w[at], minlength=self.m) - z).max()
        if not error <= PROBE_TOL * z.max():
            return self.refactor()
        self.weights = np.einsum("ij,ij->i", self.binv0, self.binv0)
        self.price()
        self.solve_basic()

    def basic_nonzeros(self):
        """(row, basis position, value) of every nonzero of B."""
        position = np.full(self.ncols, -1)
        position[self.basis] = np.arange(self.m)
        at = position[self.nz_col]
        basic = at >= 0
        return self.nz_row[basic], at[basic], self.nz_val[basic]

    def solve_basic(self):
        """x_B = B^-1 (b - A_N x_N) from the current factor."""
        x_n = self.nonbasic_values()[self.nz_col]
        a_n = np.bincount(self.nz_row, self.nz_val * x_n, minlength=self.m)
        self.xb = self.ftran(self.b - a_n)

    def price(self) -> bool:
        """Recompute the reduced costs and move every nonbasic column to
        the bound its reduced cost prefers.

        Returns whether a column moved, after which the basic values are
        stale until ``solve_basic``.  Raises SolverError for a
        slack that would have to move to infinity.
        """
        self.d = self.cost - self.row(self.btran(self.cost[self.basis]))
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

    def pivot(self, r: int, j: int, col: np.ndarray, rho: np.ndarray):
        """Make column j basic in row r; ``col`` is B^-1 A[:, j] and ``rho``
        is e_r^T B^-1.

        The caller has already moved the basic values and recorded which
        bound the leaving variable rests on.
        """
        leaving = self.basis[r]
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
        tau = self.ftran(rho)
        ratio = col / col[r]
        w_r = tau[r]
        self.weights += ratio * (ratio * w_r - 2.0 * tau)
        np.maximum(self.weights, ratio * ratio / self.col_norm2[leaving], out=self.weights)
        self.weights[r] = w_r / (col[r] * col[r])

        # The new inverse is B^-1 - u v^T with u = col - e_r and
        # v = rho / col[r]: row r scaled, the others swept.  It is appended
        # to the eta file; nothing else is written.
        u = self.eta_u[self.k]
        u[:] = col
        u[r] -= 1.0
        np.divide(rho, col[r], out=self.eta_v[self.k])
        self.k += 1

    def final_basis(self) -> Basis:
        # the tableau is dropped after this, so binv0, the weights and the
        # k etas are handed over, read-only, since a start is never written
        return Basis(self.basis.copy(), self.sign < 0,
                     *_frozen(self.binv0, self.weights, *self.etas[:, :self.k]), self.columns)


def _run_dual(t: _Tableau, first: int) -> bool:
    """Dual simplex pivots until every basic value is within its bounds.

    ``first`` is the pivot count at which this solve started.  Returns
    False on a dual ray, which proves the program infeasible.
    """
    m = t.m
    if not m:
        return True
    switch = SMALLEST_INDEX_AFTER * (m + t.ncols)
    limit = ITERATION_LIMIT_PER * (m + t.ncols) + ITERATION_LIMIT_BASE
    while True:
        pivots = t.iterations - first
        if t.k == REFACTOR_EVERY:
            t.fold()
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
        rho = t.inverse_row(r)
        alpha = t.row(rho)
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
        t.pivot(r, j, col, rho)


def _optimize(t: _Tableau, lp: LinearProgram) -> LpSolution:
    """Dual simplex from the installed basis, then re-pricing and the
    feasibility audit, which send it back to the dual loop at most twice."""
    n = lp.n_vars
    first = t.iterations
    problems = ["re-pricing kept moving columns"]
    for _attempt in range(3):
        if not _run_dual(t, first):
            return LpSolution(LpStatus.INFEASIBLE, np.full(n, np.nan), np.nan, t.iterations)
        if t.price():
            t.solve_basic()  # a moved column only makes x_B stale
            continue
        x = t.x_full()[:n]
        problems = lp.check_point(x, tol=FEAS_TOL * 10)
        if not problems:
            return LpSolution(LpStatus.OPTIMAL, x, float(lp.c @ x), t.iterations,
                              t.final_basis())
        t.refactor()
    raise SolverError("solution failed feasibility audit: " + "; ".join(problems[:3]))


def check_basis_size(m: int) -> None:
    """Raise SolverError when the most a solve of a program of m rows
    holds, counted in the module notes, would exceed MAX_BASIS_MIB."""
    need_mib = (5 * m + 4 * REFACTOR_EVERY) * m * 8 / 2**20
    if need_mib > MAX_BASIS_MIB:
        raise SolverError(
            f"program has {m} rows: its basis arrays need {need_mib:.0f} MiB, "
            f"above the {MAX_BASIS_MIB} MiB limit"
        )


class _OneBlasThread:
    """Holds numpy's BLAS at one thread while any solve runs, in any
    thread: the first solve in saves the caller's count and the last one
    out gives it back."""

    def __init__(self, get, put):
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        self.get, self.put = get, put
        self.lock = threading.Lock()
        self.running = 0
        self.before = None

    def __enter__(self):
        with self.lock:
            if not self.running:
                self.before = self.get()
                self.put(1)
            self.running += 1

    def __exit__(self, *_exc):
        with self.lock:
            self.running -= 1
            if not self.running:
                self.put(self.before)


@functools.cache
def _blas_pin():
    """The :class:`_OneBlasThread` of the BLAS that numpy's linear algebra
    calls, or a context that does nothing where no known control is found.

    The names are looked up through numpy's LAPACK module, whose handle
    also searches the libraries it links, so no path is needed: numpy's
    wheels bundle OpenBLAS with a ``scipy_`` prefix, other builds link
    plain OpenBLAS or MKL.
    """
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return contextlib.nullcontext()
    for get, put in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                     ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
                     ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "openblas_set_num_threads"),
                     ("MKL_Get_Max_Threads", "MKL_Set_Num_Threads")):
        if hasattr(lib, get) and hasattr(lib, put):
            return _OneBlasThread(getattr(lib, get), getattr(lib, put))
    return contextlib.nullcontext()


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Solve ``lp`` to proven optimality or infeasibility.

    ``start``, the ``basis`` of an earlier optimal solution of a program
    with the same coefficient arrays, warm-starts the solve where it can
    (see the module notes); a warm solve's verdict, optimal or
    infeasible, stands.  A start that does not fit or ends in numerical
    trouble is dropped, and ``iterations`` then also counts the pivots of
    the abandoned attempt.  Deterministic: the same program and the same
    start yield the same vertex every time, whatever the caller's BLAS
    thread count, where numpy's BLAS has a known control (see the module
    notes).  Raises SolverError on numerical breakdown, iteration
    exhaustion, or a program too large for MAX_BASIS_MIB.
    """
    check_basis_size(lp.n_rows)
    problems = lp.validate()
    if problems:
        raise ValueError("malformed program: " + "; ".join(problems))

    t = _Tableau(lp)
    with _blas_pin():
        if start is not None:
            try:
                t.start_from(start)
                return _optimize(t, lp)
            except SolverError:
                pass  # the all-logical solve below decides, and raises if it must
        t.start_from(None)
        return _optimize(t, lp)
