"""Converse bounds on the delivery load.

Cut the network between the server and a user subset U: whatever those
users must end up with (their target rates) has to flow either through
their caches or over the shared link, and a single transmission round can
be reused by at most floor(N / |U|) disjoint demand batches.  So for
|U| = s every user contributes y_k = r_k - c_s m_k with
c_s = N / floor(N / s), and the cut is the sum of those terms over U.

Maximizing over U gives a load lower bound for fixed cache sizes.  No
subset has to be enumerated: for each size s the best cut takes the s
largest terms, so K sorts find it.  For a total budget the adversary
additionally gets to pick the least favorable split of the budget, which
is a linear program in the m_k.  The sum of the s largest entries of a
vector y is min over t of s t + sum_k max(0, y_k - t) (Ogryczak & Tamir
2003), so each size costs one threshold column, K excess columns and
K + 1 rows, and the program has about K^2 rows instead of 2^K.  Each
bound reads the memory of the instance it is given, and refuses the other
kind: :func:`cutset_fixed` needs cache sizes, the others a budget.

These bounds hold for every caching scheme, coded placement included,
so they sit below the achievable curves computed elsewhere in the
package and certify how much of the gap is real.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .lp_core import Basis, LinearProgram, SolverError, solve_lp
from .model import InstanceError, ProblemInstance

# the budget program has about K^2 rows and columns and the solver keeps a
# dense inverse of its basis; nothing measured needs more users than this
MAX_BOUND_USERS = 20
# cuts, and their terms, within this times the sum of rates count as equal
TIE_TOL = 1e-15


@dataclass(frozen=True)
class BoundReport:
    """A load lower bound with what attains it.

    ``value`` is clamped to zero since load cannot be negative;
    ``raw_value`` keeps the unclamped number for diagnostics.  The
    attaining witness is the maximizing user subset of a fixed-memory
    instance, as a bitmask with bit k-1 for user k, or a minimizing split
    of a budget instance's budget, one of many in general.  ``basis`` is
    the optimal basis of the budget program: a start for the budget bound
    of any instance with the same K and N.
    """

    value: float
    raw_value: float
    binding_set: int | tuple[float, ...]
    basis: Basis | None = field(default=None, compare=False, repr=False)


def _check_program_size(K: int) -> None:
    if K > MAX_BOUND_USERS:
        raise InstanceError(
            [f"cut-set bound over {K} users exceeds the program-size limit of "
             f"{MAX_BOUND_USERS} users"]
        )


def _budget(inst: ProblemInstance) -> float:
    if not inst.is_budget:
        raise InstanceError(["the budget cut-set bound needs a budget, not per-user cache sizes"])
    return inst.constraint.m_tot


def cutset_fixed(inst: ProblemInstance) -> BoundReport:
    """Best cut over all nonempty user subsets, at the cache sizes of ``inst``.

    For each size the best cut takes the largest terms, terms equal up to
    TIE_TOL times the sum of rates going to the lower user number, which
    gives the smallest bitmask of that size.  The sizes are then compared
    in bitmask order, a later one winning only by more than that
    tolerance, so ties go to the smallest bitmask and the witness is
    deterministic at any scale of the rates.
    """
    _check_program_size(inst.K)
    if inst.is_budget:
        raise InstanceError(["the fixed cut-set bound needs per-user cache sizes, not a budget"])

    K, r, m = inst.K, inst.rates.r, inst.constraint.m
    tol = TIE_TOL * inst.rates.sum_rates
    masks = []
    for size in range(1, K + 1):
        coef = inst.N / (inst.N // size)
        terms = [r[k] - coef * m[k] for k in range(K)]
        threshold = sorted(terms, reverse=True)[size - 1]
        # every term above the size-th largest, then the lowest users among
        # those equal to it up to rounding
        above = [k for k in range(K) if terms[k] > threshold + tol]
        tied = [k for k in range(K) if abs(terms[k] - threshold) <= tol]
        masks.append(sum(1 << k for k in above + tied[: size - len(above)]))

    best_mask = 0
    best = -float("inf")
    for mask in sorted(masks):
        rate_sum = mem_sum = 0.0
        for k in range(K):
            if mask >> k & 1:
                rate_sum += r[k]
                mem_sum += m[k]
        val = rate_sum - inst.N * mem_sum / (inst.N // mask.bit_count())
        if val > best + tol:
            best = val
            best_mask = mask
    return BoundReport(value=max(best, 0.0), raw_value=best, binding_set=best_mask)


def cutset_budget(inst: ProblemInstance, start: Basis | None = None) -> BoundReport:
    """Budget version: minimize the best cut over admissible splits of the
    budget of ``inst``, by solving :func:`budget_program`.

    Every program with the same K and N shares one set of coefficient
    arrays, so the ``basis`` of any such report, at any rates and budget,
    is a warm ``start`` here.
    """
    _check_program_size(inst.K)
    sol = solve_lp(budget_program(inst), start=start)
    if not sol.is_optimal:
        raise SolverError(f"cut-set program ended {sol.status.value}")
    raw = float(sol.objective)
    memories = tuple(float(sol.x[k]) for k in range(inst.K))
    return BoundReport(value=max(raw, 0.0), raw_value=raw, binding_set=memories,
                       basis=sol.basis)


def budget_program(inst: ProblemInstance) -> LinearProgram:
    """The budget bound's program for the users and the budget of ``inst``.

    Epigraph formulation over the columns m_1..m_K and the bound value z.
    A size s row pushes z above the sum of the s largest terms
    y_k = r_k - c_s m_k through a threshold t_s and excesses e_{s,k} >= 0:

        s t_s + sum_k e_{s,k} - z <= 0,    y_k - t_s - e_{s,k} <= 0.

    A size with at most K subsets (1, K - 1 and K) needs no threshold and
    gets one row sum_U y_k - z <= 0 per subset U instead.  The budget row,
    the one equality, and the boxes m_k in [0, r_k] complete the program:
    K^2 - 1 rows and K^2 - K - 2 columns for K >= 3, against 2^K rows for
    one row per subset.

    No coefficient depends on the rates: every program is the
    :meth:`LinearProgram.at` of one kept per K and N, at the instance's
    right-hand sides (its budget, and minus the rates each row sums) and
    boxes, so all of them share their coefficient arrays.
    """
    m_tot = _budget(inst)
    K, r = inst.K, inst.rates.r
    kept, coefs = _budget_rows(K, inst.N)
    r_max = max(r)
    # the size-1 cuts r_k - m_k are nonnegative and no cut exceeds the total
    lo, hi = [0.0] * (K + 1), [*r, inst.rates.sum_rates + 1.0]
    for coef in coefs:
        # y_k ranges over [r_k (1 - c_s), r_k]; the optimal threshold is
        # the s-th largest y_k, and each excess max(0, y_k - t_s), so
        # these boxes hold an optimum
        t_lo = (1.0 - coef) * r_max
        lo += [t_lo] + [0.0] * K
        hi += [r_max] + [rk - t_lo for rk in r]
    ub_rhs = [-sum(r[k] for k in row if k < K) for row, _ in kept.ub_rows]
    return kept.at([m_tot], ub_rhs, lo, hi)


@functools.lru_cache(maxsize=8)
def _budget_rows(K: int, N: int) -> tuple[LinearProgram, tuple[float, ...]]:
    """The budget program for K users and N files at zero right-hand sides,
    which every :func:`budget_program` moves, and c_s of each size with a
    threshold."""
    zcol = K
    names = [f"m[{k}]" for k in range(1, K + 1)] + ["z"]
    coefs, ubs = [], []
    for size in range(1, K + 1):
        coef = N / (N // size)
        if math.comb(K, size) <= K:
            for users in itertools.combinations(range(K), size):
                row = {k: -coef for k in users}
                row[zcol] = -1.0
                ubs.append((row, 0.0))
        else:
            tcol = len(names)
            coefs.append(coef)
            names += [f"t[{size}]"] + [f"e[{size}][{k + 1}]" for k in range(K)]
            top = {tcol: float(size), zcol: -1.0}
            for k in range(K):
                top[tcol + 1 + k] = 1.0
                ubs.append(({k: -coef, tcol: -1.0, tcol + 1 + k: -1.0}, 0.0))
            ubs.append((top, 0.0))

    c = [0.0] * len(names)
    c[zcol] = 1.0
    eq = [({k: 1.0 for k in range(K)}, 0.0)]
    return LinearProgram(c=c, eq_rows=eq, ub_rows=ubs, names=tuple(names)), tuple(coefs)


def cutset_k3(inst: ProblemInstance) -> float:
    """Three-user closed form of the budget bound at the budget of ``inst``:
    max of three lines.

    The lines are the all-users cut, a weighted mix of the {1,2} pair cut
    with user 3's own, and the average of the single-user cuts; for three
    users the minimizing split makes every other combination redundant.
    """
    if inst.K != 3:
        raise InstanceError([f"closed form applies to 3 users, not {inst.K}"])
    m_tot = _budget(inst)
    r1, r2, r3 = inst.rates.r
    N = inst.N
    total = r1 + r2 + r3
    half = N // 2
    branches = (
        total - N / (N // 3) * m_tot,
        (half * (r1 + r2) + N * r3) / (N + half) - N * m_tot / (N + half),
        (total - m_tot) / 3.0,
    )
    return max(branches)
