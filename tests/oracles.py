"""Slow or independent reference implementations used only to check the package.

Everything here trades efficiency for obviousness: answers are obtained by
exhaustive enumeration or by a second evaluation route, so they cannot
share a bug with the code under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hetcache.bounds import BoundReport
from hetcache.closed_form import t_decomposition
from hetcache.lp_core import LinearProgram, SolverError, _row_head, solve_lp
from hetcache.model import Budget, FixedMemories, InstanceError, ProblemInstance, ensure_valid
from hetcache.scheme_lp import mask_label

FEAS = 1e-7


def brute_force_lp(c, eq_rows, ub_rows, lo, hi):
    """Minimize c.x over the polytope by enumerating candidate vertices.

    Every vertex of a nonempty polytope with finite boxes is the solution
    of some n linearly independent active constraints, so trying all size-n
    subsets of {equalities, inequalities, bound faces} and keeping the best
    feasible solution is exact.  Returns (status, x, objective) with status
    'optimal' or 'infeasible'.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows = []
    rhs = []
    for coefs, b in eq_rows:
        a = np.zeros(n)
        for j, v in coefs.items():
            a[j] += v
        rows.append(a)
        rhs.append(b)
    n_eq = len(rows)
    for coefs, b in ub_rows:
        a = np.zeros(n)
        for j, v in coefs.items():
            a[j] += v
        rows.append(a)
        rhs.append(b)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e.copy())
        rhs.append(lo[j])
        rows.append(e)
        rhs.append(hi[j])
    rows = np.array(rows)
    rhs = np.array(rhs)

    def feasible(x):
        if np.any(x < lo - FEAS) or np.any(x > hi + FEAS):
            return False
        vals = rows[: n_eq + len(ub_rows)] @ x
        for i in range(n_eq):
            if abs(vals[i] - rhs[i]) > FEAS * (1.0 + abs(rhs[i])):
                return False
        for i in range(n_eq, n_eq + len(ub_rows)):
            if vals[i] > rhs[i] + FEAS * (1.0 + abs(rhs[i])):
                return False
        return True

    best_x, best_obj = None, np.inf
    for active in itertools.combinations(range(len(rows)), n):
        M = rows[list(active)]
        v = rhs[list(active)]
        try:
            x = np.linalg.solve(M, v)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if feasible(x):
            obj = float(c @ x)
            if obj < best_obj - 1e-12:
                best_x, best_obj = x, obj
    if best_x is None:
        return "infeasible", None, np.nan
    return "optimal", best_x, best_obj


def random_box_lp(rng):
    """A small random LP with finite boxes; roughly a third are infeasible."""
    n = int(rng.integers(1, 6))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(0, 5))
    lo = rng.integers(-3, 1, n).astype(float)
    hi = lo + rng.integers(0, 5, n).astype(float)
    c = rng.integers(-5, 6, n).astype(float)
    x0 = rng.uniform(lo, hi)

    def random_row():
        a = rng.integers(-4, 5, n).astype(float)
        a[rng.random(n) < 0.3] = 0.0
        return {j: float(v) for j, v in enumerate(a) if v != 0.0}

    eq_rows = []
    for _ in range(m_eq):
        coefs = random_row()
        b = sum(v * x0[j] for j, v in coefs.items())
        eq_rows.append((coefs, float(b)))
    ub_rows = []
    for _ in range(m_ub):
        coefs = random_row()
        base = sum(v * x0[j] for j, v in coefs.items())
        slack = float(rng.integers(-2, 4))  # negative slack can cut off x0
        ub_rows.append((coefs, float(base) + slack))
    return c, eq_rows, ub_rows, lo, hi


def validate_loop(lp: LinearProgram) -> list[str]:
    """``LinearProgram.validate`` as a loop over every row and column."""
    problems = []
    n = lp.n_vars
    if lp.lo.shape != (n,) or lp.hi.shape != (n,):
        problems.append("bound arrays do not match variable count")
        return problems
    if not (np.all(np.isfinite(lp.lo)) and np.all(np.isfinite(lp.hi))):
        problems.append("variable bounds must be finite")
    bad = np.nonzero(lp.lo > lp.hi + 1e-15)[0]
    for j in bad[:5]:
        problems.append(f"empty bound box for {lp.name_of(int(j))}")
    for kind, rows in (("eq", lp.eq_rows), ("ub", lp.ub_rows)):
        for i, (coefs, rhs) in enumerate(rows):
            if not np.isfinite(rhs):
                problems.append(f"{kind} row {i} has non-finite rhs")
            for j in coefs:
                if not 0 <= j < n:
                    problems.append(f"{kind} row {i} references column {j}")
    return problems


def check_point_loop(lp: LinearProgram, x, tol: float) -> list[str]:
    """``LinearProgram.check_point`` as a loop: each row summed by ``sum``."""
    # each test is written so that NaN, which compares false, fails it
    problems = []
    for j in range(lp.n_vars):
        if not lp.lo[j] - tol <= x[j] <= lp.hi[j] + tol:
            problems.append(
                f"{lp.name_of(j)}={x[j]} outside [{lp.lo[j]}, {lp.hi[j]}]"
            )
    for i, (coefs, rhs) in enumerate(lp.eq_rows):
        lhs = sum(v * x[j] for j, v in coefs.items())
        if not abs(lhs - rhs) <= tol * (1.0 + abs(rhs)):
            problems.append(f"eq row {i}: {lhs} != {rhs} in {_row_head(lp, coefs)}")
    for i, (coefs, rhs) in enumerate(lp.ub_rows):
        lhs = sum(v * x[j] for j, v in coefs.items())
        if not lhs <= rhs + tol * (1.0 + abs(rhs)):
            problems.append(f"ub row {i}: {lhs} > {rhs} in {_row_head(lp, coefs)}")
    return problems


def envelope_load(corners, m_tot):
    """Piecewise-linear interpolation through memory/load corner points."""
    xs = [m for m, _ in corners]
    ys = [v for _, v in corners]
    if m_tot <= xs[0]:
        return ys[0]
    for i in range(1, len(xs)):
        if m_tot <= xs[i] + 1e-12:
            t = (m_tot - xs[i - 1]) / (xs[i] - xs[i - 1])
            return (1.0 - t) * ys[i - 1] + t * ys[i]
    return ys[-1]


def served_user(tmask: int, smask: int) -> int:
    """The one member of T outside S, i.e. whom the (T, S) piece serves."""
    diff = tmask & ~smask
    if diff == 0 or diff & (diff - 1):
        raise ValueError(f"{mask_label(tmask)} minus {mask_label(smask)} is not a single user")
    return diff.bit_length()


def threshold_form(t, rates, tol=1e-12):
    """(x, y, alpha): the greedy levels ``t`` read in threshold form.

    Layers before y sit at level x, layer y holds the partial level
    x - 1 + alpha, later layers sit at x - 1 until the region where their
    caps K - l + 1 bind.  That reading is faithful whenever consecutive
    fill levels have separated slope ranges, i.e. (x + 1)(x + 2) >= x (K + 1)
    for all x, which holds up to K = 5; for larger populations the optimal
    filling order interleaves levels and only ``t`` itself should be trusted.
    """
    K = rates.K
    effective = [l for l in range(1, K + 1) if rates.f[l - 1] > 0.0]
    frac = [l for l in effective if abs(t[l - 1] - round(t[l - 1])) > tol]
    if not effective or all(t[l - 1] <= tol for l in effective):
        return 1, 1, 0.0
    if frac:
        y = frac[0]
        return int(math.floor(t[y - 1])) + 1, y, t[y - 1] - math.floor(t[y - 1])
    x = int(round(t[effective[0] - 1]))
    at_level = [l for l in effective if round(t[l - 1]) == x and l <= K - x + 1]
    return x, at_level[-1] if at_level else effective[0], 1.0


def _chi(users: int, t: float) -> float:
    """Load of a ``users``-user uniform subsystem with unit file size and
    total memory ``t``, written as the max of the supporting lines.

    Line j passes through the integer points (j - 1, g(j - 1)) and
    (j, g(j)), so the max over j equals the interpolated envelope.  Kept
    as an explicit max so it is a genuinely different evaluation path.
    """
    return max(
        (2 * users - j + 1) / (j + 1) - (users + 1) * t / (j * (j + 1))
        for j in range(1, users + 1)
    )


def lemma1_load(K: int, m_tot: float) -> float:
    """Optimal load for K users with identical unit rates at total budget
    ``m_tot`` in [0, K]."""
    if K < 1:
        raise InstanceError([f"K={K} must be at least 1"])
    if m_tot < -1e-9 or m_tot > K + 1e-9:
        raise InstanceError([f"budget {m_tot} outside [0, {K}]"])
    return _chi(K, min(max(m_tot, 0.0), float(K)))


def simplified_budget_solve(m_tot, rates):
    """Budget optimum computed through the per-layer converse expression.

    Same greedy split, but each layer's contribution is evaluated as
    chi(K - l + 1, t_l) * f_l instead of by interpolating g, as an
    independent cross-check of ``theorem1_load``.  Returns (split, load).
    """
    dec = t_decomposition(m_tot, rates)
    K = rates.K
    load = sum(
        _chi(K - l + 1, dec.t[l - 1]) * rates.f[l - 1]
        for l in range(1, K + 1)
        if rates.f[l - 1] > 0.0
    )
    return dec, load


def audit_delivery(cache, log) -> list:
    """Check that no user is handed a bit twice.

    Every bit of a demanded file must reach its user through exactly one
    channel: the cache, one signal piece, or one unicast range.  Returns
    a description of each collision found.
    """
    problems = []
    for k in range(1, cache.library.K + 1):
        kbit = 1 << (k - 1)
        intervals: dict = {}

        def claim(l, start, stop, channel, k=k, intervals=intervals):
            if start >= stop:
                return
            for other_start, other_stop, other_channel in intervals.setdefault(l, []):
                if start < other_stop and other_start < stop:
                    problems.append(
                        f"user {k} layer {l}: {channel} [{start},{stop}) overlaps "
                        f"{other_channel} [{other_start},{other_stop})"
                    )
            intervals[l].append((start, stop, channel))

        for l, _smask, start, stop in cache.ranges[k - 1]:
            claim(l, start, stop, "cache")
        for sig in log.signals:
            if sig.addressees & kbit:
                for p in sig.pieces:
                    if p.user == k:
                        claim(p.layer, p.start, p.stop, f"signal {mask_label(sig.addressees)}")
        for uni in log.unicasts:
            if uni.user == k:
                for _file, l, start, stop in uni.ranges:
                    claim(l, start, stop, "unicast")
    return problems


def _cut_value(inst: ProblemInstance, mask: int, m) -> float:
    r = inst.rates.r
    size = mask.bit_count()
    rate_sum = 0.0
    mem_sum = 0.0
    for k in range(inst.K):
        if mask >> k & 1:
            rate_sum += r[k]
            mem_sum += m[k]
    return rate_sum - inst.N * mem_sum / (inst.N // size)


def cutset_fixed_enum(inst: ProblemInstance, m=None) -> BoundReport:
    """Best cut over all nonempty user subsets, cache sizes given.

    With no ``m`` the instance's own fixed memories are used.  Ties go to
    the smallest bitmask so the witness is deterministic.  Visits all
    2^K - 1 subsets.
    """
    ensure_valid(inst)
    if m is None:
        if not isinstance(inst.constraint, FixedMemories):
            raise InstanceError(["no memory vector given and none on the instance"])
        m = inst.constraint.m
    m = tuple(float(v) for v in m)
    # each range test is written so that NaN, which compares false, fails it
    problems = [
        f"memory m[{k}]={mk} outside [0, {rk}]"
        for k, (mk, rk) in enumerate(zip(m, inst.rates.r), start=1)
        if not -1e-12 <= mk <= rk + 1e-9
    ]
    if len(m) != inst.K:
        problems.append(f"memory vector has {len(m)} entries for {inst.K} users")
    if problems:
        raise InstanceError(problems)

    best_mask = 0
    best = -float("inf")
    for mask in range(1, 1 << inst.K):
        val = _cut_value(inst, mask, m)
        if val > best + 1e-15:
            best = val
            best_mask = mask
    return BoundReport(value=max(best, 0.0), raw_value=best, binding_set=best_mask)


def cutset_budget_enum(inst: ProblemInstance, m_tot: float | None = None) -> BoundReport:
    """Budget version: minimize the best cut over admissible splits.

    Epigraph formulation: one variable per user plus the bound value z,
    one row per nonempty subset pushing z above that cut, the budget row,
    and per-user boxes [0, r_k].  The program has 2^K rows.
    """
    ensure_valid(inst)
    if m_tot is None:
        if not isinstance(inst.constraint, Budget):
            raise InstanceError(["no budget given and none on the instance"])
        m_tot = inst.constraint.m_tot
    m_tot = float(m_tot)
    total = inst.rates.sum_rates
    if not -1e-9 <= m_tot <= total + 1e-9:  # NaN fails this test
        raise InstanceError([f"budget {m_tot} outside [0, {total}]"])

    K, N = inst.K, inst.N
    r = inst.rates.r
    zcol = K
    c = [0.0] * K + [1.0]
    lo = [0.0] * K + [-N * total - 1.0]
    hi = list(r) + [total + 1.0]
    names = tuple(f"m[{k}]" for k in range(1, K + 1)) + ("z",)

    ubs = []
    for mask in range(1, 1 << K):
        size = mask.bit_count()
        coef = N / (N // size)
        row = {zcol: -1.0}
        rhs = 0.0
        for k in range(K):
            if mask >> k & 1:
                row[k] = -coef
                rhs -= r[k]
        ubs.append((row, rhs))  # sum_U r - coef*sum_U m - z <= 0, negated

    eq = [({k: 1.0 for k in range(K)}, m_tot)]
    lp = LinearProgram(c=c, eq_rows=eq, ub_rows=ubs, lo=lo, hi=hi, names=names)
    sol = solve_lp(lp)
    if not sol.is_optimal:
        raise SolverError(f"cut-set program ended {sol.status.value}")
    raw = float(sol.objective)
    memories = tuple(float(sol.x[k]) for k in range(K))
    return BoundReport(value=max(raw, 0.0), raw_value=raw, binding_set=memories)
