"""Converse bounds on the delivery load.

Cut the network between the server and a user subset U: whatever those
users must end up with (their target rates) has to flow either through
their caches or over the shared link, and a single transmission round can
be reused by at most floor(N / |U|) disjoint demand batches.  Maximizing
over U gives a load lower bound for fixed cache sizes; for a total
budget the adversary additionally gets to pick the least favorable split
of the budget, which is a small linear program in the m_k.

These bounds hold for every caching scheme, coded placement included,
so they sit below the achievable curves computed elsewhere in the
package and certify how much of the gap is real.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lp_core import LinearProgram, SolverError, solve_lp
from .model import Budget, FixedMemories, InstanceError, ProblemInstance, ensure_valid
from .scheme_lp import UserSet

# exact subset enumeration only; past this the bound would have to sample,
# and a sampled lower bound is not a bound
MAX_ENUM_USERS = 20


@dataclass(frozen=True)
class BoundReport:
    """A load lower bound with what attains it.

    ``value`` is clamped to zero since load cannot be negative;
    ``raw_value`` keeps the unclamped number for diagnostics.  The
    attaining witness is the maximizing user subset for fixed caches or
    the minimizing memory split for a budget.
    """

    value: float
    raw_value: float
    binding_set: UserSet | tuple[float, ...]


def _check_enum_size(K: int) -> None:
    if K > MAX_ENUM_USERS:
        raise InstanceError(
            [f"cut-set enumeration over {K} users exceeds the exact limit "
             f"{MAX_ENUM_USERS}"]
        )


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


def cutset_fixed(inst: ProblemInstance, m=None) -> BoundReport:
    """Best cut over all nonempty user subsets, cache sizes given.

    With no ``m`` the instance's own fixed memories are used.  Ties go to
    the smallest bitmask so the witness is deterministic.
    """
    ensure_valid(inst)
    _check_enum_size(inst.K)
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
    return BoundReport(
        value=max(best, 0.0), raw_value=best, binding_set=UserSet(best_mask)
    )


def cutset_budget(inst: ProblemInstance, m_tot: float | None = None) -> BoundReport:
    """Budget version: minimize the best cut over admissible splits.

    Epigraph formulation: one variable per user plus the bound value z,
    one row per nonempty subset pushing z above that cut, the budget row,
    and per-user boxes [0, r_k].
    """
    ensure_valid(inst)
    _check_enum_size(inst.K)
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


def cutset_k3(inst: ProblemInstance, m_tot: float | None = None) -> float:
    """Three-user closed form of the budget bound: max of three lines.

    The lines are the all-users cut, a weighted mix of the {1,2} pair cut
    with user 3's own, and the average of the single-user cuts; for three
    users the minimizing split makes every other combination redundant.
    """
    ensure_valid(inst)
    if inst.K != 3:
        raise InstanceError([f"closed form applies to 3 users, not {inst.K}"])
    if m_tot is None:
        if not isinstance(inst.constraint, Budget):
            raise InstanceError(["no budget given and none on the instance"])
        m_tot = inst.constraint.m_tot
    m_tot = float(m_tot)
    r1, r2, r3 = inst.rates.r
    N = inst.N
    total = r1 + r2 + r3
    if not -1e-9 <= m_tot <= total + 1e-9:  # NaN fails this test
        raise InstanceError([f"budget {m_tot} outside [0, {total}]"])
    half = N // 2
    branches = (
        total - N / (N // 3) * m_tot,
        (half * (r1 + r2) + N * r3) / (N + half) - N * m_tot / (N + half),
        (total - m_tot) / 3.0,
    )
    # the averaged single-user line is nonnegative throughout the domain,
    # so no clamp is needed
    return max(branches)
