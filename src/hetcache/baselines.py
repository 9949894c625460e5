"""Separation-based reference schemes: split caches first, then code.

The prior approaches fix each user's cache split across layers with a
rule of thumb, then run an independent caching scheme inside every
layer.  Two splits are implemented: proportional (each layer gets cache
in proportion to its share of the user's rate) and ordered (fill layers
first to last until the cache runs out).  The per-layer delivery is not
approximated: each layer's restricted program is solved to optimality,
so the loads reported here lower-bound anything a real separation-based
scheme could do, and the measured gap to the joint optimum is therefore
conservative.
"""

from __future__ import annotations

from .lp_core import SolverError, solve_lp
from .model import (
    InstanceError,
    MemoryAllocation,
    ProblemInstance,
    RateProfile,
    check_memories,
)
from .scheme_lp import build_intra_layer


def pca_split(m, rates: RateProfile) -> MemoryAllocation:
    """Proportional split: layer l of user k gets f_l * m_k / r_k.

    A user with zero rate gets zeros; such a user cannot hold cache in
    the first place (m_k ≤ r_k = 0), which the range check enforces.
    """
    m = check_memories(m, rates)
    rows = []
    for k in range(1, rates.K + 1):
        mk = m[k - 1]
        rk = rates.r[k - 1]
        if rk <= 0.0:
            rows.append([0.0] * rates.K)
            continue
        row = [0.0] * rates.K
        for l in range(1, k + 1):
            row[l - 1] = rates.f[l - 1] * mk / rk
        rows.append(row)
    return MemoryAllocation.from_matrix(rows)


def oca_split(m, rates: RateProfile) -> MemoryAllocation:
    """Ordered split: fill layer 1, then 2, ... until the cache is spent."""
    m = check_memories(m, rates)
    rows = []
    for k in range(1, rates.K + 1):
        remaining = m[k - 1]
        row = [0.0] * rates.K
        for l in range(1, k + 1):
            if remaining <= 0.0:
                break
            take = min(rates.f[l - 1], remaining)
            row[l - 1] = take
            remaining -= take
        rows.append(row)
    return MemoryAllocation.from_matrix(rows)


_SPLITS = {"pca": pca_split, "oca": oca_split}


def baseline_loads(inst: ProblemInstance, memories, methods=("oca", "pca")) -> dict:
    """Load of each named split, followed by optimal per-layer delivery,
    at each cache vector of ``memories``: a list of loads per method, in
    the order of ``memories``.

    The K per-layer programs are built at each split.  From one split to
    the next only their cache-share rows move, and a start fits every
    program built over the same index and constraint type, so each
    layer's solves run as one warm chain, and the chain snakes: every
    split of the first method from the largest vector to the smallest,
    where the cold solve is cheapest at the top, then every split of the
    next method back up, and so on.  At zero memory every split is the
    same program, so the turn there costs no jump.
    """
    for method in methods:
        if method.lower() not in _SPLITS:
            raise ValueError(f"unknown baseline {method!r}; use 'pca' or 'oca'")
    order = sorted(range(len(memories)), key=lambda i: sum(memories[i]), reverse=True)
    loads = {method: [None] * len(memories) for method in methods}
    starts = [None] * inst.K
    for method in methods:
        for i in order:
            split = _SPLITS[method.lower()](memories[i], inst.rates)
            total = 0.0
            for l, (lp, _index) in enumerate(build_intra_layer(inst, split)):
                sol = solve_lp(lp, start=starts[l])
                if not sol.is_optimal:
                    raise SolverError(f"per-layer solve ended {sol.status.value}")
                starts[l] = sol.basis
                total += sol.objective
            loads[method][i] = total
        order.reverse()
    return loads


def baseline_load(method: str, inst: ProblemInstance, m=None) -> float:
    """Load of the named split followed by optimal per-layer delivery."""
    if m is None:
        if inst.is_budget:
            raise InstanceError(["baselines need per-user cache sizes"])
        m = inst.constraint.m
    (load,) = baseline_loads(inst, [m], (method,))[method]
    return load
