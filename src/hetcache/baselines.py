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
from .model import InstanceError, MemoryAllocation, ProblemInstance, RateProfile
from .scheme_lp import build_intra_layer, with_split


def pca_split(m, rates: RateProfile) -> MemoryAllocation:
    """Proportional split: layer l of user k gets f_l * m_k / r_k.

    A user with zero rate gets zeros; such a user cannot hold cache in
    the first place (m_k ≤ r_k = 0), which the range check enforces.
    """
    m = tuple(float(v) for v in m)
    _check_vector(m, rates)
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
    m = tuple(float(v) for v in m)
    _check_vector(m, rates)
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


def _check_vector(m, rates: RateProfile) -> None:
    problems = []
    if len(m) != rates.K:
        problems.append(f"memory vector has {len(m)} entries for {rates.K} users")
    else:
        for k, (mk, rk) in enumerate(zip(m, rates.r), start=1):
            if not 0.0 <= mk <= rk + 1e-9:  # NaN fails this test
                problems.append(f"memory m[{k}]={mk} outside [0, {rk}]")
    if problems:
        raise InstanceError(problems)


_SPLITS = {"pca": pca_split, "oca": oca_split}


def baseline_loads(inst: ProblemInstance, memories, methods=("pca", "oca")) -> dict:
    """Load of each named split, followed by optimal per-layer delivery,
    at each cache vector of ``memories``: a list of loads per method.

    The K per-layer programs are built once.  From one split to the next
    only their cache-share rows move, so each layer's solves, the splits of
    every method at every vector in turn, run as one warm chain.
    """
    for method in methods:
        if method.lower() not in _SPLITS:
            raise ValueError(f"unknown baseline {method!r}; use 'pca' or 'oca'")
    loads = {method: [] for method in methods}
    programs = None
    starts = [None] * inst.K
    for method in methods:
        for m in memories:
            split = _SPLITS[method.lower()](m, inst.rates)
            if programs is None:
                programs = build_intra_layer(inst, split)
            total = 0.0
            for l, (lp, index) in enumerate(programs):
                sol = solve_lp(with_split(lp, index, split), start=starts[l])
                if not sol.is_optimal:
                    raise SolverError(f"per-layer solve ended {sol.status.value}")
                starts[l] = sol.basis
                total += sol.objective
            loads[method].append(total)
    return loads


def baseline_load(method: str, inst: ProblemInstance, m=None) -> float:
    """Load of the named split followed by optimal per-layer delivery."""
    if m is None:
        if inst.is_budget:
            raise InstanceError(["baselines need per-user cache sizes"])
        m = inst.constraint.m
    (load,) = baseline_loads(inst, [m], (method,))[method]
    return load
