"""Separation-based reference schemes: split caches first, then code.

The prior approaches fix each user's cache split across layers with a
rule of thumb, then run an independent caching scheme inside every
layer.  Two splits are implemented: proportional (each layer gets cache
in proportion to its share of the user's rate) and ordered (fill layers
first to last until the cache runs out).  The per-layer delivery is not
approximated: each layer's restricted program is solved to optimality,
so the loads reported here lower-bound anything a real separation-based
scheme could do, and the measured gap to the joint optimum is therefore
conservative.  A split is a tuple with one entry per layer: entry l - 1
holds the shares of layer l of users l..K, in user order, which is all
that layer's program reads.

One exact rule keeps those programs small.  A user whose share of layer l
is empty can be served only by signals that carry nothing for any other
addressee: a partner's piece would have to sit in a class that this user
caches, and the structure rows give every addressee of a signal the same
number of bits.  So that user costs exactly f_l, by unicast.  A user whose
share is the whole layer demands nothing of it.  Both leave the layer's
program, and the layer's load is f_l per empty user plus the optimum over
the users that remain; a layer where no share lies strictly between empty
and full needs no program at all.
"""

from __future__ import annotations

from .lp_core import SolverError, solve_lp
from .model import InstanceError, ProblemInstance, RateProfile, check_memories
from .scheme_lp import build_layer_program


def pca_split(m, rates: RateProfile) -> tuple[tuple[float, ...], ...]:
    """Proportional split: layer l of user k gets f_l * m_k / r_k.

    A user with zero rate gets zeros; such a user cannot hold cache in
    the first place (m_k ≤ r_k = 0), which the range check enforces.
    """
    m = check_memories(m, rates)
    r, f = rates.r, rates.f
    return tuple(
        tuple(f[l - 1] * m[k - 1] / r[k - 1] if r[k - 1] > 0.0 else 0.0
              for k in range(l, rates.K + 1))
        for l in range(1, rates.K + 1)
    )


def oca_split(m, rates: RateProfile) -> tuple[tuple[float, ...], ...]:
    """Ordered split: fill layer 1, then 2, ... until the cache is spent."""
    m = check_memories(m, rates)
    rows = []  # user k's shares of layers 1..k
    for k, remaining in enumerate(m, 1):
        row = []
        for fl in rates.f[:k]:
            take = min(fl, remaining) if remaining > 0.0 else 0.0
            row.append(take)
            remaining -= take
        rows.append(row)
    return tuple(tuple(row[l - 1] for row in rows[l - 1:]) for l in range(1, rates.K + 1))


# the split rules, in the order baseline_loads runs them
_SPLITS = {"oca": oca_split, "pca": pca_split}


def build_intra_layer(inst: ProblemInstance, split):
    """One single-layer program per layer that some user caches in part.

    Layer l's program holds only the users whose share of it lies strictly
    between 0 and f_l, in user order, on the index of that user count
    (:func:`scheme_lp.build_layer_program`), so layers with as many such
    users share one index.  Users with an empty or a full share are out
    of it by the module's reduction rule; :func:`baseline_loads` adds
    f_l for each empty one.
    """
    programs = []
    for fl, shares in zip(inst.rates.f, split):
        partial = [share for share in shares if 0.0 < share < fl]
        if partial:
            programs.append(build_layer_program(fl, partial))
    return programs


def baseline_loads(instances) -> dict:
    """Load of each split, "oca" and "pca", followed by optimal per-layer
    delivery, at the cache sizes of each of ``instances``: a list of loads
    per split, in the order of ``instances``.

    At each split the load is f_l for every user with an empty share of
    layer l, plus the optimum of each program of :func:`build_intra_layer`
    (the module's reduction rule).  From one split to the next only the
    cache-share rows of a program move, and a start is taken on every
    program built over the same index, so the programs of each user count run as
    one warm chain, whatever their layer, and the chains snake: every
    "oca" split from the most memory to the least, where the cold solve is
    cheapest at the top, then every "pca" split back up.
    """
    if any(inst.is_budget for inst in instances):
        raise InstanceError(["baselines need per-user cache sizes"])
    order = sorted(range(len(instances)), key=lambda i: sum(instances[i].constraint.m),
                   reverse=True)
    loads = {method: [None] * len(instances) for method in _SPLITS}
    starts = {}  # the last optimal basis of each user count
    for method, split_rule in _SPLITS.items():
        for i in order:
            inst = instances[i]
            split = split_rule(inst.constraint.m, inst.rates)
            total = sum((fl for fl, shares in zip(inst.rates.f, split)
                         for share in shares if share <= 0.0), 0.0)
            for lp, index in build_intra_layer(inst, split):
                sol = solve_lp(lp, start=starts.get(index.K))
                if not sol.is_optimal:
                    raise SolverError(f"per-layer solve ended {sol.status.value}")
                starts[index.K] = sol.basis
                total += sol.objective
            loads[method][i] = total
        order.reverse()
    return loads


def baseline_load(method: str, inst: ProblemInstance) -> float:
    """Load of the named split, "pca" or "oca", at the cache sizes of
    ``inst``, followed by optimal per-layer delivery: one entry of
    :func:`baseline_loads`, which solves both splits."""
    if method.lower() not in _SPLITS:
        raise ValueError(f"unknown baseline {method!r}; use 'pca' or 'oca'")
    (load,) = baseline_loads([inst])[method.lower()]
    return load
