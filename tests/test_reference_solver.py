"""Differential test of the in-tree simplex against HiGHS.

The scheme programs are solved by ``solve_lp`` and by scipy's HiGHS
interface on seeded random rates and memories; statuses must match and
optimal objectives agree to 1e-8.  This is the optimum oracle for the
fixed-memory and per-layer programs, which have no closed form.  scipy is
a test-only dependency, so the module is skipped without it.
"""

import dataclasses

import numpy as np
import pytest

from hetcache.baselines import baseline_loads, build_intra_layer, oca_split, pca_split
from hetcache.lp_core import LpStatus, solve_lp
from hetcache.model import Budget, FixedMemories, ProblemInstance, make_rate_profile
from hetcache.scheme_lp import (
    build_intra_restricted,
    build_o1,
    build_o2,
)

from oracles import intra_layer_programs

linprog = pytest.importorskip("scipy.optimize").linprog


def dense(rows, n):
    A = np.zeros((len(rows), n))
    for i, (coefs, _rhs) in enumerate(rows):
        for j, v in coefs.items():
            A[i, j] += v
    return A, np.array([rhs for _coefs, rhs in rows])


def highs(lp):
    """(status, objective) of ``lp`` by HiGHS: 'optimal' or 'infeasible'."""
    n = lp.n_vars
    A_eq, b_eq = dense(lp.eq_rows, n)
    A_ub, b_ub = dense(lp.ub_rows, n)
    res = linprog(
        lp.c,
        A_eq=A_eq if lp.eq_rows else None,
        b_eq=b_eq if lp.eq_rows else None,
        A_ub=A_ub if lp.ub_rows else None,
        b_ub=b_ub if lp.ub_rows else None,
        bounds=list(zip(lp.lo, lp.hi)),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return ("optimal", res.fun) if res.status == 0 else ("infeasible", None)


def programs(K, seed):
    """Every program family at one random budget and one random cache
    vector, plus a budget program pushed past the summed rates."""
    rng = np.random.default_rng(seed)
    rates = make_rate_profile(sorted(rng.uniform(0.05, 1.0, K)))
    budget = ProblemInstance(K, K, rates, Budget(float(rng.uniform(0.0, rates.sum_rates))))
    fixed = ProblemInstance(
        K, K, rates, FixedMemories(tuple(float(rng.uniform(0.0, r)) for r in rates.r))
    )
    lp, _ = build_o1(budget)
    yield "budget", lp
    *rows, (budget_row, _) = lp.eq_rows
    yield "overfull budget", dataclasses.replace(
        lp, eq_rows=rows + [(budget_row, rates.sum_rates + 0.1)]
    )
    yield "fixed", build_o2(fixed)[0]
    yield "intra budget", build_intra_restricted(budget)[0]
    yield "intra fixed", build_intra_restricted(fixed)[0]
    for name, split_fn in (("pca", pca_split), ("oca", oca_split)):
        split = split_fn(fixed.constraint.m, rates)
        for i, (layer_lp, index) in enumerate(build_intra_layer(fixed, split), 1):
            yield f"{name} program {i} of {index.K} users", layer_lp
        for l, (layer_lp, _index) in enumerate(intra_layer_programs(fixed, split), 1):
            yield f"{name} unreduced layer {l}", layer_lp


CASES = [(K, seed) for K in (2, 3, 4) for seed in range(4)] + [(5, 0), (5, 1)]


@pytest.mark.parametrize("K, seed", CASES)
def test_matches_highs(K, seed):
    for name, lp in programs(K, seed):
        status, objective = highs(lp)
        sol = solve_lp(lp)
        assert sol.status is LpStatus(status), name
        if sol.is_optimal:
            assert sol.objective == pytest.approx(objective, abs=1e-8), name


def test_six_users_match_highs():
    # the two scheme programs only; the per-layer families stay at K <= 5
    for name, lp in programs(6, 0):
        if name in ("budget", "fixed"):
            status, objective = highs(lp)
            sol = solve_lp(lp)
            assert sol.status is LpStatus(status), name
            assert sol.objective == pytest.approx(objective, abs=1e-8), name


@pytest.mark.parametrize("K, seed", [(3, 0), (4, 1), (5, 2)])
def test_warm_baseline_chains_match_highs(K, seed):
    # the programs at the PCA and then the OCA split of five cache vectors
    # in fixed ratio, every solve warm-started from the one before of its
    # user count; and each split's load from baseline_loads, which chains
    # its solves as compare-baselines does, against HiGHS on the K
    # unreduced layer programs
    rng = np.random.default_rng(seed)
    rates = make_rate_profile(sorted(rng.uniform(0.05, 1.0, K)))
    shape = [0.8 ** (K - k) for k in range(1, K + 1)]
    s_max = min(r / w for r, w in zip(rates.r, shape))
    memories = [tuple(s * w for w in shape) for s in np.linspace(0.0, s_max, 5)]
    inst = ProblemInstance(K, K, rates, FixedMemories(memories[0]))
    loads = baseline_loads([dataclasses.replace(inst, constraint=FixedMemories(m))
                            for m in memories])
    starts = {}
    for method, fn in (("pca", pca_split), ("oca", oca_split)):
        for m, load in zip(memories, loads[method]):
            split = fn(m, rates)
            for program, index in build_intra_layer(inst, split):
                sol = solve_lp(program, start=starts.get(index.K))
                status, objective = highs(program)
                assert sol.status is LpStatus(status)
                assert sol.objective == pytest.approx(objective, abs=1e-8)
                starts[index.K] = sol.basis
            unreduced = sum(highs(lp)[1] for lp, _index in intra_layer_programs(inst, split))
            assert load == pytest.approx(unreduced, abs=1e-8)
