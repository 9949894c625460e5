"""Release checks for the whole library, run as ordinary pytest tests.

Each test covers one end-to-end claim (exact corner points, LP against
closed form, bit-exact delivery, and so on) and prints a single summary
line so a full run reads as a checklist.  Tolerances and time limits are
asserted, not just reported; a slow or drifting build fails loudly.
"""

import time
from dataclasses import replace

import numpy as np

from hetcache.baselines import baseline_load
from hetcache.bounds import cutset_budget, cutset_k3
from hetcache.closed_form import corner_points, theorem1_load, threshold_allocation
from hetcache.lp_core import solve_lp
from hetcache.model import Budget, make_rate_profile
from hetcache.scheme_lp import (
    build_intra_restricted,
    build_o1,
    build_o2,
    extract_scheme,
)
from hetcache.simulator import verify

from conftest import budget_instance
from oracles import brute_force_lp, random_box_lp, simplified_budget_solve
from test_lp_core import lp_from_parts
from test_scheme_lp import fixed_instance

FIG_RATES = [0.5, 0.7, 1.0]
EX1_RATES = [0.2, 0.3, 0.8]
EX1_MEMORY = [0.1, 0.2, 0.6]


def _finish(num, name, failures, detail=""):
    """Print the one-line verdict for a check, then fail if anything broke."""
    tag = "PASS" if not failures else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"acceptance {num} ({name}): {tag}{suffix}")
    assert not failures, "; ".join(failures[:8])


def _solved_objective(built):
    lp, _index = built
    sol = solve_lp(lp)
    assert sol.is_optimal, sol.status
    return sol.objective


def _random_rates(rng, K):
    return [float(v) for v in np.sort(rng.uniform(0.05, 1.5, size=K))]


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_1_corner_points_exact():
    # Closed-form corner loads for three users; the last two print as
    # 0.26667 and 0.16667 but the exact values are r2/2 - r1/6 and r1/3.
    r1, r2, r3 = FIG_RATES
    expected = [
        (0.0, r1 + r2 + r3),
        (r1, r2 + r3 - r1),
        (r2, r1 / 2 + r3 - r2 / 2),
        (r3, r1 / 2 + r2 / 2),
        (r1 + r3, r2 / 2 - r1 / 6),
        (r2 + r3, r1 / 3),
        (r1 + r2 + r3, 0.0),
    ]
    profile = make_rate_profile(FIG_RATES)
    corner_points(profile)  # warm caches before timing
    best = min(
        _timed(corner_points, profile) for _ in range(5)
    )
    points = corner_points(profile)

    failures = []
    if len(points) != len(expected):
        failures.append(f"{len(points)} corners, expected {len(expected)}")
    else:
        for (m, load), (em, eload) in zip(points, expected):
            if abs(m - em) > 1e-9 or abs(load - eload) > 1e-9:
                failures.append(f"corner at m={em}: got ({m}, {load})")
    if best >= 1e-3:
        failures.append(f"runtime {best * 1e3:.3f} ms >= 1 ms")
    _finish(1, "corner points", failures, f"{best * 1e6:.0f} us")


def test_2_lp_matches_closed_form():
    rng = np.random.default_rng(41)
    vectors = [(FIG_RATES, 2)]
    vectors += [(_random_rates(rng, 4), 16) for _ in range(5)]
    vectors += [(_random_rates(rng, 5), 16) for _ in range(2)]

    failures = []
    worst = 0.0
    start = time.perf_counter()
    for rates, q in vectors:
        profile = make_rate_profile(rates)
        for m_tot in np.linspace(0.0, profile.sum_rates, 50):
            inst = budget_instance(rates, float(m_tot), q=q)
            lp_load = _solved_objective(build_o1(inst))
            closed = theorem1_load(float(m_tot), profile)
            gap = abs(lp_load - closed)
            worst = max(worst, gap)
            if gap > 1e-6:
                failures.append(
                    f"K={len(rates)} m_tot={m_tot:.4f}: lp {lp_load} vs {closed}"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f} s >= 2 min")
    _finish(2, "budget LP vs closed form", failures,
            f"400 solves, worst gap {worst:.2e}, {elapsed:.1f} s")


def test_3_per_user_example_gap():
    start = time.perf_counter()
    inst = fixed_instance(EX1_RATES, EX1_MEMORY)
    joint = _solved_objective(build_o2(inst))
    intra = _solved_objective(build_intra_restricted(inst))
    elapsed = time.perf_counter() - start

    failures = []
    if abs(joint - 0.2) > 1e-6:
        failures.append(f"joint load {joint}, expected 0.200000")
    if abs(intra - 0.216667) > 1e-4:
        failures.append(f"intra-layer load {intra}, expected 0.216667")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    _finish(3, "worked per-user example", failures,
            f"joint {joint:.6f}, intra {intra:.6f}")


def test_4_threshold_allocation_formulas():
    # The optimal split fills in stages: each stage raises one layer's
    # replication by a unit, and within a stage the new memory goes to the
    # users still needing that layer, in equal shares.  For K=3 the six
    # stages below cover the whole budget range.
    profile = make_rate_profile(FIG_RATES)
    f1, f2, f3 = profile.f
    stages = [
        (lambda a: a * f1,
         lambda a: (a * f1 / 3, a * f1 / 3, a * f1 / 3)),
        (lambda a: f1 + a * f2,
         lambda a: (f1 / 3, f1 / 3 + a * f2 / 2, f1 / 3 + a * f2 / 2)),
        (lambda a: f1 + f2 + a * f3,
         lambda a: (f1 / 3, f1 / 3 + f2 / 2, f1 / 3 + f2 / 2 + a * f3)),
        (lambda a: (1 + a) * f1 + f2 + f3,
         lambda a: ((1 + a) * f1 / 3,
                    (1 + a) * f1 / 3 + f2 / 2,
                    (1 + a) * f1 / 3 + f2 / 2 + f3)),
        (lambda a: 2 * f1 + (1 + a) * f2 + f3,
         lambda a: (2 * f1 / 3,
                    2 * f1 / 3 + (1 + a) * f2 / 2,
                    2 * f1 / 3 + (1 + a) * f2 / 2 + f3)),
        (lambda a: (2 + a) * f1 + 2 * f2 + f3,
         lambda a: ((2 + a) * f1 / 3,
                    (2 + a) * f1 / 3 + f2,
                    (2 + a) * f1 / 3 + f2 + f3)),
    ]

    failures = []
    for stage, (budget_of, split_of) in enumerate(stages, start=1):
        for alpha in (0.0, 0.25, 0.5, 1.0):
            m_tot = budget_of(alpha)
            got = threshold_allocation(m_tot, profile)
            want = split_of(alpha)
            err = max(abs(g - w) for g, w in zip(got, want))
            if err > 1e-9:
                failures.append(
                    f"stage {stage} alpha={alpha}: {got} vs {want}"
                )
    _finish(4, "threshold allocation stages", failures, "6 stages x 4 points")


def test_5_cutset_below_achievable():
    # The three-branch closed form keeps only aggregated cuts, so it is
    # compared on profiles where those relaxations are exact (the figure
    # family and a flat profile).  A profile with one dominant rate, or one
    # whose smallest rate cannot absorb an equal memory share, leaves a
    # genuine gap to the allocation-optimizing LP at small budgets.
    failures = []
    for rates, q in ((FIG_RATES, 2), ([1.0, 1.4, 2.0], 4), ([0.3, 0.3, 0.3], 2)):
        profile = make_rate_profile(rates)
        inst = budget_instance(rates, 0.0, q=q)
        corners = [m for m, _ in corner_points(profile)]
        grid = sorted(set(np.linspace(0.0, profile.sum_rates, 41)) | set(corners))
        tight_from = profile.r[-2] + profile.r[-1]
        for m_tot in grid:
            achievable = theorem1_load(m_tot, profile)
            sub = replace(inst, constraint=Budget(m_tot))
            lower = cutset_budget(sub).value
            closed = cutset_k3(sub)
            if lower > achievable + 1e-8:
                failures.append(
                    f"r={rates} m_tot={m_tot:.4f}: bound {lower} above {achievable}"
                )
            if m_tot >= tight_from - 1e-12 and abs(lower - achievable) > 1e-6:
                failures.append(
                    f"r={rates} m_tot={m_tot:.4f}: bound not tight ({lower} vs {achievable})"
                )
            if abs(closed - lower) > 1e-7:
                failures.append(
                    f"r={rates} m_tot={m_tot:.4f}: closed-form bound {closed} vs LP {lower}"
                )
    _finish(5, "cut-set bound sandwich", failures, "3 grids x 43 points")


def test_6_bit_exact_delivery():
    rng = np.random.default_rng(2026)
    F = 10_000
    failures = []
    start = time.perf_counter()
    for trial in range(20):
        K = int(rng.integers(2, 5))
        rates = _random_rates(rng, K)
        m = [float(rng.uniform(0.0, rk)) for rk in rates]
        inst = fixed_instance(rates, m, q=8)
        lp, index = build_o2(inst)
        sol = solve_lp(lp)
        if not sol.is_optimal:
            failures.append(f"trial {trial}: solver returned {sol.status}")
            continue
        scheme = extract_scheme(sol, index)
        for seed in range(3):
            report = verify(inst, scheme, F, seed=seed)
            bad = [i + 1 for i, s in enumerate(report.user_status) if s != "ok"]
            if bad:
                failures.append(f"trial {trial} seed {seed}: users {bad} failed")
            if report.max_discrepancy > report.discrepancy_bound + 1e-12:
                failures.append(
                    f"trial {trial} seed {seed}: load off by "
                    f"{report.max_discrepancy:.2e} > {report.discrepancy_bound:.2e}"
                )
            if not report.ok:
                failures.append(f"trial {trial} seed {seed}: report not ok")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s >= 1 min")
    _finish(6, "bit-exact delivery", failures,
            f"20 instances x 3 seeds at F={F}, {elapsed:.1f} s")


def test_7_joint_dominates_split_baselines():
    rates = [0.5, 0.8, 1.0]
    # cache sizes in the fixed ratio m_k = 0.8 m_{k+1}, swept up to the
    # largest scale that keeps every m_k <= r_k
    shape = [0.8 ** (3 - k) for k in (1, 2, 3)]
    s_max = min(r / s for r, s in zip(rates, shape))

    failures = []
    for scale in np.linspace(0.0, s_max, 20):
        m = [float(scale * s) for s in shape]
        inst = fixed_instance(rates, m)
        joint = _solved_objective(build_o2(inst))
        for method in ("pca", "oca"):
            split = baseline_load(method, inst)
            if joint > split + 1e-8:
                failures.append(
                    f"scale {scale:.4f}: joint {joint} above {method} {split}"
                )
    _finish(7, "joint beats split baselines", failures, "20 points x 2 baselines")


def test_8_oracle_equivalence():
    failures = []

    rng = np.random.default_rng(4242)
    for trial in range(50):
        c, eq, ub, lo, hi = random_box_lp(rng)
        status, _, obj = brute_force_lp(c, eq, ub, lo, hi)
        sol = solve_lp(lp_from_parts(c, eq, ub, lo, hi))
        if status == "optimal":
            if not sol.is_optimal:
                failures.append(f"lp trial {trial}: solver says {sol.status}")
            elif abs(sol.objective - obj) > 1e-7:
                failures.append(
                    f"lp trial {trial}: objective {sol.objective} vs {obj}"
                )
        elif sol.is_optimal:
            failures.append(f"lp trial {trial}: oracle says infeasible")

    for trial in range(100):
        K = int(rng.integers(1, 7))
        profile = make_rate_profile(_random_rates(rng, K))
        m_tot = float(rng.uniform(0.0, profile.sum_rates))
        _, fast = simplified_budget_solve(m_tot, profile)
        slow = theorem1_load(m_tot, profile)
        if abs(fast - slow) > 1e-10:
            failures.append(
                f"budget trial {trial}: K={K} m_tot={m_tot:.4f} "
                f"{fast} vs {slow}"
            )
    _finish(8, "independent oracles agree", failures, "50 LPs + 100 budgets")
