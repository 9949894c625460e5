import dataclasses
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hetcache import lp_core
from hetcache.lp_core import (
    LinearProgram,
    LpStatus,
    SolverError,
    solve_lp,
)
from hetcache.model import Budget, FixedMemories, ProblemInstance, make_rate_profile
from hetcache.baselines import build_intra_layer, pca_split
from hetcache.scheme_lp import _build_index, build_o1, build_o2
from oracles import brute_force_lp, random_box_lp


def build(inst):
    """The joint scheme program of ``inst``, of either constraint type."""
    return (build_o1 if inst.is_budget else build_o2)(inst)[0]


def lp_from_parts(c, eq_rows, ub_rows, lo, hi):
    return LinearProgram(
        c=np.asarray(c, dtype=float),
        eq_rows=[(dict(r), float(b)) for r, b in eq_rows],
        ub_rows=[(dict(r), float(b)) for r, b in ub_rows],
        lo=np.asarray(lo, dtype=float),
        hi=np.asarray(hi, dtype=float),
    )


class TestSmallPrograms:
    def test_pure_box(self):
        # No rows at all: each variable sits at whichever bound its cost
        # prefers.
        sol = solve_lp(lp_from_parts([-1.0], [], [], [0.0], [1.0]))
        assert sol.is_optimal
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(-1.0)

    def test_single_equality(self):
        sol = solve_lp(
            lp_from_parts([1.0, 2.0], [({0: 1.0, 1: 1.0}, 1.0)], [], [0, 0], [1, 1])
        )
        assert sol.is_optimal
        assert sol.objective == pytest.approx(1.0)
        assert sol.x[0] == pytest.approx(1.0)

    def test_infeasible_sum(self):
        sol = solve_lp(
            lp_from_parts([1.0, 1.0], [({0: 1.0, 1: 1.0}, 3.0)], [], [0, 0], [1, 1])
        )
        assert sol.status is LpStatus.INFEASIBLE

    def test_inequality_binding(self):
        sol = solve_lp(
            lp_from_parts(
                [-1.0, -1.0], [], [({0: 1.0, 1: 2.0}, 2.0)], [0, 0], [5, 5]
            )
        )
        assert sol.is_optimal
        # x0 as large as possible dominates: x = (2, 0).
        assert sol.objective == pytest.approx(-2.0)

    def test_negative_lower_bounds(self):
        sol = solve_lp(
            lp_from_parts([1.0, 1.0], [({0: 1.0, 1: -1.0}, 0.0)], [], [-2, -2], [2, 2])
        )
        assert sol.is_optimal
        assert sol.objective == pytest.approx(-4.0)

    def test_redundant_equalities(self):
        rows = [({0: 1.0, 1: 1.0}, 1.0), ({0: 2.0, 1: 2.0}, 2.0)]
        sol = solve_lp(lp_from_parts([1.0, 0.0], rows, [], [0, 0], [1, 1]))
        assert sol.is_optimal
        assert sol.objective == pytest.approx(0.0)

    def test_fixed_variable(self):
        sol = solve_lp(
            lp_from_parts([-3.0, 1.0], [], [({0: 1.0, 1: 1.0}, 2.0)], [0.5, 0], [0.5, 9])
        )
        assert sol.is_optimal
        assert sol.x[0] == pytest.approx(0.5)
        assert sol.objective == pytest.approx(-1.5)

    def test_beale_degeneracy(self):
        # The classic cycling example for largest-coefficient pricing must
        # still reach the optimum -1/20.
        c = [-0.75, 150.0, -0.02, 6.0]
        ub = [
            ({0: 0.25, 1: -60.0, 2: -0.04, 3: 9.0}, 0.0),
            ({0: 0.5, 1: -90.0, 2: -0.02, 3: 3.0}, 0.0),
            ({2: 1.0}, 1.0),
        ]
        sol = solve_lp(lp_from_parts(c, [], ub, [0] * 4, [1e3] * 4))
        assert sol.is_optimal
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)

    def test_malformed_program_rejected(self):
        lp = lp_from_parts([1.0], [({2: 1.0}, 0.0)], [], [0], [1])
        with pytest.raises(ValueError, match="references column"):
            solve_lp(lp)
        lp2 = lp_from_parts([1.0], [], [], [0], [np.inf])
        with pytest.raises(ValueError, match="finite"):
            solve_lp(lp2)


class TestOracleAgreement:
    def test_random_suite(self):
        # 50 seeded random programs against the vertex-enumeration oracle:
        # statuses must match and optimal objectives agree to 1e-7.
        rng = np.random.default_rng(1234)
        n_optimal = n_infeasible = 0
        for trial in range(50):
            c, eq, ub, lo, hi = random_box_lp(rng)
            status, _, obj = brute_force_lp(c, eq, ub, lo, hi)
            sol = solve_lp(lp_from_parts(c, eq, ub, lo, hi))
            if status == "optimal":
                n_optimal += 1
                assert sol.is_optimal, f"trial {trial}: solver says {sol.status}"
                assert sol.objective == pytest.approx(obj, abs=1e-7), f"trial {trial}"
            else:
                n_infeasible += 1
                assert sol.status is LpStatus.INFEASIBLE, f"trial {trial}"
        # The generator is tuned to exercise both outcomes.
        assert n_optimal >= 20 and n_infeasible >= 5

    def test_solutions_are_feasible(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            c, eq, ub, lo, hi = random_box_lp(rng)
            lp = lp_from_parts(c, eq, ub, lo, hi)
            sol = solve_lp(lp)
            if sol.is_optimal:
                assert lp.check_point(sol.x) == []


def test_smallest_index_rule_from_the_first_pivot(monkeypatch):
    # the rule that guarantees termination must solve correctly on its own
    monkeypatch.setattr(lp_core, "SMALLEST_INDEX_AFTER", 0)
    TestOracleAgreement().test_random_suite()
    TestSmallPrograms().test_beale_degeneracy()


def dense_columns(lp):
    """The constraint matrix with the logical columns appended, dense."""
    A = np.zeros((lp.n_rows, lp.n_vars + lp.n_rows))
    for i, (coefs, _rhs) in enumerate(lp.eq_rows + lp.ub_rows):
        for j, v in coefs.items():
            A[i, j] = v
    A[:, lp.n_vars:] = np.eye(lp.n_rows)
    return A


def inverse(t):
    """The tableau's current B^-1, dense: its B0^-1 less the
    eta file."""
    return t.binv0 - t.eta_u[:t.k].T @ t.eta_v[:t.k]


def random_pivots(t, rng, count):
    """``count`` pivots, none refactorizing, each in a random row on its
    largest entry of B^-1 A among the nonbasic columns, so the basis stays
    well conditioned; a row with no such entry is drawn again."""
    done = 0
    for _ in range(20 * count):
        r = int(rng.integers(t.m))
        rho = inverse(t)[r]
        alpha = np.where(t.in_basis, 0.0, np.abs(t.row(rho)))
        j = int(np.argmax(alpha))
        if alpha[j] > 1e-3:
            t.pivot(r, j, t.column(j), rho)
            done += 1
            if done == count:
                return
    raise AssertionError(f"only {done} of {count} pivots found")


def kernel_programs():
    """Small random programs with at least as many variables as rows, and
    a three-user scheme program."""
    rng = np.random.default_rng(2024)
    programs = []
    while len(programs) < 12:
        lp = lp_from_parts(*random_box_lp(rng))
        if 2 <= lp.n_rows <= lp.n_vars:
            programs.append(lp)
    rates = make_rate_profile([0.3, 0.5, 0.9])
    programs.append(build_o1(ProblemInstance(3, 3, rates, Budget(0.8)))[0])
    return programs


class TestKernels:
    """The sparse pivot row and column, and the recurrence weights."""

    @pytest.mark.parametrize("lp", kernel_programs())
    def test_row_and_column_match_dense(self, lp):
        rng = np.random.default_rng(lp.n_rows)
        t = lp_core._Tableau(lp)
        t.start_from(None)
        random_pivots(t, rng, 10)
        A = dense_columns(lp)
        for r in range(t.m):
            assert np.allclose(t.row(inverse(t)[r]), inverse(t)[r] @ A, rtol=0, atol=1e-12)
        for j in range(t.ncols):
            assert np.allclose(t.column(j), inverse(t) @ A[:, j], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lp", kernel_programs())
    def test_weights_follow_the_inverse(self, lp):
        # after 50 updates with no refactorization the steepest-edge
        # weights must still be the squared row norms of B^-1
        rng = np.random.default_rng(lp.n_rows + 1)
        t = lp_core._Tableau(lp)
        t.start_from(None)
        random_pivots(t, rng, 50)
        exact = np.einsum("ij,ij->i", inverse(t), inverse(t))
        assert np.allclose(t.weights, exact, rtol=1e-8, atol=0)
        # and the updated inverse is still the inverse of the basis
        assert np.allclose(inverse(t) @ dense_columns(lp)[:, t.basis], np.eye(t.m), atol=1e-9)

    def test_cold_start_does_not_invert_the_identity(self, monkeypatch):
        # the all-logical basis is its own inverse, so a cold start calls no
        # LAPACK and installs exactly what inverting it would give
        for lp in kernel_programs():
            t = lp_core._Tableau(lp)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "inv", None)
                t.start_from(None)
            cold = (inverse(t).copy(), t.weights.copy(), t.xb.copy(), t.sign.copy())
            t.refactor()
            for got, want in zip(cold, (inverse(t), t.weights, t.xb, t.sign)):
                assert np.array_equal(got, want)


class TestEtaFile:
    """B^-1 is a dense B0^-1 less an outer-product eta file, one
    row pair per pivot since."""

    @pytest.mark.parametrize("lp", kernel_programs())
    def test_full_eta_file_keeps_the_kernels_exact(self, lp):
        rng = np.random.default_rng(lp.n_rows + 2)
        t = lp_core._Tableau(lp)
        t.start_from(None)
        random_pivots(t, rng, lp_core.REFACTOR_EVERY)
        assert t.k == lp_core.REFACTOR_EVERY  # full: nothing was inverted
        A = dense_columns(lp)
        binv = inverse(t)
        for r in range(t.m):
            assert np.allclose(t.row(t.inverse_row(r)), binv[r] @ A, rtol=0, atol=1e-12)
        for j in range(t.ncols):
            assert np.allclose(t.column(j), binv @ A[:, j], rtol=0, atol=1e-12)
        v = rng.normal(size=t.m)
        assert np.allclose(t.ftran(v), binv @ v, rtol=0, atol=1e-12)
        assert np.allclose(t.btran(v), v @ binv, rtol=0, atol=1e-12)
        assert np.allclose(t.weights, np.einsum("ij,ij->i", binv, binv), rtol=1e-8, atol=0)
        assert np.allclose(binv @ A[:, t.basis], np.eye(t.m), atol=1e-9)

    def test_warm_chain_carries_its_etas(self):
        # five re-solves down the budget: each factor inverts its basis,
        # the etas run on from one solve to the next while nothing is
        # inverted, and a start is left byte-identical by two solves
        rates = random_rates(np.random.default_rng(21), 4)
        lp, _ = build_o1(ProblemInstance(4, 4, rates, Budget(0.9 * rates.sum_rates)))
        A = dense_columns(lp)
        start = solve_lp(lp).basis
        carried = 0
        for share in (0.7, 0.5, 0.35, 0.2, 0.05):
            program = build(ProblemInstance(4, 4, rates, Budget(share * rates.sum_rates)))
            saved = [a.tobytes() for a in start[2:6]]
            first, second = (solve_lp(program, start=start) for _ in range(2))
            assert first.iterations == second.iterations > 0
            assert first.x.tobytes() == second.x.tobytes()
            assert [a.tobytes() for a in start[2:6]] == saved
            basis = first.basis
            assert np.allclose(carried_inverse(basis) @ A[:, basis.cols], np.eye(lp.n_rows),
                               atol=1e-9)
            if basis.binv is start.binv:
                assert len(basis.eta_u) == len(start.eta_u) + first.iterations
                carried += 1
            start = first.basis
        assert carried >= 3


def test_check_point_flags_nan():
    # the solver's feasibility audit must not wave NaN through
    lp = lp_from_parts([1.0, 1.0], [({0: 1.0, 1: 1.0}, 1.0)], [({0: 1.0}, 0.5)], [0, 0], [1, 1])
    assert lp.check_point(np.array([0.5, 0.5])) == []
    assert len(lp.check_point(np.array([np.nan, 0.5]))) == 3


class TestDeterminismAndScaling:
    def test_same_program_same_vertex(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c, eq, ub, lo, hi = random_box_lp(rng)
            a = solve_lp(lp_from_parts(c, eq, ub, lo, hi))
            b = solve_lp(lp_from_parts(c, eq, ub, lo, hi))
            assert a.status == b.status
            if a.is_optimal:
                assert np.array_equal(a.x, b.x)

    def test_objective_scaling(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 10:
            c, eq, ub, lo, hi = random_box_lp(rng)
            base = solve_lp(lp_from_parts(c, eq, ub, lo, hi))
            if not base.is_optimal:
                continue
            count += 1
            scaled = solve_lp(lp_from_parts(3.5 * np.asarray(c), eq, ub, lo, hi))
            assert scaled.is_optimal
            assert scaled.objective == pytest.approx(3.5 * base.objective, abs=1e-6)
            assert np.allclose(scaled.x, base.x, atol=1e-9)


def test_too_large_program_refused_before_allocating(monkeypatch):
    # the size check reads only the row count, so a 200-row program stands
    # in for a huge one under a lowered limit
    monkeypatch.setattr(lp_core, "MAX_BASIS_MIB", 0.5)
    monkeypatch.setattr(lp_core, "_Tableau", None)  # any allocation would fail
    rows = [({0: 1.0}, 0.5)] * 200
    with pytest.raises(SolverError, match="200 rows: its basis arrays need 2 MiB"):
        solve_lp(lp_from_parts([1.0], [], rows, [0], [1]))


def blas_pin_or_skip():
    pin = lp_core._blas_pin()
    if not isinstance(pin, lp_core._OneBlasThread):
        pytest.skip("numpy's BLAS has no known thread control: solves run unpinned")
    return pin


def recording_blas_threads(monkeypatch, pin):
    """The BLAS thread count at the start of every dual loop."""
    seen = []
    run_dual = lp_core._run_dual
    monkeypatch.setattr(lp_core, "_run_dual", lambda *args: seen.append(pin.get()) or run_dual(*args))
    return seen


def test_a_solve_runs_one_blas_thread_and_gives_the_count_back(monkeypatch):
    # the pool is at one thread while the dual loop runs, and the caller's
    # count comes back after an optimal solve and after a failed one
    pin = blas_pin_or_skip()
    seen = recording_blas_threads(monkeypatch, pin)
    rates = random_rates(np.random.default_rng(9), 4)
    lp = build(ProblemInstance(4, 4, rates, Budget(0.4 * rates.sum_rates)))
    before = pin.get()
    try:
        pin.put(2)
        assert pin.get() == 2
        assert solve_lp(lp).is_optimal
        assert pin.get() == 2
        monkeypatch.setattr(lp_core, "ITERATION_LIMIT_PER", 0)
        monkeypatch.setattr(lp_core, "ITERATION_LIMIT_BASE", 1)
        with pytest.raises(SolverError, match="iteration limit"):
            solve_lp(lp)
        assert pin.get() == 2
    finally:
        pin.put(before)
    assert seen and set(seen) == {1}


def test_concurrent_solves_keep_one_blas_thread(monkeypatch):
    # solves in four threads overlap: each runs at one BLAS thread, and
    # the count from before the first comes back after the last
    pin = blas_pin_or_skip()
    seen = recording_blas_threads(monkeypatch, pin)
    rng = np.random.default_rng(10)
    programs = [lp_from_parts(*random_box_lp(rng)) for _ in range(40)]
    before = pin.get()
    interval = sys.getswitchinterval()
    try:
        pin.put(2)
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(4) as pool:
            results = [pool.submit(lambda: [solve_lp(lp).status for lp in programs])
                       for _ in range(4)]
            statuses = [future.result(timeout=60) for future in results]
        assert pin.get() == 2
    finally:
        sys.setswitchinterval(interval)
        pin.put(before)
    assert statuses[1:] == statuses[:-1]
    assert len(seen) >= 160 and set(seen) == {1}


def test_basis_limit_admits_eight_users_and_refuses_nine(monkeypatch):
    # the check reads only the row count: the intra program has 3595 rows
    # for eight users and 6447 for nine; nothing large is allocated
    class Admitted(Exception):
        pass

    def admitted(lp):
        raise Admitted

    monkeypatch.setattr(lp_core, "_Tableau", admitted)
    for m, verdict in ((3595, Admitted), (6447, SolverError)):
        with pytest.raises(verdict):
            solve_lp(lp_from_parts([1.0], [], [({0: 1.0}, 0.5)] * m, [0], [1]))


def test_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr(lp_core, "ITERATION_LIMIT_PER", 0)
    monkeypatch.setattr(lp_core, "ITERATION_LIMIT_BASE", 0)
    with pytest.raises(SolverError, match="iteration limit"):
        solve_lp(lp_from_parts([-1.0, -1.0], [({0: 1.0, 1: 1.0}, 1.0)], [], [0, 0], [1, 1]))


def random_rates(rng, K):
    return make_rate_profile(sorted(rng.uniform(0.05, 1.0, K)))


def chain_against_cold(programs):
    """Warm-start each program from the previous optimum; compare with
    cold.  Returns the pivots, warm and cold, summed by status; an
    infeasible warm solve stands on its own dual ray, with no cold rerun."""
    start = None
    warm_iterations, cold_iterations = Counter(), Counter()
    for program in programs:
        warm = solve_lp(program, start=start)
        cold = solve_lp(program)
        assert warm.status is cold.status
        warm_iterations[warm.status] += warm.iterations
        cold_iterations[cold.status] += cold.iterations
        if warm.is_optimal:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert program.check_point(warm.x) == []
            start = warm.basis
    return warm_iterations, cold_iterations


class TestWarmStart:
    def test_no_start_is_the_cold_solve(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            lp = lp_from_parts(*random_box_lp(rng))
            a = solve_lp(lp)
            b = solve_lp(lp, start=None)
            assert a.status is b.status
            assert a.iterations == b.iterations
            assert np.array_equal(a.x, b.x, equal_nan=True)

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_budget_chain_matches_cold(self, K):
        rng = np.random.default_rng(100 + K)
        rates = random_rates(rng, K)
        # random order, so the chain moves the budget both ways
        budgets = list(rng.uniform(0.0, rates.sum_rates, 5)) + [rates.sum_rates, 0.0]
        programs = [build(ProblemInstance(K, K, rates, Budget(m))) for m in budgets]
        warm, cold = chain_against_cold(programs)
        assert warm[LpStatus.OPTIMAL] < cold[LpStatus.OPTIMAL]

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_fixed_ratio_chain_matches_cold(self, K):
        rng = np.random.default_rng(200 + K)
        rates = random_rates(rng, K)
        g = rng.uniform(0.6, 0.95)
        shape = [g ** (K - k) for k in range(1, K + 1)]
        s_max = min(r / w for r, w in zip(rates.r, shape))
        insts = [
            ProblemInstance(K, K, rates, FixedMemories(tuple(s * w for w in shape)))
            for s in np.linspace(0.0, s_max, 4)
        ]
        warm, cold = chain_against_cold([build(i) for i in insts])
        assert warm[LpStatus.OPTIMAL] < cold[LpStatus.OPTIMAL]

    def test_random_rhs_moves_match_cold(self):
        # Small random programs, right-hand sides shifted after each solve
        # and the rows kept, so every start is taken: statuses must agree,
        # infeasible ones included, and the chains pivot less than cold.
        # A warm solve that ends in a dual ray stands, with no cold rerun,
        # so the infeasible programs pivot less warm than cold too.
        rng = np.random.default_rng(31)
        seen = set()
        warm, cold = Counter(), Counter()
        for _ in range(40):
            programs = [lp_from_parts(*random_box_lp(rng))]
            for _ in range(3):
                last = programs[-1]
                programs.append(last.at(
                    [b + float(rng.normal(0.0, 1.0)) for _row, b in last.eq_rows],
                    [b + float(rng.normal(0.0, 1.0)) for _row, b in last.ub_rows],
                    last.lo, last.hi))
            chain_warm, chain_cold = chain_against_cold(programs)
            warm.update(chain_warm)
            cold.update(chain_cold)
            seen.update(solve_lp(p).status for p in programs)
        assert seen == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
        assert warm[LpStatus.OPTIMAL] < cold[LpStatus.OPTIMAL]
        assert warm[LpStatus.INFEASIBLE] < cold[LpStatus.INFEASIBLE]

    def test_foreign_start_falls_back_to_cold(self, monkeypatch):
        # a start from a separately built program is dropped, whether its A
        # has another layout or is equal: the solve is the cold one bit for
        # bit, and nothing is inverted
        rng = np.random.default_rng(4)
        small, _ = build_o1(ProblemInstance(3, 3, random_rates(rng, 3), Budget(0.5)))
        big, _ = build_o1(ProblemInstance(4, 4, random_rates(rng, 4), Budget(0.5)))
        equal = lp_from_parts(big.c, big.eq_rows, big.ub_rows, big.lo, big.hi)
        calls = counting_inverse(monkeypatch)
        for program, other in ((big, small), (big, equal)):
            warm = solve_lp(program, start=solve_lp(other).basis)
            cold = solve_lp(program)
            assert warm.x.tobytes() == cold.x.tobytes()
            assert warm.objective == cold.objective
            assert warm.iterations == cold.iterations
        assert calls == []

    def test_unusable_starts_fall_back_to_cold(self, starts):
        # a start on the same A that names a repeated column must give
        # exactly the all-logical solve.  A basis that is optimal for other
        # costs comes from a program with arrays of its own, so it is
        # handed over with this program's arrays: it is then a usable
        # start, priced into dual feasibility by its bounds
        rows = [({0: 1.0, 1: 1.0}, 1.0), ({0: 1.0, 1: 1.0, 2: 1.0}, 1.5)]
        lp = lp_from_parts([1.0, 2.0, 3.0], rows, [], [0, 0, 0], [1, 1, 1])
        cold = solve_lp(lp)
        warm = solve_lp(lp, start=cold.basis._replace(cols=np.array([0, 0])))
        assert warm.x.tobytes() == cold.x.tobytes()
        assert warm.iterations == cold.iterations
        other_costs = solve_lp(dataclasses.replace(lp, c=np.array([3.0, 2.0, -1.0]))).basis
        warm = solve_lp(lp, start=other_costs._replace(columns=lp.coefficients().columns()))
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert lp.check_point(warm.x) == []
        # with x0 basic, the slack of x0 <= 0.5 prices below zero and
        # cannot move to its infinite upper bound
        lp = lp_from_parts([1.0], [], [({0: 1.0}, 0.5)], [0], [1])
        cold = solve_lp(lp)
        start = solve_lp(dataclasses.replace(lp, c=np.array([-1.0]))).basis
        assert start.cols.tolist() == [0]
        warm = solve_lp(lp, start=start._replace(columns=lp.coefficients().columns()))
        assert np.array_equal(warm.basis.cols, cold.basis.cols)
        assert warm.x.tobytes() == cold.x.tobytes()
        assert starts == [False, True, False]

    def test_infeasible_rhs_reported(self):
        # a budget above the summed rates cannot be placed
        rates = make_rate_profile([0.3, 0.5, 0.9])
        lp, _ = build_o1(ProblemInstance(3, 3, rates, Budget(1.0)))
        start = solve_lp(lp).basis
        eq_rhs = [b for _row, b in lp.eq_rows[:-1]] + [rates.sum_rates + 0.5]
        overfull = lp.at(eq_rhs, [b for _row, b in lp.ub_rows], lp.lo, lp.hi)
        assert solve_lp(overfull, start=start).status is LpStatus.INFEASIBLE
        assert solve_lp(overfull).status is LpStatus.INFEASIBLE


def counting_inverse(monkeypatch):
    """Count the calls of np.linalg.inv, the one inversion of a solve."""
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def counting_folds(monkeypatch):
    """Count the folds of a full eta file into B0^-1."""
    calls = []
    fold = lp_core._Tableau.fold

    def counted(t):
        calls.append(t.m)
        return fold(t)

    monkeypatch.setattr(lp_core._Tableau, "fold", counted)
    return calls


class TestCarriedFactor:
    """An optimal basis carries its inverse to a start on the same A."""

    def budget_program(self, K, seed, share=0.4):
        rates = random_rates(np.random.default_rng(seed), K)
        lp, _ = build_o1(ProblemInstance(K, K, rates, Budget(share * rates.sum_rates)))
        return lp, rates

    def test_same_matrix_skips_the_inversion(self, monkeypatch):
        lp, _ = self.budget_program(4, 1)
        start = solve_lp(lp).basis
        assert start.binv.shape == (lp.n_rows,) * 2
        calls = counting_inverse(monkeypatch)
        warm = solve_lp(lp, start=start)
        assert warm.iterations == 0 and calls == []

    def test_changed_coefficient_inverts_afresh(self, monkeypatch):
        # the same layout and basis, but one coefficient of A differs: the
        # carried inverse belongs to another matrix and must not be used, so
        # the start is dropped and the factor is built afresh by the cold
        # solve, bit for bit, without a call to the inversion
        lp, _ = self.budget_program(4, 2)
        start = solve_lp(lp).basis
        rows = [dict(coefs) for coefs, _ in lp.eq_rows]
        i = next(i for i, coefs in enumerate(rows) if len(coefs) > 2)
        j = next(iter(rows[i]))
        rows[i][j] *= 1.5
        changed = lp_from_parts(lp.c, [(coefs, b) for coefs, (_, b) in zip(rows, lp.eq_rows)],
                                lp.ub_rows, lp.lo, lp.hi)
        calls = counting_inverse(monkeypatch)
        warm = solve_lp(changed, start=start)
        cold = solve_lp(changed)
        assert calls == []
        assert warm.is_optimal and cold.is_optimal
        assert warm.x.tobytes() == cold.x.tobytes()
        assert warm.objective == cold.objective
        assert warm.iterations == cold.iterations
        assert warm.basis.binv.tobytes() == cold.basis.binv.tobytes()
        assert warm.basis.binv.tobytes() != start.binv.tobytes()
        assert changed.check_point(warm.x) == []

    def test_a_start_is_never_written(self):
        lp, rates = self.budget_program(5, 3)
        start = solve_lp(lp).basis
        saved = [np.copy(a) for a in start[2:4]]
        moved = build(ProblemInstance(5, 5, rates, Budget(0.7 * rates.sum_rates)))
        first = solve_lp(moved, start=start)
        second = solve_lp(moved, start=start)
        assert first.iterations == second.iterations > 0
        assert first.x.tobytes() == second.x.tobytes()
        for before, after in zip(saved, start[2:4]):
            assert before.tobytes() == after.tobytes()

    def test_random_walk_audits_clean_and_refactors_on_schedule(self, monkeypatch):
        # 60 budgets in a random walk: each warm solve must pass the audit
        # and match the cold one, and the eta rows the carried factor holds
        # stay below REFACTOR_EVERY
        lp, rates = self.budget_program(4, 4)
        rng = np.random.default_rng(60)
        calls = counting_inverse(monkeypatch)
        folds = counting_folds(monkeypatch)
        budget = 0.5 * rates.sum_rates
        start = solve_lp(lp).basis
        pivots = inversions = folded = 0
        for _ in range(60):
            budget = float(np.clip(budget + rng.normal(0.0, 0.6), 0.0, rates.sum_rates))
            program = build(ProblemInstance(4, 4, rates, Budget(budget)))
            before = len(calls), len(folds)
            warm = solve_lp(program, start=start)
            inversions += len(calls) - before[0]
            folded += len(folds) - before[1]
            pivots += warm.iterations
            cold = solve_lp(program)
            assert warm.is_optimal
            assert program.check_point(warm.x) == []
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert 0 <= len(warm.basis.eta_u) < lp_core.REFACTOR_EVERY
            start = warm.basis
        # the schedule counts along the chain: it crosses REFACTOR_EVERY
        # several times, though no single re-solve comes near it, and each
        # time the eta file is folded, never inverted
        assert pivots > 3 * lp_core.REFACTOR_EVERY
        assert folded >= pivots // lp_core.REFACTOR_EVERY
        assert inversions == 0

    def test_cold_solve_is_unchanged_by_earlier_chains(self):
        # nothing of a warm chain is kept between solves: a cold solve after
        # one pivots exactly as a cold solve before it
        lp, rates = self.budget_program(5, 5)
        before = solve_lp(lp)
        start = before.basis
        for share in (0.2, 0.9, 0.5):
            start = solve_lp(
                build(ProblemInstance(5, 5, rates, Budget(share * rates.sum_rates))),
                start=start,
            ).basis
        after = solve_lp(lp)
        assert after.iterations == before.iterations
        assert after.x.tobytes() == before.x.tobytes()


def memory_family(K, kind, seed):
    """A K-user scheme program at full memory, and the instance at a
    share s of it: a budget s * sum(r), or caches s * r_k."""
    rates = random_rates(np.random.default_rng(seed), K)
    if kind == "budget":
        def inst(s):
            return ProblemInstance(K, K, rates, Budget(s * rates.sum_rates))
        lp, _ = build_o1(inst(1.0))
    else:
        def inst(s):
            return ProblemInstance(K, K, rates, FixedMemories(tuple(s * r for r in rates.r)))
        lp, _ = build_o2(inst(1.0))
    return lp, inst


def carried_inverse(basis):
    return basis.binv - basis.eta_u.T @ basis.eta_v


class TestFoldedFactor:
    """A full eta file is folded into B0^-1; the basis is inverted afresh
    only when the folded factor fails its probe."""

    @pytest.mark.parametrize("K, kind", [(4, "budget"), (4, "fixed"), (5, "budget"), (5, "fixed")])
    def test_long_warm_walk_folds_without_inverting(self, monkeypatch, K, kind):
        # random memories, each solved warm from the last, for 2000 pivots
        # and more: the carried factor folds twenty times and more, is
        # never inverted, and stays the inverse of its basis with exact
        # weights; every fifth point must match its cold solve
        lp, inst = memory_family(K, kind, 40 + K)
        A = dense_columns(lp)
        rng = np.random.default_rng(K)
        start = solve_lp(lp).basis
        calls = counting_inverse(monkeypatch)
        folds = counting_folds(monkeypatch)
        pivots = steps = 0
        sampled = []
        while pivots < 2000:
            program = build(inst(float(rng.uniform(0.0, 1.0))))
            warm = solve_lp(program, start=start)
            assert warm.is_optimal and program.check_point(warm.x) == []
            pivots += warm.iterations
            if steps % 5 == 0:
                binv = carried_inverse(warm.basis)
                assert np.abs(binv @ A[:, warm.basis.cols] - np.eye(lp.n_rows)).max() <= 1e-10
                exact = np.einsum("ij,ij->i", binv, binv)
                assert np.allclose(warm.basis.weights, exact, rtol=1e-8, atol=0)
                sampled.append((program, warm.objective))
            start = warm.basis
            steps += 1
        assert calls == []
        assert len(folds) >= pivots // lp_core.REFACTOR_EVERY
        for program, objective in sampled:
            assert objective == pytest.approx(solve_lp(program).objective, abs=1e-9)

    @pytest.mark.parametrize("kind", ["budget", "fixed"])
    def test_weights_are_exact_after_three_folds(self, monkeypatch, kind):
        lp, inst = memory_family(5, kind, 50)
        folds = counting_folds(monkeypatch)
        basis = solve_lp(build(inst(0.4))).basis
        assert len(folds) >= 3
        binv = carried_inverse(basis)
        assert np.allclose(basis.weights, np.einsum("ij,ij->i", binv, binv), rtol=1e-8, atol=0)

    def test_a_failed_probe_inverts_afresh(self, monkeypatch):
        # one entry of the solve's own B0^-1 moved by 1e-6 just before the
        # first fold: the probe sees it and the basis is inverted, and the
        # solve still ends at the clean solve's optimum, audited
        lp, inst = memory_family(5, "budget", 51)
        program = build(inst(0.4))
        calls = counting_inverse(monkeypatch)
        clean = solve_lp(program)
        assert calls == []
        fold = lp_core._Tableau.fold
        spoiled = []

        def spoil_first(t):
            if not spoiled:
                assert t.binv0.flags.writeable
                t.binv0[0, 0] += 1e-6
                spoiled.append(len(calls))
            fold(t)

        monkeypatch.setattr(lp_core._Tableau, "fold", spoil_first)
        solution = solve_lp(program)
        assert spoiled == [0] and calls == [(program.n_rows,) * 2]
        assert solution.is_optimal and program.check_point(solution.x) == []
        assert solution.objective == pytest.approx(clean.objective, abs=1e-9)

    def test_warm_folds_stay_within_two_arrays(self, monkeypatch):
        # a warm K=6 solve of hundreds of pivots folds its start's shared
        # B0^-1 into one fresh array, then its own in place: beyond the
        # start it allocates that array, its eta file and vectors (1.59
        # m x m arrays in all)
        lp, inst = memory_family(6, "budget", 0)
        start = solve_lp(lp).basis
        program = build(inst(0.6))
        folds = counting_folds(monkeypatch)
        tracemalloc.start()
        try:
            warm = solve_lp(program, start=start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert warm.is_optimal and len(folds) >= 2
        assert peak <= 1.74 * lp.n_rows ** 2 * 8

    @pytest.mark.parametrize("K", [5, 6])
    def test_a_basis_holds_one_square_array_and_its_eta_file(self, K):
        # the arrays behind a warm basis's fields, counted once each: B0^-1,
        # the solve's eta file and the vectors; the column arrays are the
        # program's
        lp, inst = memory_family(K, "budget", 0)
        basis = solve_lp(build(inst(0.6)), start=solve_lp(lp).basis).basis
        held = {}
        for a in basis[:-1]:
            while a.base is not None:
                a = a.base
            held[id(a)] = a.nbytes
        m = lp.n_rows
        vectors = basis.cols.nbytes + basis.at_upper.nbytes + basis.weights.nbytes
        assert sum(held.values()) == (m + 2 * lp_core.REFACTOR_EVERY) * m * 8 + vectors

    def test_size_check_counts_a_forced_inversion(self, monkeypatch):
        # a warm K=6 solve whose every fold fails its probe inverts afresh
        # while its start is held: the traced peak, start included, stays
        # within what check_basis_size counts (which also counts LAPACK's
        # work arrays, untraced)
        lp, inst = memory_family(6, "budget", 0)
        program = build(inst(0.6))
        tracemalloc.start()
        try:
            start = solve_lp(lp).basis
            monkeypatch.setattr(lp_core, "PROBE_TOL", -1.0)  # no probe passes
            calls = counting_inverse(monkeypatch)
            tracemalloc.reset_peak()
            warm = solve_lp(program, start=start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert warm.is_optimal and calls
        monkeypatch.setattr(lp_core, "MAX_BASIS_MIB", peak / 2**20)
        with pytest.raises(SolverError, match="basis arrays need"):
            lp_core.check_basis_size(lp.n_rows)


def counting_derivations(monkeypatch):
    """Count the row and column arrays derived, by the rows they cover."""
    built = {"rows": [], "columns": []}
    row_arrays, column_arrays = lp_core._row_arrays, lp_core._column_arrays

    def rows(dicts):
        built["rows"].append(len(dicts))
        return row_arrays(dicts)

    def columns(n, m, *arrays):
        built["columns"].append(m)
        return column_arrays(n, m, *arrays)

    monkeypatch.setattr(lp_core, "_row_arrays", rows)
    monkeypatch.setattr(lp_core, "_column_arrays", columns)
    return built


class TestSharedArrays:
    """Every program built over one index and constraint type shares one
    set of coefficient arrays, derived once per fresh index.  Kept programs
    outlive a test, so a test that counts derivations first clears the
    index cache."""

    def budget_program(self, K, seed):
        rates = random_rates(np.random.default_rng(seed), K)
        lp, _ = build_o1(ProblemInstance(K, K, rates, Budget(0.4 * rates.sum_rates)))
        return lp, rates

    def test_builds_share_one_set_of_arrays(self, monkeypatch):
        _build_index.cache_clear()
        rates = random_rates(np.random.default_rng(11), 4)
        built = counting_derivations(monkeypatch)
        programs = [build(ProblemInstance(4, 4, rates, Budget(s * rates.sum_rates)))
                    for s in (0.9, 0.5, 0.1)]
        start = None
        for program in programs:
            start = solve_lp(program, start=start).basis
        m = programs[0].n_rows
        assert built == {"rows": [m], "columns": [m]}
        shared = programs[0].coefficients()
        for program in programs[1:]:
            assert program.coefficients() is shared
        # the final basis carries the very arrays the builds share
        assert start.columns is shared.columns()
        # the other constraint type over the same index keeps its own
        fixed = build(ProblemInstance(4, 4, rates, FixedMemories(tuple(0.5 * r for r in rates.r))))
        assert fixed.coefficients() is not shared
        assert solve_lp(fixed).is_optimal
        assert built["rows"] == built["columns"] == [m, fixed.n_rows]

    def test_split_builds_share_one_set_of_arrays(self, monkeypatch):
        _build_index.cache_clear()
        rates = random_rates(np.random.default_rng(12), 4)
        inst = ProblemInstance(4, 4, rates, FixedMemories(tuple(0.5 * r for r in rates.r)))
        built = counting_derivations(monkeypatch)
        first, second = (build_intra_layer(inst, pca_split(tuple(s * r for r in rates.r), rates))
                         for s in (0.8, 0.3))
        for (lp, _), (other, _) in zip(first, second):
            basis = solve_lp(lp).basis
            assert other.coefficients() is lp.coefficients()
            assert solve_lp(other, start=basis).basis.columns is basis.columns
        assert sorted(built["rows"]) == sorted(lp.n_rows for lp, _ in first)
        assert built["rows"] == built["columns"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_moved_program_with_bad_rhs_is_refused(self, bad):
        lp, rates = self.budget_program(4, 14)
        start = solve_lp(lp).basis
        moved = build(ProblemInstance(4, 4, rates, Budget(0.7 * rates.sum_rates)))
        eq_rhs = [b for _row, b in moved.eq_rows]
        ub_rhs = [b for _row, b in moved.ub_rows]
        spoiled = moved.at(eq_rhs[:-1] + [bad], ub_rhs, moved.lo, moved.hi)
        assert spoiled.coefficients() is lp.coefficients()
        for begin in (None, start):
            with pytest.raises(ValueError, match="malformed program: eq row .* non-finite rhs"):
                solve_lp(spoiled, start=begin)
        ub_spoiled = moved.at(eq_rhs, [bad] + ub_rhs[1:], moved.lo, moved.hi)
        with pytest.raises(ValueError, match="malformed program: ub row 0 has non-finite rhs"):
            solve_lp(ub_spoiled, start=start)

    def test_programs_are_values_that_move_by_at(self, starts):
        lp, rates = self.budget_program(4, 17)
        with pytest.raises(dataclasses.FrozenInstanceError):
            lp.eq_rows = ()
        assert isinstance(lp.eq_rows, tuple) and isinstance(lp.ub_rows, tuple)
        for a in (lp.c, lp.lo, lp.hi):
            assert not a.flags.writeable
        # every build is an at() of the kept program: one set of arrays,
        # and each start is taken along the chain
        start = solve_lp(lp).basis
        for share in (0.8, 0.2):
            moved = build(ProblemInstance(4, 4, rates, Budget(share * rates.sum_rates)))
            assert moved.coefficients() is lp.coefficients()
            assert moved.c is lp.c and moved.names is lp.names
            start = solve_lp(moved, start=start).basis
        assert starts == [True, True]
        # a replace copy is a program of its own, with arrays of its own
        copy = dataclasses.replace(lp, hi=lp.hi * 2.0)
        assert copy.coefficients() is not lp.coefficients()
        assert solve_lp(copy, start=start).is_optimal
        assert starts == [True, True, False]

    def test_arrays_and_starts_are_read_only(self):
        lp, _ = self.budget_program(3, 15)
        basis = solve_lp(lp).basis
        for a in (*lp.coefficients().rows(), *lp.coefficients().columns(),
                  basis.binv, basis.weights):
            assert not a.flags.writeable
