import numpy as np
import pytest

from hetcache import lp_core
from hetcache.lp_core import (
    Basis,
    LinearProgram,
    LpStatus,
    SolverError,
    format_lp,
    solve_lp,
)
from hetcache.model import Budget, FixedMemories, ProblemInstance, make_rate_profile
from hetcache.scheme_lp import build_o1, build_o2, with_memory
from oracles import brute_force_lp, random_box_lp


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


def random_pivots(t, rng, count):
    """``count`` pivots, none refactorizing, each in a random row on its
    largest entry of B^-1 A among the nonbasic columns, so the basis stays
    well conditioned; a row with no such entry is drawn again."""
    done = 0
    for _ in range(20 * count):
        r = int(rng.integers(t.m))
        alpha = np.where(t.in_basis, 0.0, np.abs(t.row(t.binv[r])))
        j = int(np.argmax(alpha))
        if alpha[j] > 1e-3:
            t.pivot(r, j, t.column(j))
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
            assert np.allclose(t.row(t.binv[r]), t.binv[r] @ A, rtol=0, atol=1e-12)
        for j in range(t.ncols):
            assert np.allclose(t.column(j), t.binv @ A[:, j], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lp", kernel_programs())
    def test_weights_follow_the_inverse(self, lp):
        # after 50 updates with no refactorization the steepest-edge
        # weights must still be the squared row norms of B^-1
        rng = np.random.default_rng(lp.n_rows + 1)
        t = lp_core._Tableau(lp)
        t.start_from(None)
        random_pivots(t, rng, 50)
        exact = np.einsum("ij,ij->i", t.binv, t.binv)
        assert np.allclose(t.weights, exact, rtol=1e-8, atol=0)
        # and the updated inverse is still the inverse of the basis
        assert np.allclose(t.binv @ dense_columns(lp)[:, t.basis], np.eye(t.m), atol=1e-9)

    def test_cold_start_does_not_invert_the_identity(self, monkeypatch):
        # the all-logical basis is its own inverse, so a cold start calls no
        # LAPACK and installs exactly what inverting it would give
        for lp in kernel_programs():
            t = lp_core._Tableau(lp)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "inv", None)
                t.start_from(None)
            cold = (t.binv.copy(), t.weights.copy(), t.xb.copy(), t.sign.copy())
            t.refactor()
            for got, want in zip(cold, (t.binv, t.weights, t.xb, t.sign)):
                assert np.array_equal(got, want)


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


def test_format_lp_lists_every_row():
    lp = lp_from_parts(
        [1.0, -1.0], [({0: 1.0, 1: 1.0}, 1.0)], [({0: 2.0}, 0.5)], [0, 0], [1, 1]
    )
    lp.names = ("alpha", "beta")
    text = format_lp(lp)
    lines = text.splitlines()
    assert lines[0].startswith("min")
    assert any("== 1" in ln for ln in lines)
    assert any("<= 0.5" in ln for ln in lines)
    assert sum("alpha" in ln for ln in lines) >= 3


def test_too_large_program_refused_before_allocating(monkeypatch):
    # the size check reads only the row count, so a 200-row program stands
    # in for a huge one under a lowered limit
    monkeypatch.setattr(lp_core, "MAX_BASIS_MIB", 0.5)
    monkeypatch.setattr(lp_core, "_Tableau", None)  # any allocation would fail
    rows = [({0: 1.0}, 0.5)] * 200
    with pytest.raises(SolverError, match="200 rows: its basis arrays need 1 MiB"):
        solve_lp(lp_from_parts([1.0], [], rows, [0], [1]))


def test_iteration_limit_raises():
    rng = np.random.default_rng(3)
    c, eq, ub, lo, hi = random_box_lp(rng)
    with pytest.raises(SolverError, match="iteration limit"):
        solve_lp(lp_from_parts([-1.0, -1.0], [({0: 1.0, 1: 1.0}, 1.0)], [], [0, 0], [1, 1]),
                 max_iterations=0)


def random_rates(rng, K):
    return make_rate_profile(sorted(rng.uniform(0.05, 1.0, K)))


def chain_against_cold(programs):
    """Warm-start each program from the previous optimum; compare with cold."""
    start = None
    warm_iterations = cold_iterations = 0
    for program in programs:
        warm = solve_lp(program, start=start)
        cold = solve_lp(program)
        assert warm.status is cold.status
        if warm.is_optimal:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert program.check_point(warm.x) == []
        start = warm.basis if warm.is_optimal else start
        warm_iterations += warm.iterations
        cold_iterations += cold.iterations
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
        inst = ProblemInstance(K=K, N=K, rates=rates, constraint=Budget(0.0))
        lp, _ = build_o1(inst)
        # random order, so the chain moves the budget both ways
        budgets = list(rng.uniform(0.0, rates.sum_rates, 5)) + [rates.sum_rates, 0.0]
        programs = [with_memory(lp, ProblemInstance(K, K, rates, Budget(m))) for m in budgets]
        warm, cold = chain_against_cold(programs)
        assert warm < cold

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
        lp, _ = build_o2(insts[0])
        warm, cold = chain_against_cold([with_memory(lp, i) for i in insts])
        assert warm < cold

    def test_random_rhs_moves_match_cold(self):
        # Small random programs, right-hand sides shifted after each solve:
        # statuses must agree, infeasible ones included.
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(40):
            c, eq, ub, lo, hi = random_box_lp(rng)
            programs = []
            for _ in range(4):
                programs.append(lp_from_parts(c, eq, ub, lo, hi))
                eq = [(row, b + float(rng.normal(0.0, 1.0))) for row, b in eq]
                ub = [(row, b + float(rng.normal(0.0, 1.0))) for row, b in ub]
            chain_against_cold(programs)
            seen.update(solve_lp(p).status for p in programs)
        assert seen == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}

    def test_foreign_start_falls_back_to_cold(self):
        rng = np.random.default_rng(4)
        small, _ = build_o1(ProblemInstance(3, 3, random_rates(rng, 3), Budget(0.5)))
        big, _ = build_o1(ProblemInstance(4, 4, random_rates(rng, 4), Budget(0.5)))
        foreign = solve_lp(small).basis
        warm = solve_lp(big, start=foreign)
        cold = solve_lp(big)
        assert np.array_equal(warm.x, cold.x)
        assert warm.objective == cold.objective
        assert warm.iterations == cold.iterations

    def test_unusable_starts_fall_back_to_cold(self):
        # a repeated column and a singular basis must give exactly the
        # all-logical solve; a basis that is optimal for other costs is a
        # usable start, priced into dual feasibility by its bounds
        rows = [({0: 1.0, 1: 1.0}, 1.0), ({0: 1.0, 1: 1.0, 2: 1.0}, 1.5)]
        lp = lp_from_parts([1.0, 2.0, 3.0], rows, [], [0, 0, 0], [1, 1, 1])
        cold = solve_lp(lp)
        layout = cold.basis.layout
        for start in (
            Basis(np.array([0, 0]), np.zeros(5, dtype=bool), layout),
            Basis(np.array([0, 1]), np.zeros(5, dtype=bool), layout),
        ):
            warm = solve_lp(lp, start=start)
            assert np.array_equal(warm.x, cold.x)
            assert warm.iterations == cold.iterations
        other_costs = lp_from_parts([3.0, 2.0, -1.0], rows, [], [0, 0, 0], [1, 1, 1])
        warm = solve_lp(lp, start=solve_lp(other_costs).basis)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert lp.check_point(warm.x) == []
        # with x0 basic, the slack of x0 <= 0.5 prices below zero and
        # cannot move to its infinite upper bound
        lp = lp_from_parts([1.0], [], [({0: 1.0}, 0.5)], [0], [1])
        cold = solve_lp(lp)
        warm = solve_lp(lp, start=Basis(np.array([0]), np.zeros(2, dtype=bool), (1, 0, 1)))
        assert np.array_equal(warm.basis.cols, cold.basis.cols)
        assert np.array_equal(warm.x, cold.x)

    def test_infeasible_rhs_reported(self):
        # a budget above the summed rates cannot be placed
        rates = make_rate_profile([0.3, 0.5, 0.9])
        lp, _ = build_o1(ProblemInstance(3, 3, rates, Budget(1.0)))
        start = solve_lp(lp).basis
        *rows, (budget_row, _) = lp.eq_rows
        lp.eq_rows = rows + [(budget_row, rates.sum_rates + 0.5)]
        assert solve_lp(lp, start=start).status is LpStatus.INFEASIBLE
        assert solve_lp(lp).status is LpStatus.INFEASIBLE


def counting_inverse(monkeypatch):
    """Count the calls of np.linalg.inv, the one inversion of a solve."""
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
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
        assert start.factor is not None and start.factor.binv.shape == (lp.n_rows,) * 2
        calls = counting_inverse(monkeypatch)
        warm = solve_lp(lp, start=start)
        assert warm.iterations == 0 and calls == []

    def test_changed_coefficient_inverts_afresh(self, monkeypatch):
        # the same layout and basis, but one coefficient of A differs: the
        # carried inverse belongs to another matrix and must not be used
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
        assert calls  # inverted, not copied
        cold = solve_lp(changed)
        assert warm.is_optimal and cold.is_optimal
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert changed.check_point(warm.x) == []

    def test_a_start_is_never_written(self):
        lp, rates = self.budget_program(5, 3)
        start = solve_lp(lp).basis
        saved = [np.copy(a) for a in start.factor[:2]]
        moved = with_memory(lp, ProblemInstance(5, 5, rates, Budget(0.7 * rates.sum_rates)))
        first = solve_lp(moved, start=start)
        second = solve_lp(moved, start=start)
        assert first.iterations == second.iterations > 0
        assert first.x.tobytes() == second.x.tobytes()
        for before, after in zip(saved, start.factor[:2]):
            assert before.tobytes() == after.tobytes()

    def test_random_walk_audits_clean_and_refactors_on_schedule(self, monkeypatch):
        # 60 budgets in a random walk: each warm solve must pass the audit
        # and match the cold one, and the pivots the carried inverse has
        # seen since its last inversion stay below REFACTOR_EVERY
        lp, rates = self.budget_program(4, 4)
        rng = np.random.default_rng(60)
        calls = counting_inverse(monkeypatch)
        budget = 0.5 * rates.sum_rates
        start = solve_lp(lp).basis
        pivots = inversions = 0
        for _ in range(60):
            budget = float(np.clip(budget + rng.normal(0.0, 0.6), 0.0, rates.sum_rates))
            program = with_memory(lp, ProblemInstance(4, 4, rates, Budget(budget)))
            before = len(calls)
            warm = solve_lp(program, start=start)
            inversions += len(calls) - before
            pivots += warm.iterations
            cold = solve_lp(program)
            assert warm.is_optimal
            assert program.check_point(warm.x) == []
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert 0 <= warm.basis.factor.age < lp_core.REFACTOR_EVERY
            start = warm.basis
        # the schedule counts along the chain: it crosses REFACTOR_EVERY
        # several times, though no single re-solve comes near it
        assert pivots > 3 * lp_core.REFACTOR_EVERY
        assert inversions >= pivots // lp_core.REFACTOR_EVERY

    def test_cold_solve_is_unchanged_by_earlier_chains(self):
        # nothing of a warm chain is kept between solves: a cold solve after
        # one pivots exactly as a cold solve before it
        lp, rates = self.budget_program(5, 5)
        before = solve_lp(lp)
        start = before.basis
        for share in (0.2, 0.9, 0.5):
            start = solve_lp(
                with_memory(lp, ProblemInstance(5, 5, rates, Budget(share * rates.sum_rates))),
                start=start,
            ).basis
        after = solve_lp(lp)
        assert after.iterations == before.iterations
        assert after.x.tobytes() == before.x.tobytes()
