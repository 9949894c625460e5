import math
from dataclasses import replace

import numpy as np
import pytest

from hetcache import bounds
from hetcache.baselines import oca_split, pca_split
from hetcache.bounds import BoundReport, budget_program, cutset_budget, cutset_fixed, cutset_k3
from hetcache.closed_form import t_decomposition, theorem1_load, threshold_allocation
from hetcache.lp_core import solve_lp
from hetcache.model import (
    Budget,
    FixedMemories,
    InstanceError,
    ProblemInstance,
    make_rate_profile,
)
from hetcache.scheme_lp import build_o1

from conftest import budget_instance, users_mask
from test_scheme_lp import fixed_instance

FIG = [0.5, 0.7, 1.0]


class TestFixedCutset:
    def test_zero_memory_takes_everyone(self):
        inst = fixed_instance([0.2, 0.3, 0.8], [0, 0, 0])
        rep = cutset_fixed(inst)
        assert rep.value == pytest.approx(1.3, abs=1e-12)
        assert rep.binding_set == users_mask(1, 2, 3)

    def test_full_memory_clamps(self):
        inst = fixed_instance([0.2, 0.3, 0.8], [0.2, 0.3, 0.8])
        rep = cutset_fixed(inst)
        assert rep.value == 0.0
        assert rep.raw_value <= 1e-12

    def test_explicit_vector_overrides_instance(self):
        inst = budget_instance(FIG, 1.0)
        rep = cutset_fixed(replace(inst, constraint=FixedMemories((0.1, 0.2, 0.3))))
        # every subset evaluated by hand for this instance
        best = -np.inf
        r = [0.5, 0.7, 1.0]
        m = [0.1, 0.2, 0.3]
        for mask in range(1, 8):
            users = [k for k in range(3) if mask >> k & 1]
            size = len(users)
            val = sum(r[k] for k in users) - 3 * sum(m[k] for k in users) / (3 // size)
            best = max(best, val)
        assert rep.value == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-13, 1e-300])
    def test_ties_are_relative_to_the_rates(self, s):
        # users 2 and 3 tie on their single cuts, and the pair of them ties
        # with both: at any scale the tie goes to the smallest bitmask
        inst = fixed_instance([0.1 * s, 0.2 * s, 0.3 * s], [0.1 * s, 0.0, 0.1 * s])
        rep = cutset_fixed(inst)
        assert rep.value == pytest.approx(0.2 * s, rel=1e-12)
        assert rep.binding_set == users_mask(2)

    def test_rejects_memory_above_rate(self):
        inst = budget_instance(FIG, 1.0)
        with pytest.raises(InstanceError):
            replace(inst, constraint=FixedMemories((0.6, 0.2, 0.2)))

    def test_rejects_missing_vector(self):
        inst = budget_instance(FIG, 1.0)
        with pytest.raises(InstanceError):
            cutset_fixed(inst)


class TestBudgetCutset:
    def test_zero_budget(self):
        rep = cutset_budget(budget_instance(FIG, 0.0))
        assert rep.value == pytest.approx(2.2, abs=1e-9)

    def test_full_budget(self):
        rep = cutset_budget(budget_instance(FIG, 2.2))
        assert rep.value == pytest.approx(0.0, abs=1e-9)

    def test_late_region_value(self):
        rep = cutset_budget(budget_instance(FIG, 1.9))
        assert rep.value == pytest.approx(0.1, abs=1e-9)

    def test_binding_memories_feasible(self):
        inst = budget_instance(FIG, 1.3)
        rep = cutset_budget(inst)
        m = rep.binding_set
        assert sum(m) == pytest.approx(1.3, abs=1e-8)
        for mk, rk in zip(m, FIG):
            assert -1e-9 <= mk <= rk + 1e-9

    def test_fixed_at_minimizer_reproduces_budget_value(self):
        for m_tot in (0.2, 0.8, 1.3, 1.9):
            inst = budget_instance(FIG, m_tot)
            rep = cutset_budget(inst)
            again = cutset_fixed(replace(inst, constraint=FixedMemories(rep.binding_set)))
            assert again.value == pytest.approx(rep.value, abs=1e-8)


class TestThreeUserClosedForm:
    def test_small_budget_branch(self):
        inst = budget_instance(FIG, 0.2)
        assert cutset_k3(inst) == pytest.approx(1.6, abs=1e-12)

    def test_full_budget(self):
        inst = budget_instance(FIG, 2.2)
        assert cutset_k3(inst) == pytest.approx(0.0, abs=1e-12)

    def test_matches_lp_on_grid(self):
        for m_tot in np.linspace(0.0, 2.2, 50):
            inst = budget_instance(FIG, float(m_tot))
            assert cutset_k3(inst) == pytest.approx(
                cutset_budget(inst).value, abs=1e-7
            )

    def test_valid_but_weaker_with_more_files(self):
        # with more files than users the three lines stay a valid lower
        # bound but stop matching the full subset program: at N=5 and a
        # small budget the {2,3} pair cut exceeds every line, e.g. 1.0
        # against 0.9 at m_tot=0.2 for these rates
        r = [0.4, 0.6, 0.9]
        seen_gap = False
        for m_tot in np.linspace(0.0, 1.9, 20):
            inst = budget_instance(r, float(m_tot), N=5)
            lp_value = cutset_budget(inst).value
            k3 = cutset_k3(inst)
            assert k3 <= lp_value + 1e-7
            if k3 < lp_value - 1e-6:
                seen_gap = True
        assert seen_gap

    def test_rejects_wrong_user_count(self):
        inst = budget_instance([0.5, 1.0], 0.5)
        with pytest.raises(InstanceError):
            cutset_k3(inst)

    def test_never_negative_past_the_sum_of_rates(self):
        # 1.3 + 5e-10 is inside the budget band, which reads as the sum of
        # rates, where no line of the closed form is positive
        inst = budget_instance([0.2, 0.3, 0.8], 1.3 + 5e-10)
        value = cutset_k3(inst)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert value == cutset_budget(inst).value
        assert math.copysign(1.0, cutset_k3(replace(inst, constraint=Budget(1.3)))) == 1.0


class TestAgainstAchievability:
    def test_bound_below_achievable_everywhere(self):
        prof = make_rate_profile(FIG)
        for m_tot in np.linspace(0.0, 2.2, 45):
            inst = budget_instance(FIG, float(m_tot))
            assert cutset_budget(inst).value <= theorem1_load(
                float(m_tot), prof
            ) + 1e-8

    def test_tight_for_large_budgets(self):
        # once the budget covers every layer beyond the first, singleton
        # cuts meet the achievable curve and the bound is exact
        prof = make_rate_profile(FIG)
        for m_tot in np.linspace(1.7, 2.2, 11):
            inst = budget_instance(FIG, float(m_tot))
            gap = theorem1_load(float(m_tot), prof) - cutset_budget(inst).value
            assert 0.0 <= gap + 1e-9 and gap <= 1e-6

    def test_bound_below_achievable_four_users(self):
        rng = np.random.default_rng(13)
        r = np.sort(rng.uniform(0.1, 1.4, 4))
        prof = make_rate_profile(r)
        for m_tot in np.linspace(0.0, prof.sum_rates, 15):
            inst = budget_instance(r, float(m_tot), q=8)
            assert cutset_budget(inst).value <= theorem1_load(
                float(m_tot), prof
            ) + 1e-8


class TestGuards:
    def test_enumeration_cap(self):
        r = [0.01 * k for k in range(1, 22)]
        inst = budget_instance(r, 0.5, q=4)
        with pytest.raises(InstanceError):
            cutset_budget(inst)

    def test_budget_routes_refuse_cache_sizes(self, example_one):
        for route in (cutset_budget, cutset_k3, budget_program):
            with pytest.raises(InstanceError, match="needs a budget"):
                route(example_one)

    def test_budget_range_checked(self):
        inst = budget_instance(FIG, 1.0)
        with pytest.raises(InstanceError):
            replace(inst, constraint=Budget(5.0))
        with pytest.raises(InstanceError):
            replace(inst, constraint=Budget(-0.5))

    def test_warm_chain_matches_cold(self, monkeypatch, starts):
        # the sweep chains the bound program over budgets: every start is
        # taken, and the chain pivots less than the cold solves
        pivots = {True: 0, False: 0}
        solve = bounds.solve_lp

        def counted(lp, start=None):
            sol = solve(lp, start=start)
            pivots[start is not None] += sol.iterations
            return sol

        monkeypatch.setattr(bounds, "solve_lp", counted)
        r = [0.1, 0.25, 0.4, 0.7, 0.9]
        start = None
        for m_tot in np.linspace(0.0, sum(r), 9):
            inst = budget_instance(r, float(m_tot))
            warm = cutset_budget(inst, start=start)
            cold = cutset_budget(inst)
            assert warm.value == pytest.approx(cold.value, abs=1e-9)
            assert warm.basis is not None
            start = warm.basis
        assert starts == [True] * 8
        assert pivots[True] < pivots[False]

    def test_a_start_fits_every_program_of_its_user_and_file_count(self, starts):
        # the rows hold no rate, so programs at other rates share their
        # arrays, and a start from one is a start for the other: it never
        # carries the other instance's bound
        a = budget_instance([0.1, 0.25, 0.4, 0.7, 0.9], 1.0)
        b = budget_instance([0.3, 0.35, 0.5, 0.6, 1.0], 1.0)
        assert budget_program(a).coefficients() is budget_program(b).coefficients()
        for x, y in ((a, b), (b, a)):
            warm = cutset_budget(x, start=cutset_budget(y).basis)
            assert warm.value == pytest.approx(cutset_budget(x).value, abs=1e-9)
        assert starts == [True, True]
        assert budget_program(budget_instance(FIG, 1.0, N=4)).coefficients() is not (
            budget_program(budget_instance(FIG, 1.0)).coefficients())

    def test_report_fields(self):
        rep = cutset_budget(budget_instance(FIG, 0.4))
        assert isinstance(rep, BoundReport)
        assert rep.value >= 0.0
        assert rep.value == pytest.approx(max(rep.raw_value, 0.0))


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda inst: pca_split((NAN, 0.2, 0.3), inst.rates),
        lambda inst: oca_split((0.1, NAN, 0.3), inst.rates),
        lambda inst: theorem1_load(NAN, inst.rates),
        lambda inst: threshold_allocation(NAN, inst.rates),
    ],
    ids=["pca_split", "oca_split", "theorem1_load", "threshold_allocation"],
)
def test_nan_fails_range_checks(call):
    # NaN compares false, so a range check written as "x < lo or x > hi" lets it through
    with pytest.raises(InstanceError):
        call(budget_instance(FIG, 1.0))


RATES = make_rate_profile([0.2, 0.3, 0.8])


def _accepts(call) -> bool:
    try:
        call()
    except InstanceError:
        return False
    return True


@pytest.mark.parametrize(
    "m3, ok",
    [(0.8 + 5e-10, True), (0.8 + 1e-9, True), (-1e-12, True), (0.0, True),
     (0.8 + 2e-9, False), (-2e-12, False), (NAN, False), (math.inf, False)],
)
def test_instances_take_the_memory_band_of_the_range_check(m3, ok):
    m = (0.1, 0.2, m3)
    assert _accepts(lambda: ProblemInstance(K=3, N=3, rates=RATES,
                                            constraint=FixedMemories(m))) is ok
    assert _accepts(lambda: pca_split(m, RATES)) is ok


@pytest.mark.parametrize(
    "m_tot, ok",
    [(1.3 + 5e-10, True), (-5e-10, True), (0.0, True),
     (1.3 + 2e-9, False), (-2e-9, False), (NAN, False), (-math.inf, False)],
)
def test_instances_take_the_budget_band_of_the_range_check(m_tot, ok):
    assert _accepts(lambda: ProblemInstance(K=3, N=3, rates=RATES,
                                            constraint=Budget(m_tot))) is ok
    assert _accepts(lambda: t_decomposition(m_tot, RATES)) is ok


@pytest.mark.parametrize("m_tot, end", [(-5e-10, 0.0), (1.3 + 5e-10, 1.3)])
def test_budget_band_reads_as_the_end_of_the_range(m_tot, end):
    # a budget in the rounding band is clamped once, where it is checked:
    # the LP, both cut-set routes and the closed form give their values at
    # the end of the range, and no bound exceeds the achieved load
    def routes(b):
        inst = ProblemInstance(K=3, N=3, rates=RATES, constraint=Budget(b))
        return {
            "lp": solve_lp(build_o1(inst)[0]).objective,
            "cutset_budget": cutset_budget(inst).value,
            "cutset_k3": cutset_k3(inst),
            "theorem1_load": theorem1_load(b, RATES),
        }

    band, ends = routes(m_tot), routes(end)
    for name, value in band.items():
        assert abs(value - ends[name]) <= 1e-12, name
        if name.startswith("cutset"):
            assert value <= band["lp"] + 1e-12, name
    assert ProblemInstance(K=3, N=3, rates=RATES, constraint=Budget(m_tot)).constraint.m_tot == end
