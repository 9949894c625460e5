"""Cache-splitting heuristics and the loads they achieve."""

from dataclasses import replace

import numpy as np
import pytest

from hetcache.baselines import (
    baseline_load,
    baseline_loads,
    build_intra_layer,
    oca_split,
    pca_split,
)
from hetcache.model import FixedMemories, InstanceError, make_rate_profile
from hetcache.lp_core import solve_lp
from hetcache.scheme_lp import build_o2, extract_scheme

from conftest import split_rows
from oracles import intra_layer_load
from test_scheme_lp import fixed_instance


FIG = [0.5, 0.7, 1.0]


def random_split_inputs(rng, K):
    r = np.sort(rng.uniform(0.05, 1.5, size=K))
    rates = make_rate_profile(r)
    m = tuple(float(rng.uniform(0.0, rk)) for rk in r)
    return m, rates


class TestProportionalSplit:
    def test_worked_example(self):
        split = pca_split([0.25, 0.35, 0.5], make_rate_profile(FIG))
        # layer l holds the shares of users l..K
        assert [len(shares) for shares in split] == [3, 2, 1]
        assert sum(split, ()) == pytest.approx((0.25, 0.25, 0.25, 0.1, 0.1, 0.15), abs=1e-12)
        expect = [
            [0.25, 0.0, 0.0],
            [0.25, 0.1, 0.0],
            [0.25, 0.1, 0.15],
        ]
        for k in range(3):
            assert split_rows(split)[k] == pytest.approx(expect[k], abs=1e-12)

    def test_zero_memory(self):
        split = pca_split([0.0, 0.0, 0.0], make_rate_profile(FIG))
        assert all(v == 0.0 for row in split_rows(split) for v in row)

    def test_single_layer_profile_puts_all_mass_first(self):
        rates = make_rate_profile([0.6, 0.6, 0.6])
        split = pca_split([0.2, 0.3, 0.6], rates)
        assert [row[0] for row in split_rows(split)] == pytest.approx([0.2, 0.3, 0.6])
        assert all(row[1] == row[2] == 0.0 for row in split_rows(split))

    def test_zero_rate_user_gets_zero_row(self):
        rates = make_rate_profile([0.0, 0.5, 1.0])
        split = pca_split([0.0, 0.25, 0.5], rates)
        assert split_rows(split)[0] == (0.0, 0.0, 0.0)
        # remaining users split over the two real layers
        assert sum(split_rows(split)[1]) == pytest.approx(0.25)

    def test_zero_rate_user_with_cache_rejected(self):
        # no rate means no room for cache, so no proportion to take
        rates = make_rate_profile([0.0, 0.5, 1.0])
        with pytest.raises(InstanceError, match="outside"):
            pca_split([0.1, 0.25, 0.5], rates)

    def test_memory_above_rate_rejected(self):
        with pytest.raises(InstanceError, match="outside"):
            pca_split([0.6, 0.0, 0.0], make_rate_profile(FIG))

    def test_wrong_length_rejected(self):
        with pytest.raises(InstanceError, match="entries"):
            pca_split([0.1, 0.2], make_rate_profile(FIG))


class TestOrderedSplit:
    def test_worked_example(self):
        split = oca_split([0.5, 0.6, 0.6], make_rate_profile(FIG))
        assert sum(split, ()) == pytest.approx((0.5, 0.5, 0.5, 0.1, 0.1, 0.0), abs=1e-12)
        assert split_rows(split)[1] == pytest.approx([0.5, 0.1, 0.0], abs=1e-12)
        assert split_rows(split)[2] == pytest.approx([0.5, 0.1, 0.0], abs=1e-12)

    def test_full_memory_fills_every_layer(self):
        rates = make_rate_profile(FIG)
        split = oca_split(list(rates.r), rates)
        assert split_rows(split)[2] == pytest.approx(list(rates.f), abs=1e-12)

    def test_zero_memory(self):
        split = oca_split([0.0, 0.0, 0.0], make_rate_profile(FIG))
        assert all(v == 0.0 for row in split_rows(split) for v in row)

    def test_boundary_budget_fills_layer_exactly(self):
        # budget equal to a prefix of layer widths stops cleanly
        split = oca_split([0.5, 0.7, 0.7], make_rate_profile(FIG))
        assert split_rows(split)[2] == pytest.approx([0.5, 0.2, 0.0], abs=1e-12)

    def test_earlier_layers_full_before_later_nonzero(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            K = int(rng.integers(1, 6))
            m, rates = random_split_inputs(rng, K)
            split = oca_split(m, rates)
            for k in range(1, K + 1):
                row = split_rows(split)[k - 1]
                for l in range(1, k):
                    if row[l] > 0.0:
                        # mass in layer l+1 forces layer l to be full
                        assert row[l - 1] == pytest.approx(rates.f[l - 1], abs=1e-12)


class TestConservation:
    @pytest.mark.parametrize("split_fn", [pca_split, oca_split])
    def test_row_sums_match_input(self, split_fn):
        rng = np.random.default_rng(11)
        for _ in range(200):
            K = int(rng.integers(1, 7))
            m, rates = random_split_inputs(rng, K)
            split = split_fn(m, rates)
            assert [len(shares) for shares in split] == list(range(K, 0, -1))
            for k in range(K):
                assert abs(sum(split_rows(split)[k]) - m[k]) <= 1e-12


class TestBaselineLoad:
    def joint_load(self, inst):
        lp, index = build_o2(inst)
        return solve_lp(lp).objective

    def test_unknown_method(self):
        inst = fixed_instance(FIG, [0.1, 0.2, 0.6])
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_load("split-brain", inst)

    def test_budget_instance_needs_vector(self):
        from conftest import budget_instance

        inst = budget_instance(FIG, 1.0)
        with pytest.raises(InstanceError, match="per-user"):
            baseline_load("pca", inst)
        # but the same instance with cache sizes works
        value = baseline_load("pca", replace(inst, constraint=FixedMemories((0.1, 0.2, 0.6))))
        assert value >= 0.0

    def test_full_memory_is_free(self):
        inst = fixed_instance(FIG, FIG)
        assert baseline_load("pca", inst) == pytest.approx(0.0, abs=1e-9)
        assert baseline_load("oca", inst) == pytest.approx(0.0, abs=1e-9)

    def test_zero_memory_costs_everything(self):
        inst = fixed_instance(FIG, [0.0, 0.0, 0.0])
        assert baseline_load("pca", inst) == pytest.approx(2.2, abs=1e-8)
        assert baseline_load("oca", inst) == pytest.approx(2.2, abs=1e-8)

    def test_dominated_by_joint_on_example(self):
        inst = fixed_instance(FIG, [0.1, 0.2, 0.6])
        joint = self.joint_load(inst)
        assert baseline_load("pca", inst) >= joint - 1e-8
        assert baseline_load("oca", inst) >= joint - 1e-8

    def test_dominated_by_joint_random(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            K = int(rng.integers(2, 5))
            r = np.sort(rng.uniform(0.05, 1.5, size=K))
            m = [float(rng.uniform(0.0, rk)) for rk in r]
            inst = fixed_instance(list(r), m, q=8)
            joint = self.joint_load(inst)
            assert baseline_load("pca", inst) >= joint - 1e-8
            assert baseline_load("oca", inst) >= joint - 1e-8

    def test_geometric_sweep_dominance(self):
        # three users, sizes in fixed ratio, swept from empty to full
        r = [0.5, 0.8, 1.0]
        g = 0.8
        shape = [g ** (3 - k) for k in (1, 2, 3)]
        s_max = min(rk / sk for rk, sk in zip(r, shape))
        for s in np.linspace(0.0, s_max, 8):
            m = [float(s * sk) for sk in shape]
            inst = fixed_instance(r, m)
            joint = self.joint_load(inst)
            pca = baseline_load("pca", inst)
            oca = baseline_load("oca", inst)
            assert joint <= pca + 1e-8
            assert joint <= oca + 1e-8

    def test_single_layer_profile_restriction_vacuous(self):
        # equal rates leave one real layer, so splitting cannot hurt
        inst = fixed_instance([0.7, 0.7, 0.7], [0.2, 0.4, 0.6])
        joint = self.joint_load(inst)
        assert baseline_load("pca", inst) == pytest.approx(joint, abs=1e-8)
        assert baseline_load("oca", inst) == pytest.approx(joint, abs=1e-8)


def reduction_cases():
    """(instance, two cache vectors) per draw: K = 2..6, most draws at small
    K, N from K to 2K.  The first vector has exact empty and exact full
    caches among random ones, the second is it scaled by a half; one draw
    in three repeats a rate, so its layer has zero width."""
    rng = np.random.default_rng(2024)
    for K, draws in ((2, 20), (3, 15), (4, 10), (5, 4), (6, 2)):
        for _ in range(draws):
            r = sorted(float(x) for x in rng.uniform(0.05, 1.0, K))
            if rng.random() < 1 / 3:
                j = int(rng.integers(1, K))
                r[j] = r[j - 1]
            m = [(0.0, rk, float(rng.uniform(0.0, rk)))[int(rng.integers(3))] for rk in r]
            inst = fixed_instance(r, m, N=int(rng.integers(K, 2 * K + 1)))
            yield inst, [tuple(m), tuple(0.5 * mk for mk in m)]


class TestReductionRule:
    """Users with an empty or a full share leave the per-layer programs."""

    def test_loads_equal_the_unreduced_programs(self):
        splits = 0
        for inst, memories in reduction_cases():
            loads = baseline_loads([replace(inst, constraint=FixedMemories(m))
                                    for m in memories])
            for method, split_fn in (("pca", pca_split), ("oca", oca_split)):
                for m, load in zip(memories, loads[method]):
                    expected = intra_layer_load(inst, split_fn(m, inst.rates))
                    assert abs(load - expected) <= 1e-12, (inst, m, method)
                    splits += 1
        assert splits >= 200

    def test_empty_and_full_caches_need_no_program(self):
        inst = fixed_instance(FIG, [0.0, 0.7, 0.0])
        for split_fn in (pca_split, oca_split):
            assert build_intra_layer(inst, split_fn(inst.constraint.m, inst.rates)) == []
        assert baseline_load("pca", inst) == baseline_load("oca", inst) == 0.5 + 1.0
