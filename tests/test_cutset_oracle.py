"""The polynomial cut-set bounds against the subset enumerators of the oracles.

``cutset_fixed`` takes the largest terms per subset size and ``cutset_budget``
solves an epigraph program with about K^2 rows; ``tests/oracles.py`` keeps
the 2^K-subset versions, which must agree on the value and, for fixed
caches, on the witness subset, ties included.
"""

from dataclasses import replace

import numpy as np
import pytest

from hetcache.bounds import cutset_budget, cutset_fixed
from hetcache.model import FixedMemories, ProblemInstance, make_rate_profile

from conftest import budget_instance, users_mask
from oracles import cutset_budget_enum, cutset_fixed_enum


def fixed(rates, memories, N):
    return ProblemInstance(
        K=len(rates), N=N, rates=make_rate_profile(rates),
        constraint=FixedMemories(m=tuple(memories)),
    )


def tie_cases(K, N, rng):
    """Memory vectors for K users: random ones and ones that force ties."""
    r = sorted(float(x) for x in rng.uniform(0.05, 1.0, K))
    yield "random", r, [float(x) for x in rng.uniform(0.0, 1.0, K) * r]
    yield "zero", r, [0.0] * K
    yield "full", r, list(r)
    # m_k = r_k / c_s zeroes user k's term at size s
    for size in sorted({1, min(2, K), (K + 1) // 2, K}):
        coef = N / (N // size)
        m = [rk / coef if rng.random() < 0.6 else float(rng.uniform(0.0, rk)) for rk in r]
        yield f"zero-term-s{size}", r, m
    # duplicated users: equal rates and memories, so equal terms at every size
    base = [float(x) for x in rng.uniform(0.05, 1.0, (K + 1) // 2)]
    dup_r = sorted((base + base)[:K])
    yield "duplicated", dup_r, [0.5 * rk for rk in dup_r]
    yield "all-equal", [0.5] * K, [0.2] * K
    # decimal data: terms such as 0.3 - 0.11 and 0.9 - 0.71 are equal, but
    # not in binary floating point
    dec_r = [max(0.1, round(rk, 1)) for rk in r]
    yield "decimal", dec_r, [min(round(float(rng.uniform(0.0, rk)), 2), rk) for rk in dec_r]


@pytest.mark.parametrize("K", range(1, 15))
def test_fixed_matches_enumeration(K):
    rng = np.random.default_rng(500 + K)
    for N in (K, K + 3):
        for label, r, m in tie_cases(K, N, rng):
            inst = fixed(r, m, N)
            got, want = cutset_fixed(inst), cutset_fixed_enum(inst)
            assert got.raw_value == pytest.approx(want.raw_value, abs=1e-12), (label, N)
            assert got.value == pytest.approx(want.value, abs=1e-12), (label, N)
            assert got.binding_set == want.binding_set, (label, N)


def test_terms_equal_up_to_rounding_tie_to_the_lower_user():
    # users 2 and 6 both have a single-user cut of 0.19, which the floats
    # r_6 - m_6 = 0.19000000000000006 and r_2 - m_2 = 0.19 miss by 6e-17
    inst = fixed([0.3, 0.3, 0.5, 0.6, 0.9, 0.9], [0.24, 0.11, 0.4, 0.56, 0.78, 0.71], 6)
    assert cutset_fixed(inst).binding_set == users_mask(2)
    assert cutset_fixed_enum(inst).binding_set == users_mask(2)


@pytest.mark.parametrize("K", range(1, 10))
def test_budget_matches_enumeration(K):
    rng = np.random.default_rng(700 + K)
    trials = 6 if K <= 7 else 2
    for i in range(trials):
        # near-equal rates and small budgets leave many large terms, so the
        # thresholds must reach up to the largest rate
        r = sorted(float(x) for x in rng.uniform(0.05 if i % 2 else 0.5, 1.0, K))
        N = K + i % 3
        for m_tot in (0.0, 0.15 * sum(r), float(rng.uniform(0.0, sum(r))), sum(r)):
            inst = budget_instance(r, m_tot, N=N)
            got, want = cutset_budget(inst), cutset_budget_enum(inst)
            assert got.value == pytest.approx(want.value, abs=1e-9)
            # the minimizing split need not be unique, but any split the
            # program returns must attain the bound
            split = got.binding_set
            assert sum(split) == pytest.approx(m_tot, abs=1e-8)
            at_split = replace(inst, constraint=FixedMemories(split))
            assert cutset_fixed(at_split).value == pytest.approx(got.value, abs=1e-9)


def test_budget_program_is_polynomial():
    # K = 16 is out of reach for the 2^K-row program; the bound still sits
    # between the all-users cut and the best single-user cut at every split
    rng = np.random.default_rng(16)
    r = sorted(float(x) for x in rng.uniform(0.05, 1.0, 16))
    m_tot = 0.3 * sum(r)
    inst = budget_instance(r, m_tot)
    rep = cutset_budget(inst)
    assert rep.value >= sum(r) - 16 * m_tot - 1e-9
    assert rep.value >= (sum(r) - m_tot) / 16 - 1e-9
    at_split = replace(inst, constraint=FixedMemories(rep.binding_set))
    assert cutset_fixed(at_split).value == pytest.approx(rep.value, abs=1e-9)
