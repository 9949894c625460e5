"""Closed-form optimum for the total-budget problem.

When only the total cache budget is constrained, the optimal delivery load
has an explicit description: split the budget across layers as multiples
t_l of the layer width, where t_l plays the role of the usual uniform
caching parameter inside the (K - l + 1)-user subsystem that wants layer l.
At integer t the per-unit layer load is

    g_l(t) = (K - l + 1 - t) / (1 + t),

and in general the optimum is the lower convex envelope, i.e. the linear
interpolation of g_l between neighboring integers.  Raising t_l by one
costs f_l memory and saves

    f_l * (K - l + 2) / ((t_l + 1) (t_l + 2))

load, a marginal return that decreases in both t_l and l.  Greedy
allocation by best marginal return is therefore optimal, keeps the t
vector non-increasing in l automatically, and visits every corner of the
memory/load trade-off on its way.  This module implements that greedy,
the resulting load, its corner points and the per-user cache sizes.
"""

from __future__ import annotations

import math

from .model import RateProfile, check_budget

# a level fraction, or a budget left over relative to the sum of rates,
# that counts as zero
_TOL = 1e-12


def _unit_steps(rates: RateProfile) -> list[tuple[float, int, int, float]]:
    """All unit raises (slope, layer, from-level, cost) in greedy order.

    Marginal returns decay within a layer and with layer index, so sorting
    by slope is exactly the order a best-first greedy would visit, and
    every prefix keeps t non-increasing.  Equal slopes only happen across
    different fill levels, with the lower level in the deeper layer;
    taking the lower level first keeps the vector in threshold form when
    one exists, at no cost in load.
    """
    K = rates.K
    steps = []
    for l in range(1, K + 1):
        fl = rates.f[l - 1]
        if fl <= 0.0:
            continue
        for level in range(K - l + 1):
            slope = (K - l + 2) / ((level + 1) * (level + 2))
            steps.append((slope, l, level, fl))
    steps.sort(key=lambda s: (-s[0], s[2], s[1]))
    return steps


def t_decomposition(m_tot: float, rates: RateProfile) -> tuple[float, ...]:
    """Spend ``m_tot`` greedily across layers; the unique best-first split.

    Returns the caching levels (t_1..t_K): non-increasing, t_l in
    [0, K - l + 1], and at most one of them fractional.
    """
    K = rates.K
    remaining = check_budget(m_tot, rates)

    t = [0.0] * K
    for slope, l, level, cost in _unit_steps(rates):
        if remaining <= _TOL * rates.sum_rates:
            break
        if remaining >= cost:
            t[l - 1] = float(level + 1)
            remaining -= cost
        else:
            t[l - 1] = level + remaining / cost
            remaining = 0.0

    # Zero-width layers carry no memory, but the reported vector should
    # still be monotone and integral there; rounding the right neighbor up
    # stays within both the cap and the left neighbor.
    for l in range(K, 0, -1):
        if rates.f[l - 1] <= 0.0:
            t[l - 1] = float(math.ceil(t[l] if l < K else 0.0))

    return tuple(t)


def _g(K: int, l: int, level: int) -> float:
    """Per-unit load of layer l at integer caching level."""
    return (K - l + 1 - level) / (1 + level)


def _g_interp(K: int, l: int, tl: float) -> float:
    lo = math.floor(tl)
    frac = tl - lo
    if frac <= _TOL:
        return _g(K, l, int(round(tl)))
    return (1.0 - frac) * _g(K, l, int(lo)) + frac * _g(K, l, int(lo) + 1)


def theorem1_load(m_tot: float, rates: RateProfile) -> float:
    """Optimal worst-case delivery load at total budget ``m_tot``."""
    t = t_decomposition(m_tot, rates)
    K = rates.K
    # a float even when every layer is empty
    return sum(
        (_g_interp(K, l, t[l - 1]) * rates.f[l - 1]
         for l in range(1, K + 1)
         if rates.f[l - 1] > 0.0),
        0.0,
    )


def corner_points(rates: RateProfile) -> list[tuple[float, float]]:
    """Every corner of the budget/load trade-off, ascending in budget.

    The curve starts at (0, sum of rates), drops along the greedy steps,
    and ends at (sum of rates, 0) exactly: the greedy fills every layer,
    and sum_l f_l (K - l + 1) = sum_k r_k, which the running sums would
    only reach to within rounding.
    """
    m = 0.0
    load = rates.sum_rates
    points = [(m, load)]
    for slope, _, _, cost in _unit_steps(rates):
        m += cost
        load -= slope * cost
        points.append((m, load))
    if len(points) > 1:
        points[-1] = (rates.sum_rates, 0.0)
    return points


def threshold_allocation(m_tot: float, rates: RateProfile) -> tuple[float, ...]:
    """The cache sizes (m_1..m_K) realizing the budget optimum.

    Layer l's memory t_l * f_l is shared equally by the K - l + 1 users
    that want the layer, which is exactly what uniform caching inside the
    layer subsystem prescribes, fractional t_l included; user k holds its
    shares of layers 1..k.
    """
    t = t_decomposition(m_tot, rates)
    K = rates.K
    shares = [t[l - 1] * rates.f[l - 1] / (K - l + 1) for l in range(1, K + 1)]
    return tuple(sum(shares[:k]) for k in range(1, K + 1))
