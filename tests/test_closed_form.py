import math

import numpy as np
import pytest

from hetcache.closed_form import (
    corner_points,
    t_decomposition,
    theorem1_load,
    threshold_allocation,
)
from hetcache.model import InstanceError, make_rate_profile
from oracles import envelope_load, lemma1_load, simplified_budget_solve, threshold_form

FIG_CORNERS = [
    (0.0, 2.2),
    (0.5, 1.2),
    (0.7, 0.9),
    (1.0, 0.6),
    (1.5, 0.8 / 3),
    (1.7, 1.0 / 6),
    (2.2, 0.0),
]


def random_profile(rng, K=None, allow_flat=False):
    K = K or int(rng.integers(1, 7))
    r = np.sort(rng.uniform(0.05, 3.0, K))
    if allow_flat and K >= 2 and rng.random() < 0.5:
        # Collapse a random adjacent pair to create a zero-width layer.
        i = int(rng.integers(1, K))
        r[i] = r[i - 1]
    return make_rate_profile(r.tolist())


class TestGreedySplit:
    def test_worked_example(self, figure_profile):
        t = t_decomposition(1.25, figure_profile)
        assert t == (1.5, 1.0, 1.0)
        x, y, alpha = threshold_form(t, figure_profile)
        assert (x, y) == (2, 1)
        assert alpha == pytest.approx(0.5)
        assert sum(tl * f for tl, f in zip(t, figure_profile.f)) == pytest.approx(1.25)

    def test_zero_budget(self, figure_profile):
        t = t_decomposition(0.0, figure_profile)
        assert t == (0.0, 0.0, 0.0)
        assert threshold_form(t, figure_profile) == (1, 1, 0.0)

    def test_full_budget(self, figure_profile):
        assert t_decomposition(2.2, figure_profile) == (3.0, 2.0, 1.0)

    def test_budget_out_of_range(self, figure_profile):
        with pytest.raises(InstanceError):
            t_decomposition(2.3, figure_profile)
        with pytest.raises(InstanceError):
            t_decomposition(-0.1, figure_profile)

    def test_vector_shape_properties(self):
        # Non-increasing, capped, budget-exact, at most one fractional
        # entry; exercised with zero-width layers mixed in.
        rng = np.random.default_rng(42)
        for _ in range(300):
            p = random_profile(rng, allow_flat=True)
            K = p.K
            m_tot = float(rng.uniform(0.0, p.sum_rates))
            t = t_decomposition(m_tot, p)
            assert all(t[i] >= t[i + 1] - 1e-12 for i in range(K - 1))
            assert all(-1e-12 <= t[l - 1] <= K - l + 1 + 1e-12 for l in range(1, K + 1))
            assert sum(tl * fl for tl, fl in zip(t, p.f)) == pytest.approx(m_tot, abs=1e-9)
            n_frac = sum(abs(x - round(x)) > 1e-9 for x in t)
            assert n_frac <= 1

    def test_threshold_inequalities(self):
        # The greedy's (x, y, alpha) must satisfy the closed-form interval
        # tests that characterize which layer is being filled at a given
        # budget, written out verbatim here as the oracle.  The interval
        # picture assumes fill levels are visited one at a time, which
        # needs (x + 1)(x + 2) >= x (K + 1) for every x, true only up to
        # K = 5; beyond that the greedy interleaves levels and the labels
        # stop applying, so sampling stays at K <= 5 here.
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = random_profile(rng, K=int(rng.integers(1, 6)))
            K, f = p.K, p.f
            m = float(rng.uniform(1e-6, p.sum_rates - 1e-6))
            x, y, alpha = threshold_form(t_decomposition(m, p), p)
            tail = sum((K - i) * f[i] for i in range(K - x + 1, K))
            lower_x = (x - 1) * sum(f[: K - x + 1]) + tail
            upper_x = x * sum(f[: K - x]) + sum((K - i) * f[i] for i in range(K - x, K))
            assert lower_x - 1e-9 < m <= upper_x + 1e-9
            assert 1 <= y <= K - x + 1
            lower_y = x * sum(f[: y - 1]) + (x - 1) * sum(f[y - 1 : K - x + 1]) + tail
            upper_y = x * sum(f[:y]) + (x - 1) * sum(f[y : K - x + 1]) + tail
            assert lower_y - 1e-9 < m <= upper_y + 1e-9
            assert m == pytest.approx(lower_y + alpha * f[y - 1], abs=1e-9)


@pytest.mark.parametrize("s", [1e-6, 1e-12, 1e-13, 1e-300])
def test_scaled_rates_scale_every_value(s):
    # the greedy stops at a budget left over relative to the sum of rates,
    # so the levels keep and the load and cache sizes scale at any scale
    base = make_rate_profile([0.2, 0.3, 0.8])
    scaled = make_rate_profile([s * x for x in base.r])
    for share in (0.0, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0):
        m, m_s = share * base.sum_rates, share * scaled.sum_rates
        assert t_decomposition(m_s, scaled) == pytest.approx(
            t_decomposition(m, base), rel=1e-9, abs=1e-9)
        assert theorem1_load(m_s, scaled) == pytest.approx(
            s * theorem1_load(m, base), rel=1e-9, abs=1e-12 * s)
        assert threshold_allocation(m_s, scaled) == pytest.approx(
            tuple(s * x for x in threshold_allocation(m, base)), rel=1e-9, abs=1e-12 * s)


class TestCornerPoints:
    def test_three_user_curve(self, figure_profile):
        pts = corner_points(figure_profile)
        assert len(pts) == 7
        for (m, load), (em, eload) in zip(pts, FIG_CORNERS):
            assert m == pytest.approx(em, abs=1e-12)
            assert load == pytest.approx(eload, abs=1e-12)

    def test_uniform_rates(self):
        pts = corner_points(make_rate_profile([1.0, 1.0, 1.0]))
        assert [m for m, _ in pts] == pytest.approx([0.0, 1.0, 2.0, 3.0])
        assert [v for _, v in pts] == pytest.approx([3.0, 1.0, 1.0 / 3.0, 0.0])

    def test_single_user(self):
        pts = corner_points(make_rate_profile([0.8]))
        assert pts == [(0.0, 0.8), (pytest.approx(0.8), pytest.approx(0.0))]

    def test_curve_ends_at_the_sum_of_rates_exactly(self):
        # the running sum of step costs misses the sum of rates by an ulp
        # or two; the last corner must not
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = random_profile(rng, allow_flat=True)
            pts = corner_points(p)
            assert pts[-1] == (p.sum_rates, 0.0)
            assert all(m0 < m1 for (m0, _), (m1, _) in zip(pts, pts[1:]))


class TestTheorem1Load:
    def test_corner_values(self, figure_profile):
        assert theorem1_load(0.0, figure_profile) == pytest.approx(2.2)
        assert theorem1_load(1.0, figure_profile) == pytest.approx(0.6)
        assert theorem1_load(1.5, figure_profile) == pytest.approx(0.8 / 3)
        assert theorem1_load(2.2, figure_profile) == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_interpolates(self, figure_profile):
        # Derived by interpolating the corner curve: midpoint of the
        # (1.0, 0.6) - (1.5, 0.2667) segment.
        expected = envelope_load(FIG_CORNERS, 1.25)
        assert expected == pytest.approx(0.6 - 1.0 / 6.0)
        assert theorem1_load(1.25, figure_profile) == pytest.approx(expected, abs=1e-12)

    def test_equals_envelope_everywhere(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = random_profile(rng, allow_flat=True)
            corners = corner_points(p)
            for m in rng.uniform(0.0, p.sum_rates, 8):
                assert theorem1_load(float(m), p) == pytest.approx(
                    envelope_load(corners, float(m)), abs=1e-9
                )

    def test_piecewise_linear_and_convex(self, figure_profile):
        pts = corner_points(figure_profile)
        slopes = []
        for (m0, v0), (m1, v1) in zip(pts, pts[1:]):
            mid = 0.5 * (m0 + m1)
            assert theorem1_load(mid, figure_profile) == pytest.approx(
                0.5 * (v0 + v1), abs=1e-12
            )
            slopes.append((v1 - v0) / (m1 - m0))
        assert all(s1 >= s0 - 1e-12 for s0, s1 in zip(slopes, slopes[1:]))

    def test_no_layer_still_gives_a_float(self):
        # every rate zero: no layer has width, and the load is 0.0, not 0
        load = theorem1_load(0.0, make_rate_profile([0.0, 0.0, 0.0]))
        assert type(load) is float and load == 0.0


class TestThresholdAllocation:
    # Expected per-layer shares at each corner budget of the figure
    # profile: layer l splits t_l * f_l evenly over users l..K.
    CORNER_SHARES = {
        0.5: [1.0 / 6, 0.0, 0.0],
        0.7: [1.0 / 6, 0.1, 0.0],
        1.0: [1.0 / 6, 0.1, 0.3],
        1.5: [1.0 / 3, 0.1, 0.3],
        1.7: [1.0 / 3, 0.2, 0.3],
        2.2: [0.5, 0.2, 0.3],
    }

    def test_corner_allocations(self, figure_profile):
        f = figure_profile.f
        for m_tot, shares in self.CORNER_SHARES.items():
            t = t_decomposition(m_tot, figure_profile)
            for l in range(1, 4):
                assert t[l - 1] * f[l - 1] / (4 - l) == pytest.approx(
                    shares[l - 1], abs=1e-12
                ), (m_tot, l)
            # user k holds its shares of layers 1..k
            m = threshold_allocation(m_tot, figure_profile)
            for k in range(1, 4):
                assert m[k - 1] == pytest.approx(sum(shares[:k]), abs=1e-12), (m_tot, k)

    def test_totals_and_caps(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = random_profile(rng, allow_flat=True)
            m_tot = float(rng.uniform(0.0, p.sum_rates))
            m = threshold_allocation(m_tot, p)
            assert sum(m) == pytest.approx(m_tot, abs=1e-10)
            for k in range(1, p.K + 1):
                assert m[k - 1] <= p.r[k - 1] + 1e-10

    def test_fractional_level_allocation(self, figure_profile):
        # t = (1.5, 1, 1): layer 1 holds 0.75 split three ways.
        t1 = t_decomposition(1.25, figure_profile)[0]
        assert t1 * figure_profile.f[0] / 3 == pytest.approx(0.25)
        assert threshold_allocation(1.25, figure_profile) == (
            pytest.approx(0.25),
            pytest.approx(0.35),
            pytest.approx(0.65),
        )


class TestUniformPopulation:
    def test_three_user_values(self):
        assert lemma1_load(3, 0.0) == pytest.approx(3.0)
        assert lemma1_load(3, 1.0) == pytest.approx(1.0)
        assert lemma1_load(3, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_envelope_on_uniform_profile(self):
        for K in (1, 2, 3, 5):
            p = make_rate_profile([1.0] * K)
            for m in np.linspace(0.0, K, 41):
                assert lemma1_load(K, float(m)) == pytest.approx(
                    theorem1_load(float(m), p), abs=1e-10
                )

    def test_domain(self):
        with pytest.raises(InstanceError):
            lemma1_load(3, 3.1)
        with pytest.raises(InstanceError):
            lemma1_load(0, 0.0)


class TestIndependentRoute:
    def test_agrees_with_theorem1(self):
        # Two different evaluations of the same optimum: interpolated g
        # versus the max-of-lines converse expression.
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = random_profile(rng, allow_flat=True)
            m_tot = float(rng.uniform(0.0, p.sum_rates))
            t, load = simplified_budget_solve(m_tot, p)
            assert load == pytest.approx(theorem1_load(m_tot, p), abs=1e-10)
            assert t == t_decomposition(m_tot, p)
