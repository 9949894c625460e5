
import numpy as np
import pytest

from hetcache.model import (
    Budget,
    FixedMemories,
    InstanceError,
    ProblemInstance,
    binary_entropy,
    instance_from_dict,
    load_instance,
    make_rate_profile,
    rates_from_distortions,
    rho,
    validate_instance,
)


def instance_to_dict(inst: ProblemInstance) -> dict:
    """The instance file's fields of ``inst``, as ``instance_from_dict`` reads them."""
    data: dict = {"K": inst.K, "N": inst.N, "q": inst.q, "rates": list(inst.rates.r)}
    if inst.is_budget:
        data["budget"] = inst.constraint.m_tot
    else:
        data["memories"] = list(inst.constraint.m)
    return data


class TestRho:
    def test_endpoints_binary(self):
        assert rho(0.0, 2) == 1.0
        assert rho(0.5, 2) == pytest.approx(0.0, abs=1e-15)

    def test_endpoints_quaternary(self):
        assert rho(0.0, 4) == 2.0
        assert rho(0.75, 4) == pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rho(-0.01, 2)
        with pytest.raises(ValueError):
            rho(0.51, 2)
        with pytest.raises(ValueError):
            rho(0.1, 1)

    def test_convex_and_decreasing(self):
        # rho is strictly decreasing and convex on [0, 1-1/q]; check both
        # via a fine grid for q = 2 and q = 5.
        for q in (2, 5):
            d = np.linspace(0.0, 1.0 - 1.0 / q, 100)
            vals = np.array([rho(x, q) for x in d])
            assert np.all(np.diff(vals) < 0.0)
            chords = 0.5 * (vals[:-2] + vals[2:])
            assert np.all(vals[1:-1] <= chords + 1e-12)


class TestRateProfile:
    def test_layer_widths(self):
        p = make_rate_profile([0.5, 0.7, 1.0])
        assert p.f == (0.5, pytest.approx(0.2), pytest.approx(0.3))
        assert p.r == (0.5, 0.7, 1.0)
        assert p.sum_rates == pytest.approx(2.2)

    def test_uniform_rates_collapse_to_one_layer(self):
        p = make_rate_profile([1.0, 1.0, 1.0])
        assert p.f == (1.0, 0.0, 0.0)

    def test_example_profile(self):
        p = make_rate_profile([0.2, 0.3, 0.8])
        assert p.f == (0.2, pytest.approx(0.1), pytest.approx(0.5))

    def test_rejects_decreasing(self):
        with pytest.raises(InstanceError, match="non-decreasing"):
            make_rate_profile([0.5, 0.3, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(InstanceError, match="non-negative"):
            make_rate_profile([-0.1, 0.3])

    def test_cumulative_sum_reproduces_rates_exactly(self):
        # Accumulating the layer widths in order must reproduce each r_l
        # bit for bit, so downstream code may treat sum(f[:l]) and r_l as
        # interchangeable.
        rng = np.random.default_rng(21)
        for _ in range(300):
            K = int(rng.integers(1, 8))
            r = np.sort(rng.uniform(0.0, 4.0, K))
            p = make_rate_profile(r.tolist())
            acc = 0.0
            for l in range(1, K + 1):
                acc = acc + p.f[l - 1]
                assert acc == p.r[l - 1]

    def test_distortion_conversion(self):
        p = rates_from_distortions([0.5, 0.1100278644383595, 0.0], q=2)
        assert p.r[0] == pytest.approx(0.0, abs=1e-12)
        assert p.r[1] == pytest.approx(0.5, abs=1e-12)
        assert p.r[2] == 1.0

    def test_distortions_must_be_non_increasing(self):
        with pytest.raises(InstanceError, match="non-increasing"):
            rates_from_distortions([0.1, 0.3], q=2)


class TestValidation:
    def test_valid_budget_instance(self):
        inst = ProblemInstance(
            K=3, N=3, rates=make_rate_profile([0.5, 0.7, 1.0]), constraint=Budget(1.0)
        )
        assert validate_instance(inst) == []

    def test_small_library_rejected(self):
        with pytest.raises(InstanceError, match="N >= K"):
            ProblemInstance(
                K=3, N=2, rates=make_rate_profile([0.5, 0.7, 1.0]), constraint=Budget(1.0)
            )

    def test_budget_above_total_rate_rejected(self):
        with pytest.raises(InstanceError, match=r"budget 2\.3 outside \[0, 2\.2\]"):
            ProblemInstance(
                K=3, N=3, rates=make_rate_profile([0.5, 0.7, 1.0]), constraint=Budget(2.3)
            )

    def test_memory_above_rate_rejected(self):
        with pytest.raises(InstanceError, match=r"memory m\[1\]=0\.6 outside \[0, 0\.5\]"):
            ProblemInstance(
                K=2,
                N=2,
                rates=make_rate_profile([0.5, 1.0]),
                constraint=FixedMemories((0.6, 0.2)),
            )

    def test_all_problems_reported(self):
        with pytest.raises(InstanceError) as exc_info:
            ProblemInstance(
                K=3, N=2, rates=make_rate_profile([0.5, 0.7, 1.0]), constraint=Budget(5.0)
            )
        assert exc_info.value.problems == [
            "N >= K violated (N=2 < K=3)",
            "budget 5.0 outside [0, 2.2]",
        ]


class TestJson:
    def test_budget_roundtrip(self, tmp_path):
        doc = {"K": 3, "N": 4, "rates": [0.5, 0.7, 1.0], "budget": 1.0}
        inst = instance_from_dict(doc)
        assert inst.K == 3 and inst.N == 4 and inst.is_budget
        path = tmp_path / "inst.json"
        path.write_text(__import__("json").dumps(instance_to_dict(inst)))
        again = load_instance(str(path))
        assert again == inst

    def test_distortion_input(self):
        doc = {"K": 2, "N": 2, "q": 2, "distortions": [0.5, 0.0], "memories": [0.0, 0.5]}
        inst = instance_from_dict(doc)
        assert inst.rates.r[0] == pytest.approx(0.0, abs=1e-12)
        assert inst.rates.r[1] == 1.0

    def test_exactly_one_of_each_pair(self):
        with pytest.raises(InstanceError, match="rates.*distortions"):
            instance_from_dict({"K": 1, "N": 1, "budget": 0.0})
        with pytest.raises(InstanceError, match="budget.*memories"):
            instance_from_dict({"K": 1, "N": 1, "rates": [1.0]})
        with pytest.raises(InstanceError) as exc_info:
            instance_from_dict(
                {"K": 1, "N": 1, "rates": [1.0], "distortions": [0.0], "budget": 0.0}
            )
        assert any("rates" in p for p in exc_info.value.problems)

    def test_unknown_fields_rejected(self):
        with pytest.raises(InstanceError, match="unknown fields"):
            instance_from_dict({"K": 1, "N": 1, "rates": [1.0], "budget": 0.0, "zz": 1})

    def test_invalid_instance_rejected_at_load(self):
        with pytest.raises(InstanceError, match="N >= K"):
            instance_from_dict({"K": 3, "N": 2, "rates": [0.5, 0.7, 1.0], "budget": 1.0})


def test_entropy_symmetry():
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7))
    assert binary_entropy(0.5) == 1.0
