import numpy as np
import pytest

from robustmix import (
    BudgetedSet,
    HullSet,
    Instance,
    Mixture,
    UnsupportedError,
    check_ratio,
    check_submodular,
    dual_certificate,
    evaluate_wrp,
)


class TestCheckSubmodular:
    def test_budgeted_example_ok(self):
        mix = Mixture(((1.0, BudgetedSet(np.zeros(4), np.array([5.0, 3.0, 1.0, 2.0]), 2)),))
        assert check_submodular(4, lambda x: evaluate_wrp(mix, x)) == {"ok": True}

    def test_random_budgeted_always_ok(self, rng):
        from robustmix.verify import random_budgeted_mixture

        for _ in range(20):
            n = int(rng.integers(2, 7))
            mix = random_budgeted_mixture(rng, n)
            assert check_submodular(n, lambda x: evaluate_wrp(mix, x))["ok"]

    def test_supermodular_self_test(self):
        result = check_submodular(2, lambda x: float(sum(x)) ** 2)
        assert not result["ok"]
        assert result["violation"] == ((0,), (1,))

    def test_modular_function_ok(self):
        result = check_submodular(3, lambda x: float(sum(x)))
        assert result["ok"]

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            check_submodular(17, lambda x: 0.0)


class TestDualCertificate:
    def test_closed_form_example(self):
        mix = Mixture(((1.0, BudgetedSet(np.zeros(2), np.array([3.0, 1.0]), 1)),))
        cert = dual_certificate(mix, (1, 1))
        assert cert.pi == (1.0,)
        assert cert.rho == ((2.0, 0.0),)
        assert cert.objective == pytest.approx(3.0)

    def test_full_budget(self):
        lo = np.array([1.0, 2.0])
        uset = BudgetedSet(lo, lo + np.array([4.0, 5.0]), 2)
        cert = dual_certificate(Mixture(((1.0, uset),)), (1, 1))
        assert cert.pi == (0.0,)
        assert cert.objective == pytest.approx(3.0 + 9.0)

    def test_empty_selection(self):
        uset = BudgetedSet(np.zeros(3), np.ones(3), 1)
        cert = dual_certificate(Mixture(((1.0, uset),)), (0, 0, 0))
        assert cert.objective == 0.0
        assert cert.pi == (0.0,)

    def test_matches_objective_and_feasible(self, rng):
        from robustmix.verify import random_budgeted_mixture

        for _ in range(50):
            n = int(rng.integers(2, 9))
            mix = random_budgeted_mixture(rng, n)
            x = tuple(int(v) for v in rng.integers(0, 2, n))
            cert = dual_certificate(mix, x)
            assert cert.objective == pytest.approx(evaluate_wrp(mix, x), abs=1e-9)
            for (_, uset), pi, rho in zip(mix.components, cert.pi, cert.rho):
                dev = uset.deviations
                assert pi >= 0
                for i, xi in enumerate(x):
                    assert rho[i] >= -1e-12
                    assert pi + rho[i] >= dev[i] * xi - 1e-12

    def test_rejects_non_budgeted(self):
        mix = Mixture(((1.0, HullSet(np.ones((1, 2)))),))
        with pytest.raises(UnsupportedError):
            dual_certificate(mix, (1, 0))


class TestCheckRatio:
    def test_singleton_hulls_exact(self, rng):
        mix = Mixture(
            tuple((1.0, HullSet(rng.uniform(0, 5, (1, 3)))) for _ in range(2))
        )
        result = check_ratio(Instance.selection(3, 1), mix)
        assert result["ratio"] == pytest.approx(1.0, abs=1e-9)
        assert result["ok"]

    def test_two_point_example(self):
        mix = Mixture(((1.0, HullSet(np.array([[0.0, 10.0], [4.0, 0.0]]))),))
        result = check_ratio(Instance.selection(2, 1), mix)
        assert result["ratio"] == pytest.approx(1.0)
        assert result["bound"] == 2.0
        assert result["ok"]

    def test_random_instances_within_bound(self, rng):
        from robustmix.verify import random_hull_mixture, random_instance

        for _ in range(25):
            inst = random_instance(rng, max_sel_n=5)
            mix = random_hull_mixture(rng, inst.n)
            result = check_ratio(inst, mix)
            assert result["ok"], result

    def test_rejects_non_hull(self):
        mix = Mixture(((1.0, BudgetedSet(np.zeros(2), np.ones(2), 1)),))
        with pytest.raises(UnsupportedError):
            check_ratio(Instance.selection(2, 1), mix)
