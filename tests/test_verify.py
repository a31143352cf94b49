"""The FAIL lines of the `verify` suites and `check_ratio`'s zero optimum."""

import numpy as np
import pytest

from robustmix import HullSet, Instance, Mixture, check_ratio, verify


def run(capsys, suite):
    """`run_suites` on one suite with 2 trials: its result and printed lines."""
    ok = verify.run_suites(suite, trials=2)
    return ok, capsys.readouterr().out.splitlines()


class TestSuiteFailures:
    def test_submodular_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "check_submodular", lambda n, f: {"ok": False, "violation": 0.5}
        )
        assert run(capsys, "submodular") == (False, ["submodular: FAIL violation=0.5"])

    def test_submodular_self_test_not_flagged(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "check_submodular", lambda n, f: {"ok": True})
        assert run(capsys, "submodular") == (
            False,
            ["submodular: FAIL self-test did not flag a supermodular function"],
        )

    def test_ratio_out_of_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify,
            "check_ratio",
            lambda inst, mix: {"ratio": 3.0, "bound": 2.0, "ok": False},
        )
        assert run(capsys, "ratio") == (False, ["ratio: FAIL ratio=3.0 bound=2.0"])

    def test_dual_gap(self, capsys, monkeypatch):
        exact = verify.dual_certificate

        def off_by_one(mix, x):
            cert = exact(mix, x)
            return verify.DualCertificate(cert.pi, cert.rho, cert.objective + 1.0)

        monkeypatch.setattr(verify, "dual_certificate", off_by_one)
        ok, lines = run(capsys, "dual")
        assert not ok and len(lines) == 1
        label, _, gap = lines[0].partition("=")
        assert label == "dual: FAIL gap"
        assert float(gap) == pytest.approx(1.0)

    def test_dual_infeasible_certificate(self, capsys, monkeypatch):
        """Zero thresholds and overflows, with the exact objective, cover
        no deviation: the first chosen item with one fails."""
        calls = []

        def uncovering(mix, x):
            calls.append((mix, x))
            return verify.DualCertificate(
                tuple(0.0 for _ in mix.components),
                tuple((0.0,) * len(x) for _ in mix.components),
                verify.evaluate_wrp(mix, x),
            )

        monkeypatch.setattr(verify, "dual_certificate", uncovering)
        ok, lines = run(capsys, "dual")
        mix, x = calls[-1]
        dev = mix.components[0][1].deviations
        item = next(i for i, xi in enumerate(x) if dev[i] * xi > 1e-12)
        assert (ok, lines) == (False, [f"dual: FAIL infeasible certificate at item {item}"])


class TestCheckRatioZeroOptimum:
    @pytest.mark.parametrize(
        "points, ratio, ok",
        [
            ([[0.0, 5.0], [0.0, 3.0]], 1.0, True),
            # both centres are 0, so the midpoint takes item 0, worth 1
            ([[-1.0, 0.0], [1.0, 0.0]], float("inf"), False),
        ],
        ids=["midpoint-optimal", "midpoint-positive"],
    )
    def test_ratio(self, points, ratio, ok):
        mix = Mixture(((1.0, HullSet(np.array(points))),))
        result = check_ratio(Instance.selection(2, 1), mix)
        assert result == {"ratio": ratio, "bound": 2.0, "ok": ok}
