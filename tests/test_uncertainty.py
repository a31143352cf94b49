import csv
import io
import itertools

import numpy as np
import pytest

from robustmix import (
    BudgetedSet,
    EllipsoidSet,
    HullSet,
    IntervalSet,
    Mixture,
    ParseError,
    PolyhedronSet,
    ScenarioMatrix,
    UnsupportedError,
    build_mixture,
    build_set,
    center,
    worst_case,
)
from robustmix.instances import gen_synthetic
from robustmix.uncertainty import mixture_spec_from_json, mixture_spec_to_json

TWO_ROWS = ScenarioMatrix(np.array([[0.0, 0.0], [2.0, 4.0]]))


class TestScenarioMatrix:
    def test_csv_round_trip(self):
        data = ScenarioMatrix(np.array([[1.25, 2.5], [3.0, 4.125]]))
        back = ScenarioMatrix.from_csv(data.to_csv())
        assert np.allclose(back.costs, data.costs, atol=1e-6)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            ScenarioMatrix.from_csv("a,b\n1,2\n")

    def test_ragged_rejected(self):
        with pytest.raises(ParseError):
            ScenarioMatrix.from_csv("arc_0,arc_1\n1,2\n3\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError, match="non-numeric"):
            ScenarioMatrix.from_csv("arc_0,arc_1\n1,x\n")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n\n",
            "arc_0\rarc_1\n1,2\n",
            'arc_0,"arc_1\n1,2\n',
            "arc_0,arc_1\n",
            "arc_0,arc_1\n\n\r\n",
            "arc_0,arc_1\n1,2\n3,4,5\n",
            "arc_0,arc_1\n1,2,\n",
            "arc_0,arc_1\n1,\n",
            "arc_0,arc_1\n1,2\n  \n",
            "arc_0,arc_1\n1,2\n#3,4\n",
            "arc_0,arc_1\n1,2\r3,4\n",
        ],
    )
    def test_malformed_rejected(self, text):
        """Each case raises ParseError; a parser warning fails the test."""
        with pytest.raises(ParseError):
            ScenarioMatrix.from_csv(text)

    @pytest.mark.parametrize(
        "text",
        [
            "arc_0,arc_1\n1.5,2\n3,4.25\n",
            "\narc_0,arc_1\n\n1.5,2\n\n3,4.25\n\n",
            "arc_0,arc_1\r\n1.5,2\r\n3,4.25\r\n",
            '"arc_0","arc_1"\n"1.5",2\n3,"4.25"\n',
            "arc_0,arc_1\n 1.5 ,\t2\n3 , 4.25\n",
            "arc_0,arc_1\n1.5e0,+2\n3,4.25",
        ],
    )
    def test_accepted_variants(self, text):
        """Blank lines, CRLF, quotes, padding and no final newline."""
        assert ScenarioMatrix.from_csv(text).costs.tolist() == [[1.5, 2.0], [3.0, 4.25]]

    @pytest.mark.parametrize("source", ["paper-scale", "repr"])
    def test_parse_bit_identical_to_float(self, source):
        """The C parse gives the same bits as one float() per entry."""
        if source == "paper-scale":
            text = gen_synthetic(23, 23, 271, "two_block", seed=1)[1].to_csv()
        else:
            rng = np.random.default_rng(7)
            values = rng.uniform(0, 1, (40, 9)) * 10.0 ** rng.integers(-8, 9, (40, 9))
            text = "".join(
                ",".join(items) + "\n"
                for items in [[f"arc_{i}" for i in range(9)]]
                + [[repr(float(v)) for v in row] for row in values]
            )
        rows = list(csv.reader(io.StringIO(text)))[1:]
        reference = np.array([[float(v) for v in row] for row in rows])
        parsed = ScenarioMatrix.from_csv(text).costs
        assert parsed.shape == reference.shape
        assert np.array_equal(parsed.view(np.int64), reference.view(np.int64))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ScenarioMatrix(np.array([[1.0, -1.0]]))

    def test_subset_picks_rows(self):
        sub = TWO_ROWS.subset([1])
        assert np.array_equal(sub.costs, [[2.0, 4.0]])


class TestBuildSet:
    def test_interval_full_range(self):
        uset = build_set(TWO_ROWS, "interval", 1.0)
        assert np.array_equal(uset.lo, [0.0, 0.0])
        assert np.array_equal(uset.hi, [2.0, 4.0])

    def test_interval_degenerate_point(self):
        uset = build_set(TWO_ROWS, "interval", 0.0)
        assert np.array_equal(uset.lo, [1.0, 2.0])
        assert np.array_equal(uset.hi, [1.0, 2.0])

    def test_hull_collapses_to_mean(self):
        uset = build_set(TWO_ROWS, "hull", 0.0)
        assert uset.points.shape == (1, 2)
        assert np.array_equal(uset.points[0], [1.0, 2.0])

    def test_hull_full_scale_keeps_scenarios(self):
        uset = build_set(TWO_ROWS, "hull", 1.0)
        assert uset.num_points == 2
        assert np.allclose(sorted(map(tuple, uset.points)), [[0, 0], [2, 4]])

    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0])
    def test_hull_dedupe_keeps_first_seen_order(self, rng, lam):
        """Same points, in the same order, as the pairwise array_equal scan."""
        costs = rng.integers(0, 3, (60, 3)).astype(float)
        costs[::7, 0] = -0.0
        costs[::5, 0] = 0.0
        data = ScenarioMatrix(costs)
        points = data.costs.mean(axis=0) + lam * (data.costs - data.costs.mean(axis=0))
        unique = []
        for row in points:
            if not any(np.array_equal(row, u) for u in unique):
                unique.append(row)
        uset = build_set(data, "hull", lam)
        assert np.array_equal(uset.points, np.array(unique))
        if lam == 0.0:
            assert uset.num_points == 1

    def test_budgeted_needs_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            build_set(TWO_ROWS, "budgeted", 0.5)
        uset = build_set(TWO_ROWS, "budgeted", 1.0, gamma=1)
        assert uset.gamma == 1

    def test_ellipsoid_mean_and_psd(self):
        data = ScenarioMatrix(np.random.default_rng(0).uniform(1, 5, (10, 3)))
        uset = build_set(data, "ellipsoid", 2.0)
        assert np.allclose(uset.mu, data.costs.mean(axis=0))
        assert np.linalg.eigvalsh(uset.sigma).min() > 0

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError, match="out of range"):
            build_set(TWO_ROWS, "interval", 1.5)
        with pytest.raises(ValueError, match="out of range"):
            build_set(TWO_ROWS, "ellipsoid", 25.0)

    def test_unknown_type(self):
        with pytest.raises(UnsupportedError):
            build_set(TWO_ROWS, "box", 0.5)

    def test_lambda_monotone_worst_case(self, rng):
        """Growing lambda can only grow the worst case, for every family."""
        data = ScenarioMatrix(rng.uniform(1, 10, (8, 4)))
        x = (1, 0, 1, 1)
        for set_type, lams in (
            ("interval", [0.0, 0.3, 0.7, 1.0]),
            ("hull", [0.0, 0.3, 0.7, 1.0]),
            ("ellipsoid", [0.0, 1.0, 5.0, 20.0]),
        ):
            values = [worst_case(build_set(data, set_type, lam), x)[0] for lam in lams]
            assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def _sigma_with_spectrum(eigenvalues, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(5, 5)))
    sigma = q @ np.diag(eigenvalues) @ q.T
    return (sigma + sigma.T) / 2


class TestEllipsoidPsdCheck:
    @pytest.mark.parametrize(
        "smallest, accepted",
        [(1e-3, True), (0.0, True), (-5e-10, True), (-2e-9, False), (-1e-3, False)],
    )
    def test_boundary(self, smallest, accepted):
        sigma = _sigma_with_spectrum([smallest, 0.5, 1.0, 2.0, 4.0])
        assert (np.linalg.eigvalsh(sigma).min() >= -1e-9) == accepted
        if accepted:
            EllipsoidSet(np.ones(5), sigma, 1.0)
        else:
            with pytest.raises(ValueError, match="semidefinite"):
                EllipsoidSet(np.ones(5), sigma, 1.0)

    def test_exact_boundary(self):
        """Cholesky of sigma + 1e-9 I fails here; eigvalsh decides."""
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.diag([0.0, 1.0, 2.0]))
        EllipsoidSet(np.ones(3), np.diag([-1e-9, 1.0, 2.0]), 1.0)
        with pytest.raises(ValueError, match="semidefinite"):
            EllipsoidSet(np.ones(3), np.diag([-1.0000001e-9, 1.0, 2.0]), 1.0)

    def test_singular_psd_accepted(self):
        EllipsoidSet(np.ones(5), _sigma_with_spectrum([0.0, 0.0, 0.0, 1.0, 3.0]), 2.0)
        EllipsoidSet(np.ones(3), np.zeros((3, 3)), 2.0)

    def test_asymmetric_rejected(self):
        sigma = np.eye(3)
        sigma[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            EllipsoidSet(np.ones(3), sigma, 1.0)


class TestIsDiagonal:
    @pytest.mark.parametrize(
        "sigma, diagonal",
        [(np.diag([1.0, 2.0, 0.0]), True), (_sigma_with_spectrum([1.0] * 4 + [2.0]), False)],
    )
    def test_answer_is_computed_once(self, monkeypatch, sigma, diagonal):
        uset = EllipsoidSet(np.ones(sigma.shape[0]), sigma, 1.0)
        assert uset.is_diagonal() is diagonal

        def refuse(*args, **kwargs):
            raise AssertionError("is_diagonal recomputed")

        monkeypatch.setattr(np, "allclose", refuse)
        assert uset.is_diagonal() is diagonal


class TestWorstCase:
    def test_budgeted_two_largest_deviations(self):
        uset = BudgetedSet(np.zeros(3), np.array([5.0, 3.0, 1.0]), 2)
        value, c = worst_case(uset, (1, 1, 1))
        assert value == 8.0
        assert np.array_equal(c, [5.0, 3.0, 0.0])

    def test_hull_argmax(self):
        value, c = worst_case(HullSet(np.array([[1.0, 0.0], [0.0, 2.0]])), (1, 1))
        assert value == 2.0
        assert np.array_equal(c, [0.0, 2.0])

    def test_ellipsoid_closed_form(self):
        uset = EllipsoidSet(np.ones(2), np.eye(2), 4.0)
        value, _ = worst_case(uset, (1, 1))
        assert value == pytest.approx(2 + np.sqrt(8.0), abs=1e-7)

    def test_interval_upper_bounds(self):
        value, c = worst_case(IntervalSet(np.zeros(3), np.array([2.0, 5.0, 7.0])), (1, 0, 1))
        assert value == 9.0
        assert np.array_equal(c, [2.0, 5.0, 7.0])

    def test_polyhedron_rejected(self):
        uset = PolyhedronSet(np.eye(2), np.ones(2))
        with pytest.raises(UnsupportedError, match="emit MIP"):
            worst_case(uset, (1, 1))

    def test_argmax_attains_value(self, rng):
        """The returned argmax member reproduces the reported value."""
        for _ in range(50):
            n = int(rng.integers(2, 7))
            x = rng.integers(0, 2, n)
            lo = rng.uniform(0, 5, n)
            hi = lo + rng.uniform(0, 5, n)
            a = rng.normal(size=(n, n))
            sets = [
                IntervalSet(lo, hi),
                BudgetedSet(lo, hi, int(rng.integers(0, n + 1))),
                HullSet(rng.uniform(0, 10, (3, n))),
                EllipsoidSet(lo, a @ a.T, float(rng.uniform(0, 5))),
            ]
            for uset in sets:
                value, c = worst_case(uset, x)
                assert value == pytest.approx(float(c @ x), abs=1e-9)

    def test_budgeted_matches_z_enumeration(self, rng):
        """Oracle: enumerate every way to pick Gamma deviating items."""
        for _ in range(100):
            n = int(rng.integers(2, 8))
            lo = rng.uniform(0, 5, n)
            hi = lo + rng.uniform(0, 5, n)
            gamma = int(rng.integers(0, n + 1))
            x = rng.integers(0, 2, n)
            uset = BudgetedSet(lo, hi, gamma)
            dev = uset.deviations
            best = max(
                float(lo @ x) + sum(dev[i] * x[i] for i in combo)
                for combo in itertools.combinations(range(n), min(gamma, n))
            ) if gamma else float(lo @ x)
            value, _ = worst_case(uset, x)
            assert value == pytest.approx(best, abs=1e-9)

    def test_hull_equals_discrete_scenario_max(self, rng):
        data = ScenarioMatrix(rng.uniform(0, 10, (6, 5)))
        uset = build_set(data, "hull", 1.0)
        x = np.array([1, 1, 0, 1, 0])
        value, _ = worst_case(uset, x)
        assert value == pytest.approx(float((data.costs @ x).max()), abs=1e-9)


class TestCenter:
    def test_hull_mean(self):
        assert np.array_equal(
            center(HullSet(np.array([[1.0, 3.0], [3.0, 1.0]]))), [2.0, 2.0]
        )

    def test_interval_midpoint(self):
        assert np.array_equal(
            center(IntervalSet(np.zeros(2), np.array([2.0, 4.0]))), [1.0, 2.0]
        )

    def test_ellipsoid_mu(self):
        assert np.array_equal(center(EllipsoidSet(np.full(2, 7.0), np.eye(2), 1.0)), [7.0, 7.0])


class TestMixture:
    def test_weights_validated(self):
        uset = IntervalSet(np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            Mixture(((-0.1, uset),))
        with pytest.raises(ValueError):
            Mixture(())

    def test_weights_need_not_sum_to_one(self):
        uset = IntervalSet(np.zeros(1), np.ones(1))
        mix = Mixture(((0.7, uset), (0.9, uset)))
        assert mix.N == 2

    def test_set_types(self):
        mix = Mixture(
            (
                (1.0, IntervalSet(np.zeros(1), np.ones(1))),
                (1.0, HullSet(np.ones((1, 1)))),
                (1.0, BudgetedSet(np.zeros(1), np.ones(1), 1)),
                (1.0, EllipsoidSet(np.ones(1), np.eye(1), 1.0)),
                (1.0, PolyhedronSet(np.eye(1), np.ones(1))),
            )
        )
        assert mix.set_types() == ("interval", "hull", "budgeted", "ellipsoid", "polyhedron")

    def test_spec_json_round_trip(self):
        specs = [
            {"weight": 0.7502, "type": "hull", "lambda": 0.2234},
            {"weight": 0.9796, "type": "ellipsoid", "lambda": 5.4609},
        ]
        assert mixture_spec_from_json(mixture_spec_to_json(specs)) == specs

    def test_spec_json_validation(self):
        with pytest.raises(ParseError):
            mixture_spec_from_json("not json")
        with pytest.raises(ParseError, match="components"):
            mixture_spec_from_json("{}")
        with pytest.raises(ParseError, match="weight"):
            mixture_spec_from_json('{"components": [{"type": "hull"}]}')

    def test_build_mixture(self, rng):
        data = ScenarioMatrix(rng.uniform(1, 5, (6, 3)))
        mix = build_mixture(
            [
                {"weight": 0.5, "type": "interval", "lambda": 0.5},
                {"weight": 0.5, "type": "budgeted", "lambda": 0.5, "gamma": 2},
            ],
            data,
        )
        assert mix.set_types() == ("interval", "budgeted")
