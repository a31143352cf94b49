import csv
import io
import itertools
from unittest import mock

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
    worst_case,
)
from robustmix import cli, uncertainty
from robustmix.instances import gen_synthetic
from robustmix.tuning import baseline_lambdas
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
            "arc_0,arc_1\n1,2,3\n4,5,6\n",
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

    def test_empty_pool_rejected(self):
        """A matrix without rows used to build, and `build_set` then
        failed inside numpy."""
        with pytest.raises(ValueError, match="empty scenario pool"):
            ScenarioMatrix(np.empty((0, 3)))
        with pytest.raises(ValueError, match="empty scenario pool"):
            TWO_ROWS.subset([])

    def test_no_columns_rejected(self):
        """A matrix without columns used to build; its CSV did not parse
        back, and an ellipsoid built on it divided by n = 0."""
        with pytest.raises(ValueError, match="no columns"):
            ScenarioMatrix(np.empty((3, 0)))


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

    def test_ellipsoid_needs_two_scenarios(self):
        """Checked before the sample covariance divides by K - 1 = 0."""
        one_row = ScenarioMatrix(np.ones((1, 3)))
        with pytest.raises(ValueError, match="at least 2 scenarios"):
            EllipsoidSet.from_data(one_row, 1.0)
        with pytest.raises(ValueError, match="at least 2 scenarios"):
            build_set(one_row, "ellipsoid", 1.0)

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


class TestBuiltBoxes:
    """`build_set` makes interval and budgeted boxes without the checks
    and copies of direct construction; they are the same boxes."""

    @staticmethod
    def box_data(rng):
        costs = rng.uniform(0.0, 10.0, (9, 6))
        costs[:, 1] = 0.1  # a constant column whose computed mean rounds above it
        data = ScenarioMatrix(costs)
        assert data.spread_down[1] < 0 < data.spread_up[1]
        return data

    @pytest.mark.parametrize("lam", [0.0, 0.025, 0.5, 0.999, 1.0])
    def test_equal_direct_construction_bit_for_bit(self, rng, lam):
        data = self.box_data(rng)
        for gamma in (None, 0, 3, 6):
            kind = "interval" if gamma is None else "budgeted"
            built = build_set(data, kind, lam, gamma=gamma)
            if gamma is None:
                direct = IntervalSet(built.lo, built.hi)
            else:
                direct = BudgetedSet(built.lo, built.hi, gamma)
            lo, hi = fresh_interval_bounds(data.costs, lam)
            for box in (built, direct):
                assert box.lo.tobytes() == lo.tobytes()
                assert box.hi.tobytes() == hi.tobytes()
                assert np.all(box.lo <= box.hi)
            assert type(built) is type(direct) and built.n == direct.n == data.n
            if gamma is not None:
                assert built.gamma == direct.gamma == gamma
                assert built.deviations.tobytes() == direct.deviations.tobytes()

    def test_read_only_and_shared_spreads(self, rng):
        data = self.box_data(rng)
        first = build_set(data, "interval", 0.5)
        second = build_set(data, "budgeted", 0.25, gamma=2)
        assert data.spread_down is data.spread_down and data.spread_up is data.spread_up
        assert np.array_equal(data.spread_down, data.mean - data.costs.min(axis=0))
        assert np.array_equal(data.spread_up, data.costs.max(axis=0) - data.mean)
        for arr in (first.lo, first.hi, second.lo, second.hi, second.deviations,
                    data.spread_down, data.spread_up):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_built_gamma_still_checked(self):
        for gamma in (-1, 3):
            with pytest.raises(ValueError, match="gamma must lie"):
                build_set(TWO_ROWS, "budgeted", 0.5, gamma=gamma)
        with pytest.raises(ValueError, match="must be an integer"):  # not cut to 1
            build_set(TWO_ROWS, "budgeted", 0.5, gamma=1.5)

    @pytest.mark.parametrize("lam", [-0.5, float("nan"), float("inf")])
    def test_from_data_rejects_bad_lambda(self, lam):
        for cls, extra in ((IntervalSet, {}), (BudgetedSet, {"gamma": 1})):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                cls.from_data(TWO_ROWS, lam, **extra)

    def test_direct_construction_keeps_every_check(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            IntervalSet(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="lo <= hi"):
            BudgetedSet(np.array([0.0, 2.0]), np.array([1.0, 1.0]), 1)
        with pytest.raises(ValueError, match="1-D"):
            IntervalSet(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="1-D"):
            BudgetedSet(np.zeros(2), np.ones(3), 1)
        for gamma in (-1, 3):
            with pytest.raises(ValueError, match="gamma must lie"):
                BudgetedSet(np.zeros(2), np.ones(2), gamma)
        lo, hi = np.zeros(2), np.ones(2)
        box = IntervalSet(lo, hi)
        assert box.lo is not lo and box.hi is not hi  # writable inputs are copied
        lo[0] = 5.0
        assert box.lo[0] == 0.0

    @pytest.mark.parametrize("gamma", [1.5, 1.0, "1", None])
    def test_gamma_must_be_an_integer(self, gamma):
        """A fractional gamma used to pass and then break support/member."""
        with pytest.raises(ValueError, match="must be an integer"):
            BudgetedSet(np.zeros(2), np.ones(2), gamma)
        with pytest.raises(ValueError, match="must be an integer"):
            BudgetedSet.from_data(TWO_ROWS, 0.5, gamma=gamma)

    def test_numpy_integer_gamma_accepted(self):
        box = BudgetedSet(np.zeros(2), np.array([1.0, 3.0]), np.int64(1))
        assert box.support(np.ones(2)) == 3.0


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
def test_ellipsoid_rejects_bad_lambda(lam):
    """A NaN or infinite lambda used to pass and give a NaN or infinite
    support."""
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        EllipsoidSet(np.ones(3), np.eye(3), lam)
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        EllipsoidSet.from_data(TWO_ROWS, lam)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ScenarioMatrix(np.ones(3)), "scenario matrix must be 2-D"),
        (lambda: HullSet(np.zeros((0, 2))), "hull needs at least one point"),
        (lambda: HullSet(np.ones(2)), "hull needs at least one point"),
        (lambda: EllipsoidSet(np.ones(2), np.eye(3), 1.0), "sigma must be n x n"),
        (lambda: EllipsoidSet(np.ones(2), np.eye(2), -1.0), "lambda must be nonnegative"),
        (lambda: PolyhedronSet(np.eye(2), np.ones(3)), "V must be m x n and d length m"),
        (lambda: PolyhedronSet(np.ones(2), np.ones(2)), "V must be m x n and d length m"),
    ],
    ids=["scenarios-1d", "hull-empty", "hull-1d", "sigma-shape", "negative-lambda", "polyhedron-d",
         "polyhedron-1d"],
)
def test_constructor_checks(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: ScenarioMatrix(np.array([[1.0, np.nan]])), "scenario costs"),
        (lambda: IntervalSet(np.array([np.nan]), np.array([1.0])), "lo"),
        (lambda: BudgetedSet(np.array([0.0, 0.0]), np.array([1.0, np.inf]), 1), "hi"),
        (lambda: HullSet(np.array([[np.inf, 1.0]])), "hull points"),
        (lambda: EllipsoidSet(np.array([np.nan, 0.0]), np.eye(2), 1.0), "mu"),
        (lambda: PolyhedronSet(np.array([[np.nan]]), np.array([1.0])), "V"),
        (lambda: PolyhedronSet(np.eye(1), np.array([-np.inf])), "d"),
    ],
    ids=["scenarios", "interval", "budgeted", "hull", "ellipsoid", "polyhedron-V",
         "polyhedron-d"],
)
def test_constructors_reject_non_finite_entries(make, name):
    """Every direct constructor used to accept NaN and infinite entries;
    a one-hull mixture with an infinite point then priced x at inf."""
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        make()


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

    @pytest.mark.parametrize(
        "sigma",
        [np.diag([np.inf, 1.0]), np.array([[1.0, np.inf], [np.inf, 1.0]])],
        ids=["diagonal", "symmetric-pair"],
    )
    def test_infinite_entries_rejected(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            EllipsoidSet(np.ones(2), sigma, 1.0)

    def test_asymmetric_rejected(self):
        sigma = np.eye(3)
        sigma[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            EllipsoidSet(np.ones(3), sigma, 1.0)

    @pytest.mark.parametrize(
        "entry, value",
        [
            (None, 0.0),  # exactly symmetric
            ((0, 1), 1e-12),  # near-symmetric, accepted by the tolerance
            ((0, 1), -5e-10),
            ((0, 1), 2e-9),  # outside it
            ((2, 0), 1e-6),
            ((1, 1), np.nan),  # symmetric position, NaN never equals itself
            ((0, 2), np.nan),
            ((0, 2), np.inf),
        ],
    )
    def test_symmetry_matches_tolerance_rule(self, entry, value):
        sigma = _sigma_with_spectrum([0.1, 0.5, 1.0, 2.0, 4.0])
        if entry is not None:
            sigma[entry] += value
        symmetric = np.allclose(sigma, sigma.T, atol=1e-9)  # the rule as specified
        if symmetric:
            EllipsoidSet(np.ones(5), sigma, 1.0)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                EllipsoidSet(np.ones(5), sigma, 1.0)


@pytest.fixture
def psd_calls(monkeypatch):
    """The smallest eigenvalues `_check_psd` is called on, in order."""
    calls = []
    check = uncertainty._check_psd

    def counted(smallest):
        calls.append(smallest)
        return check(smallest)

    monkeypatch.setattr(uncertainty, "_check_psd", counted)
    return calls


class TestCovarianceCheckedOnce:
    """A covariance passed in is checked for symmetry and PSD once, by
    the eigendecomposition that factors it, at each construction; a
    data-built ellipsoid is PSD by construction and is not checked."""

    def test_writable_caller_array_is_checked_per_build(self, psd_calls):
        sigma = _sigma_with_spectrum([0.1, 0.5, 1.0, 2.0, 4.0])
        for builds in range(1, 4):
            assert EllipsoidSet(np.ones(5), sigma, 1.0).sigma is not sigma
            assert len(psd_calls) == builds

    @pytest.mark.parametrize(
        "sigma, message",
        [
            (np.array([[1.0, 1e-6], [0.0, 1.0]]), "symmetric"),
            (np.diag([1.0, -1e-3]), "semidefinite"),
        ],
    )
    def test_failed_check_is_never_memoized(self, psd_calls, sigma, message):
        sigma.setflags(write=False)  # sealed and owning its data: kept as is
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                EllipsoidSet(np.ones(2), sigma, 1.0)
        assert len(psd_calls) == (3 if message == "semidefinite" else 0)

    def test_nonnegative_ridges_are_never_checked(self, rng, psd_calls):
        data = ScenarioMatrix(rng.uniform(1, 5, (8, 5)))
        sets = [build_set(data, "ellipsoid", lam) for lam in baseline_lambdas("ellipsoid")]
        sets += [build_set(data, "ellipsoid", 1.0, ridge=r) for r in (0.0, 0.1, 1e-300)]
        assert len(sets) == 44 and psd_calls == []
        assert all(s.factor is data.factor for s in sets)


class TestRidge:
    """A given ridge must be finite and, if negative, leave the
    covariance PSD within 1e-9."""

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -np.inf])
    def test_non_finite_ridge_named(self, ridge):
        data = ScenarioMatrix(np.random.default_rng(0).uniform(1, 5, (5, 8)))
        with pytest.raises(ValueError, match=f"ridge {ridge!r} must be finite"):
            build_set(data, "ellipsoid", 1.0, ridge=ridge)

    @pytest.mark.parametrize(
        "K, n, ridge, accepted",
        [
            (5, 8, -1e-12, True),  # rank-deficient: smallest eigenvalue 0
            (5, 8, -1e-3, False),
            (30, 4, -1e-3, True),  # full rank: smallest eigenvalue about 0.81
            (30, 4, -10.0, False),
        ],
    )
    def test_negative_ridge_verdicts(self, K, n, ridge, accepted):
        data = ScenarioMatrix(np.random.default_rng(0 if K < n else 1).uniform(1, 5, (K, n)))
        if accepted:
            build_set(data, "ellipsoid", 1.0, ridge=ridge)
        else:
            with pytest.raises(ValueError, match="semidefinite"):
                build_set(data, "ellipsoid", 1.0, ridge=ridge)

    def test_negative_ridge_boundary_follows_the_smallest_eigenvalue(self):
        data = ScenarioMatrix(np.random.default_rng(1).uniform(1, 5, (30, 4)))
        smallest = np.linalg.eigvalsh(fresh_covariance(data.costs, 0.0)).min()
        build_set(data, "ellipsoid", 1.0, ridge=-smallest - 5e-10)
        with pytest.raises(ValueError, match="semidefinite"):
            build_set(data, "ellipsoid", 1.0, ridge=-smallest - 2e-9)


def _sigma_x(sigma, mu, lam, x):
    """The worst case's value and member through the n x n covariance."""
    quad = max(float(x @ sigma @ x), 0.0)
    if quad == 0:
        return float(mu @ x), mu
    return float(mu @ x + np.sqrt(lam * quad)), mu + np.sqrt(lam) * (sigma @ x) / np.sqrt(quad)


class TestFactorForm:
    """Data-built ellipsoids evaluate through the K x n factor: the same
    values as through the ridged sample covariance (`np.cov`), up to
    rounding, and no n x n array formed."""

    @pytest.mark.parametrize("K, n", [(2, 6), (5, 9), (40, 6), (12, 12)])
    @pytest.mark.parametrize("ridge", [None, 0.0, 0.3])
    def test_matches_covariance_form(self, rng, K, n, ridge):
        costs = rng.uniform(1, 5, (K, n))
        costs[:, 1] = 2.5  # a constant column: zero covariances
        data = ScenarioMatrix(costs)
        ell = build_set(data, "ellipsoid", 3.0, ridge=ridge)
        sigma = fresh_covariance(costs, ridge)
        assert_within_1e12(ell.sigma, sigma)
        for x in (rng.integers(0, 2, n).astype(float), rng.uniform(0, 1, n), np.eye(n)[1]):
            value, member = worst_case(ell, x)
            ref_value, ref_member = _sigma_x(sigma, data.mean, 3.0, x)
            assert value == ell.support(x)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert_within_1e12(member, ref_member)
        assert_within_1e12(ell.spread(), np.sqrt(3.0 * np.diag(sigma)))

    def test_building_and_evaluating_never_form_the_covariance(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("n x n covariance formed")

        monkeypatch.setattr(np, "cov", forbidden)
        data = ScenarioMatrix(rng.uniform(1, 5, (6, 9)))
        mix = build_mixture(
            [{"weight": 1.0, "type": "ellipsoid", "lambda": lam, **kw}
             for lam, kw in ((2.0, {}), (0.5, {"ridge": 0.2}), (1.0, {"ridge": -1e-12}))],
            data,
        )
        x = rng.integers(0, 2, 9).astype(float)
        for _, ell in mix.components:
            for evaluate in (ell.support, ell.member):
                evaluate(x)
        assert len(mix.branch_rank) == mix.bound_costs.shape[0] == 9  # spreads, members
        assert all("sigma" not in vars(ell) for _, ell in mix.components)


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

    def test_support_is_bit_identical_to_worst_case_value(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            lo = rng.uniform(0, 5, n)
            hi = lo + rng.uniform(0, 5, n)
            a = rng.normal(size=(n, n))
            sets = [
                IntervalSet(lo, hi),
                BudgetedSet(lo, hi, int(rng.integers(0, n + 1))),
                HullSet(rng.uniform(0, 10, (3, n))),
                EllipsoidSet(lo, a @ a.T, float(rng.uniform(0, 5))),
            ]
            for x in (rng.integers(0, 2, n).astype(float), rng.uniform(0, 1, n)):
                for uset in sets:
                    assert uset.support(x) == worst_case(uset, x)[0], uset.name
                    assert abs(uset.member(x).dot(x) - uset.support(x)) <= 1e-9, uset.name
        with pytest.raises(UnsupportedError, match="emit MIP"):
            PolyhedronSet(np.eye(2), np.ones(2)).support(np.ones(2))

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


class TestBoundMember:
    def test_fixed_members(self):
        lo, hi = np.array([1.0, 2.0]), np.array([3.0, 5.0])
        assert np.array_equal(IntervalSet(lo, hi).bound_member(), hi)
        assert np.array_equal(BudgetedSet(lo, hi, 1).bound_member(), lo)
        hull = HullSet(np.array([[0.0, 4.0], [2.0, 0.0]]))
        assert np.array_equal(hull.bound_member(), [1.0, 2.0])
        assert np.array_equal(EllipsoidSet(lo, np.eye(2), 1.0).bound_member(), lo)

    def test_best_responses_are_the_worst_case_members(self):
        x = np.array([0.25, 1.0])
        lo, hi = np.array([1.0, 2.0]), np.array([3.0, 5.0])
        assert np.array_equal(IntervalSet(lo, hi).member(x), hi)
        assert np.array_equal(BudgetedSet(lo, hi, 1).member(x), [1.0, 5.0])
        hull = HullSet(np.array([[0.0, 4.0], [2.0, 0.0]]))
        assert np.array_equal(hull.member(x), [0.0, 4.0])
        ell = EllipsoidSet(np.array([1.0, 1.0]), np.eye(2), 4.0)
        assert np.array_equal(ell.member(x), worst_case(ell, x)[1])

    @pytest.mark.parametrize("mu", [(1.0, 1.0), (1.0, 0.0)])
    def test_ellipsoid_member_keeps_negative_entries(self, mu):
        # the argmax at (1, 0) is mu + (2, -1.8): its second entry is negative
        ell = EllipsoidSet(np.array(mu), np.array([[1.0, -0.9], [-0.9, 1.0]]), 4.0)
        x = np.array([1.0, 0.0])
        member = ell.member(x)
        assert np.array_equal(member, worst_case(ell, x)[1])
        assert member == pytest.approx(np.array(mu) + [2.0, -1.8])


class TestCenter:
    def test_hull_mean(self):
        assert np.array_equal(
            HullSet(np.array([[1.0, 3.0], [3.0, 1.0]])).bound_member(), [2.0, 2.0]
        )


class TestMixture:
    def test_weights_validated(self):
        uset = IntervalSet(np.zeros(1), np.ones(1))
        for weight in (-0.1, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                Mixture(((weight, uset),))
        with pytest.raises(ValueError):
            Mixture(())

    def test_weights_need_not_sum_to_one(self):
        uset = IntervalSet(np.zeros(1), np.ones(1))
        mix = Mixture(((0.7, uset), (0.9, uset)))
        assert len(mix.components) == 2

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
        assert mix.types == {"interval", "hull", "budgeted", "ellipsoid", "polyhedron"}

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
        with pytest.raises(ParseError, match="nonempty list"):
            mixture_spec_from_json('{"components": []}')
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
        assert [u.name for _, u in mix.components] == ["interval", "budgeted"]


def csv_writer_text(costs) -> str:
    """The scenario CSV as `csv.writer` writes it over numpy scalars."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"arc_{i}" for i in range(costs.shape[1])])
    for row in costs:
        writer.writerow([f"{v:.6f}" for v in row])
    return buf.getvalue()


# Halfway points of the sixth decimal and their float neighbours, zeros
# and large magnitudes: 4 rows of 78 costs.
_HALVES = (np.arange(100) + 0.5) / 1e6 + np.arange(100) * 7.0
ROUNDING_BOUNDARIES = np.concatenate([
    _HALVES, np.nextafter(_HALVES, np.inf), np.nextafter(_HALVES, -np.inf),
    [0.0, -0.0, 1e15, 123456789.0000005, 2.0**53, 1e22, 1.7e308, 1e300, 0.0, 0.0, 0.0, 0.0],
]).reshape(4, -1)


# Matrices with every cost in [0, 2**33) and no -0.0, which to_csv
# formats in numpy blocks: halfway points of the sixth decimal up to
# 8e9, each in a row with its two float neighbours, odd multiples of
# powers of two, which include exact ties such as 1/128 = 0.0078125,
# and integer parts of 1 to 10 digits in one block.
_K = np.unique(np.concatenate([np.arange(2000), np.geomspace(2e3, 8e15, 3000).astype(np.int64)]))
_NUMPY_HALVES = (_K + 0.5) / 1e6
NUMPY_PATH_CASES = {
    "halves": np.column_stack([
        _NUMPY_HALVES, np.nextafter(_NUMPY_HALVES, np.inf), np.nextafter(_NUMPY_HALVES, 0),
    ]),
    "binary_ties": np.concatenate([
        np.arange(1, 400, 2)[:, None] * 2.0 ** -np.arange(30),
        (2.0**33 - np.arange(1, 41, 2))[:, None] * 2.0 ** -np.arange(30),
    ]),
    "zeros": np.zeros((3, 4)),
    "widths": np.array([
        [3.25, 8589934591.999999, 1234567890.5, 0.0000005],
        [0.0, 9.9999995, 999999999.9999995, 8589934591.9999995],
    ]),
    "one_column": _NUMPY_HALVES[::50, None],
}


class TestToCsv:
    @pytest.mark.parametrize(
        "costs",
        [
            [[-0.0, 1e-7, 1e300], [0.0, 2.5, 123456.789]],
            [[1e-7], [-0.0], [1e300], [3.25]],
            [[0.1234565, 7.0, 5e-7, 0.0000005]],
            [[0.5, 8589934591.999999, 9142274164.626755]],
            ROUNDING_BOUNDARIES,
        ],
    )
    def test_bytes_equal_csv_writer(self, costs):
        costs = np.array(costs)
        assert ScenarioMatrix(costs).to_csv() == csv_writer_text(costs)

    @pytest.mark.parametrize("name", NUMPY_PATH_CASES)
    def test_numpy_blocks_equal_csv_writer(self, name):
        costs = NUMPY_PATH_CASES[name]
        step = max(1, uncertainty.CSV_BLOCK_ENTRIES // costs.shape[1])
        with mock.patch.object(uncertainty, "_csv_lines", wraps=uncertainty._csv_lines) as spy:
            text = ScenarioMatrix(costs).to_csv()
        assert spy.call_count == -(-costs.shape[0] // step)
        assert text.split("\n") == csv_writer_text(costs).split("\n")

    def test_late_blocks_fall_back_to_percent_format(self, rng):
        """Blocks of CSV_BLOCK_ENTRIES // n rows: the first two go through
        numpy, the third, holding -0.0, and the last, holding 1e300,
        through `%.6f`."""
        step = uncertainty.CSV_BLOCK_ENTRIES // 7
        shape = (3 * step + 2, 7)
        costs = rng.uniform(0, 100, shape) * 10.0 ** rng.integers(-7, 8, shape)
        costs[2 * step + 1, 5], costs[-1, 2] = -0.0, 1e300
        with mock.patch.object(uncertainty, "_csv_lines", wraps=uncertainty._csv_lines) as spy:
            text = ScenarioMatrix(costs).to_csv()
        assert spy.call_count == 2
        assert text.split("\n") == csv_writer_text(costs).split("\n")

    def test_generated_matrix(self):
        _, data = gen_synthetic(4, 3, 9, "two_block", seed=3)
        assert data.to_csv() == csv_writer_text(data.costs)

    def test_gen_writes_the_paper_scale_csv(self, tmp_path):
        """`robustmix gen` at paper scale: 271 scenarios over 1012 arcs."""
        out = tmp_path / "s.csv"
        assert cli.main([
            "gen", "--width", "23", "--height", "23", "--scenarios", "271",
            "--noise", "two_block", "--seed", "1",
            "--out-graph", str(tmp_path / "g.txt"), "--out-scenarios", str(out),
        ]) == 0
        costs = gen_synthetic(23, 23, 271, "two_block", 1)[1].costs
        assert out.read_bytes().split(b"\n") == csv_writer_text(costs).encode("ascii").split(b"\n")


def fresh_interval_bounds(costs, lam):
    """The interval bounds computed afresh from the columns."""
    mu = costs.mean(axis=0)
    return mu - lam * (mu - costs.min(axis=0)), mu + lam * (costs.max(axis=0) - mu)


def fresh_covariance(costs, ridge=None):
    sigma = np.atleast_2d(np.cov(costs, rowvar=False, bias=False))
    if ridge is None:
        ridge = 1e-6 * np.trace(sigma) / costs.shape[1]
    return sigma + ridge * np.eye(costs.shape[1])


def assert_within_1e12(actual, reference):
    """Equal up to rounding: within 1e-12 of the reference's largest entry."""
    assert np.abs(actual - reference).max() <= 1e-12 * np.abs(reference).max()


SPECS = [
    ("interval", 0.3, {}),
    ("budgeted", 0.7, {"gamma": 2}),
    ("hull", 0.4, {}),
    ("ellipsoid", 3.5, {}),
    ("ellipsoid", 1.5, {"ridge": 0.25}),
]


class TestMemos:
    """Each matrix, set and mixture computes its pair-independent values
    once; the values equal a fresh computation and cannot go stale."""

    def test_builds_through_memos_equal_fresh_builds(self, rng):
        costs = rng.uniform(1, 5, (7, 4))
        costs[3] = costs[1]  # a duplicate scenario for the hull to drop
        costs[:, 2] = 0.1  # a constant column: zero covariances
        data = ScenarioMatrix(costs)
        for set_type, lam, kw in SPECS * 2:  # the second pass reuses the memos
            built = build_set(data, set_type, lam, **kw)
            fresh = build_set(ScenarioMatrix(costs), set_type, lam, **kw)
            for name in ("lo", "hi", "points", "mu", "sigma"):
                if hasattr(fresh, name):
                    assert np.array_equal(getattr(built, name), getattr(fresh, name))
            if set_type in ("interval", "budgeted"):
                lo, hi = fresh_interval_bounds(costs, lam)
                assert np.array_equal(built.lo, lo) and np.array_equal(built.hi, hi)
            if set_type == "ellipsoid":
                assert np.array_equal(built.mu, costs.mean(axis=0))
                sigma = fresh_covariance(costs, kw.get("ridge"))
                assert_within_1e12(built.sigma, sigma)

    @pytest.mark.parametrize("ridge", [None, 0.25, 0.0, -0.0, -1e-12])
    def test_covariance_is_bit_identical_to_adding_ridge_times_identity(self, rng, ridge):
        """A built `sigma` is F' F + ridge I from the factor and the ridge
        that every evaluation uses, signed zeros included, and the ridged
        sample covariance up to rounding."""
        costs = rng.uniform(1, 5, (7, 4))
        costs[:, 2] = 2.0  # a constant column with an exact mean: zero covariances
        ell = build_set(ScenarioMatrix(costs), "ellipsoid", 1.0, ridge=ridge)
        if ridge is not None:
            assert ell.ridge == ridge
        expected = ell.factor.T.dot(ell.factor) + ell.ridge * np.eye(4)
        assert ell.sigma.tobytes() == expected.tobytes()
        sigma = fresh_covariance(costs, ridge)
        assert_within_1e12(ell.sigma, sigma)

    def test_default_ridge_ellipsoids_share_factor_and_ridge(self, rng):
        costs = rng.uniform(1, 5, (6, 3))
        data = ScenarioMatrix(costs)
        first = build_set(data, "ellipsoid", 1.0)
        second = build_set(data, "ellipsoid", 4.0)
        assert first.factor is second.factor is data.factor
        assert first.ridge == second.ridge == data._default_ridge
        assert np.array_equal(first.sigma, second.sigma)
        sample = fresh_covariance(costs, 0.0)
        reference = 1e-6 * np.trace(sample) / 3  # the ridge through np.cov
        assert abs(first.ridge - reference) <= 1e-12 * reference
        assert build_set(data, "ellipsoid", 1.0, ridge=0.5).ridge == 0.5

    def test_set_memos_equal_fresh_values(self, rng):
        points = rng.uniform(0, 5, (5, 4))
        hull = HullSet(points)
        for _ in range(2):
            assert np.array_equal(hull.bound_member(), points.mean(axis=0))
            assert np.array_equal(hull.spread(), points.max(axis=0) - points.min(axis=0))
        lo = rng.uniform(0, 2, 4)
        hi = lo + rng.uniform(0, 2, 4)
        assert np.array_equal(BudgetedSet(lo, hi, 2).deviations, hi - lo)
        sigma = np.diag([4.0, 1.0, 0.0, 9.0])
        ell = EllipsoidSet(np.ones(4), sigma, 2.0)
        assert np.array_equal(ell.spread(), np.sqrt(2.0 * np.diag(sigma)))

    def test_mixture_memos_equal_fresh_sums(self, rng):
        data = ScenarioMatrix(rng.uniform(1, 5, (6, 4)))
        mix = build_mixture(
            [{"weight": w, "type": t, "lambda": lam, **kw} for w, (t, lam, kw) in
             zip((0.3, 1.2, 0.7, 0.5, 2.0), SPECS)],
            data,
        )
        bound = np.zeros(4)
        spread = np.zeros(4)
        for weight, uset in mix.components:
            bound += weight * uset.bound_member()
            spread += weight * uset.spread()
        assert np.array_equal(mix.bound_costs, bound)
        assert mix.checked_bound_costs.values == tuple(bound.tolist())
        order = sorted(range(4), key=lambda i: (-spread[i], i))
        assert mix.branch_rank == tuple(order.index(i) for i in range(4))
        assert mix.types == {"interval", "budgeted", "hull", "ellipsoid"}

    def test_branch_rank_breaks_spread_ties_by_index(self):
        budgeted = BudgetedSet(np.zeros(5), np.array([1.0, 3.0, 3.0, 0.0, 1.0]), 1)
        interval = IntervalSet(np.zeros(5), np.ones(5))  # spread 0 everywhere
        assert Mixture(((1.0, budgeted),)).branch_rank == (2, 0, 1, 4, 3)
        assert Mixture(((1.0, interval),)).branch_rank == (0, 1, 2, 3, 4)

    def test_caller_writes_do_not_reach_a_matrix(self, rng):
        costs = rng.uniform(1, 5, (6, 3))
        kept = costs.copy()
        data = ScenarioMatrix(costs)
        before = [build_set(data, t, lam, **kw) for t, lam, kw in SPECS]
        costs[:] = 99.0
        assert np.array_equal(data.costs, kept)
        assert np.array_equal(data.mean, kept.mean(axis=0))
        after = [build_set(data, t, lam, **kw) for t, lam, kw in SPECS]
        x = np.array([1.0, 0.0, 1.0])
        for old, new in zip(before, after):
            assert old.support(x) == new.support(x)

    def test_caller_writes_do_not_reach_a_set(self):
        lo, hi = np.array([1.0, 2.0]), np.array([3.0, 5.0])
        points = np.array([[1.0, 4.0], [3.0, 0.0]])
        box, hull = IntervalSet(lo, hi), HullSet(points)
        mix = Mixture(((1.0, box), (1.0, hull)))
        x = np.array([1.0, 1.0])
        values = (box.support(x), hull.support(x))
        bound = mix.bound_costs.copy()
        center_before = hull.bound_member().copy()
        lo[:] = hi[:] = points[:] = 7.0
        assert (box.support(x), hull.support(x)) == values
        assert np.array_equal(hull.bound_member(), center_before)
        assert np.array_equal(mix.bound_costs, bound)
        assert np.array_equal(box.hi, [3.0, 5.0])

    def test_caller_writes_do_not_reach_a_polyhedron(self):
        V, d = np.eye(2), np.array([3.0, 4.0])
        poly = PolyhedronSet(V, d)
        V[:] = d[:] = 7.0
        assert np.array_equal(poly.V, np.eye(2))
        assert np.array_equal(poly.d, [3.0, 4.0])
        for arr in (poly.V, poly.d):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_given_covariance_is_its_factor(self):
        """A covariance passed in is not kept: `sigma` is F' F like every
        ellipsoid's, and the given matrix up to rounding."""
        sigma = _sigma_with_spectrum([0.0, 0.1, 0.5, 1.0, 4.0])
        ell = EllipsoidSet(np.ones(5), sigma, 2.0)
        assert ell.ridge == 0.0
        assert np.array_equal(ell.sigma, ell.factor.T @ ell.factor)
        assert_within_1e12(ell.sigma, sigma)

    def test_memoized_arrays_are_read_only(self, rng):
        data = ScenarioMatrix(rng.uniform(1, 5, (6, 3)))
        hull = build_set(data, "hull", 0.5)
        budgeted = build_set(data, "budgeted", 0.5, gamma=1)
        ell = build_set(data, "ellipsoid", 2.0)
        mix = Mixture(((1.0, hull), (1.0, budgeted), (1.0, ell)))
        arrays = [
            data.costs, data.mean, data.spread_down, data.spread_up, data.factor,
            hull.points, hull.spread(), budgeted.lo, budgeted.deviations,
            ell.mu, ell.sigma, ell.spread(), mix.bound_costs,
        ]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_components_must_share_n(self):
        with pytest.raises(ValueError, match="same n"):
            Mixture(
                (
                    (1.0, IntervalSet(np.zeros(2), np.ones(2))),
                    (1.0, IntervalSet(np.zeros(3), np.ones(3))),
                )
            )
