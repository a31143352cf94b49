import itertools
import math
import time

import numpy as np
import pytest

from robustmix import (
    BudgetedSet,
    CapExceededError,
    EllipsoidSet,
    Graph,
    HullSet,
    InfeasibleError,
    Instance,
    IntervalSet,
    Mixture,
    OracleCosts,
    ScenarioMatrix,
    UnsupportedError,
    build_mixture,
    evaluate_wrp,
    gen_synthetic,
    solve_auto,
    solve_bnb,
    solve_brute_force,
    solve_budgeted_mix,
    solve_ellipsoid_parametric,
    solve_interval_mix,
    solve_local_search,
    solve_midpoint_approx,
    split_scenarios,
)
from robustmix import solvers, uncertainty
from robustmix.instances import (
    enumerate_feasible,
    exclude_forcing,
    nominal_solve,
    sample_st_pairs,
)
from robustmix.verify import random_hull_mixture, random_instance
from test_instances import CYCLIC, relabelled_grid

README_MIX = [
    {"weight": 0.7502, "type": "hull", "lambda": 0.2234},
    {"weight": 0.9796, "type": "ellipsoid", "lambda": 5.4609},
]
HULL_MIX = [{"weight": 1.0, "type": "hull", "lambda": 0.5}]


def corner_to_corner(width, specs):
    graph, data = gen_synthetic(width, width, 40, "two_block", seed=1)
    inst = Instance.spath(graph, 0, graph.num_nodes - 1)
    return inst, build_mixture(specs, data)


@pytest.fixture
def counted_oracle(monkeypatch):
    """Counts every nominal_solve call the solvers make, failed ones too,
    and records the cost vector each one prices."""
    count = {"calls": 0, "infeasible": 0, "priced": []}

    def counting(*args, **kwargs):
        count["calls"] += 1
        count["priced"].append(args[1])
        try:
            return nominal_solve(*args, **kwargs)
        except InfeasibleError:
            count["infeasible"] += 1
            raise

    monkeypatch.setattr(solvers, "nominal_solve", counting)
    return count


def interval(hi, lo=None):
    hi = np.asarray(hi, dtype=float)
    return IntervalSet(np.zeros_like(hi) if lo is None else np.asarray(lo, float), hi)


IN_PROCESS_FAMILIES = ("interval", "budgeted", "hull", "ellipsoid")


def random_set(rng, n, family):
    """A small random set of one in-process family over n items."""
    lo = rng.uniform(0, 5, n)
    hi = lo + rng.uniform(0, 5, n)
    if family == "interval":
        return IntervalSet(lo, hi)
    if family == "budgeted":
        return BudgetedSet(lo, hi, int(rng.integers(0, n + 1)))
    if family == "hull":
        return HullSet(rng.uniform(0, 10, (int(rng.integers(1, 4)), n)))
    a = rng.normal(size=(n, n))
    return EllipsoidSet(lo, a @ a.T, float(rng.uniform(0, 5)))


def random_mixture(rng, n, families):
    return Mixture(
        tuple((float(rng.uniform(0.1, 1.0)), random_set(rng, n, f)) for f in families)
    )


def bound_cases(rng, count=60):
    """Small random instances, each under one in-process family alone,
    then under two to four drawn at random."""
    for trial in range(count):
        inst = random_instance(rng, max_sel_n=6)
        if trial < len(IN_PROCESS_FAMILIES):
            families = [IN_PROCESS_FAMILIES[trial]]
        else:
            families = rng.choice(IN_PROCESS_FAMILIES, int(rng.integers(2, 5)))
        yield inst, random_mixture(rng, inst.n, families)


def in_set(uset, c, tol=1e-9) -> bool:
    """Does the cost vector c lie in uset, up to rounding?"""
    if isinstance(uset, HullSet):
        return bool((np.abs(uset.points - c).max(axis=1) <= tol).any())
    if isinstance(uset, EllipsoidSet):
        d = c - uset.mu
        return float(d @ np.linalg.solve(uset.sigma, d)) <= uset.lam * (1 + 1e-6) + tol
    inside = bool(np.all(uset.lo - tol <= c) and np.all(c <= uset.hi + tol))
    if isinstance(uset, BudgetedSet):
        dev = uset.deviations
        used = np.divide(c - uset.lo, dev, out=np.zeros_like(c), where=dev > 0)
        inside = inside and used.sum() <= uset.gamma + tol
    return inside


class TestBoundCosts:
    """BnB's node bound prices a completion under a weighted sum of set
    members; it is a valid bound, and optimal=True a proof, only if that
    never exceeds the objective."""

    def test_bound_never_exceeds_objective(self, rng):
        for inst, mix in bound_cases(rng):
            bcosts = mix.bound_costs
            for x in enumerate_feasible(inst):
                bound = float(bcosts @ np.asarray(x, dtype=float))
                assert bound <= evaluate_wrp(mix, x) + 1e-9, (mix.types, x)

    def test_searched_bound_never_exceeds_objective(self, rng, monkeypatch):
        """Every member sum the root search prices is a valid bound, not
        only the chosen one.  Four steps instead of the rule's one, so
        each case prices more best responses."""
        priced = []

        def recording(inst, costs, *args, **kwargs):
            if not (args or kwargs):
                priced.append(costs)
            return nominal_solve(inst, costs, *args, **kwargs)

        monkeypatch.setattr(solvers, "nominal_solve", recording)
        monkeypatch.setattr(solvers, "_search_steps", lambda n: 4)
        best_responses = 0
        for inst, mix in bound_cases(rng):
            priced.clear()
            solve_bnb(inst, mix)
            best_responses += len(priced) - 1
            for costs in priced:
                bcosts = np.array(costs.values)
                for x in enumerate_feasible(inst):
                    bound = float(bcosts @ np.asarray(x, dtype=float))
                    assert bound <= evaluate_wrp(mix, x) + 1e-9, (mix.types, x)
        assert best_responses > 30


class TestEvaluateWrp:
    def test_single_budgeted(self):
        mix = Mixture(((1.0, BudgetedSet(np.zeros(3), np.array([5.0, 3.0, 1.0]), 2)),))
        assert evaluate_wrp(mix, (1, 1, 1)) == 8.0

    def test_weighted_sum(self):
        mix = Mixture(
            (
                (0.5, interval([2.0, 2.0])),
                (0.5, HullSet(np.array([[4.0, 0.0], [0.0, 4.0]]))),
            )
        )
        assert evaluate_wrp(mix, (1, 0)) == 3.0

    def test_all_zeros(self):
        mix = Mixture(((2.0, interval([5.0, 7.0])),))
        assert evaluate_wrp(mix, (0, 0)) == 0.0

    def test_additive_over_components(self, rng):
        n = 5
        x = rng.integers(0, 2, n)
        comps = []
        for _ in range(3):
            lo = rng.uniform(0, 3, n)
            comps.append((float(rng.uniform(0.1, 2)), IntervalSet(lo, lo + rng.uniform(0, 3, n))))
        total = sum(w * float(u.hi @ x) for w, u in comps)
        assert evaluate_wrp(Mixture(tuple(comps)), x) == pytest.approx(total, abs=1e-12)


class TestIntervalMix:
    def test_selection_weighted_upper_bounds(self):
        mix = Mixture(((0.5, interval([1.0, 2.0])), (0.5, interval([3.0, 1.0]))))
        report = solve_interval_mix(Instance.selection(2, 1), mix)
        assert report.solution.x == (0, 1)
        assert report.objective == pytest.approx(1.5)
        assert report.optimal

    def test_diamond_tie_break(self, diamond_inst):
        mix = Mixture(
            (
                (0.5, interval([1.0, 1.0, 5.0, 5.0])),
                (0.5, interval([5.0, 5.0, 1.0, 1.0])),
            )
        )
        report = solve_interval_mix(diamond_inst, mix)
        assert report.objective == pytest.approx(6.0)
        assert report.solution.items == (0, 1)

    def test_rejects_non_interval(self, diamond_inst):
        mix = Mixture(((1.0, HullSet(np.ones((1, 4)))),))
        with pytest.raises(UnsupportedError):
            solve_interval_mix(diamond_inst, mix)

    def test_costs_checked_once_per_mixture(self, monkeypatch):
        """Six pair-solves of one mixture share its checked bound costs."""
        graph, data = gen_synthetic(4, 4, 10, seed=2)
        mix = build_mixture([{"weight": 1.0, "type": "interval", "lambda": 0.5}], data)
        checks = []
        check = uncertainty.check_costs
        monkeypatch.setattr(
            uncertainty, "check_costs", lambda *args: checks.append(args) or check(*args)
        )
        pairs = sample_st_pairs(graph, 6, min_hops=2, seed=2)
        reports = [solve_auto(Instance.spath(graph, s, t), mix) for s, t in pairs]
        assert len(pairs) == 6 and {r.method for r in reports} == {"interval"}
        assert len(checks) == 1

    @pytest.mark.parametrize(
        "solve",
        [solve_interval_mix, solve_bnb, solve_local_search, solve_midpoint_approx],
    )
    def test_mixture_of_another_n_rejected(self, diamond_inst, solve):
        """The memoized costs belong to the mixture's n, not the instance's."""
        three = Mixture(((1.0, HullSet(np.ones((2, 3)))),))
        if solve is solve_interval_mix:
            three = Mixture(((1.0, interval([1.0, 2.0, 3.0])),))
        with pytest.raises(ValueError):
            solve(diamond_inst, three)  # four arcs
        solve_bnb(Instance.selection(3, 1), three)  # memoized for n = 3
        with pytest.raises(ValueError):
            solve(diamond_inst, three)


class TestBudgetedMix:
    def test_single_component(self):
        mix = Mixture(((1.0, BudgetedSet(np.array([1.0, 2.0, 3.0]), np.array([4.0, 3.0, 3.0]), 1)),))
        report = solve_budgeted_mix(Instance.selection(3, 1), mix)
        assert report.objective == pytest.approx(3.0)
        assert report.solution.x == (0, 1, 0)

    def test_two_components(self):
        mix = Mixture(
            (
                (0.5, BudgetedSet(np.array([1.0, 2.0, 3.0]), np.array([4.0, 3.0, 3.0]), 1)),
                (0.5, BudgetedSet(np.zeros(3), np.array([10.0, 1.0, 1.0]), 1)),
            )
        )
        report = solve_budgeted_mix(Instance.selection(3, 1), mix)
        assert report.objective == pytest.approx(2.0)
        assert report.solution.x == (0, 1, 0)

    def test_zero_gamma_is_nominal(self, rng):
        lo = rng.uniform(0, 5, 4)
        mix = Mixture(((1.0, BudgetedSet(lo, lo + rng.uniform(0, 5, 4), 0)),))
        report = solve_budgeted_mix(Instance.selection(4, 2), mix)
        order = np.argsort(lo, kind="stable")
        assert report.objective == pytest.approx(float(lo[order[:2]].sum()), abs=1e-9)

    def test_candidate_cap(self, monkeypatch):
        """Two components of 7 thresholds each: 49 tuples, over a cap of 48."""
        mix = Mixture(
            tuple(
                (1.0, BudgetedSet(np.zeros(6), np.arange(1.0, 7.0), 2))
                for _ in range(2)
            )
        )
        monkeypatch.setattr(solvers, "THRESHOLD_CAP", 48)
        with pytest.raises(CapExceededError, match="49 threshold candidates exceed cap 48"):
            solve_budgeted_mix(Instance.selection(6, 2), mix)
        monkeypatch.setattr(solvers, "THRESHOLD_CAP", 49)
        assert solve_budgeted_mix(Instance.selection(6, 2), mix).optimal

    def test_auto_over_cap_proves_by_bnb(self, monkeypatch):
        """Over the threshold cap, solve_auto falls back to branch and bound."""
        graph, data = gen_synthetic(3, 3, 12, "two_block", seed=3)
        inst = Instance.spath(graph, 0, graph.num_nodes - 1)
        specs = [
            {"weight": 0.5, "type": "budgeted", "lambda": 0.5, "gamma": 2},
            {"weight": 1.0, "type": "budgeted", "lambda": 0.8, "gamma": 1},
        ]
        mix = build_mixture(specs, data)
        assert solve_auto(inst, mix).method == "budgeted-enum"
        monkeypatch.setattr(solvers, "THRESHOLD_CAP", 1)
        report = solve_auto(inst, mix)
        assert report.method == "bnb" and report.optimal
        assert report.objective == solve_brute_force(inst, mix).objective


def per_threshold_reference(inst, mix):
    """The dual-threshold enumeration as one nominal_solve per threshold
    tuple, with solve_budgeted_mix's running-best rule: (x, objective)."""
    lists = [
        sorted(set([0.0] + [float(d) for d in uset.deviations]))
        for _, uset in mix.components
    ]
    best = None
    for pis in itertools.product(*lists):
        costs = np.zeros(inst.n)
        const = 0.0
        for (w, uset), pi in zip(mix.components, pis):
            costs += w * (uset.lo + np.maximum(uset.deviations - pi, 0.0))
            const += w * uset.gamma * pi
        sol = nominal_solve(inst, costs)
        value = sol.value + const
        if best is None or value < best[0] - 1e-12:
            best = (value, sol)
        elif value <= best[0] + 1e-12 and sol.items < best[1].items:
            best = (value, sol)
    return best[1].x, evaluate_wrp(mix, best[1].x)


def integer_budgeted_mixture(rng, n, components):
    """Tie-heavy budgeted sets: integer 0..2 lower bounds and deviations."""
    comps = []
    for _ in range(components):
        lo = rng.integers(0, 3, n).astype(float)
        dev = rng.integers(0, 3, n).astype(float)
        uset = BudgetedSet(lo, lo + dev, int(rng.integers(0, 4)))
        comps.append((float(rng.choice([0.3, 0.5, 1.0])), uset))
    return Mixture(tuple(comps))


def threshold_columns(mix):
    """Number of threshold tuples the enumeration prices."""
    return math.prod(
        len(set([0.0] + uset.deviations.tolist())) for _, uset in mix.components
    )


class TestBudgetedBatchedPricing:
    """solve_budgeted_mix against the per-threshold reference loop: the
    same x and the same objective bits."""

    @staticmethod
    def assert_matches_reference(inst, mix):
        report = solve_budgeted_mix(inst, mix)
        x, obj = per_threshold_reference(inst, mix)
        assert report.solution.x == x
        assert report.objective.hex() == obj.hex()

    def test_relabelled_grids_tie_heavy(self, rng):
        for trial in range(120):
            size = rng.integers(2, 5, 2)
            graph, s, t = relabelled_grid(rng, int(size[0]), int(size[1]))
            mix = integer_budgeted_mixture(rng, graph.n, 1 + trial % 2)
            self.assert_matches_reference(Instance.spath(graph, s, t), mix)

    def test_product_spanning_several_blocks(self, rng):
        graph, s, t = relabelled_grid(rng, 5, 4)  # 31 arcs
        assert graph.n == 31
        comps = []
        for gamma in (2, 3):
            lo = rng.integers(0, 3, graph.n).astype(float)
            dev = rng.integers(0, 40, graph.n) / 4.0
            comps.append((0.5, BudgetedSet(lo, lo + dev, gamma)))
        mix = Mixture(tuple(comps))
        assert threshold_columns(mix) > 2 * solvers.THRESHOLD_BLOCK
        self.assert_matches_reference(Instance.spath(graph, s, t), mix)

    def test_selection_and_cyclic_graph(self, rng):
        for trial in range(40):
            if trial % 2:
                inst = Instance.selection(7, int(rng.integers(1, 5)))
            else:
                inst = Instance.spath(CYCLIC, 0, 4)
            mix = integer_budgeted_mixture(rng, inst.n, 1 + trial // 2 % 2)
            self.assert_matches_reference(inst, mix)

    def test_unreachable_target(self, diamond):
        mix = Mixture(((1.0, BudgetedSet(np.zeros(4), np.ones(4), 1)),))
        with pytest.raises(InfeasibleError, match="no path from 3 to 0"):
            solve_budgeted_mix(Instance.spath(diamond, 3, 0), mix)

    def test_oracle_calls_are_columns_plus_solves(self, counted_oracle, rng):
        """oracle_calls = threshold columns priced + nominal_solve calls."""
        graph, s, t = relabelled_grid(rng, 4, 4)
        for trial in range(20):
            counted_oracle["calls"] = 0
            mix = integer_budgeted_mixture(rng, graph.n, 1 + trial % 2)
            columns = threshold_columns(mix)
            report = solve_budgeted_mix(Instance.spath(graph, s, t), mix)
            assert 1 <= counted_oracle["calls"] <= columns + 1
            assert report.oracle_calls == columns + counted_oracle["calls"]

    def test_no_tie_recovers_only_the_best(self, counted_oracle):
        # thresholds {0, 2} give 2 and 1 + 2: no tie, one recovery
        uset = BudgetedSet(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 3.0]), 1)
        report = solve_budgeted_mix(Instance.selection(3, 1), Mixture(((1.0, uset),)))
        assert report.solution.x == (0, 1, 0)
        assert counted_oracle["calls"] == 1
        assert report.oracle_calls == 2 + 1


class TestMidpointApprox:
    def test_weighted_average_and_guarantee(self):
        mix = Mixture(
            (
                (0.5, HullSet(np.array([[1.0, 3.0], [3.0, 1.0]]))),
                (0.5, HullSet(np.array([[2.0, 2.0]]))),
            )
        )
        report = solve_midpoint_approx(Instance.selection(2, 1), mix)
        assert report.guarantee == 2.0
        assert not report.optimal

    def test_singleton_hulls_exact(self, rng):
        for _ in range(20):
            inst = Instance.selection(4, 2)
            mix = Mixture(
                tuple((1.0, HullSet(rng.uniform(0, 5, (1, 4)))) for _ in range(2))
            )
            mid = solve_midpoint_approx(inst, mix)
            opt = solve_brute_force(inst, mix)
            assert mid.objective == pytest.approx(opt.objective, abs=1e-9)

    def test_two_point_hull_ratio_within_bound(self):
        mix = Mixture(((1.0, HullSet(np.array([[0.0, 10.0], [4.0, 0.0]]))),))
        inst = Instance.selection(2, 1)
        mid = solve_midpoint_approx(inst, mix)
        opt = solve_brute_force(inst, mix)
        assert mid.objective == pytest.approx(4.0)
        assert opt.objective == pytest.approx(4.0)
        assert mid.objective <= mid.guarantee * opt.objective + 1e-9


class TestEllipsoidParametric:
    def test_diagonal_selection(self):
        mix = Mixture(((1.0, EllipsoidSet(np.array([1.0, 2.0]), np.diag([9.0, 0.0]), 1.0)),))
        report = solve_ellipsoid_parametric(Instance.selection(2, 1), mix)
        assert report.solution.x == (0, 1)
        assert report.objective == pytest.approx(2.0)

    def test_zero_lambda_is_nominal(self, rng):
        mu = rng.uniform(1, 5, 4)
        mix = Mixture(((1.0, EllipsoidSet(mu, np.diag(rng.uniform(0, 2, 4)), 0.0)),))
        report = solve_ellipsoid_parametric(Instance.selection(4, 1), mix)
        assert report.objective == pytest.approx(float(mu.min()), abs=1e-9)

    def test_constant_variance_matches_nominal_choice(self, rng):
        mu = rng.uniform(1, 5, 5)
        mix = Mixture(((1.0, EllipsoidSet(mu, np.eye(5), 4.0)),))
        report = solve_ellipsoid_parametric(Instance.selection(5, 2), mix)
        order = np.argsort(mu, kind="stable")
        assert report.solution.items == tuple(sorted(int(i) for i in order[:2]))

    def test_depth_cap_is_not_a_proof(self, monkeypatch):
        """Item 1 lies below the segment from the linear corner (item 0)
        to the variance corner (item 2): one scan step finds it, and a
        cap of 0 stops the scan from proving there is nothing more."""
        ell = EllipsoidSet(np.array([0.0, 0.5, 3.0]), np.diag([4.0, 1.0, 0.0]), 1.0)
        mix = Mixture(((1.0, ell),))
        inst = Instance.selection(3, 1)
        full = solve_ellipsoid_parametric(inst, mix)
        assert full.optimal and full.solution.x == (0, 1, 0)
        monkeypatch.setattr(solvers, "SCAN_DEPTH_CAP", 0)
        report = solve_ellipsoid_parametric(inst, mix)
        assert not report.optimal
        assert report.oracle_calls == 3
        assert report.solution.x in set(enumerate_feasible(inst))
        assert report.objective == evaluate_wrp(mix, report.solution.x)

    def test_rejects_non_diagonal(self):
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        mix = Mixture(((1.0, EllipsoidSet(np.ones(2), sigma, 1.0)),))
        with pytest.raises(UnsupportedError, match="diagonal"):
            solve_ellipsoid_parametric(Instance.selection(2, 1), mix)

    def test_rejects_mixture_without_ellipsoid(self):
        mix = Mixture(((1.0, interval([1.0, 2.0])),))
        with pytest.raises(UnsupportedError, match="no ellipsoid.*solve_interval_mix"):
            solve_ellipsoid_parametric(Instance.selection(2, 1), mix)

    def test_rejects_two_ellipsoids(self):
        e = EllipsoidSet(np.ones(2), np.eye(2), 1.0)
        with pytest.raises(UnsupportedError, match="at most one"):
            solve_ellipsoid_parametric(Instance.selection(2, 1), Mixture(((1.0, e), (1.0, e))))

    def test_rejects_other_set_types(self):
        mix = Mixture(((1.0, EllipsoidSet(np.ones(2), np.eye(2), 1.0)), (1.0, HullSet(np.eye(2)))))
        with pytest.raises(UnsupportedError, match="only interval and ellipsoid"):
            solve_ellipsoid_parametric(Instance.selection(2, 1), mix)

    def test_exact_tie_picks_smaller_item_set(self, diamond_inst):
        """Route (2, 3) is the linear minimum, route (0, 1) the variance
        minimum; both score exactly 2 and the scan's final pick, which
        meets (2, 3) first, must apply the incumbent tie rule."""
        ell = EllipsoidSet(np.array([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 2.0, 2.0]), 1.0)
        mix = Mixture(((1.0, ell),))
        report = solve_ellipsoid_parametric(diamond_inst, mix)
        brute = solve_brute_force(diamond_inst, mix)
        assert evaluate_wrp(mix, (0, 0, 1, 1)) == evaluate_wrp(mix, (1, 1, 0, 0)) == 2.0
        assert report.optimal
        assert report.solution.items == brute.solution.items == (0, 1)
        assert report.objective == brute.objective

    def test_ellipsoid_listed_before_intervals(self, rng):
        """The linear term is the mixture's bound costs, summed in
        component order whatever the ellipsoid's place, and each candidate
        is picked by its true objective."""
        graph, _ = gen_synthetic(3, 3, 2, seed=5)
        inst = Instance.spath(graph, 0, graph.num_nodes - 1)
        for _ in range(20):
            ell = EllipsoidSet(
                rng.uniform(1, 5, inst.n), np.diag(rng.uniform(0, 4, inst.n)),
                float(rng.uniform(0, 5)),
            )
            mix = Mixture(
                ((0.75, ell), (0.5, interval(rng.uniform(1, 3, inst.n))),
                 (0.25, interval(rng.uniform(1, 3, inst.n))))
            )
            report = solve_ellipsoid_parametric(inst, mix)
            brute = solve_brute_force(inst, mix)
            assert report.optimal
            assert report.solution.x == brute.solution.x
            assert report.objective == evaluate_wrp(mix, report.solution.x)
            assert report.objective == brute.objective


@pytest.mark.parametrize(
    "solve", [solve_interval_mix, solve_midpoint_approx, solve_ellipsoid_parametric]
)
def test_oracle_calls_match_counted_oracle(counted_oracle, solve):
    """The reduction and scan methods report every nominal_solve call."""
    graph, data = gen_synthetic(4, 4, 10, "two_block", seed=2)
    inst = Instance.spath(graph, 0, graph.num_nodes - 1)
    rng = np.random.default_rng(2)
    ell = EllipsoidSet(rng.uniform(1, 5, inst.n), np.diag(rng.uniform(0, 4, inst.n)), 4.0)
    mix = {
        solve_interval_mix: build_mixture([{"weight": 1.0, "type": "interval", "lambda": 0.5}], data),
        solve_midpoint_approx: build_mixture(HULL_MIX, data),
        solve_ellipsoid_parametric: Mixture(((0.5, interval(rng.uniform(1, 3, inst.n))), (1.0, ell))),
    }[solve]
    report = solve(inst, mix)
    assert report.oracle_calls == counted_oracle["calls"] >= 1
    if solve is solve_ellipsoid_parametric:
        assert report.method == "parametric" and report.oracle_calls > 3  # the scan ran


class TestBnb:
    def test_hull_diamond(self, diamond_inst):
        mix = Mixture(((1.0, HullSet(np.array([[1.0, 1.0, 5.0, 5.0], [5.0, 5.0, 1.0, 1.0]]))),))
        report = solve_bnb(diamond_inst, mix)
        assert report.objective == pytest.approx(10.0)
        assert report.solution.items == (0, 1)
        assert report.optimal

    def test_matches_interval_solver(self, diamond_inst, rng):
        hi = rng.uniform(1, 5, 4)
        mix = Mixture(((1.0, interval(hi)),))
        assert solve_bnb(diamond_inst, mix).objective == pytest.approx(
            solve_interval_mix(diamond_inst, mix).objective, abs=1e-9
        )

    def test_zero_node_budget(self, diamond_inst):
        mix = Mixture(((1.0, HullSet(np.array([[1.0, 1.0, 5.0, 5.0], [5.0, 5.0, 1.0, 1.0]]))),))
        report = solve_bnb(diamond_inst, mix, max_nodes=0)
        assert not report.optimal
        assert report.nodes_explored == 0
        # the root incumbent is still feasible
        assert sum(report.solution.x) > 0

    @pytest.mark.parametrize("kind", ["hull", "interval"])
    def test_zero_budgets_keep_a_root_proof(self, kind):
        """A budget cuts nothing when the root bound already proves the
        optimum: with no node or no time allowed the search is optimal."""
        graph, data = gen_synthetic(4, 4, 10, seed=1)
        inst = Instance.spath(graph, 0, 15)
        mix = build_mixture([{"weight": 1.0, "type": kind, "lambda": 0.5}], data)
        full = solve_bnb(inst, mix)
        assert full.optimal and full.nodes_explored == 0
        for capped in (solve_bnb(inst, mix, max_nodes=0), solve_bnb(inst, mix, time_limit=0)):
            assert capped.optimal and capped.nodes_explored == 0
            assert capped.solution == full.solution

    @pytest.mark.parametrize("width", [10, 12])
    def test_hull_grid_proven_optimal(self, width):
        inst, mix = corner_to_corner(width, HULL_MIX)
        assert solve_bnb(inst, mix, time_limit=30).optimal

    def test_mixed_grid_matches_brute_force(self):
        inst, mix = corner_to_corner(8, README_MIX)
        report = solve_bnb(inst, mix)
        assert report.optimal
        assert report.solution.x == solve_brute_force(inst, mix).solution.x

    def test_exclude_child_objective_evaluated_only_when_it_can_win(
        self, monkeypatch
    ):
        """An exclude child whose value is above the incumbent's objective
        cannot win, so its objective is not evaluated: fewer evaluations
        than exclude children solved, with brute force's optimum."""
        evaluations = 0
        children = 0

        def counting_eval(mix, x):
            nonlocal evaluations
            evaluations += 1
            return evaluate_wrp(mix, x)

        def counting_solve(inst, costs, forced_in=(), forced_out=()):
            nonlocal children
            sol = nominal_solve(inst, costs, forced_in, forced_out)
            children += bool(forced_out)  # raises before counting if infeasible
            return sol

        monkeypatch.setattr(solvers, "evaluate_wrp", counting_eval)
        monkeypatch.setattr(solvers, "nominal_solve", counting_solve)
        inst, mix = corner_to_corner(8, README_MIX)
        report = solve_bnb(inst, mix)
        monkeypatch.undo()
        assert report.optimal
        assert evaluations < children
        assert report.objective == solve_brute_force(inst, mix).objective

    def test_paper_scale_corner_search_is_pinned(self):
        """The 23x23 corner proof: nodes, oracle calls and the
        objective's bits."""
        inst, mix = corner_to_corner(23, README_MIX)
        report = solve_bnb(inst, mix)
        assert report.optimal
        assert (report.nodes_explored, report.oracle_calls) == (10519, 5124)
        assert report.objective == 486.39358951480006

    def test_benchmark_corner_search_is_pinned(self):
        """The 8x8 corner that perfbench's bnb-prove workload proves:
        nodes, oracle calls and the objective's bits."""
        inst, mix = corner_to_corner(8, README_MIX)
        report = solve_bnb(inst, mix)
        assert report.optimal
        assert (report.nodes_explored, report.oracle_calls) == (277, 113)
        assert report.objective == 175.29909979668906

    def test_caps_stop_every_expansion(self):
        """A node cap stops the 8x8 corner proof after exactly that many
        expansions; no time stops it right after the root."""
        inst, mix = corner_to_corner(8, README_MIX)
        for k in range(0, 277, 7):
            report = solve_bnb(inst, mix, max_nodes=k)
            assert (report.nodes_explored, report.optimal) == (k, False)
        report = solve_bnb(inst, mix, time_limit=0)
        assert (report.nodes_explored, report.optimal) == (0, False)

    def test_exclude_children_reach_the_oracle_with_forced_arcs(
        self, monkeypatch
    ):
        """Each exclude child asks `solvers.exclude_forcing`, and a solved
        one reaches `solvers.nominal_solve` with forced_in holding its
        node's forced arcs, so a node with any forced arc makes a forced
        call: 108 of the 8x8 corner's 111 exclude children (the other
        three have none)."""
        asked, exclude_calls = [], []

        def asking(inst, forced_in, completion, arc):
            asked.append(forced_in)
            return exclude_forcing(inst, forced_in, completion, arc)

        def recording(inst, costs, forced_in=(), forced_out=()):
            if forced_out:
                exclude_calls.append((asked[-1], forced_in))
            return nominal_solve(inst, costs, forced_in, forced_out)

        monkeypatch.setattr(solvers, "exclude_forcing", asking)
        monkeypatch.setattr(solvers, "nominal_solve", recording)
        inst, mix = corner_to_corner(8, README_MIX)
        solve_bnb(inst, mix)
        assert len(asked) == 254 and len(exclude_calls) == 111
        assert all(fin <= set(kept) for fin, kept in exclude_calls)
        assert sum(bool(kept) for _, kept in exclude_calls) == 108
        assert all(kept for fin, kept in exclude_calls if fin)

    def test_time_limit_at_paper_scale(self):
        # the pinned proof above expands 10,519 nodes; the limit stops it
        # before it finishes them
        inst, mix = corner_to_corner(23, README_MIX)
        start = time.monotonic()
        report = solve_bnb(inst, mix, time_limit=0.05)
        assert not report.optimal
        assert time.monotonic() - start < 5.5

    def test_proves_paper_scale_readme_pair(self):
        """README mix on the 203-scenario train split of the paper-scale
        grid; bounded by the fixed members alone, this pair was still
        unproven after 20 s."""
        graph, data = gen_synthetic(23, 23, 271, "two_block", seed=1)
        train = data.subset(split_scenarios(data.K, 0.75, seed=1).train_idx)
        mix = build_mixture(README_MIX, train)
        report = solve_bnb(Instance.spath(graph, 48, 459), mix, time_limit=30)
        assert report.optimal
        assert report.objective == pytest.approx(410.9989, abs=5e-5)

    def test_search_members_lie_in_their_sets(self, monkeypatch):
        """Every best-response member the root search asks a set for is
        a member of it.  An ellipsoid's members may have negative costs;
        on a graph with a directed cycle the search prices none of them."""
        produced, priced = [], []

        def recorder(member_rule):
            def recording(uset, x):
                member = member_rule(uset, x)
                produced.append((uset, member))
                return member

            return recording

        def pricing(inst, costs, **forced):
            priced.append(costs)
            return nominal_solve(inst, costs, **forced)

        for cls in (IntervalSet, BudgetedSet, HullSet, EllipsoidSet):
            monkeypatch.setattr(cls, "member", recorder(cls.member))
        monkeypatch.setattr(solvers, "nominal_solve", pricing)
        monkeypatch.setattr(solvers, "_search_steps", lambda n: 4)
        cases = list(bnb_sweep_cases(np.random.default_rng(20261018), 60))
        cases += list(bound_cases(np.random.default_rng(5)))
        cases += [corner_to_corner(width, README_MIX) for width in (6, 8)]
        rng = np.random.default_rng(11)
        cases += [
            (Instance.spath(CYCLIC, 0, 4), random_mixture(rng, CYCLIC.n, families))
            for families in [("ellipsoid",)] * 10 + [IN_PROCESS_FAMILIES] * 10
        ]
        negative_on_cycle = 0
        for inst, mix in cases:
            start, first_priced = len(produced), len(priced)
            solve_bnb(inst, mix)
            cyclic = inst.kind == "spath" and inst.graph.topological_order is None
            for uset, member in produced[start:]:
                assert in_set(uset, member), uset.name
                negative_on_cycle += cyclic and member.min() < 0
            if cyclic:
                assert all(costs.nonnegative for costs in priced[first_priced:])
        assert negative_on_cycle > 0
        assert {type(uset) for uset, _ in produced} == {
            IntervalSet, BudgetedSet, HullSet, EllipsoidSet
        }

    def test_search_stops_at_a_member_with_a_negative_cost(self):
        # the centre prices; the best response at the root path {2, 3} is
        # the second point, which the path oracle rejects on a graph with
        # a directed cycle, so the search stops there
        # the diamond plus the cycle 1 -> 2 -> 1
        graph = Graph(4, ((0, 1), (1, 3), (0, 2), (2, 3), (1, 2), (2, 1)))
        inst = Instance.spath(graph, 0, 3)
        points = np.array([[3, 3, -1, 0, 5, 5], [-1, 1, 3, 3, 5, 5]], dtype=float)
        mix = Mixture(((1.0, HullSet(points)),))
        report = solve_bnb(inst, mix)
        assert report.optimal
        assert report.objective == solve_brute_force(inst, mix).objective

    def test_oracle_calls_counts_every_attempt(self, counted_oracle):
        graph, data = gen_synthetic(4, 4, 10, "two_block", seed=2)
        inst = Instance.spath(graph, 5, 15)
        report = solve_bnb(inst, build_mixture(README_MIX, data))
        assert report.oracle_calls == counted_oracle["calls"] > 1
        assert counted_oracle["infeasible"] > 0

    def test_rejects_polyhedral(self, diamond_inst):
        from robustmix import PolyhedronSet

        mix = Mixture(((1.0, PolyhedronSet(np.eye(4), np.ones(4))),))
        with pytest.raises(UnsupportedError):
            solve_bnb(diamond_inst, mix)


def bnb_sweep_cases(rng, count):
    """Tie-heavy BnB instances: relabelled grids and selections under one
    to three hull, ellipsoid and budgeted components."""
    for _ in range(count):
        if rng.random() < 0.25:
            n = int(rng.integers(3, 8))
            inst = Instance.selection(n, int(rng.integers(1, n)))
        else:
            graph, s, t = relabelled_grid(
                rng, int(rng.integers(2, 5)), int(rng.integers(2, 5))
            )
            inst = Instance.spath(graph, s, t)
        data = ScenarioMatrix(rng.integers(0, 4, (5, inst.n)).astype(float))
        comps = []
        for _ in range(int(rng.integers(1, 4))):
            kind = ("hull", "ellipsoid", "budgeted")[int(rng.integers(3))]
            if kind == "budgeted":
                lo = rng.integers(0, 3, inst.n).astype(float)
                hi = lo + rng.integers(0, 3, inst.n)
                uset = BudgetedSet(lo, hi, int(rng.integers(0, 3)))
            else:
                spec = {"weight": 1.0, "type": kind, "lambda": float(rng.choice([0.5, 1.0]))}
                uset = build_mixture([spec], data).components[0][1]
            comps.append((float(rng.choice([0.25, 0.5, 1.0])), uset))
        yield inst, Mixture(tuple(comps))


# nodes_explored and oracle_calls of bnb_sweep_cases(default_rng(20261018), 60)
SWEEP_NODES = [
    6, 0, 0, 4, 11, 0, 0, 9, 14, 0, 5, 28, 10, 5, 3, 3, 30, 0, 17, 0,
    13, 3, 12, 57, 18, 19, 5, 12, 5, 5, 0, 10, 3, 7, 12, 7, 4, 10, 0, 13,
    4, 27, 17, 22, 10, 5, 12, 51, 5, 0, 17, 5, 4, 7, 6, 0, 6, 0, 0, 0,
]
SWEEP_CALLS = [
    5, 2, 2, 4, 5, 2, 2, 6, 6, 2, 4, 13, 5, 4, 3, 3, 15, 1, 10, 2,
    12, 4, 5, 42, 8, 7, 4, 6, 4, 6, 2, 5, 4, 8, 8, 5, 3, 4, 2, 8,
    4, 10, 9, 10, 6, 6, 5, 16, 4, 2, 8, 3, 5, 8, 7, 2, 7, 2, 2, 2,
]
# oracle_calls when every exclude child is solved, none skipped by exclude_forcing
SWEEP_CALLS_UNSKIPPED = [
    7, 2, 2, 5, 11, 2, 2, 9, 13, 2, 6, 25, 10, 6, 4, 4, 26, 1, 15, 2,
    12, 4, 11, 42, 16, 17, 6, 11, 6, 6, 2, 10, 4, 8, 12, 7, 5, 10, 2, 12,
    5, 24, 16, 20, 10, 6, 11, 43, 6, 2, 15, 6, 5, 8, 7, 2, 7, 2, 2, 2,
]
# the same with no best-response step: every node bounded by the fixed
# members (hull and ellipsoid centres, budgeted lo)
FIXED_MEMBER_NODES = [
    34, 6, 3, 12, 32, 6, 30, 5, 20, 7, 13, 28, 15, 10, 6, 6, 35, 0, 26, 9,
    32, 8, 12, 104, 18, 19, 18, 12, 14, 49, 15, 10, 8, 34, 28, 11, 11, 20, 3, 20,
    11, 43, 34, 22, 40, 17, 12, 51, 10, 12, 17, 19, 28, 34, 6, 10, 26, 10, 34, 11,
]
FIXED_MEMBER_CALLS = [
    14, 3, 2, 5, 11, 5, 14, 3, 6, 4, 5, 12, 6, 4, 3, 3, 17, 1, 11, 4,
    23, 6, 4, 70, 7, 6, 7, 5, 6, 35, 6, 4, 6, 28, 11, 5, 5, 7, 2, 8,
    5, 15, 15, 9, 16, 14, 4, 15, 5, 7, 7, 7, 20, 28, 6, 6, 21, 5, 28, 5,
]


class TestBnbNodeLoop:
    """The node loop's work: search shape pinned, one checked cost vector."""

    def test_fixed_seed_sweep_pins_nodes_and_calls(self):
        cases = bnb_sweep_cases(np.random.default_rng(20261018), 60)
        reports = [solve_bnb(inst, mix) for inst, mix in cases]
        assert all(r.optimal for r in reports)
        assert [r.nodes_explored for r in reports] == SWEEP_NODES
        assert [r.oracle_calls for r in reports] == SWEEP_CALLS

    def test_sweep_without_search_steps_bounds_with_fixed_members(self, monkeypatch):
        monkeypatch.setattr(solvers, "_search_steps", lambda n: 0)
        cases = bnb_sweep_cases(np.random.default_rng(20261018), 60)
        reports = [solve_bnb(inst, mix) for inst, mix in cases]
        assert all(r.optimal for r in reports)
        assert [r.nodes_explored for r in reports] == FIXED_MEMBER_NODES
        assert [r.oracle_calls for r in reports] == FIXED_MEMBER_CALLS

    def test_sweep_without_skips_solves_every_exclude_child(self, monkeypatch):
        def never_skip(inst, forced_in, completion, arc):
            kept = exclude_forcing(inst, forced_in, completion, arc)
            return forced_in if kept is None else kept

        monkeypatch.setattr(solvers, "exclude_forcing", never_skip)
        cases = bnb_sweep_cases(np.random.default_rng(20261018), 60)
        reports = [solve_bnb(inst, mix) for inst, mix in cases]
        assert [r.nodes_explored for r in reports] == SWEEP_NODES
        assert [r.oracle_calls for r in reports] == SWEEP_CALLS_UNSKIPPED

    def test_every_skipped_child_is_infeasible(self, monkeypatch):
        """Each exclude child that exclude_forcing skips raises
        InfeasibleError."""
        skipped = []

        def checked_skip(inst, forced_in, completion, arc):
            kept = exclude_forcing(inst, forced_in, completion, arc)
            if kept is None:
                skipped.append(arc)
                # infeasible even with nothing else forced out
                with pytest.raises(InfeasibleError):
                    nominal_solve(inst, np.ones(inst.n), forced_in, {arc})
            return kept

        monkeypatch.setattr(solvers, "exclude_forcing", checked_skip)
        cases = list(bnb_sweep_cases(np.random.default_rng(20261018), 60))
        cases.append(corner_to_corner(6, README_MIX))
        for inst, mix in cases:
            solve_bnb(inst, mix)
        assert len(skipped) > 100

    # sweep case: (nodes, oracle calls, items, item branched on at each
    # expansion), pinned from an earlier node loop that, like this one,
    # popped every node from its heap
    ORDER_RULE_CASES = {
        23: (57, 42, (0, 1, 3, 4), [
            2, 0, 0, 1, 1, 1, 3, 3, 3, 3, 4, 4, 4, 5, 5, 5, 4, 5, 5, 5,
            1, 6, 3, 6, 3, 6, 6, 6, 6, 3, 1, 4, 3, 4, 3, 4, 3, 4, 4, 4,
        ]),
        43: (22, 10, (2, 5, 6, 11, 13, 17), [
            2, 13, 15, 5, 13, 6, 5, 11, 11, 17, 17, 19, 18, 22, 3, 4, 11, 22,
        ]),
    }

    @pytest.mark.parametrize("case", sorted(ORDER_RULE_CASES))
    def test_include_child_behind_an_equal_bound_node_is_queued(
        self, monkeypatch, case
    ):
        """An include child goes on the heap like every other node, so
        in these tie-heavy cases it waits behind queued nodes with the
        same bound and a smaller tie counter; nodes, calls, items and
        the order in which items are branched on keep their pins."""
        nodes, calls, items, branched = self.ORDER_RULE_CASES[case]

        def asking(inst, forced_in, completion, arc):
            order.append(arc)
            return exclude_forcing(inst, forced_in, completion, arc)

        order = []
        monkeypatch.setattr(solvers, "exclude_forcing", asking)
        inst, mix = list(bnb_sweep_cases(np.random.default_rng(20261018), 60))[case]
        report = solve_bnb(inst, mix)
        assert (report.nodes_explored, report.oracle_calls) == (nodes, calls)
        assert report.solution.items == items
        assert order == branched

    @staticmethod
    def recording_oracle(monkeypatch):
        """Every nominal_solve call's cost argument, failed calls too."""
        seen = []

        def recording(inst, costs, *args, **kwargs):
            seen.append(costs)
            return nominal_solve(inst, costs, *args, **kwargs)

        monkeypatch.setattr(solvers, "nominal_solve", recording)
        return seen

    def test_bnb_passes_one_checked_vector_to_every_call(self, monkeypatch):
        """The root search checks each member sum once; every node-loop
        call shares the OracleCosts of the sum with the largest value."""
        calls = []

        def recording(inst, costs, forced_in=(), forced_out=()):
            calls.append((costs, bool(forced_in or forced_out)))
            return nominal_solve(inst, costs, forced_in, forced_out)

        monkeypatch.setattr(solvers, "nominal_solve", recording)
        inst, mix = corner_to_corner(6, README_MIX)
        report = solve_bnb(inst, mix)
        assert report.oracle_calls == len(calls) > 10
        searched = [costs for costs, forced in calls if not forced]
        assert len(searched) == 1 + solvers._search_steps(inst.n)
        assert all(isinstance(costs, OracleCosts) for costs in searched)
        assert calls[: len(searched)] == [(costs, False) for costs in searched]
        chosen = max(searched, key=lambda costs: nominal_solve(inst, costs).value)
        assert all(costs is chosen for costs, _ in calls[len(searched) :])

    def test_local_search_passes_one_checked_vector_to_every_detour(
        self, monkeypatch
    ):
        seen = self.recording_oracle(monkeypatch)
        graph, data = gen_synthetic(4, 4, 10, "two_block", seed=2)
        inst = Instance.spath(graph, 5, 15)
        report = solve_local_search(inst, build_mixture(HULL_MIX, data), restarts=3)
        assert report.oracle_calls == len(seen)
        detours = [c for c in seen if isinstance(c, OracleCosts)]
        assert len(detours) == len(seen) - 4  # one raw start per restart
        assert all(costs is detours[0] for costs in detours)

    @pytest.mark.xfail(
        strict=True,
        reason="solve_bnb prunes a subtree whose bound equals the incumbent's "
        "objective, which can hold a lexicographically smaller optimum",
    )
    def test_tie_breaks_to_smallest_item_set(self):
        # items 1 and 2 tie at 1.0; the root completes to item 2, and
        # the exclude child that reaches item 1 has bound 1.0, equal to
        # the incumbent's objective, so it is pruned
        inst = Instance.selection(3, 1)
        data = ScenarioMatrix(np.array([[0.0, 1.0, 1.0], [2.0, 1.0, 0.0]]))
        mix = build_mixture([{"weight": 1.0, "type": "hull", "lambda": 1.0}], data)
        report = solve_bnb(inst, mix)
        brute = solve_brute_force(inst, mix)
        assert report.objective == brute.objective == 1.0
        assert report.solution.items == brute.solution.items == (1,)


class TestBruteForce:
    def test_selection_candidate_count(self):
        mix = Mixture(((1.0, interval([1.0, 2.0, 3.0])),))
        report = solve_brute_force(Instance.selection(3, 1), mix)
        assert report.oracle_calls == 3

    def test_diamond_candidate_count(self, diamond_inst):
        mix = Mixture(((1.0, interval([1.0, 1.0, 1.0, 1.0])),))
        report = solve_brute_force(diamond_inst, mix)
        assert report.oracle_calls == 2

    def test_grid_monotone_path_count(self, monkeypatch):
        graph, _ = gen_synthetic(4, 4, 2, seed=0)
        inst = Instance.spath(graph, 0, 15)
        mix = Mixture(((1.0, interval(np.ones(graph.n))),))
        monkeypatch.setattr(solvers, "BRUTE_FORCE_CAP", 20)
        report = solve_brute_force(inst, mix)
        assert report.oracle_calls == 20  # C(6, 3) monotone lattice paths
        monkeypatch.setattr(solvers, "BRUTE_FORCE_CAP", 19)
        with pytest.raises(CapExceededError, match="enumeration exceeds cap 19"):
            solve_brute_force(inst, mix)

    def test_no_path_is_infeasible(self, diamond):
        mix = Mixture(((1.0, interval([1.0, 1.0, 1.0, 1.0])),))
        with pytest.raises(InfeasibleError, match="empty feasible set"):
            solve_brute_force(Instance.spath(diamond, 3, 0), mix)


class TestLocalSearch:
    def test_diamond_matches_brute(self, diamond_inst, rng):
        for _ in range(10):
            mix = random_hull_mixture(rng, 4)
            ls = solve_local_search(diamond_inst, mix)
            bf = solve_brute_force(diamond_inst, mix)
            assert ls.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_zero_restarts_single_descent(self):
        mix = Mixture(((1.0, interval([1.0, 2.0, 3.0])),))
        report = solve_local_search(Instance.selection(3, 1), mix, restarts=0)
        assert report.oracle_calls == 1
        assert report.solution.x == (1, 0, 0)

    def test_oracle_calls_counts_every_attempt(self, counted_oracle):
        # acyclic: path counts skip every detour that no path can take
        graph, data = gen_synthetic(4, 4, 10, "two_block", seed=2)
        inst = Instance.spath(graph, 5, 15)
        report = solve_local_search(inst, build_mixture(HULL_MIX, data))
        assert report.oracle_calls == counted_oracle["calls"] > 4
        assert counted_oracle["infeasible"] == 0
        # a directed cycle: failed detours are attempted and counted
        cyclic = Graph(7, CYCLIC.arcs + ((5, 6), (6, 5)))
        inst = Instance.spath(cyclic, 0, 4)
        mix = Mixture(((1.0, interval(np.arange(1.0, 12.0))),))
        attempts = counted_oracle["calls"]
        report = solve_local_search(inst, mix)
        assert report.oracle_calls == counted_oracle["calls"] - attempts
        assert counted_oracle["infeasible"] > 0

    def test_never_reports_optimal(self, diamond_inst):
        mix = Mixture(((1.0, interval([1.0, 1.0, 1.0, 1.0])),))
        assert not solve_local_search(diamond_inst, mix).optimal

    def test_start_prices_negative_bound_costs_as_given(self, diamond_inst, counted_oracle):
        """The sign rule lives in the oracle alone: on an acyclic graph
        the first start is the bound costs, negative entries and all."""
        mix = Mixture(((1.0, interval([-0.5, 1.0, 3.0, 1.0], lo=[-1.0, 0.0, 0.0, 0.0])),))
        report = solve_local_search(diamond_inst, mix, restarts=0)
        assert np.array_equal(counted_oracle["priced"][0], mix.bound_costs)
        assert report.solution.x == (1, 1, 0, 0)


class TestExactness:
    """All dedicated solvers agree with brute force, including tie-breaks."""

    def test_interval_random(self, rng):
        for _ in range(30):
            inst = random_instance(rng, max_sel_n=8)
            comps = []
            for _ in range(int(rng.integers(1, 4))):
                lo = rng.uniform(0, 5, inst.n)
                comps.append((float(rng.uniform(0.1, 1)), IntervalSet(lo, lo + rng.uniform(0, 5, inst.n))))
            mix = Mixture(tuple(comps))
            a = solve_interval_mix(inst, mix)
            b = solve_brute_force(inst, mix)
            assert a.objective == pytest.approx(b.objective, abs=1e-9)
            assert a.solution.x == b.solution.x

    def test_auto_dispatch_methods(self, rng):
        from robustmix.verify import random_budgeted_mixture

        methods = set()
        for _ in range(30):
            inst = random_instance(rng, max_sel_n=6)
            if rng.integers(2):
                mix = random_budgeted_mixture(rng, inst.n)
            else:
                mix = random_hull_mixture(rng, inst.n)
            report = solve_auto(inst, mix)
            methods.add(report.method)
            assert report.optimal
            best = solve_brute_force(inst, mix)
            assert report.objective == pytest.approx(best.objective, abs=1e-9)
        assert {"budgeted-enum", "bnb"} <= methods

    def test_auto_interval_and_parametric_paths(self, rng):
        """A diagonal ellipsoid goes to the proven BnB, not the parametric scan."""
        data_costs = rng.uniform(1, 5, (8, 4))
        from robustmix import ScenarioMatrix, build_mixture

        data = ScenarioMatrix(data_costs)
        inst = Instance.selection(4, 2)
        rep_i = solve_auto(inst, build_mixture([{"weight": 1.0, "type": "interval", "lambda": 0.5}], data))
        assert rep_i.method == "interval"
        mix_e = Mixture(((1.0, EllipsoidSet(rng.uniform(1, 5, 4), np.diag(rng.uniform(0, 2, 4)), 2.0)),))
        rep_e = solve_auto(inst, mix_e)
        assert rep_e.method == "bnb" and rep_e.optimal
        best = solve_brute_force(inst, mix_e)
        assert rep_e.objective == pytest.approx(best.objective, abs=1e-9)


def tie_heavy_cases(rng, count):
    """Small relabelled grids (corner to corner) and selections with
    integer scenario costs 0..3 over 2 or 4 scenarios: the means and
    the lambda-scaled bounds are exact binary fractions, so equal
    objectives tie exactly."""
    for _ in range(count):
        if rng.random() < 0.3:
            n = int(rng.integers(3, 8))
            inst = Instance.selection(n, int(rng.integers(1, n)))
        else:
            graph, s, t = relabelled_grid(
                rng, int(rng.integers(2, 5)), int(rng.integers(2, 5))
            )
            inst = Instance.spath(graph, s, t)
        costs = rng.integers(0, 4, (int(rng.choice([2, 4])), inst.n)).astype(float)
        yield inst, ScenarioMatrix(costs)


def tie_heavy_specs(rng, types, n):
    """One to three components of the given types, tie-friendly weights
    and lambdas."""
    specs = []
    for _ in range(int(rng.integers(1, 4))):
        set_type = str(rng.choice(types))
        spec = {
            "weight": float(rng.choice([0.25, 0.5, 1.0])),
            "type": set_type,
            "lambda": float(rng.choice([0.0, 0.5, 1.0])),
        }
        if set_type == "budgeted":
            spec["gamma"] = int(rng.integers(0, min(n, 3) + 1))
        specs.append(spec)
    return specs


class TestTieHeavyDifferential:
    """Exact solvers against brute force on integer data, where exact
    objective ties are common: the interval and budgeted solvers return
    brute force's x, the lexicographically smallest optimal item set;
    branch-and-bound proves brute force's objective with a feasible x
    that attains it."""

    @pytest.mark.parametrize(
        "solve, set_type",
        [(solve_interval_mix, "interval"), (solve_budgeted_mix, "budgeted")],
    )
    def test_same_x_as_brute_force(self, rng, solve, set_type):
        ties = 0
        for inst, data in tie_heavy_cases(rng, 150):
            mix = build_mixture(tie_heavy_specs(rng, [set_type], inst.n), data)
            report = solve(inst, mix)
            brute = solve_brute_force(inst, mix)
            assert report.solution.x == brute.solution.x
            assert report.objective == brute.objective
            values = [evaluate_wrp(mix, x) for x in enumerate_feasible(inst)]
            ties += values.count(brute.objective) > 1
        assert ties > 20  # the data is tie-heavy

    def test_parametric_same_x_as_brute_force(self, rng):
        """The scan on a diagonal ellipsoid with integer means and
        variances, plus an integer interval in about 70% of the cases."""
        ties = 0
        for inst, _ in tie_heavy_cases(rng, 150):
            ell = EllipsoidSet(
                rng.integers(0, 4, inst.n).astype(float),
                np.diag(rng.choice([0.0, 1.0, 4.0], inst.n)),
                float(rng.choice([0.0, 1.0, 4.0])),
            )
            comps = [(float(rng.choice([0.25, 0.5, 1.0])), ell)]
            if rng.random() < 0.7:
                lo = rng.integers(0, 4, inst.n).astype(float)
                box = IntervalSet(lo, lo + rng.integers(0, 4, inst.n))
                comps.append((float(rng.choice([0.25, 0.5, 1.0])), box))
            mix = Mixture(tuple(comps))
            report = solve_ellipsoid_parametric(inst, mix)
            brute = solve_brute_force(inst, mix)
            assert report.optimal
            assert report.solution.x == brute.solution.x
            assert report.objective == brute.objective
            values = [evaluate_wrp(mix, x) for x in enumerate_feasible(inst)]
            ties += values.count(brute.objective) > 1
        assert ties > 10  # the data is tie-heavy

    def test_bnb_proves_brute_force_objective(self, rng):
        cases = [
            (inst, build_mixture(
                tie_heavy_specs(rng, ["interval", "budgeted", "hull", "ellipsoid"], inst.n),
                data,
            ))
            for inst, data in tie_heavy_cases(rng, 80)
        ]
        cases += bnb_sweep_cases(np.random.default_rng(20261018), 60)
        for inst, mix in cases:
            report = solve_bnb(inst, mix)
            brute = solve_brute_force(inst, mix)
            assert report.optimal
            assert report.objective == pytest.approx(brute.objective, rel=1e-12, abs=1e-12)
            assert report.solution.x in set(enumerate_feasible(inst))
            assert evaluate_wrp(mix, report.solution.x) == report.objective
