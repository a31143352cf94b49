import gc
import hashlib
import json
import math
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from robustmix import ConfigSpace, Solution, baseline_grid, gen_synthetic, sample_st_pairs, tune
from robustmix import solvers, tuning
from robustmix.evaluation import (
    ALPHA,
    Metrics,
    mean_metrics,
    pair_metrics,
    score,
    split_scenarios,
    tail_count,
)
from robustmix.solvers import evaluate_wrp
from robustmix.tuning import (
    BASELINE_NODE_CAP,
    TUNABLE_TYPES,
    Config,
    ParentSpec,
    baseline_lambdas,
    perturb_config,
    sample_config,
    solve_for_pair,
)
from robustmix.uncertainty import LAMBDA_RANGES, ScenarioMatrix, build_mixture, build_set


@pytest.fixture(scope="module")
def small_problem():
    graph, data = gen_synthetic(3, 3, 12, seed=4)
    pairs = sample_st_pairs(graph, 3, min_hops=2, seed=4)
    split = split_scenarios(data.K, 0.75, seed=4)
    return graph, data, pairs, split


class TestSampleConfig:
    def test_draws_mostly_distinct(self, rng):
        space = ConfigSpace()
        configs = [sample_config(space, rng) for _ in range(100)]
        assert len(set(configs)) >= 99

    def test_lambdas_in_range(self, rng):
        space = ConfigSpace()
        for _ in range(50):
            for parent in sample_config(space, rng).parents:
                lo, hi = LAMBDA_RANGES[parent.set_type]
                assert lo <= parent.lam <= hi
                assert 0.0 <= parent.weight <= 1.0

    def test_perturb_draws_one_normal_per_step(self):
        """Bit for bit and draw for draw, each parent's lambda then weight
        step is `rng.normal(0.0, sigma)`, as if drawn one call at a time."""
        space, draws = ConfigSpace(), np.random.default_rng(11)
        for trial in range(200):
            cfg = sample_config(space, draws)
            rng, ref_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            got = perturb_config(cfg, rng)
            parents = []
            for parent in cfg.parents:
                lo, hi = LAMBDA_RANGES[parent.set_type]
                lam = parent.lam + ref_rng.normal(0.0, 0.1 * (hi - lo))
                weight = parent.weight + ref_rng.normal(0.0, 0.1)
                parents.append((min(max(lam, lo), hi), min(max(weight, 0.0), 1.0)))
            assert [(p.lam.hex(), p.weight.hex()) for p in got.parents] == [
                (lam.hex(), weight.hex()) for lam, weight in parents
            ]
            assert [p.set_type for p in got.parents] == [p.set_type for p in cfg.parents]
            assert rng.random() == ref_rng.random()  # the same draws were used

    def test_perturb_stays_in_range(self, rng):
        space = ConfigSpace()
        cfg = sample_config(space, rng)
        for _ in range(50):
            cfg = perturb_config(cfg, rng)
            for parent in cfg.parents:
                lo, hi = LAMBDA_RANGES[parent.set_type]
                assert lo <= parent.lam <= hi
                assert 0.0 <= parent.weight <= 1.0

    def test_space_validation(self):
        with pytest.raises(ValueError):
            ConfigSpace(budget=0)
        with pytest.raises(ValueError):
            ConfigSpace(max_parents=0)

    def test_default_types_build_from_type_and_lambda(self, rng):
        data = ScenarioMatrix(rng.uniform(1, 5, (6, 4)))
        for set_type in TUNABLE_TYPES:
            lo, hi = LAMBDA_RANGES[set_type]
            assert build_set(data, set_type, hi).name == set_type


class TestTune:
    def test_budget_one(self, small_problem):
        graph, data, pairs, split = small_problem
        result = tune(
            ConfigSpace(budget=1), graph, pairs, data, split, (0.4, 0.3, 0.3), seed=2
        )
        assert result.evaluations == 1
        assert not result.completed_full_eval
        assert len(result.best.parents) >= 1

    def test_deterministic(self, small_problem):
        graph, data, pairs, split = small_problem
        kwargs = dict(w=(0.4, 0.3, 0.3), seed=7)
        a = tune(ConfigSpace(budget=120), graph, pairs, data, split, **kwargs)
        b = tune(ConfigSpace(budget=120), graph, pairs, data, split, **kwargs)
        assert a.best == b.best
        assert a.best_cost == b.best_cost
        assert [e.cost for e in a.trace] == [e.cost for e in b.trace]

    def test_budget_respected_and_best_of_trace(self, small_problem):
        graph, data, pairs, split = small_problem
        result = tune(
            ConfigSpace(budget=200), graph, pairs, data, split, (0.4, 0.3, 0.3), seed=3
        )
        assert result.evaluations <= 200
        assert result.completed_full_eval
        full = [e for e in result.trace if e.pairs_used == len(pairs)]
        assert result.best_cost <= min(e.cost for e in full) + 1e-12

    def test_flat_landscape_returns_nominal_cost(self):
        graph, _ = gen_synthetic(3, 3, 4, seed=0)
        data = ScenarioMatrix(np.tile(np.arange(1.0, graph.n + 1.0), (4, 1)))
        pairs = [(0, graph.num_nodes - 1)]
        split = split_scenarios(4, 0.5, seed=0)
        space = ConfigSpace(max_parents=1, budget=30)
        result = tune(space, graph, pairs, data, split, (1.0, 0.0, 0.0), seed=0)
        from robustmix.instances import Instance, nominal_solve

        inst = Instance.spath(graph, pairs[0][0], pairs[0][1])
        nominal = nominal_solve(inst, data.costs[0])
        assert result.best_cost == pytest.approx(nominal.value, abs=1e-9)

    def test_empty_pairs_rejected(self, small_problem):
        graph, data, _, split = small_problem
        with pytest.raises(ValueError, match="empty pair"):
            tune(ConfigSpace(budget=5), graph, [], data, split, (1, 0, 0))

    @pytest.mark.parametrize(
        "w",
        [(-1, 0, 0), (math.nan, 0, 0), (0, math.inf, 0), (1, 0), (1, 0, 0, 0), None],
        ids=["negative", "nan", "inf", "two", "four", "none"],
    )
    def test_bad_weights_rejected_before_any_build_or_solve(self, monkeypatch, w):
        """Each of these raised only after the whole budget was solved, or
        (NaN) returned best_cost=nan."""
        graph, data = gen_synthetic(5, 5, 30, "two_block", seed=1)
        pairs = sample_st_pairs(graph, 9, min_hops=3, seed=1)
        split = split_scenarios(data.K, 0.75, seed=1)
        calls = []
        monkeypatch.setattr(tuning, "build_mixture", lambda *a: calls.append("build"))
        monkeypatch.setattr(tuning, "solve_for_pair", lambda *a: calls.append("solve"))
        with pytest.raises(ValueError, match="three finite, nonnegative numbers"):
            tune(ConfigSpace(budget=50), graph, pairs, data, split, w, seed=2)
        assert calls == []


class TestRaceTrajectory:
    """The whole race, pinned: each configuration drawn, each pair count
    and each cost bit.  This case eliminates configurations, resets on
    stagnation and runs out of budget mid-generation."""

    def test_trajectory_is_pinned(self):
        graph, data = gen_synthetic(5, 5, 30, "two_block", seed=1)
        pairs = sample_st_pairs(graph, 9, min_hops=3, seed=1)
        split = split_scenarios(data.K, 0.75, seed=1)
        result = tune(
            ConfigSpace(budget=400), graph, pairs, data, split, (0.4, 0.3, 0.3), seed=2
        )
        entries = [
            (e.generation, e.config_id, e.pairs_used, e.cost.hex(), e.config.to_specs())
            for e in result.trace
        ]
        digest = hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()
        assert result.best_cost.hex() == "0x1.5c68501f40c55p+5"
        assert result.evaluations == 400 and result.completed_full_eval
        assert len({e.config_id for e in result.trace}) == 45
        assert result.trace[-1].generation == 4
        assert digest == "df44e50e4115b6210e73c44404c82ebe077310af10c4f1ed97d9fc8880c9f752"


    def test_eliminated_mixtures_are_collected(self, monkeypatch):
        """The pinned race builds 45 mixtures with at most 20 configurations
        alive; an eliminated configuration's mixture is released."""
        graph, data = gen_synthetic(5, 5, 30, "two_block", seed=1)
        pairs = sample_st_pairs(graph, 9, min_hops=3, seed=1)
        split = split_scenarios(data.K, 0.75, seed=1)
        built, most_alive = [], 0

        def tracked(specs, train):
            nonlocal most_alive
            mix = build_mixture(specs, train)
            built.append(weakref.ref(mix))
            gc.collect()
            most_alive = max(most_alive, sum(ref() is not None for ref in built))
            return mix

        monkeypatch.setattr(tuning, "build_mixture", tracked)
        tune(ConfigSpace(budget=400), graph, pairs, data, split, (0.4, 0.3, 0.3), seed=2)
        assert len(built) == 45
        assert most_alive <= tuning.GENERATION_SIZE


class TestObjectiveOnRead:
    def test_tune_prices_no_interval_solve(self, monkeypatch):
        """On the criterion-7 instance the race reads only x from its
        interval answers, solved or filled from a pair's record, so none
        evaluates its objective; a later read computes it, bit for bit
        `evaluate_wrp(mix, x)`, and equality, hash and repr, each read
        first, match the eager solution."""
        graph, data = gen_synthetic(6, 6, 40, "two_block", seed=1)
        pairs = sample_st_pairs(graph, 6, min_hops=4, seed=1)
        split = split_scenarios(data.K, 0.75, seed=1)
        evaluations, solves = [], []

        def counting(mix, x):
            evaluations.append(1)
            return evaluate_wrp(mix, x)

        def recording(graph, pair, mix, *args, **kwargs):
            count = len(evaluations)
            report = solve_for_pair(graph, pair, mix, *args, **kwargs)
            if report.method == "interval":
                assert len(evaluations) == count
                solves.append((mix, report))
            return report

        monkeypatch.setattr(solvers, "evaluate_wrp", counting)
        monkeypatch.setattr(tuning, "solve_for_pair", recording)
        tune(ConfigSpace(budget=2000), graph, pairs, data, split, (0.4, 0.3, 0.3), seed=1)
        assert len(solves) > 1000
        # both filled answers (no oracle call) and solved ones (one) occur
        assert {report.oracle_calls for _, report in solves} == {0, 1}
        probes = [
            lambda sol, eager: sol.value == eager.value,
            lambda sol, eager: sol == eager,
            lambda sol, eager: hash(sol) == hash(eager),
            lambda sol, eager: repr(sol) == repr(eager),
        ]
        for i, (mix, report) in enumerate(solves):
            x = report.solution.x
            eager = Solution(x, evaluate_wrp(mix, x))
            count = len(evaluations)
            assert probes[i % len(probes)](report.solution, eager)
            assert len(evaluations) == count + 1  # the probe priced it once
            assert report.objective.hex() == eager.value.hex()
            assert (report.solution, hash(report.solution)) == (eager, hash(eager))
            assert len(evaluations) == count + 1


def interval_answer(graph, data, pair, record, *parents):
    """`solve_for_pair` with `record` for the all-interval configuration
    of (weight, lambda) `parents`, as `tune` calls it; returns the mix,
    the report and the report of a plain solve of the same mix."""
    config = Config(tuple(ParentSpec("interval", lam, w) for w, lam in parents))
    mix = build_mixture(config.to_specs(), data)
    bracket = (tuning._interval_t(config), record)
    report = solve_for_pair(graph, pair, mix, bracket=bracket)
    return mix, report, solve_for_pair(graph, pair, mix)


def test_interval_t_is_a_left_fold():
    # sum() of floats is compensated from Python 3.12 and gives 0.6 here
    parents = [(0.1, 0.7), (0.2, 0.1), (0.3, 0.9)]
    config = Config(tuple(ParentSpec("interval", lam, w) for w, lam in parents))
    assert tuning._interval_t(config).hex() == (0.5999999999999999).hex()


class TestPairRecord:
    """`solve_for_pair`'s fill rule: an all-interval answer is taken from
    the pair's record strictly between two entries with the same x, and
    solved and recorded everywhere else."""

    PAIR = (0, 15)  # its path changes once, between lambda 0.2 and 0.3

    @pytest.fixture(scope="class")
    def skewed(self):
        graph, _ = gen_synthetic(4, 4, 20, "mult", 1)
        rng = np.random.default_rng(0)
        base, spread = rng.uniform(1.0, 10.0, (2, graph.n))
        return graph, ScenarioMatrix(base + spread * rng.random((20, graph.n)) ** 4)

    def answer(self, skewed, record, *parents):
        return interval_answer(*skewed, self.PAIR, record, *parents)

    def test_fills_strictly_between_two_entries_with_the_same_x(self, skewed):
        record = ([], [])
        _, low, _ = self.answer(skewed, record, (1.0, 0.0))
        _, high, _ = self.answer(skewed, record, (1.0, 0.2))
        assert low.solution.x == high.solution.x and record[0] == [0.0, 0.2]
        # t near 0.1 from one parent, from two, and from one beside a zero weight
        for parents in [
            ((1.0, 0.1),),
            ((0.5, 0.0), (0.25, 0.3)),
            ((0.3, 0.1), (0.0, 0.9)),
        ]:
            mix, report, solved = self.answer(skewed, record, *parents)
            assert report.oracle_calls == 0 and record[0] == [0.0, 0.2]
            assert report.solution.x == solved.solution.x == low.solution.x
            assert (report.method, report.optimal) == ("interval", True)
            assert report.objective.hex() == evaluate_wrp(mix, report.solution.x).hex()

    def test_solves_and_records_outside_a_bracket(self, skewed):
        record = ([], [])
        for lam, t_after in [
            (0.1, [0.1]),
            (0.5, [0.1, 0.5]),
            (0.3, [0.1, 0.3, 0.5]),  # between two different x
            (0.05, [0.05, 0.1, 0.3, 0.5]),  # below the smallest t
            (0.9, [0.05, 0.1, 0.3, 0.5, 0.9]),  # above the largest t
        ]:
            _, report, solved = self.answer(skewed, record, (1.0, lam))
            assert report.oracle_calls == 1 and report.solution.x == solved.solution.x
            assert record[0] == t_after
        xs = record[1]
        assert xs == [
            self.answer(skewed, ([], []), (1.0, t))[2].solution.x for t in record[0]
        ]
        assert xs[1] != xs[3]  # 0.3 lay between two different x

    def test_equal_t_is_solved(self):
        """At lambda 1 the interval bounds of integer data are integers, so
        paths tie exactly; weights 1.0 and 0.3 round the tie apart.  An
        answer at a recorded t is therefore solved, not filled."""
        graph, data = gen_synthetic(3, 3, 12, "mult", 8)
        data = ScenarioMatrix(np.round(data.costs))
        data = data.subset(split_scenarios(data.K, 0.75, seed=8).train_idx)
        record = ([], [])
        _, first, _ = interval_answer(graph, data, (0, 5), record, (1.0, 1.0))
        _, report, solved = interval_answer(graph, data, (0, 5), record, (0.3, 1.0))
        assert report.oracle_calls == 1 and record[0] == [1.0, 1.0]
        assert report.solution.x == solved.solution.x != first.solution.x

    def test_tune_records_only_weighted_interval_configs(self, monkeypatch):
        """On the criterion-7 race a record is passed exactly for the
        all-interval configurations whose weights sum to more than 0."""
        graph, data = gen_synthetic(6, 6, 40, "two_block", seed=1)
        pairs = sample_st_pairs(graph, 6, min_hops=4, seed=1)
        split = split_scenarios(data.K, 0.75, seed=1)
        kinds = set()

        def checking(graph, pair, mix, node_cap=None, *, bracket=None):
            interval = mix.types == {"interval"}
            weighted = sum(w for w, _ in mix.components) > 0
            assert (bracket is not None) == (interval and weighted)
            kinds.add((interval, weighted))
            return solve_for_pair(graph, pair, mix, node_cap, bracket=bracket)

        monkeypatch.setattr(tuning, "solve_for_pair", checking)
        tune(ConfigSpace(budget=2000), graph, pairs, data, split, (0.4, 0.3, 0.3), seed=1)
        # the race has zero-weight interval configurations, and others
        assert {(True, True), (True, False), (False, True)} <= kinds


def tune_problems(count):
    """Random 3x3 to 6x6 grids under both noise models, each with random
    scalarization weights.  Three in four replace the costs with the
    skewed draws of `random_problems`, so that paths change with
    lambda, and every third one's costs are rounded to integers, which
    makes exact ties between paths common."""
    for trial in range(count):
        rng = np.random.default_rng(trial)
        width, height = (int(v) for v in rng.integers(3, 7, 2))
        noise = ("mult", "two_block")[trial % 2]
        graph, data = gen_synthetic(width, height, int(rng.integers(8, 30)), noise, trial)
        if trial % 4:
            base, spread = rng.uniform(1.0, 10.0, (2, data.n))
            data = ScenarioMatrix(base + spread * rng.random((data.K, data.n)) ** 4)
        if trial % 3 == 0:
            data = ScenarioMatrix(np.round(data.costs))
        pairs = sample_st_pairs(graph, int(rng.integers(2, 7)), min_hops=2, seed=trial)
        w = tuple(rng.dirichlet(np.ones(3)).tolist())
        yield graph, data, pairs, split_scenarios(data.K, 0.75, seed=trial), w


class TestRecordDifferential:
    def test_tune_equals_solving_every_evaluation(self, monkeypatch):
        """The race with its records and the race that solves every
        evaluation agree on the best configuration, every cost bit, the
        trace and the evaluation count."""

        def unrecorded(graph, pair, mix, node_cap=None, *, bracket=None):
            return solve_for_pair(graph, pair, mix, node_cap)

        def outcome(result):
            trace = [
                (e.generation, e.config_id, e.pairs_used, e.cost.hex(), e.config)
                for e in result.trace
            ]
            return result.best, result.best_cost.hex(), trace, result.evaluations

        for trial, (graph, data, pairs, split, w) in enumerate(tune_problems(20)):
            args = (ConfigSpace(budget=400), graph, pairs, data, split, w, trial)
            filled = outcome(tune(*args))
            with monkeypatch.context() as patched:
                patched.setattr(tuning, "solve_for_pair", unrecorded)
                assert filled == outcome(tune(*args)), trial


class TestSolveForPair:
    def test_capped_bnb_falls_back_to_local_search(self, monkeypatch):
        """With no BnB node allowed, every pair on the criterion-7 grid
        that the root bound does not prove runs the local search fallback;
        the lower objective is kept, BnB's on a tie.  A root-proven pair
        runs no fallback."""
        graph, data = gen_synthetic(6, 6, 40, noise="two_block", seed=1)
        pairs = sample_st_pairs(graph, 12, min_hops=4, seed=1)
        train = data.subset(split_scenarios(data.K, 0.75, seed=1).train_idx)
        mix = build_mixture([{"weight": 1.0, "type": "ellipsoid", "lambda": 20.0}], train)
        reports, kept, proven = [], set(), 0

        def recorded(solve):
            def call(*args, **kwargs):
                reports.append(solve(*args, **kwargs))
                return reports[-1]

            return call

        monkeypatch.setattr(tuning, "solve_auto", recorded(tuning.solve_auto))
        monkeypatch.setattr(
            tuning, "solve_local_search", recorded(tuning.solve_local_search)
        )
        for pair in pairs:
            reports.clear()
            report = solve_for_pair(graph, pair, mix, node_cap=0)
            bnb, *rest = reports
            assert bnb.method == "bnb"
            if bnb.optimal:
                assert rest == [] and report is bnb and bnb.nodes_explored == 0
                proven += 1
                continue
            (local,) = rest
            assert local.method == "local"
            assert report is (local if local.objective < bnb.objective - 1e-12 else bnb)
            assert report.objective == evaluate_wrp(mix, report.solution.x)
            kept.add(report.method)
        assert kept == {"bnb", "local"}  # a strict local win and ties both occur
        assert 0 < proven < len(pairs)


def reference_grid(set_type, graph, pairs, data, split):
    """The lambda-by-lambda sweep: every pair solved at every lambda
    under the current `tuning.BASELINE_NODE_CAP`.  Returns the grid's
    rows and, per lambda, each pair's proof flag."""
    train, test = data.subset(split.train_idx), data.subset(split.test_idx)
    rows, proven = [], []
    for lam in baseline_lambdas(set_type):
        mix = build_mixture([{"weight": 1.0, "type": set_type, "lambda": lam}], train)
        reports = [
            solve_for_pair(graph, pair, mix, tuning.BASELINE_NODE_CAP) for pair in pairs
        ]
        xs = [np.asarray(r.solution.x, float) for r in reports]
        metrics = []
        for pool in (train, test):
            tail = tail_count(ALPHA, pool.K)
            metrics.append(mean_metrics([pair_metrics(x, pool.costs, tail) for x in xs]))
        rows.append((lam, *metrics))
        proven.append([r.optimal for r in reports])
    return rows, proven


def record_solves(monkeypatch):
    """Patch `tuning` so that `baseline_grid` records what it does: the
    lambda of each mixture it builds, and per solve the (pair, lambda)
    solved and the (x, proven) it got, in order.  Returns both lists."""
    built, solves, lam_of = [], [], {}

    def building(specs, train):
        mix = build_mixture(specs, train)
        built.append(specs[0]["lambda"])
        lam_of[id(mix)] = (mix, specs[0]["lambda"])  # the mix keeps its id
        return mix

    def solving(graph, pair, mix, *args):
        report = solve_for_pair(graph, pair, mix, *args)
        solves.append(((pair, lam_of[id(mix)][1]), (report.solution.x, report.optimal)))
        return report

    monkeypatch.setattr(tuning, "build_mixture", building)
    monkeypatch.setattr(tuning, "solve_for_pair", solving)
    return built, solves


def random_problems(count):
    """Small random grids under both noise models.  Two trials in three
    replace the costs with skewed draws whose spread varies per arc, so
    that the mean and the worst scenarios favour different paths, and
    trials 2, 3, 6, 7, ... round them to integers, so that ties are
    common."""
    for trial in range(count):
        rng = np.random.default_rng(trial)
        width, height = (int(v) for v in rng.integers(4, 6, 2))
        noise = ("mult", "two_block")[trial % 2]
        graph, data = gen_synthetic(width, height, int(rng.integers(8, 30)), noise, trial)
        if trial % 3:
            base, spread = rng.uniform(1.0, 10.0, (2, data.n))
            data = ScenarioMatrix(base + spread * rng.random((data.K, data.n)) ** 4)
        if trial // 2 % 2:
            data = ScenarioMatrix(np.round(data.costs))
        pairs = sample_st_pairs(graph, int(rng.integers(2, 5)), min_hops=3, seed=trial)
        yield graph, data, pairs, split_scenarios(data.K, 0.75, seed=trial)


class TestBaselines:
    def test_grid_values(self):
        ell = baseline_lambdas("ellipsoid")
        assert len(ell) == 41
        assert ell[0] == 0.0 and ell[1] == 0.5 and ell[-1] == 20.0
        iv = baseline_lambdas("interval")
        assert len(iv) == 41
        assert iv[1] == 0.025 and iv[-1] == 1.0
        assert baseline_lambdas("hull") == iv

    def test_lambda_zero_rows_agree_across_types(self, small_problem):
        """At lambda=0 every family degenerates to the scenario mean, so
        all three grids start from identical metrics."""
        graph, data, pairs, split = small_problem
        first = {}
        for set_type in ("interval", "hull", "ellipsoid"):
            grid = baseline_grid(set_type, graph, pairs, data, split)
            assert len(grid) == 41
            lam, m_in, m_out = grid[0]
            assert lam == 0.0
            first[set_type] = (m_in, m_out)
        base = astuple(first["interval"][0])
        assert astuple(first["hull"][0]) == pytest.approx(base, abs=1e-9)
        assert astuple(first["ellipsoid"][0]) == pytest.approx(base, abs=1e-9)

    def test_empty_pairs_rejected(self, small_problem):
        graph, data, _, split = small_problem
        with pytest.raises(ValueError, match="empty pair list"):
            baseline_grid("interval", graph, [], data, split)

    def test_untunable_type_rejected_before_any_solve(self, monkeypatch, small_problem):
        """The bisection is exact only for the tunable families, whose
        worst case is linear in a nondecreasing function of lambda."""
        graph, data, pairs, split = small_problem
        built, solves = record_solves(monkeypatch)
        with pytest.raises(ValueError, match="budgeted"):
            baseline_grid("budgeted", graph, pairs, data, split)
        assert built == [] and solves == []

    @pytest.mark.parametrize("set_type", TUNABLE_TYPES)
    def test_bisection_equals_lambda_by_lambda_sweep(self, monkeypatch, set_type):
        """Rows equal the lambda-by-lambda sweep bit for bit, and every
        lambda a pair did not solve lies strictly between two proven
        solves of that pair with the same x."""
        lams = baseline_lambdas(set_type)
        filled = changed = 0
        for graph, data, pairs, split in random_problems(12):
            reference, _ = reference_grid(set_type, graph, pairs, data, split)
            with monkeypatch.context() as patch:
                built, solves = record_solves(patch)
                rows = baseline_grid(set_type, graph, pairs, data, split)
            assert rows == reference
            assert len(built) == len(set(built))
            result = dict(solves)
            assert len(result) == len(solves)  # each lambda solved once per pair
            for pair in pairs:
                done = sorted(lams.index(lam) for p, lam in result if p == pair)
                assert done[0] == 0 and done[-1] == 40
                for lo, hi in zip(done, done[1:]):
                    changed += result[pair, lams[lo]][0] != result[pair, lams[hi]][0]
                    if hi - lo > 1:
                        x_lo, proven_lo = result[pair, lams[lo]]
                        x_hi, proven_hi = result[pair, lams[hi]]
                        assert proven_lo and proven_hi and x_lo == x_hi
                        filled += hi - lo - 1
        assert filled > 0 and changed > 0

    def test_unproven_solves_fill_nothing(self, monkeypatch):
        """Under a node cap that leaves solves unproven, the rows still
        equal the sweep under that cap, and every lambda whose own solve
        is unproven there is solved, not filled."""
        graph, data = gen_synthetic(5, 5, 30, "two_block", seed=1)
        pairs = sample_st_pairs(graph, 4, min_hops=3, seed=1)
        split = split_scenarios(data.K, 0.75, seed=1)
        monkeypatch.setattr(tuning, "BASELINE_NODE_CAP", 0)
        reference, proven = reference_grid("ellipsoid", graph, pairs, data, split)
        _, solves = record_solves(monkeypatch)
        rows = baseline_grid("ellipsoid", graph, pairs, data, split)
        assert rows == reference
        lams = baseline_lambdas("ellipsoid")
        unproven = {
            (pair, lam)
            for lam, flags in zip(lams, proven)
            for pair, flag in zip(pairs, flags)
            if not flag
        }
        solved = {key for key, _ in solves}
        assert unproven and unproven <= solved < {(p, lam) for p in pairs for lam in lams}


class TestPairMetricMemo:
    """Per-pair metrics are computed once per distinct x and scenario pool."""

    @staticmethod
    def counted(monkeypatch):
        calls, solved = [], []

        def counting(x, costs, tail):
            calls.append((id(costs), tuple(x)))
            return pair_metrics(x, costs, tail)

        def recording(graph, pair, mix, *args, **kwargs):
            report = solve_for_pair(graph, pair, mix, *args, **kwargs)
            solved.append(report.solution.x)
            return report

        monkeypatch.setattr(tuning, "pair_metrics", counting)
        monkeypatch.setattr(tuning, "solve_for_pair", recording)
        return calls, solved

    def test_tune_computes_each_distinct_x_once(self, monkeypatch, small_problem):
        graph, data, pairs, split = small_problem
        calls, solved = self.counted(monkeypatch)
        result = tune(ConfigSpace(budget=120), graph, pairs, data, split, (0.4, 0.3, 0.3))
        assert result.evaluations == len(solved) == 120
        assert len(calls) == len(set(calls)) == len(set(solved)) < 20

    def test_baseline_grid_computes_each_x_once_per_pool(
        self, monkeypatch, small_problem
    ):
        graph, data, pairs, split = small_problem
        calls, solved = self.counted(monkeypatch)
        baseline_grid("hull", graph, pairs, data, split)
        # each pair proves the same path at both ends, so only they are solved
        assert len(solved) == 2 * len(pairs)
        assert len(calls) == len(set(calls)) == 2 * len(set(solved))

    def test_baseline_in_sample_metrics_equal_score(self):
        """On 10 pairs the grid's in-sample metrics are `score` of its
        solutions on the training matrix, bit for bit: one pair mean."""
        graph, data = gen_synthetic(4, 4, 20, seed=1)
        pairs = sample_st_pairs(graph, 10, min_hops=2, seed=1)
        split = split_scenarios(data.K, 0.75, seed=1)
        train = data.subset(split.train_idx)
        assert len(pairs) == 10
        for lam, m_in, _ in baseline_grid("interval", graph, pairs, data, split):
            mix = build_mixture([{"weight": 1.0, "type": "interval", "lambda": lam}], train)
            sols = [solve_for_pair(graph, p, mix, BASELINE_NODE_CAP).solution for p in pairs]
            assert score(sols, train, ALPHA) == m_in

    def test_baseline_grid_matches_unmemoized_metrics(self, small_problem):
        graph, data, pairs, split = small_problem
        train, test = data.subset(split.train_idx), data.subset(split.test_idx)
        for lam, m_in, m_out in baseline_grid("interval", graph, pairs, data, split)[::8]:
            mix = build_mixture([{"weight": 1.0, "type": "interval", "lambda": lam}], train)
            xs = [
                np.asarray(solve_for_pair(graph, p, mix, 20_000).solution.x, float)
                for p in pairs
            ]
            for pool, m in ((train, m_in), (test, m_out)):
                tail = max(1, math.ceil(0.05 * pool.K))
                triples = [pair_metrics(x, pool.costs, tail) for x in xs]
                assert m == Metrics(*np.array(triples).mean(axis=0))
