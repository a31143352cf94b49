import gc
import hashlib
import json
import math
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from robustmix import ConfigSpace, baseline_grid, gen_synthetic, sample_st_pairs, tune
from robustmix import tuning
from robustmix.evaluation import Metrics, pair_metrics, score, split_scenarios
from robustmix.solvers import evaluate_wrp
from robustmix.tuning import (
    ALPHA,
    BASELINE_NODE_CAP,
    TUNABLE_TYPES,
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


class TestSolveForPair:
    def test_capped_bnb_falls_back_to_local_search(self, monkeypatch):
        """With no BnB node allowed, every criterion-7 pair runs the local
        search fallback; the lower objective is kept, BnB's on a tie."""
        graph, data = gen_synthetic(6, 6, 40, noise="two_block", seed=1)
        pairs = sample_st_pairs(graph, 6, min_hops=4, seed=1)
        train = data.subset(split_scenarios(data.K, 0.75, seed=1).train_idx)
        mix = build_mixture([{"weight": 1.0, "type": "ellipsoid", "lambda": 20.0}], train)
        reports, kept = [], set()

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
            bnb, local = reports
            assert (bnb.method, bnb.optimal, local.method) == ("bnb", False, "local")
            assert report is (local if local.objective < bnb.objective - 1e-12 else bnb)
            assert report.objective == evaluate_wrp(mix, report.solution.x)
            kept.add(report.method)
        assert kept == {"bnb", "local"}  # a strict local win and ties both occur


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


class TestPairMetricMemo:
    """Per-pair metrics are computed once per distinct x and scenario pool."""

    @staticmethod
    def counted(monkeypatch):
        calls, solved = [], []

        def counting(x, costs, tail):
            calls.append((id(costs), tuple(x)))
            return pair_metrics(x, costs, tail)

        def recording(graph, pair, mix, *args):
            report = solve_for_pair(graph, pair, mix, *args)
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
        assert len(solved) == 41 * len(pairs)
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
