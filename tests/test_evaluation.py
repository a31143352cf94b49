from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from robustmix import (
    Metrics,
    ScenarioMatrix,
    export_tradeoffs,
    scalarize,
    score,
    split_scenarios,
    weight_grid,
)
from robustmix.evaluation import pair_metrics, parse_tradeoffs, tail_count
from robustmix.instances import Solution


def single_item_pool(values):
    """One pair choosing a single unit item whose costs are `values`."""
    data = ScenarioMatrix(np.asarray(values, dtype=float).reshape(-1, 1))
    return [Solution((1,), 0.0)], data


class TestSplitScenarios:
    def test_paper_scale_counts(self):
        split = split_scenarios(271, 0.75)
        assert len(split.train_idx) == 203
        assert len(split.test_idx) == 68

    def test_exact_partition(self):
        split = split_scenarios(4, 0.5, seed=3)
        assert len(split.train_idx) == 2
        assert len(split.test_idx) == 2
        assert sorted(split.train_idx + split.test_idx) == [0, 1, 2, 3]

    def test_deterministic(self):
        assert split_scenarios(40, 0.75, seed=1) == split_scenarios(40, 0.75, seed=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_scenarios(1, 0.5)
        with pytest.raises(ValueError):
            split_scenarios(10, 1.0)

    def test_empty_side_named(self):
        with pytest.raises(ValueError, match="train side of 5 scenarios empty"):
            split_scenarios(5, 0.1)


class TestScore:
    def test_twenty_value_pool(self):
        sols, data = single_item_pool(range(1, 21))
        m = score(sols, data, alpha=0.05)
        assert m.avg == pytest.approx(10.5)
        assert m.max == 20.0
        assert m.cvar == 20.0  # tail of ceil(0.05 * 20) = 1 value

    def test_forty_value_pool(self):
        sols, data = single_item_pool(range(1, 41))
        m = score(sols, data, alpha=0.05)
        assert m.cvar == pytest.approx(39.5)  # top-2 mean

    def test_constant_pools_collapse(self):
        data = ScenarioMatrix(np.array([[2.0, 4.0], [2.0, 4.0], [2.0, 4.0]]))
        sols = [Solution((1, 0), 0.0), Solution((0, 1), 0.0)]
        m = score(sols, data)
        assert m.avg == m.max == m.cvar == 3.0

    def test_cvar_equals_avg_for_full_tail(self):
        sols, data = single_item_pool([3.0, 9.0, 6.0])
        m = score(sols, data, alpha=1.0)
        assert m.cvar == pytest.approx(m.avg)

    def test_ordering_invariant(self, rng):
        for _ in range(30):
            K, pairs = int(rng.integers(2, 30)), int(rng.integers(1, 4))
            data = ScenarioMatrix(rng.uniform(0, 10, (K, pairs)))
            sols = [
                Solution(tuple(1 if j == i else 0 for j in range(pairs)), 0.0)
                for i in range(pairs)
            ]
            m = score(sols, data, alpha=float(rng.uniform(0.01, 1.0)))
            assert m.avg <= m.cvar + 1e-12
            assert m.cvar <= m.max + 1e-12

    def test_scenario_permutation_invariant(self, rng):
        values = rng.uniform(0, 10, 15)
        a = score(*single_item_pool(values))
        b = score(*single_item_pool(rng.permutation(values)))
        assert astuple(a) == pytest.approx(astuple(b), abs=1e-12)

    def test_averages_the_per_pair_metrics(self, rng):
        data = ScenarioMatrix(rng.uniform(0, 10, (25, 6)))
        sols = [Solution(tuple(rng.integers(0, 2, 6)), 0.0) for _ in range(12)]
        triples = [pair_metrics(s.as_array(), data.costs, 2) for s in sols]
        expected = Metrics(*(float(np.mean(col)) for col in zip(*triples)))
        assert score(sols, data, alpha=0.05) == expected
        pools = np.arange(12.0).reshape(4, 3).T  # costs 18, 22, 26 for x = 1
        assert pair_metrics(np.ones(4), pools, 2) == (22.0, 26.0, 24.0)

    @pytest.mark.parametrize(
        "alpha, K, tail", [(0.05, 20, 1), (0.05, 40, 2), (0.051, 40, 3), (1e-9, 7, 1), (1.0, 7, 7)]
    )
    def test_tail_count(self, alpha, K, tail):
        assert tail_count(alpha, K) == tail

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.5, float("inf"), float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            score(*single_item_pool([3.0, 9.0]), alpha=alpha)

    def test_length_mismatch_rejected(self):
        data = ScenarioMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError, match="length"):
            score([Solution((1,), 0.0)], data)

    def test_format_line(self):
        m = Metrics(1.0, 2.0, 1.5)
        assert m.format_line() == "avg=1.000000 max=2.000000 cvar=1.500000"


class TestScalarize:
    def test_projection(self):
        assert scalarize(Metrics(10, 20, 15), (1, 0, 0)) == 10

    def test_weighted(self):
        assert scalarize(Metrics(10, 20, 15), (0.4, 0.3, 0.3)) == pytest.approx(14.5)

    def test_zero_weights(self):
        assert scalarize(Metrics(10, 20, 15), (0, 0, 0)) == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            scalarize(Metrics(1, 2, 3), (-1, 0, 0))


class TestWeightGrid:
    def test_66_triples(self):
        grid = weight_grid(0.1)
        assert len(grid) == 66
        assert len(set(grid)) == 66
        assert all(abs(sum(w) - 1.0) < 1e-9 for w in grid)
        assert grid == sorted(grid)

    def test_half_step(self):
        assert weight_grid(0.5) == [
            (0.0, 0.0, 1.0),
            (0.0, 0.5, 0.5),
            (0.0, 1.0, 0.0),
            (0.5, 0.0, 0.5),
            (0.5, 0.5, 0.0),
            (1.0, 0.0, 0.0),
        ]

    def test_unit_step_corners(self):
        assert weight_grid(1.0) == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_step_must_divide_one(self):
        with pytest.raises(ValueError):
            weight_grid(0.3)


class TestExportTradeoffs:
    def test_row_counts(self, tmp_path):
        records = [
            (f"lam_{i}", Metrics(1.0, 2.0, 1.5), Metrics(1.1, 2.1, 1.6))
            for i in range(41)
        ]
        path = str(tmp_path / "tradeoffs.csv")
        assert export_tradeoffs(records, path) == 41
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "label,sample,avg,max,cvar"
        assert len(lines) == 83

    def test_empty_records(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        assert export_tradeoffs([], path) == 0
        assert Path(path).read_text().splitlines() == ["label,sample,avg,max,cvar"]

    def test_round_trip(self, tmp_path):
        m_in, m_out = Metrics(1.234567, 5.0, 2.5), Metrics(2.0, 6.0, 3.0)
        path = str(tmp_path / "rt.csv")
        export_tradeoffs([("a", m_in, m_out)], path)
        rows = parse_tradeoffs(Path(path).read_text())
        assert rows[0][0] == "a" and rows[0][1] == "in"
        assert rows[0][2].avg == pytest.approx(m_in.avg, abs=1e-6)
        assert rows[1][2].max == pytest.approx(m_out.max, abs=1e-6)

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_tradeoffs("x,y\n1,2\n")
