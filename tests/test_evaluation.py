import csv
import io
import math
from dataclasses import astuple

import numpy as np
import pytest

from robustmix import (
    Metrics,
    ScenarioMatrix,
    cli,
    scalarize,
    score,
    split_scenarios,
    weight_grid,
)
from robustmix.cli import main
from robustmix.evaluation import check_weights, mean_metrics, pair_metrics, tail_count
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

    def test_empty_scenario_pool_rejected(self):
        with pytest.raises(ValueError, match="empty scenario pool"):
            score([Solution((1,), 0.0)], ScenarioMatrix(np.zeros((0, 1))))

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
        with pytest.raises(ValueError, match="nonnegative"):
            scalarize(Metrics(1, 2, 3), (-1, 0, 0))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            scalarize(Metrics(1, 2, 3), (0, math.nan, 0))

    @pytest.mark.parametrize(
        "w",
        [(-1, 0, 0), (math.nan, 0, 0), (0, math.inf, 0), (1, 0), (1, 0, 0, 0),
         ("1", 0, 0), 1.0],
        ids=["negative", "nan", "inf", "two", "four", "string", "scalar"],
    )
    def test_check_weights_rejects(self, w):
        with pytest.raises(ValueError, match="three finite, nonnegative numbers"):
            check_weights(w)

    @pytest.mark.parametrize(
        "w",
        [(-1, 0, 0), (math.nan, 0, 0), (math.inf, 0, 0), (1.0,), (1, 0), (1, 0, 0, 0),
         ("1", 0, 0), 1.0],
        ids=["negative", "nan", "inf", "one", "two", "four", "string", "scalar"],
    )
    def test_scalarize_rejects_what_check_weights_rejects(self, w):
        with pytest.raises(ValueError, match="three finite, nonnegative numbers"):
            scalarize(Metrics(1, 2, 3), w)

    def test_check_weights_accepts(self):
        for w in [(0, 0, 0), (0.4, 0.3, 0.3), [1, 2, 3], np.array([0.0, 1.0, 0.5])]:
            check_weights(w)


def numpy_mean(triples):
    """The pair mean as numpy computes it, as Python floats."""
    return Metrics(*np.array(triples).mean(axis=0).tolist())


def same_bits(a: Metrics, b: Metrics) -> bool:
    return [v.hex() for v in astuple(a)] == [v.hex() for v in astuple(b)]


class TestMeanMetrics:
    """`mean_metrics` is numpy's axis-0 mean bit for bit, without numpy."""

    def test_random_triples_match_numpy(self):
        rng = np.random.default_rng(29)
        for rows in range(1, 65):
            for _ in range(5):
                scale = 10.0 ** rng.integers(-6, 17, size=3)
                values = rng.standard_normal((rows, 3)) * scale
                triples = [tuple(r) for r in values.tolist()]
                got = mean_metrics(triples)
                assert same_bits(got, numpy_mean(triples)), (rows, triples)
                assert all(type(v) is float for v in astuple(got))

    @pytest.mark.parametrize(
        "column",
        [[0.1] * 10, [1e16, 1.0, -1e16], [1.0, 1e100, 1.0, -1e100]],
        ids=["ten_tenths", "absorbed_one", "absorbed_ones"],
    )
    def test_columns_where_compensated_sums_differ(self, column):
        """On these columns a compensated sum (builtin `sum()` of floats
        from Python 3.12, or `math.fsum`) rounds differently from the
        left fold numpy makes."""
        triples = [(v, 2.0 * v, -v) for v in column]
        got = mean_metrics(triples)
        assert same_bits(got, numpy_mean(triples))
        assert got.avg.hex() != (math.fsum(column) / len(column)).hex()

    def test_sums_start_from_zero(self):
        """numpy's sum starts from 0.0, so negative zeros average to 0.0."""
        triples = [(-0.0, -0.0, -0.0)] * 2
        assert same_bits(mean_metrics(triples), numpy_mean(triples))
        assert mean_metrics(triples).avg.hex() == "0x0.0p+0"

    def test_array_rows_give_python_floats(self):
        triples = np.array([[1.0, 2.0, 3.0], [2.0, 5.0, 4.0]])
        got = mean_metrics(triples)
        assert got == Metrics(1.5, 3.5, 3.5)
        assert all(type(v) is float for v in astuple(got))

    def test_no_triples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            mean_metrics([])


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
    """The trade-off CSV that `baseline` writes, fed a fixed grid."""

    @pytest.fixture
    def export(self, tmp_path, monkeypatch):
        files = {
            "graph": "nodes 2\narcs 1\narc 0 0 1\n",
            "scenarios": "arc_0\n1\n2\n3\n4\n",
            "pairs": "source,target\n0,1\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)

        def run(grid):
            monkeypatch.setattr(cli, "baseline_grid", lambda *args: grid)
            out = tmp_path / "tradeoffs.csv"
            argv = ["baseline", "--type", "interval", "--out", str(out)]
            for name in files:
                argv += [f"--{name}", str(tmp_path / name)]
            assert main(argv) == 0
            return out.read_text()

        return run

    def test_row_counts(self, export):
        records = (Metrics(1.0, 2.0, 1.5), Metrics(1.1, 2.1, 1.6))
        grid = [(i / 40, *records) for i in range(41)]
        lines = export(grid).splitlines()
        assert lines[0] == "label,sample,avg,max,cvar"
        assert len(lines) == 83

    def test_round_trip(self, export):
        m_in, m_out = Metrics(1.234567, 5.0, 2.5), Metrics(2.0, 6.0, 3.0)
        rows = list(csv.reader(io.StringIO(export([(0.5, m_in, m_out)]))))[1:]
        assert rows[0][:2] == ["interval_lambda_0.500000", "in"]
        assert rows[1][:2] == ["interval_lambda_0.500000", "out"]
        assert [float(v) for v in rows[0][2:]] == pytest.approx(astuple(m_in), abs=1e-6)
        assert [float(v) for v in rows[1][2:]] == pytest.approx(astuple(m_out), abs=1e-6)
