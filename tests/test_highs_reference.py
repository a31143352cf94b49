"""Branch-and-bound against HiGHS's optimum of the emitted model, past
brute force's reach: a paper-scale path and a selection.  Skipped
without scipy."""

import numpy as np
import pytest

pytest.importorskip("scipy")

from highs_reference import solve_reference

from robustmix import (
    Instance,
    ScenarioMatrix,
    build_mixture,
    evaluate_wrp,
    gen_synthetic,
    solve_bnb,
    split_scenarios,
)
from robustmix.instances import item_set
from robustmix.solvers import TOL

HULL_1 = [{"weight": 1.0, "type": "hull", "lambda": 1.0}]


def agree(a: float, b: float) -> bool:
    """Equal within the solvers' tolerance, relative past 1."""
    return abs(a - b) <= TOL * max(1.0, abs(b))


def assert_matches_highs(inst, mix):
    """BnB proves the optimum that HiGHS finds, and HiGHS's x attains it;
    returns BnB's report and HiGHS's (objective, x)."""
    report = solve_bnb(inst, mix)
    objective, x = solve_reference(inst, mix)
    assert report.optimal
    assert agree(report.objective, objective)
    assert agree(evaluate_wrp(mix, x), objective)
    return report, (objective, x)


def test_paper_scale_path():
    graph, data = gen_synthetic(23, 23, 271, "two_block", seed=1)
    train = data.subset(split_scenarios(data.K, 0.75, seed=1).train_idx)
    inst = Instance.spath(graph, 0, 515)
    report, _ = assert_matches_highs(inst, build_mixture(HULL_1, train))
    assert report.objective == pytest.approx(283.0720758, abs=1e-6)


def test_selection_probe():
    rng = np.random.default_rng(7)
    n, p, K = 100, 10, 50
    base = rng.uniform(1.0, 10.0, n)
    factor = rng.uniform(0.8, 1.2, K)
    jitter = rng.uniform(0.7, 1.3, (K, n))
    inst = Instance.selection(n, p)
    mix = build_mixture(HULL_1, ScenarioMatrix(base * factor[:, None] * jitter))
    report, (objective, x) = assert_matches_highs(inst, mix)
    assert report.objective == pytest.approx(16.3674, abs=5e-5)
    # x is HiGHS's choice among ties, so compare it only when it is unique
    second, _ = solve_reference(inst, mix, exclude=[item_set(x)])
    if not agree(second, objective):
        assert report.solution.x == x
    lp_bound, _ = solve_reference(inst, mix, integral=False)
    assert lp_bound <= objective or agree(lp_bound, objective)
