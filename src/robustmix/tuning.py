"""Racing auto-tuner for mixture hyperparameters.

Configurations are up to `max_parents` (type, lambda, weight) triples.
Each generation evaluates surviving configurations on a growing prefix
of the origin-destination pairs, scores them on the training scenarios,
scalarizes with user-fixed weights, and eliminates configurations whose
cost trails the incumbent by more than a margin once enough pairs are
shared.  Survivors seed the next generation through clamped Gaussian
perturbation.  The scalarization weights themselves are never tuned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .evaluation import Metrics, Split, pair_metrics, scalarize
from .instances import Graph, Instance
from .solvers import SolveReport, solve_auto, solve_local_search
from .uncertainty import LAMBDA_RANGES, Mixture, ScenarioMatrix, build_mixture


@dataclass(frozen=True)
class ParentSpec:
    set_type: str
    lam: float
    weight: float


@dataclass(frozen=True)
class Config:
    parents: tuple[ParentSpec, ...]

    def to_specs(self) -> list[dict]:
        return [
            {"weight": p.weight, "type": p.set_type, "lambda": p.lam}
            for p in self.parents
        ]


@dataclass
class ConfigSpace:
    max_parents: int = 3
    allowed_types: tuple[str, ...] = ("interval", "hull", "ellipsoid")
    lambda_ranges: dict = field(
        default_factory=lambda: {
            t: LAMBDA_RANGES[t] for t in ("interval", "hull", "ellipsoid")
        }
    )
    weight_range: tuple[float, float] = (0.0, 1.0)
    budget: int = 10_000
    generation_size: int = 20
    elimination_margin: float = 0.01
    min_shared_pairs: int = 5

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.max_parents < 1:
            raise ValueError("max_parents must be at least 1")
        if not self.allowed_types:
            raise ValueError("allowed_types must be nonempty")


def sample_config(space: ConfigSpace, rng: np.random.Generator) -> Config:
    """Uniform draw: parent count, type, lambda and weight."""
    count = int(rng.integers(1, space.max_parents + 1))
    parents = []
    for _ in range(count):
        set_type = space.allowed_types[int(rng.integers(len(space.allowed_types)))]
        lo, hi = space.lambda_ranges[set_type]
        lam = float(rng.uniform(lo, hi))
        weight = float(rng.uniform(*space.weight_range))
        parents.append(ParentSpec(set_type, lam, weight))
    return Config(tuple(parents))


def perturb_config(
    config: Config, space: ConfigSpace, rng: np.random.Generator
) -> Config:
    """Gaussian perturbation, sigma = 10% of each range, clamped."""
    parents = []
    for parent in config.parents:
        lo, hi = space.lambda_ranges[parent.set_type]
        lam = float(
            np.clip(parent.lam + rng.normal(0.0, 0.1 * (hi - lo)), lo, hi)
        )
        wlo, whi = space.weight_range
        weight = float(
            np.clip(parent.weight + rng.normal(0.0, 0.1 * (whi - wlo)), wlo, whi)
        )
        parents.append(ParentSpec(parent.set_type, lam, weight))
    return Config(tuple(parents))


@dataclass
class TraceEntry:
    generation: int
    config_id: int
    pairs_used: int
    cost: float
    config: Config


@dataclass
class TuneResult:
    best: Config
    best_cost: float
    trace: list[TraceEntry]
    completed_full_eval: bool
    evaluations: int


def _metric_memo(costs: np.ndarray, tail: int):
    """`pair_metrics` on `costs`, computed once per distinct solution x.

    Keyed by x alone: the metric depends on nothing else, and a path's
    arcs also fix its pair, so this hits exactly when (pair, x) would.
    """

    @functools.cache
    def metric(x: tuple[int, ...]) -> tuple[float, float, float]:
        return pair_metrics(np.asarray(x, dtype=float), costs, tail)

    return metric


def solve_for_pair(
    graph: Graph,
    pair: tuple[int, int],
    mix: Mixture,
    node_cap: int | None = None,
    seed: int = 0,
) -> SolveReport:
    """Solver used inside tuning: capped exact search with a local
    search fallback when the cap is hit."""
    inst = Instance.spath(graph, pair[0], pair[1])
    report = solve_auto(inst, mix, max_nodes=node_cap)
    if not report.optimal and report.method == "bnb":
        fallback = solve_local_search(inst, mix, restarts=0, seed=seed)
        if fallback.objective < report.objective - 1e-12:
            report = fallback
    return report


def tune(
    space: ConfigSpace,
    graph: Graph,
    pairs: list[tuple[int, int]],
    data: ScenarioMatrix,
    split: Split,
    w: tuple[float, float, float],
    seed: int = 0,
    node_cap: int = 150,
    alpha: float = 0.05,
) -> TuneResult:
    """Race configurations against in-sample scalarized metrics."""
    if not pairs:
        raise ValueError("empty pair list")
    rng = np.random.default_rng(seed)
    train = data.subset(split.train_idx)
    tail = max(1, math.ceil(alpha * train.K))
    P = len(pairs)

    configs: list[Config] = [
        sample_config(space, rng) for _ in range(space.generation_size)
    ]
    mixtures: dict[int, Mixture] = {}
    metric = _metric_memo(train.costs, tail)
    pair_cache: dict[tuple[int, int], tuple[float, float, float]] = {}
    alive = list(range(len(configs)))
    trace: list[TraceEntry] = []
    evals = 0
    generation = 0

    def mixture_for(cfg_id: int) -> Mixture:
        if cfg_id not in mixtures:
            mixtures[cfg_id] = build_mixture(configs[cfg_id].to_specs(), train)
        return mixtures[cfg_id]

    def evaluated_pairs(cfg_id: int) -> int:
        k = 0
        while (cfg_id, k) in pair_cache:
            k += 1
        return k

    def cost_over(cfg_id: int, k: int) -> float:
        triples = [pair_cache[(cfg_id, i)] for i in range(k)]
        arr = np.array(triples)
        m = Metrics(*(arr.mean(axis=0)))
        return scalarize(m, w)

    while evals < space.budget:
        n_g = min(P, 5 * (2**generation))
        evals_before = evals
        for cfg_id in list(alive):
            for pair_idx in range(n_g):
                if (cfg_id, pair_idx) in pair_cache or evals >= space.budget:
                    continue
                report = solve_for_pair(
                    graph, pairs[pair_idx], mixture_for(cfg_id), node_cap, seed
                )
                pair_cache[(cfg_id, pair_idx)] = metric(report.solution.x)
                evals += 1

        costs = {}
        for cfg_id in alive:
            k = evaluated_pairs(cfg_id)
            if k == 0:
                continue
            costs[cfg_id] = cost_over(cfg_id, k)
            trace.append(
                TraceEntry(generation, cfg_id, k, costs[cfg_id], configs[cfg_id])
            )
        if not costs:
            break
        best_cost = min(costs.values())
        survivors = []
        for cfg_id in alive:
            if cfg_id not in costs:
                continue
            k = evaluated_pairs(cfg_id)
            if (
                k >= min(space.min_shared_pairs, P)
                and costs[cfg_id] > best_cost * (1.0 + space.elimination_margin)
            ):
                continue
            survivors.append(cfg_id)
        alive = survivors

        if evals >= space.budget:
            break
        if evals == evals_before and n_g >= P:
            # stagnation: everything alive is fully evaluated and within
            # the margin; keep the incumbent and explore fresh configs
            best_id = min(costs, key=lambda c: (costs[c], c))
            alive = [best_id]
        while len(alive) < space.generation_size:
            parent_id = alive[int(rng.integers(len(alive)))] if alive else None
            if parent_id is None:
                new_cfg = sample_config(space, rng)
            else:
                new_cfg = perturb_config(configs[parent_id], space, rng)
            configs.append(new_cfg)
            alive.append(len(configs) - 1)
        generation += 1

    full = {
        cfg_id: cost_over(cfg_id, P)
        for cfg_id in range(len(configs))
        if evaluated_pairs(cfg_id) >= P
    }
    if full:
        best_id = min(full, key=lambda c: (full[c], c))
        return TuneResult(configs[best_id], full[best_id], trace, True, evals)
    partial = {
        cfg_id: cost_over(cfg_id, evaluated_pairs(cfg_id))
        for cfg_id in range(len(configs))
        if evaluated_pairs(cfg_id) > 0
    }
    best_id = min(partial, key=lambda c: (partial[c], c))
    return TuneResult(configs[best_id], partial[best_id], trace, False, evals)


BASELINE_STEPS = {"interval": 0.025, "hull": 0.025, "ellipsoid": 0.5}


def baseline_lambdas(set_type: str) -> list[float]:
    """The 41 equidistant scaling values for a pure parent set."""
    step = BASELINE_STEPS[set_type]
    return [round(i * step, 10) for i in range(41)]


def baseline_grid(
    set_type: str,
    graph: Graph,
    pairs: list[tuple[int, int]],
    data: ScenarioMatrix,
    split: Split,
    node_cap: int | None = 20_000,
    alpha: float = 0.05,
) -> list[tuple[float, Metrics, Metrics]]:
    """Evaluate the pure single-set model over the 41-point lambda grid."""
    train = data.subset(split.train_idx)
    test = data.subset(split.test_idx)
    metric_in = _metric_memo(train.costs, max(1, math.ceil(alpha * train.K)))
    metric_out = _metric_memo(test.costs, max(1, math.ceil(alpha * test.K)))
    results = []
    for lam in baseline_lambdas(set_type):
        mix = build_mixture(
            [{"weight": 1.0, "type": set_type, "lambda": lam}], train
        )
        triples_in, triples_out = [], []
        for pair in pairs:
            report = solve_for_pair(graph, pair, mix, node_cap)
            triples_in.append(metric_in(report.solution.x))
            triples_out.append(metric_out(report.solution.x))
        m_in = Metrics(*np.array(triples_in).mean(axis=0))
        m_out = Metrics(*np.array(triples_out).mean(axis=0))
        results.append((lam, m_in, m_out))
    return results
