"""Racing auto-tuner for mixture hyperparameters, and baseline grids.

A configuration is up to `max_parents` (type, lambda, weight) triples.
Each generation solves the survivors on a growing prefix of the pairs,
scalarizes their training metrics by fixed weights, eliminates those
that trail the best by a margin, and perturbs survivors into new ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .evaluation import (
    ALPHA,
    Metrics,
    Split,
    check_weights,
    mean_metrics,
    pair_metrics,
    scalarize,
    tail_count,
)
from .instances import Graph, Instance, float_vector
from .solvers import SolveReport, solve_auto, solve_local_search
from .uncertainty import LAMBDA_RANGES, Mixture, ScenarioMatrix, build_mixture

WEIGHT_RANGE = (0.0, 1.0)  # each parent's mixture weight
GENERATION_SIZE = 20  # configurations alive at the start of a generation
ELIMINATION_MARGIN = 0.01  # relative cost gap to the incumbent that eliminates
MIN_SHARED_PAIRS = 5  # pairs a configuration needs before it can be eliminated
TUNE_NODE_CAP = 150  # branch-and-bound nodes per tuner pair-solve
BASELINE_NODE_CAP = 20_000  # branch-and-bound nodes per baseline pair-solve
TUNABLE_TYPES = ("interval", "hull", "ellipsoid")  # built from type and lambda alone


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
    """How many parents `tune` may draw, and its budget of pair-solves;
    the module constants fix the rest of the race.  Raises ValueError
    when either is below 1."""

    max_parents: int = 3
    budget: int = 10_000

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.max_parents < 1:
            raise ValueError("max_parents must be at least 1")


def sample_config(space: ConfigSpace, rng: np.random.Generator) -> Config:
    """Uniform draw: parent count, type, lambda and weight."""
    count = int(rng.integers(1, space.max_parents + 1))
    parents = []
    for _ in range(count):
        set_type = TUNABLE_TYPES[int(rng.integers(len(TUNABLE_TYPES)))]
        lo, hi = LAMBDA_RANGES[set_type]
        lam = float(rng.uniform(lo, hi))
        weight = float(rng.uniform(*WEIGHT_RANGE))
        parents.append(ParentSpec(set_type, lam, weight))
    return Config(tuple(parents))


def perturb_config(config: Config, rng: np.random.Generator) -> Config:
    """Gaussian perturbation, sigma = 10% of each range, clamped."""
    wlo, whi = WEIGHT_RANGE
    # One draw for all steps, each parent's lambda step then its weight
    # step: 0.0 + sigma * z is, bit for bit and draw for draw, what one
    # rng.normal(0.0, sigma) call per step gives.
    steps = iter(rng.standard_normal(2 * len(config.parents)).tolist())
    parents = []
    for parent in config.parents:
        lo, hi = LAMBDA_RANGES[parent.set_type]
        lam = min(max(parent.lam + (0.0 + 0.1 * (hi - lo) * next(steps)), lo), hi)
        weight = parent.weight + (0.0 + 0.1 * (whi - wlo) * next(steps))
        parents.append(ParentSpec(parent.set_type, lam, min(max(weight, wlo), whi)))
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


def _metric_memo(costs: np.ndarray):
    """`pair_metrics` on `costs`, cached per solution x: a path's arcs fix
    its pair, so x alone is the key."""
    tail = tail_count(ALPHA, costs.shape[0])

    @functools.cache
    def metric(x: tuple[int, ...]) -> tuple[float, float, float]:
        return pair_metrics(float_vector(x), costs, tail)

    return metric


def solve_for_pair(
    graph: Graph,
    pair: tuple[int, int],
    mix: Mixture,
    node_cap: int | None = None,
) -> SolveReport:
    """`solve_auto` on the pair's instance with `node_cap`; when that is
    not proven, the better of it and one local-search descent."""
    inst = Instance.spath(graph, pair[0], pair[1])
    report = solve_auto(inst, mix, max_nodes=node_cap)
    if not report.optimal:
        fallback = solve_local_search(inst, mix, restarts=0)
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
) -> TuneResult:
    """The configuration with the lowest in-sample scalarized cost within
    `space.budget` pair-solves: among those solved on all pairs, else
    (`completed_full_eval` false) on the pairs each was solved on.
    Raises ValueError, before any solve, on an empty pair list or
    weights that `check_weights` rejects."""
    if not pairs:
        raise ValueError("empty pair list")
    check_weights(w)
    rng = np.random.default_rng(seed)
    train = data.subset(split.train_idx)
    metric = _metric_memo(train.costs)
    P = len(pairs)

    configs = [sample_config(space, rng) for _ in range(GENERATION_SIZE)]
    # triples[c]: configuration c's metrics on pairs[:len(triples[c])]
    triples: list[list[tuple[float, float, float]]] = [[] for _ in configs]
    mixtures: dict[int, Mixture] = {}  # the alive configurations' mixtures
    alive = list(range(len(configs)))
    trace: list[TraceEntry] = []
    evals = 0
    generation = 0

    @functools.cache
    def cost_at(cfg_id: int, pairs_done: int) -> float:
        return scalarize(mean_metrics(triples[cfg_id]), w)

    def cost(cfg_id: int) -> float:
        # triples only grow, so their length names their contents
        return cost_at(cfg_id, len(triples[cfg_id]))

    while evals < space.budget:
        n_g = min(P, 5 * (2**generation))
        evals_before = evals
        for cfg_id in alive:
            done = triples[cfg_id]
            while len(done) < n_g and evals < space.budget:
                if not done:
                    mixtures[cfg_id] = build_mixture(configs[cfg_id].to_specs(), train)
                report = solve_for_pair(
                    graph, pairs[len(done)], mixtures[cfg_id], TUNE_NODE_CAP
                )
                done.append(metric(report.solution.x))
                evals += 1

        costs = {cfg_id: cost(cfg_id) for cfg_id in alive if triples[cfg_id]}
        for cfg_id, value in costs.items():
            k = len(triples[cfg_id])
            trace.append(TraceEntry(generation, cfg_id, k, value, configs[cfg_id]))
        cutoff = min(costs.values()) * (1.0 + ELIMINATION_MARGIN)
        alive = [
            cfg_id
            for cfg_id, value in costs.items()
            if len(triples[cfg_id]) < min(MIN_SHARED_PAIRS, P) or value <= cutoff
        ]

        if evals >= space.budget:
            break
        if evals == evals_before and n_g >= P:
            # stagnation: everything alive is fully evaluated and within
            # the margin; keep the incumbent and explore fresh configs
            alive = [min(costs, key=lambda c: (costs[c], c))]
        # an eliminated configuration is never raced again; every
        # survivor has been solved on a pair, so it has a mixture
        mixtures = {cfg_id: mixtures[cfg_id] for cfg_id in alive}
        while len(alive) < GENERATION_SIZE:
            parent = configs[alive[int(rng.integers(len(alive)))]]
            configs.append(perturb_config(parent, rng))
            triples.append([])
            alive.append(len(configs) - 1)
        generation += 1

    ids = range(len(configs))
    ranked = [c for c in ids if len(triples[c]) == P] or [c for c in ids if triples[c]]
    best_cost, best_id = min((cost(c), c) for c in ranked)
    return TuneResult(
        configs[best_id], best_cost, trace, len(triples[best_id]) == P, evals
    )


def baseline_lambdas(set_type: str) -> list[float]:
    """The 41 equidistant scaling values spanning a tunable type's
    lambda range (`LAMBDA_RANGES`), for a pure parent set."""
    lo, hi = LAMBDA_RANGES[set_type]
    step = (hi - lo) / 40
    return [round(lo + i * step, 10) for i in range(41)]


def baseline_grid(
    set_type: str,
    graph: Graph,
    pairs: list[tuple[int, int]],
    data: ScenarioMatrix,
    split: Split,
) -> list[tuple[float, Metrics, Metrics]]:
    """In- and out-of-sample metrics of the pure single-set model at each
    of the 41 `baseline_lambdas`, each pair solved by `solve_for_pair`
    with BASELINE_NODE_CAP.  The rows equal, within the solvers'
    tolerance, those of a lambda-by-lambda sweep.  Raises ValueError on
    a type outside TUNABLE_TYPES or an empty pair list.
    """
    if set_type not in TUNABLE_TYPES:
        raise ValueError(f"baseline grids sweep {TUNABLE_TYPES}, not {set_type!r}")
    if not pairs:
        raise ValueError("empty pair list")
    train = data.subset(split.train_idx)
    test = data.subset(split.test_idx)
    metric_in = _metric_memo(train.costs)
    metric_out = _metric_memo(test.costs)
    lams = baseline_lambdas(set_type)
    last = len(lams) - 1
    # xs[p][k], proven[p][k]: pair p's x at lambda k, once solved or filled
    xs: list[list] = [[None] * len(lams) for _ in pairs]
    proven = [[False] * len(lams) for _ in pairs]
    todo = {0: range(len(pairs)), last: range(len(pairs))}  # lambda -> pairs
    spans = [(p, 0, last) for p in range(len(pairs))]  # ends solved, inside not
    while todo:
        for k, who in sorted(todo.items()):
            spec = {"weight": 1.0, "type": set_type, "lambda": lams[k]}
            mix = build_mixture([spec], train)
            for p in who:
                report = solve_for_pair(graph, pairs[p], mix, BASELINE_NODE_CAP)
                xs[p][k], proven[p][k] = report.solution.x, report.optimal
        todo, next_spans = {}, []
        for p, lo, hi in spans:
            # Exact: a fixed x's worst case is a(x) + t b(x), t = lambda for
            # interval and hull, sqrt(lambda) for the ellipsoid, so the
            # optimum is concave in t and a path optimal within tolerance at
            # both ends stays so between them, where the solvers' fixed
            # tie rule picks it too.  An unproven end fills nothing.
            if proven[p][lo] and proven[p][hi] and xs[p][lo] == xs[p][hi]:
                xs[p][lo + 1 : hi] = [xs[p][lo]] * (hi - lo - 1)
            elif hi - lo > 1:
                mid = (lo + hi) // 2
                todo.setdefault(mid, []).append(p)
                next_spans += [(p, lo, mid), (p, mid, hi)]
        spans = next_spans
    return [
        (
            lam,
            mean_metrics([metric_in(x) for x in column]),
            mean_metrics([metric_out(x) for x in column]),
        )
        for lam, column in zip(lams, zip(*xs))
    ]
