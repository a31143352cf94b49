"""Scenario-based scoring: splits, Avg/Max/CVaR metrics, scalarization
and weight grids.  A solution's costs under K scenarios form its pool:
Avg averages it, Max takes its worst value and CVaR averages its worst
ceil(alpha K) values; each is then averaged over pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import Solution
from .uncertainty import ScenarioMatrix

ALPHA = 0.05  # default CVaR tail fraction


@dataclass(frozen=True)
class Metrics:
    avg: float
    max: float
    cvar: float

    def format_line(self) -> str:
        return f"avg={self.avg:.6f} max={self.max:.6f} cvar={self.cvar:.6f}"


@dataclass(frozen=True)
class Split:
    train_idx: tuple[int, ...]
    test_idx: tuple[int, ...]


def split_scenarios(K: int, ratio: float, seed: int = 0) -> Split:
    """Random train/test split with |train| = floor(ratio K), fixed by
    `seed`.  Raises ValueError on K < 2, a ratio outside (0, 1), or an
    empty train side."""
    if K < 2:
        raise ValueError("need at least 2 scenarios to split")
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie strictly between 0 and 1")
    cut = math.floor(ratio * K)  # below K, as ratio < 1: the test side is never empty
    if cut == 0:
        raise ValueError(f"ratio {ratio} leaves the train side of {K} scenarios empty")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(K)
    train = tuple(sorted(int(i) for i in perm[:cut]))
    test = tuple(sorted(int(i) for i in perm[cut:]))
    return Split(train, test)


def tail_count(alpha: float, K: int) -> int:
    """How many of K scenario costs CVaR averages: ceil(alpha K), at
    least one.  Raises ValueError unless 0 < alpha <= 1."""
    if not 0 < alpha <= 1:  # NaN fails too
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return max(1, math.ceil(alpha * K))


def pair_metrics(x: np.ndarray, costs: np.ndarray, tail: int) -> tuple[float, float, float]:
    """Avg, Max and CVaR of one solution's scenario cost pool `costs @ x`;
    CVaR averages the `tail` largest costs."""
    pool = costs @ x
    return (
        float(pool.mean()),
        float(pool.max()),
        float(np.sort(pool)[::-1][:tail].mean()),
    )


def mean_metrics(triples) -> Metrics:
    """The mean over pairs of (avg, max, cvar) float triples, bit for bit
    `np.array(triples).mean(axis=0)`.  Raises ValueError on no triples."""
    # A left fold, not sum(): builtin sum() of floats is compensated from
    # Python 3.12 and would round differently from numpy's mean.
    avg = worst = cvar = 0.0
    count = 0
    for a, m, c in triples:
        avg += a
        worst += m
        cvar += c
        count += 1
    if not count:
        raise ValueError("need at least one (avg, max, cvar) triple")
    return Metrics(float(avg / count), float(worst / count), float(cvar / count))


def score(
    solutions: list[Solution],
    scenarios: ScenarioMatrix,
    alpha: float = ALPHA,
) -> Metrics:
    """Avg/Max/CVaR averaged over the solutions' scenario cost pools.
    Raises ValueError on no solutions, a solution of another length, an
    alpha outside (0, 1] or a metric that overflows."""
    if not solutions:
        raise ValueError("need at least one solution to score")
    tail = tail_count(alpha, scenarios.K)
    triples = []
    for sol in solutions:
        x = sol.as_array()
        if x.shape[0] != scenarios.n:
            raise ValueError("solution length does not match scenario columns")
        triples.append(pair_metrics(x, scenarios.costs, tail))
    metrics = mean_metrics(triples)
    if not all(map(math.isfinite, (metrics.avg, metrics.max, metrics.cvar))):
        raise ValueError(f"the metrics overflow: {metrics.format_line()}")
    return metrics


def scalarize(m: Metrics, w: tuple[float, float, float]) -> float:
    """Weighted sum w_avg avg + w_max max + w_cvar cvar.  Raises
    ValueError on weights that `check_weights` rejects."""
    check_weights(w)
    return w[0] * m.avg + w[1] * m.max + w[2] * m.cvar


def check_weights(w) -> None:
    """Raise ValueError unless w is three finite, nonnegative numbers,
    the scalarization weights a race or a trade-off can rank by."""
    try:
        a, b, c = w
        ok = 0 <= a < math.inf and 0 <= b < math.inf and 0 <= c < math.inf  # NaN fails
    except (TypeError, ValueError):  # not three entries, or one not a number
        ok = False
    if not ok:
        raise ValueError(f"weights must be three finite, nonnegative numbers: {w!r}")


def weight_grid(step: float = 0.1) -> list[tuple[float, float, float]]:
    """All weight triples of multiples of `step` summing to one,
    in lexicographic order."""
    if not 0 < step <= 1:
        raise ValueError(f"weight grid step must lie in (0, 1], got {step}")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-9:
        raise ValueError(f"weight grid step must divide 1, got {step}")
    grid = []
    for a in range(m + 1):
        for b in range(m + 1 - a):
            c = m - a - b
            grid.append((a / m, b / m, c / m))
    return grid

