"""Scenario-based scoring: splits, Avg/Max/CVaR metrics, scalarization,
weight grids and trade-off exports.

Per solution (one per origin-destination pair), the cost under each
scenario forms a pool; Avg averages the pool, Max takes its worst value
and CVaR averages the worst ceil(alpha K) values.  All three are then
averaged over pairs (`mean_metrics`).  The tail count (`tail_count`)
uses ceiling rounding so the tail is never empty.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .instances import Solution
from .uncertainty import ScenarioMatrix


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
    """Random train/test split with |train| = floor(ratio K) >= 1."""
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
    """The mean over pairs of (avg, max, cvar) triples, summed in pair
    order: scoring, tuning and baselines all average through it."""
    return Metrics(*np.array(triples).mean(axis=0).tolist())


def score(
    solutions: list[Solution],
    scenarios: ScenarioMatrix,
    alpha: float = 0.05,
) -> Metrics:
    """Aggregate Avg/Max/CVaR over per-pair scenario cost pools."""
    if not solutions:
        raise ValueError("need at least one solution to score")
    if scenarios.K < 1:
        raise ValueError("empty scenario pool")
    tail = tail_count(alpha, scenarios.K)
    triples = []
    for sol in solutions:
        x = sol.as_array()
        if x.shape[0] != scenarios.n:
            raise ValueError("solution length does not match scenario columns")
        triples.append(pair_metrics(x, scenarios.costs, tail))
    return mean_metrics(triples)


def scalarize(m: Metrics, w: tuple[float, float, float]) -> float:
    """Weighted sum w_avg avg + w_max max + w_cvar cvar."""
    if any(v < 0 for v in w):
        raise ValueError("weights must be nonnegative")
    return w[0] * m.avg + w[1] * m.max + w[2] * m.cvar


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


def export_tradeoffs(
    records: list[tuple[str, Metrics, Metrics]], out_path: str
) -> int:
    """CSV export of (label, in-sample, out-sample) metric records; two
    rows per record, fixed 6-decimal formatting.  Returns record count."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "sample", "avg", "max", "cvar"])
    for label, m_in, m_out in records:
        for sample, m in (("in", m_in), ("out", m_out)):
            writer.writerow(
                [label, sample, f"{m.avg:.6f}", f"{m.max:.6f}", f"{m.cvar:.6f}"]
            )
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
    return len(records)


def parse_tradeoffs(text: str) -> list[tuple[str, str, Metrics]]:
    """Round-trip reader for the trade-off CSV."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != ["label", "sample", "avg", "max", "cvar"]:
        raise ValueError("bad trade-off CSV header")
    out = []
    for label, sample, avg, mx, cvar in rows[1:]:
        out.append((label, sample, Metrics(float(avg), float(mx), float(cvar))))
    return out
