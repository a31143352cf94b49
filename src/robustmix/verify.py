"""Checks of the structural guarantees, and the seeded randomized suites
that `robustmix verify` runs on them; the tests share the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instances import Instance, gen_synthetic
from .solvers import evaluate_wrp, solve_brute_force, solve_midpoint_approx
from .uncertainty import BudgetedSet, HullSet, Mixture

TOL = 1e-9
SUBMODULAR_N = 8  # items of each random budgeted mixture suite_submodular checks
HULL_MAX_POINTS = 4  # points of each hull random_hull_mixture draws, at most


def _mask_to_x(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def _mask_to_set(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (mask >> i) & 1)


def check_submodular(n: int, f: Callable[[tuple[int, ...]], float]) -> dict:
    """Test f(S) + f(T) >= f(S u T) + f(S n T) over all subsets of n
    items, f taking S's 0/1 tuple.  Returns {"ok": True} or {"ok": False,
    "violation": (S, T)}, the lexicographically first violating pair as
    item tuples.  Raises ValueError when n > 16."""
    if n > 16:
        raise ValueError("exhaustive checking is capped at n=16")
    values = np.array([f(_mask_to_x(mask, n)) for mask in range(1 << n)])

    masks = np.arange(1 << n)
    for s in range(1 << n):
        t = masks[s:]  # unordered pairs once, via t >= s
        lhs = values[s] + values[t]
        rhs = values[s | t] + values[s & t]
        bad = np.nonzero(lhs < rhs - TOL)[0]
        if bad.size:
            t_mask = int(t[bad[0]])
            return {
                "ok": False,
                "violation": (_mask_to_set(s, n), _mask_to_set(t_mask, n)),
            }
    return {"ok": True}


@dataclass(frozen=True)
class DualCertificate:
    """Feasible dual solution certifying the budgeted worst-case value."""

    pi: tuple[float, ...]  # one threshold per component
    rho: tuple[tuple[float, ...], ...]  # one n-vector per component
    objective: float


def dual_certificate(mix: Mixture, x) -> DualCertificate:
    """Closed-form optimal duals: per component, pi is the (Gamma+1)-th
    largest chosen deviation and rho_i = [d_i x_i - pi]_+.  Raises
    UnsupportedError unless every component is budgeted."""
    mix.require("budgeted", "dual_certificate needs budgeted components")
    x = np.asarray(x, dtype=float)
    pis = []
    rhos = []
    objective = 0.0
    for weight, uset in mix.components:
        dev = uset.deviations * x
        chosen = np.sort(dev[x > 0.5])[::-1]
        if uset.gamma < chosen.size:
            pi = float(chosen[uset.gamma])
        else:
            pi = 0.0
        rho = np.maximum(dev - pi, 0.0)
        pis.append(pi)
        rhos.append(tuple(float(v) for v in rho))
        objective += weight * (
            float(uset.lo @ x) + uset.gamma * pi + float(rho.sum())
        )
    return DualCertificate(tuple(pis), tuple(rhos), objective)


def check_ratio(inst: Instance, mix: Mixture) -> dict:
    """Midpoint-approximation audit on an all-hull mixture: {"ratio",
    "bound", "ok"}, ok iff 1 - TOL <= ratio <= bound + TOL.  Raises
    UnsupportedError on any other mixture."""
    mid = solve_midpoint_approx(inst, mix)
    opt = solve_brute_force(inst, mix)
    if opt.objective <= TOL:
        ratio = 1.0 if mid.objective <= TOL else float("inf")
    else:
        ratio = mid.objective / opt.objective
    bound = mid.guarantee
    ok = (1.0 - TOL) <= ratio <= bound + TOL
    return {"ratio": ratio, "bound": bound, "ok": ok}


def random_budgeted_mixture(
    rng: np.random.Generator, n: int, max_components: int = 2
) -> Mixture:
    """1 to `max_components` random budgeted sets over n items."""
    count = int(rng.integers(1, max_components + 1))
    comps = []
    for _ in range(count):
        lo = rng.uniform(0.0, 5.0, n)
        hi = lo + rng.uniform(0.0, 5.0, n)
        gamma = int(rng.integers(0, n + 1))
        weight = float(rng.uniform(0.1, 1.0))
        comps.append((weight, BudgetedSet(lo, hi, gamma)))
    return Mixture(tuple(comps))


def random_hull_mixture(
    rng: np.random.Generator, n: int, max_components: int = 3
) -> Mixture:
    """1 to `max_components` random hulls of 1 to HULL_MAX_POINTS points."""
    count = int(rng.integers(1, max_components + 1))
    comps = []
    for _ in range(count):
        k = int(rng.integers(1, HULL_MAX_POINTS + 1))
        points = rng.uniform(0.0, 10.0, (k, n))
        weight = float(rng.uniform(0.1, 1.0))
        comps.append((weight, HullSet(points)))
    return Mixture(tuple(comps))


def random_instance(rng: np.random.Generator, max_sel_n: int = 10) -> Instance:
    """A small selection instance or a grid path instance."""
    if rng.integers(2) == 0:
        n = int(rng.integers(2, max_sel_n + 1))
        p = int(rng.integers(1, n + 1))
        return Instance.selection(n, p)
    width = int(rng.integers(2, 5))
    height = int(rng.integers(2, 5))
    graph, _ = gen_synthetic(width, height, 2, seed=int(rng.integers(1 << 31)))
    return Instance.spath(graph, 0, graph.num_nodes - 1)


def suite_submodular(seed: int = 0, trials: int = 100) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        mix = random_budgeted_mixture(rng, SUBMODULAR_N)
        result = check_submodular(SUBMODULAR_N, lambda x: evaluate_wrp(mix, x))
        if not result["ok"]:
            print(f"submodular: FAIL violation={result['violation']}")
            return False
    squared = check_submodular(2, lambda x: float(sum(x)) ** 2)
    if squared["ok"]:
        print("submodular: FAIL self-test did not flag a supermodular function")
        return False
    print(f"submodular: ok ({trials} mixtures at n={SUBMODULAR_N}; self-test flagged)")
    return True


def suite_ratio(seed: int = 0, trials: int = 100) -> bool:
    rng = np.random.default_rng(seed)
    nontrivial = 0
    for _ in range(trials):
        inst = random_instance(rng, max_sel_n=6)
        mix = random_hull_mixture(rng, inst.n)
        result = check_ratio(inst, mix)
        if not result["ok"]:
            print(f"ratio: FAIL ratio={result['ratio']} bound={result['bound']}")
            return False
        if result["ratio"] > 1.0 + TOL:
            nontrivial += 1
    print(f"ratio: ok ({trials} instances, {nontrivial} with ratio > 1)")
    return True


def suite_dual(seed: int = 0, trials: int = 100) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 11))
        mix = random_budgeted_mixture(rng, n)
        x = tuple(int(v) for v in rng.integers(0, 2, n))
        cert = dual_certificate(mix, x)
        target = evaluate_wrp(mix, x)
        if abs(cert.objective - target) > TOL:
            print(f"dual: FAIL gap={cert.objective - target}")
            return False
        for (_, uset), pi, rho in zip(mix.components, cert.pi, cert.rho):
            if pi < 0:
                print(f"dual: FAIL negative threshold pi={pi}")
                return False
            dev = uset.deviations
            for i, xi in enumerate(x):
                if rho[i] < -1e-12:
                    print(f"dual: FAIL negative overflow at item {i}")
                    return False
                if pi + rho[i] < dev[i] * xi - 1e-12:
                    print(f"dual: FAIL infeasible certificate at item {i}")
                    return False
    print(f"dual: ok ({trials} certificates, exact and feasible)")
    return True


# suite name -> runner, in the order "all" runs them
SUITES = {"submodular": suite_submodular, "ratio": suite_ratio, "dual": suite_dual}


def run_suites(suite: str, seed: int = 0, trials: int = 100) -> bool:
    """Run one suite of SUITES, or "all" in order, each printing one line;
    True when all pass.  Raises ValueError when trials < 1."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    ok = True
    for name, run in SUITES.items():
        if suite in (name, "all"):
            ok = run(seed, trials) and ok
    return ok
