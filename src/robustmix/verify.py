"""Randomized verification suites behind the `verify` subcommand.

Also hosts the seeded random generators shared with the test suite, so
the acceptance checks and the CLI exercise identical distributions.
"""

from __future__ import annotations

import numpy as np

from .analysis import SetFunctionSpec, check_ratio, check_submodular, dual_certificate
from .instances import Instance
from .solvers import evaluate_wrp
from .uncertainty import BudgetedSet, HullSet, Mixture


def random_budgeted_mixture(
    rng: np.random.Generator, n: int, max_components: int = 2
) -> Mixture:
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
    rng: np.random.Generator, n: int, max_components: int = 3, max_points: int = 4
) -> Mixture:
    count = int(rng.integers(1, max_components + 1))
    comps = []
    for _ in range(count):
        k = int(rng.integers(1, max_points + 1))
        points = rng.uniform(0.0, 10.0, (k, n))
        weight = float(rng.uniform(0.1, 1.0))
        comps.append((weight, HullSet(points)))
    return Mixture(tuple(comps))


def random_instance(rng: np.random.Generator, max_sel_n: int = 10) -> Instance:
    """A small selection instance or a grid path instance."""
    from .instances import gen_synthetic

    if rng.integers(2) == 0:
        n = int(rng.integers(2, max_sel_n + 1))
        p = int(rng.integers(1, n + 1))
        return Instance.selection(n, p)
    width = int(rng.integers(2, 5))
    height = int(rng.integers(2, 5))
    graph, _ = gen_synthetic(width, height, 2, seed=int(rng.integers(1 << 31)))
    return Instance.spath(graph, 0, graph.num_nodes - 1)


def suite_submodular(seed: int = 0, trials: int = 100, n: int = 8) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        mix = random_budgeted_mixture(rng, n)
        result = check_submodular(SetFunctionSpec(n, mix))
        if not result["ok"]:
            print(f"submodular: FAIL violation={result['violation']}")
            return False
    injected = check_submodular(n=2, f=lambda items: float(len(items)) ** 2)
    if injected["ok"]:
        print("submodular: FAIL self-test did not flag a supermodular function")
        return False
    print(f"submodular: ok ({trials} mixtures at n={n}; self-test flagged)")
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
        if result["ratio"] > 1.0 + 1e-9:
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
        if abs(cert.objective - target) > 1e-9:
            print(f"dual: FAIL gap={cert.objective - target}")
            return False
        for (_, uset), pi, rho in zip(mix.components, cert.pi, cert.rho):
            dev = uset.deviations
            for i, xi in enumerate(x):
                if pi + rho[i] < dev[i] * xi - 1e-12:
                    print(f"dual: FAIL infeasible certificate at item {i}")
                    return False
    print(f"dual: ok ({trials} certificates, exact and feasible)")
    return True


# suite name -> runner, in the order "all" runs them
SUITES = {"submodular": suite_submodular, "ratio": suite_ratio, "dual": suite_dual}


def run_suites(suite: str, seed: int = 0, trials: int = 100) -> bool:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    ok = True
    for name, run in SUITES.items():
        if suite in (name, "all"):
            ok = run(seed, trials) and ok
    return ok
