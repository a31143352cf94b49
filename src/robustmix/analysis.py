"""Empirical verification of the structural guarantees.

Three checks: exhaustive submodularity testing of the budgeted-mixture
objective as a set function, closed-form dual certificates for budgeted
worst cases, and auditing the midpoint approximation factor against the
brute-force optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instances import Instance
from .solvers import evaluate_wrp, solve_brute_force, solve_midpoint_approx
from .uncertainty import Mixture

TOL = 1e-9


@dataclass(frozen=True)
class SetFunctionSpec:
    """f(X) = weighted budgeted worst cases of the incidence vector of X."""

    n: int
    mixture: Mixture

    def __post_init__(self):
        if self.n > 16:
            raise ValueError("exhaustive checking is capped at n=16")
        self.mixture.require("budgeted", "set function needs budgeted components")


def _mask_to_x(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def _mask_to_set(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (mask >> i) & 1)


def check_submodular(
    spec: SetFunctionSpec | None = None,
    n: int | None = None,
    f: Callable[[tuple[int, ...]], float] | None = None,
) -> dict:
    """Exhaustively test f(S) + f(T) >= f(S u T) + f(S n T).

    Either pass a SetFunctionSpec, or inject (n, f) where f maps an item
    tuple to a value (used by the supermodular self-test).  Returns
    {"ok": True} or {"ok": False, "violation": (S, T)} with the lowest
    lexicographic violating pair.
    """
    if spec is not None:
        n = spec.n
        values = np.array(
            [
                evaluate_wrp(spec.mixture, _mask_to_x(mask, n))
                for mask in range(1 << n)
            ]
        )
    else:
        if n is None or f is None:
            raise ValueError("need a spec or an injected (n, f)")
        if n > 16:
            raise ValueError("exhaustive checking is capped at n=16")
        values = np.array([f(_mask_to_set(mask, n)) for mask in range(1 << n)])

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
    largest chosen deviation and rho_i = [d_i x_i - pi]_+."""
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
    """Midpoint-approximation audit on an all-hull mixture.

    Returns {"ratio", "bound", "ok"}; ok iff 1 - tol <= ratio <= bound + tol.
    """
    mix.require("hull", "check_ratio needs hull components")
    mid = solve_midpoint_approx(inst, mix)
    opt = solve_brute_force(inst, mix)
    if opt.objective <= TOL:
        ratio = 1.0 if mid.objective <= TOL else float("inf")
    else:
        ratio = mid.objective / opt.objective
    bound = mid.guarantee
    ok = (1.0 - TOL) <= ratio <= bound + TOL
    return {"ratio": ratio, "bound": bound, "ok": ok}
