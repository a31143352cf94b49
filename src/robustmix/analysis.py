"""Empirical verification of the structural guarantees.

Three checks: exhaustive submodularity testing of a set function given
on 0/1 incidence tuples (`verify` passes the budgeted-mixture
objective), closed-form dual certificates for budgeted worst cases, and
auditing the midpoint approximation factor against the brute-force
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instances import Instance
from .solvers import solve_brute_force, solve_midpoint_approx
from .uncertainty import Mixture

TOL = 1e-9


def _mask_to_x(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def _mask_to_set(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (mask >> i) & 1)


def check_submodular(n: int, f: Callable[[tuple[int, ...]], float]) -> dict:
    """Exhaustively test f(S) + f(T) >= f(S u T) + f(S n T) over the
    subsets of n <= 16 items.

    `f` maps the 0/1 incidence tuple of S to a value.  Returns
    {"ok": True} or {"ok": False, "violation": (S, T)} with the lowest
    lexicographic violating pair, S and T as item tuples.
    """
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
    """Midpoint-approximation audit on an all-hull mixture; any other
    mixture raises UnsupportedError from `solve_midpoint_approx`.

    Returns {"ratio", "bound", "ok"}; ok iff 1 - tol <= ratio <= bound + tol.
    """
    mid = solve_midpoint_approx(inst, mix)
    opt = solve_brute_force(inst, mix)
    if opt.objective <= TOL:
        ratio = 1.0 if mid.objective <= TOL else float("inf")
    else:
        ratio = mid.objective / opt.objective
    bound = mid.guarantee
    ok = (1.0 - TOL) <= ratio <= bound + TOL
    return {"ratio": ratio, "bound": bound, "ok": ok}
