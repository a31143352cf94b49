"""An exact reference for the emitted mixture models: HiGHS through scipy.

`milp_arrays` turns `parse_lp(emit_model(inst, mix)[0])` into the arrays
`scipy.optimize.milp` takes, and `solve_reference` solves them with a
relative gap of 1e-9: HiGHS's default of 1e-4 would accept a worse path.
Presolve is off, which changes no optimum: on the 23x23 hull model
HiGHS took 1.6 s with it and 1.1 s without.  Dropping integrality gives
the LP relaxation, which for a linear family is the best Lagrangian
bound.  Import this module only after `pytest.importorskip("scipy")`;
the package itself never imports scipy.
"""

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from robustmix.mip_emit import emit_model, parse_lp

MIP_REL_GAP = 1e-9


def milp_arrays(inst, mix, exclude=()):
    """(c, constraints, integrality, bounds) for `milp` from the emitted
    model of `inst` and `mix`, the item variables x_0..x_{n-1} first.
    Each item set in `exclude` gets a no-good cut: at most |S| - 1 of
    its items are chosen."""
    lp = parse_lp(emit_model(inst, mix)[0])
    names = [f"x_{i}" for i in range(inst.n)]
    names += [name for name in lp.bounds if name not in lp.general]
    column = {name: j for j, name in enumerate(names)}
    c = np.zeros(len(names))
    for name, coef in lp.objective.items():
        c[column[name]] = coef
    rows, cols, vals, lower, upper = [], [], [], [], []
    for r, (_, terms, sense, rhs) in enumerate(lp.constraints):
        for name, coef in terms.items():
            rows.append(r)
            cols.append(column[name])
            vals.append(coef)
        lower.append(-math.inf if sense == "<=" else rhs)
        upper.append(math.inf if sense == ">=" else rhs)
    for r, items in enumerate(exclude, start=len(lp.constraints)):
        rows += [r] * len(items)
        cols += list(items)
        vals += [1.0] * len(items)
        lower.append(-math.inf)
        upper.append(len(items) - 1)
    matrix = coo_array((vals, (rows, cols)), shape=(len(lower), len(names)))
    integrality = np.array([name in lp.general for name in names], dtype=int)
    bounds = Bounds(*np.array([lp.bounds[name] for name in names]).T)
    return c, LinearConstraint(matrix, lower, upper), integrality, bounds


def solve_reference(inst, mix, integral=True, exclude=()):
    """HiGHS's optimum of the emitted model, or of its LP relaxation when
    `integral` is False, under the no-good cuts of `exclude`: (objective,
    x) with x the rounded 0/1 item tuple."""
    c, constraints, integrality, bounds = milp_arrays(inst, mix, exclude)
    if not integral:
        integrality = np.zeros_like(integrality)
    res = milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options={"mip_rel_gap": MIP_REL_GAP, "presolve": False},
    )
    assert res.success, res.message
    x = tuple(int(round(v)) for v in res.x[: inst.n])
    return float(res.fun), x
