"""Solution methods for the weighted robust problem.

min over x in X of sum_j p_j max_{c in U_j} c . x

Exact reductions exist for all-interval mixtures (weighted upper bounds
are nominal costs), all-budgeted mixtures (enumeration over the dual
threshold candidates) and mixtures with a single diagonal ellipsoid plus
intervals (dichotomic scan over mean-variance scalarizations).  A
generic best-first branch-and-bound, a brute-force oracle and a local
search cover everything else.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InfeasibleError, UnsupportedError
from .instances import (
    Instance,
    Solution,
    check_costs,
    enumerate_feasible,
    nominal_solve,
    nominal_values,
)
from .uncertainty import EllipsoidSet, IntervalSet, Mixture, worst_case

TOL = 1e-9


@dataclass
class SolveReport:
    """Result of one solver run."""

    solution: Solution
    objective: float
    method: str
    optimal: bool
    nodes_explored: int = 0
    oracle_calls: int = 0
    guarantee: float | None = None


def evaluate_wrp(mix: Mixture, x) -> float:
    """Weighted sum of per-component worst cases, summed in index order."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for weight, uset in mix.components:
        value, _ = worst_case(uset, x)
        total += weight * value
    return total


def _weighted_sum(mix: Mixture, n: int, member: str) -> np.ndarray:
    """sum_j p_j U_j.<member>() over the components, summed in index order."""
    total = np.zeros(n)
    for weight, uset in mix.components:
        total += weight * getattr(uset, member)()
    return total


def _lexset(x) -> tuple[int, ...]:
    return tuple(itertools.compress(range(len(x)), x))


def _better(obj_a, lex_a, obj_b, lex_b) -> bool:
    """Is (obj_a, lex_a) preferable to (obj_b, lex_b)?"""
    if obj_a < obj_b - 1e-12:
        return True
    if obj_a > obj_b + 1e-12:
        return False
    return lex_a < lex_b


def solve_interval_mix(inst: Instance, mix: Mixture) -> SolveReport:
    """All-interval mixtures reduce to a single nominal problem with
    reduced costs sum_j p_j hi^j, the intervals' bound members."""
    mix.require("interval", "solve_interval_mix needs interval components")
    sol = nominal_solve(inst, _weighted_sum(mix, inst.n, "bound_member"))
    obj = evaluate_wrp(mix, sol.x)
    return SolveReport(Solution(sol.x, obj), obj, "interval", True, oracle_calls=1)


THRESHOLD_BLOCK = 256  # threshold tuples priced per vector-label pass


def _threshold_candidates(mix: Mixture) -> list[list[float]]:
    """Per budgeted component, its dual thresholds {0} union {deviations},
    sorted; the enumeration prices the product of these lists."""
    mix.require("budgeted", "solve_budgeted_mix needs budgeted components")
    return [sorted(set([0.0] + u.deviations.tolist())) for _, u in mix.components]


def solve_budgeted_mix(
    inst: Instance, mix: Mixture, cap: int = 10_000_000
) -> SolveReport:
    """Exact optimum for all-budgeted mixtures by enumerating the dual
    threshold candidates {0} union {deviations} per component.

    Each threshold tuple pi gives the nominal costs
    sum_j p_j (lo_j + max(dev_j - pi_j, 0)) plus the constant
    sum_j p_j gamma_j pi_j.  The tuples are streamed in blocks of
    THRESHOLD_BLOCK columns, never materialised whole, and each block is
    priced by one `nominal_values` call: on an acyclic graph one
    vector-label topological pass per block, elsewhere one oracle call
    per column.  Values are replayed through the running-best rule of
    `_better`; `nominal_solve` runs only where that rule needs a
    solution: for both sides of a tie within 1e-12, and for the final
    best.  oracle_calls counts the threshold columns priced plus those
    `nominal_solve` calls.
    """
    candidate_lists = _threshold_candidates(mix)
    total = math.prod(len(cands) for cands in candidate_lists)
    if total > cap:
        raise CapExceededError(
            f"{total} threshold candidates exceed cap {cap}; use solve_bnb"
        )

    parts = [
        (w, uset.lo[:, None], uset.deviations[:, None], w * uset.gamma)
        for w, uset in mix.components
    ]
    calls = 0

    def solve(costs) -> Solution:
        nonlocal calls
        calls += 1
        return nominal_solve(inst, costs)

    # the best reduced value, its cost column and, once needed, its solution
    best_value = best_costs = best_sol = None
    tuples = itertools.product(*candidate_lists)
    while chunk := list(itertools.islice(tuples, THRESHOLD_BLOCK)):
        pis = np.array(chunk).T  # one row of thresholds per component
        block = np.zeros((inst.n, pis.shape[1]))
        const = np.zeros(pis.shape[1])
        for (w, lo, dev, wg), pi in zip(parts, pis):
            block += w * (lo + np.maximum(dev - pi, 0.0))
            const += wg * pi
        values = nominal_values(inst, block) + const
        calls += pis.shape[1]
        for j, value in enumerate(values.tolist()):
            if best_value is None or value < best_value - 1e-12:
                best_value, best_costs, best_sol = value, block[:, j].copy(), None
            elif value <= best_value + 1e-12:
                # a tie goes to the smaller item set: both solutions are needed
                if best_sol is None:
                    best_sol = solve(best_costs)
                sol = solve(block[:, j])
                if _lexset(sol.x) < _lexset(best_sol.x):
                    best_value, best_sol = value, sol
    if best_sol is None:
        best_sol = solve(best_costs)
    obj = evaluate_wrp(mix, best_sol.x)
    return SolveReport(
        Solution(best_sol.x, obj), obj, "budgeted-enum", True, oracle_calls=calls
    )


def solve_midpoint_approx(inst: Instance, mix: Mixture) -> SolveReport:
    """Optimize the weighted per-hull scenario average; the result is a
    K^max-approximation where K^max is the largest point count."""
    mix.require("hull", "solve_midpoint_approx needs hull components")
    kmax = max(uset.num_points for _, uset in mix.components)
    sol = nominal_solve(inst, _weighted_sum(mix, inst.n, "center"))
    obj = evaluate_wrp(mix, sol.x)
    return SolveReport(
        Solution(sol.x, obj),
        obj,
        "midpoint",
        False,
        oracle_calls=1,
        guarantee=float(kmax),
    )


def solve_ellipsoid_parametric(inst: Instance, mix: Mixture) -> SolveReport:
    """Exact solver for one diagonal ellipsoid plus interval components.

    The objective is linear(x) + w sqrt(S(x)) with S linear in binary x,
    so the optimum sits on the lower-left hull of the (linear, S)
    projection; a recursive dichotomic scan over scalarization slopes
    collects all supported solutions and picks the true best.  The
    report says optimal=False when the 200-step theta push or the
    depth-60 scan cap cut the search.
    """
    linear = np.zeros(inst.n)
    ell = None
    ell_weight = 0.0
    for weight, uset in mix.components:
        if isinstance(uset, IntervalSet):
            linear += weight * uset.hi
        elif isinstance(uset, EllipsoidSet):
            if ell is not None:
                raise UnsupportedError(
                    "at most one ellipsoid component; use solve_bnb"
                )
            if not uset.is_diagonal():
                raise UnsupportedError("ellipsoid covariance must be diagonal")
            ell = uset
            ell_weight = weight
        else:
            raise UnsupportedError(
                "solve_ellipsoid_parametric allows only interval and "
                "ellipsoid components"
            )
    if ell is None:
        return solve_interval_mix(inst, mix)

    linear = linear + ell_weight * ell.mu
    spread = ell.lam * np.diag(ell.sigma)  # S(x) = spread . x
    calls = 0

    def oracle(theta: float) -> Solution:
        nonlocal calls
        calls += 1
        return nominal_solve(inst, linear + theta * spread)

    def pair(sol: Solution):
        x = np.asarray(sol.x, dtype=float)
        return float(linear @ x), float(spread @ x)

    candidates: dict[tuple[int, ...], Solution] = {}

    def remember(sol: Solution):
        candidates[sol.x] = sol

    sol_l = oracle(0.0)
    remember(sol_l)
    sol_v = nominal_solve(inst, np.maximum(spread, 0.0))
    calls += 1
    remember(sol_v)
    v_min = pair(sol_v)[1]

    # Push theta up until variance minimization dominates, so the
    # (min-variance, min-linear) corner itself is collected.  Either cap
    # cutting the search leaves the result unproven.
    proved = True
    theta = 1.0
    sol_r = sol_l
    for _ in range(200):
        sol_r = oracle(theta)
        remember(sol_r)
        if pair(sol_r)[1] <= v_min + 1e-12:
            break
        theta *= 4.0
    else:
        proved = False

    def scan(left: Solution, right: Solution, depth: int = 0):
        nonlocal proved
        if depth > 60:
            proved = False
            return
        l_l, s_l = pair(left)
        l_r, s_r = pair(right)
        if s_l <= s_r + 1e-15:
            return
        theta = (l_r - l_l) / (s_l - s_r)
        if theta <= 0:
            return
        mid = oracle(theta)
        l_m, s_m = pair(mid)
        if (abs(l_m - l_l) < 1e-12 and abs(s_m - s_l) < 1e-12) or (
            abs(l_m - l_r) < 1e-12 and abs(s_m - s_r) < 1e-12
        ):
            return
        remember(mid)
        scan(left, mid, depth + 1)
        scan(mid, right, depth + 1)

    scan(sol_l, sol_r)

    best = None
    for x, sol in sorted(candidates.items()):
        lin, var = pair(sol)
        obj = lin + ell_weight * np.sqrt(max(var, 0.0))
        lex = _lexset(x)
        if best is None or _better(obj, lex, best[0], best[1]):
            best = (obj, lex, sol)
    obj = evaluate_wrp(mix, best[2].x)
    return SolveReport(
        Solution(best[2].x, obj), obj, "parametric", proved, oracle_calls=calls
    )


def _bound_costs(mix: Mixture, n: int) -> np.ndarray:
    """Weighted sum of each set's `bound_member()`, a fixed member, so
    cost . x never exceeds the objective."""
    return _weighted_sum(mix, n, "bound_member")


def _branch_spread(mix: Mixture, n: int) -> np.ndarray:
    """Weighted sum of each set's per-item `spread()` between worst case
    and bound member; used to pick branching variables."""
    return _weighted_sum(mix, n, "spread")


def solve_bnb(
    inst: Instance,
    mix: Mixture,
    max_nodes: int | None = None,
    time_limit: float | None = None,
    warm_start: Solution | None = None,
) -> SolveReport:
    """Best-first branch-and-bound on item inclusion/exclusion.

    Node bounds come from nominal completions under fixed member costs
    of every component; incumbents from the true objective of each
    completion.  Returns optimal=True iff the search ran to completion
    within the budgets.

    The bound costs are checked once per solve (`check_costs`) and the
    same `OracleCosts` goes to the root and every exclude child.  Heap
    entries carry their completion's sorted item tuple, taken once when
    the completion is found, so a node never scans x.

    The objective returned is optimal when proven, but on an exact
    objective tie the item set need not be the lexicographically
    smallest optimum: a subtree whose bound equals the incumbent's
    objective is pruned, and it may hold a smaller optimal item set.
    """
    bcosts = check_costs(_bound_costs(mix, inst.n), inst.n)
    spread = _branch_spread(mix, inst.n)
    start = time.monotonic()

    root = nominal_solve(inst, bcosts)
    calls = 1
    inc_obj = evaluate_wrp(mix, root.x)
    root_lex = inc_lex = _lexset(root.x)
    inc_x = root.x
    if warm_start is not None:
        w_obj = evaluate_wrp(mix, warm_start.x)
        w_lex = _lexset(warm_start.x)
        if _better(w_obj, w_lex, inc_obj, inc_lex):
            inc_obj, inc_lex, inc_x = w_obj, w_lex, warm_start.x

    counter = itertools.count()
    # (bound, tie counter, forced in, forced out, completion's item set)
    heap = [(root.value, next(counter), frozenset(), frozenset(), root_lex)]
    nodes = 0
    complete = True

    while heap:
        if max_nodes is not None and nodes >= max_nodes:
            complete = False
            break
        if time_limit is not None and time.monotonic() - start > time_limit:
            complete = False
            break
        bound, _, fin, fout, items = heapq.heappop(heap)
        if bound >= inc_obj - TOL:
            continue
        nodes += 1

        undecided = [i for i in items if i not in fin]
        if not undecided:
            continue  # completion is the unique member of this subspace
        item = max(undecided, key=lambda i: (spread[i], -i))

        # include child: completion stays optimal for the subspace
        heapq.heappush(heap, (bound, next(counter), fin | {item}, fout, items))
        # exclude child: re-complete without the item
        calls += 1
        try:
            child = nominal_solve(inst, bcosts, forced_in=fin, forced_out=fout | {item})
        except InfeasibleError:
            continue
        c_obj = evaluate_wrp(mix, child.x)
        c_lex = _lexset(child.x)
        if _better(c_obj, c_lex, inc_obj, inc_lex):
            inc_obj, inc_lex, inc_x = c_obj, c_lex, child.x
        if child.value < inc_obj - TOL:
            heapq.heappush(
                heap, (child.value, next(counter), fin, fout | {item}, c_lex)
            )

    return SolveReport(
        Solution(inc_x, inc_obj),
        inc_obj,
        "bnb",
        complete,
        nodes_explored=nodes,
        oracle_calls=calls,
    )


def solve_brute_force(inst: Instance, mix: Mixture, cap: int = 1_000_000) -> SolveReport:
    """Exact minimum of the objective by full enumeration of X."""
    best = None
    for count, x in enumerate(enumerate_feasible(inst, cap=cap), 1):
        obj = evaluate_wrp(mix, x)
        lex = _lexset(x)
        if best is None or _better(obj, lex, best[0], best[1]):
            best = (obj, lex, x)
    if best is None:
        raise InfeasibleError("empty feasible set")
    return SolveReport(
        Solution(best[2], best[0]), best[0], "brute", True, oracle_calls=count
    )


def _neighbors(inst: Instance, x: tuple[int, ...], oracle):
    """Deterministic neighborhood: single swap for selection, single-arc
    detour (cheapest re-route through one excluded arc, found by
    `oracle(forced_in)`) for paths."""
    chosen = set(_lexset(x))
    if inst.kind == "selection":
        for i in sorted(chosen):
            for j in range(inst.n):
                if j not in chosen:
                    y = list(x)
                    y[i], y[j] = 0, 1
                    yield tuple(y)
        return
    for arc in range(inst.n):
        if arc in chosen:
            continue
        try:
            sol = oracle({arc})
        except InfeasibleError:
            continue
        if sol.x != x:
            yield sol.x


def solve_local_search(
    inst: Instance, mix: Mixture, restarts: int = 3, seed: int = 0
) -> SolveReport:
    """Steepest-descent local search from perturbed nominal starts.

    Every detour prices under the bound costs, checked once per solve
    (`check_costs`); each restart's perturbed start is checked on its
    own call."""
    bcosts = _bound_costs(mix, inst.n)
    checked = check_costs(bcosts, inst.n)
    rng = np.random.default_rng(seed)
    best = None
    calls = 0

    def detour(forced_in):
        nonlocal calls
        calls += 1
        return nominal_solve(inst, checked, forced_in=forced_in)

    for r in range(restarts + 1):
        costs = bcosts if r == 0 else bcosts * rng.uniform(0.5, 1.5, size=inst.n)
        calls += 1
        sol = nominal_solve(inst, np.maximum(costs, 0.0))
        cur_x = sol.x
        cur_obj = evaluate_wrp(mix, cur_x)
        improved = True
        while improved:
            improved = False
            best_nb = None
            for y in _neighbors(inst, cur_x, detour):
                obj = evaluate_wrp(mix, y)
                lex = _lexset(y)
                if best_nb is None or _better(obj, lex, best_nb[0], best_nb[1]):
                    best_nb = (obj, lex, y)
            if best_nb is not None and best_nb[0] < cur_obj - TOL:
                cur_obj, cur_x = best_nb[0], best_nb[2]
                improved = True
        lex = _lexset(cur_x)
        if best is None or _better(cur_obj, lex, best[0], best[1]):
            best = (cur_obj, lex, cur_x)
    return SolveReport(
        Solution(best[2], best[0]), best[0], "local", False, oracle_calls=calls
    )


def solve_auto(
    inst: Instance,
    mix: Mixture,
    enum_cap: int = 10_000_000,
    max_nodes: int | None = None,
) -> SolveReport:
    """Dispatch to the cheapest applicable exact method."""
    types = set(mix.set_types())
    if types == {"interval"}:
        return solve_interval_mix(inst, mix)
    if types == {"budgeted"}:
        try:
            return solve_budgeted_mix(inst, mix, cap=enum_cap)
        except CapExceededError:
            return solve_bnb(inst, mix, max_nodes=max_nodes)
    if types <= {"ellipsoid", "interval"}:
        ells = [uset for _, uset in mix.components if isinstance(uset, EllipsoidSet)]
        if len(ells) == 1 and ells[0].is_diagonal():
            return solve_ellipsoid_parametric(inst, mix)
    if types == {"hull"}:
        warm = solve_midpoint_approx(inst, mix)
        return solve_bnb(inst, mix, max_nodes=max_nodes, warm_start=warm.solution)
    return solve_bnb(inst, mix, max_nodes=max_nodes)
