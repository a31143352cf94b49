"""Solution methods for the weighted robust problem.

min over x in X of sum_j p_j max_{c in U_j} c . x

Exact reductions exist for all-interval mixtures (weighted upper bounds
are nominal costs), all-budgeted mixtures (enumeration over the dual
threshold candidates) and mixtures with a single diagonal ellipsoid plus
intervals (dichotomic scan over mean-variance scalarizations).  A
generic best-first branch-and-bound, a brute-force oracle and a local
search cover everything else.

Every solver keeps its best candidate, the incumbent, by one rule in
`_Search.offer`: a candidate replaces it when its objective is lower by
more than 1e-12, or within 1e-12 and its item set is lexicographically
smaller.
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
    can_price,
    check_costs,
    enumerate_feasible,
    item_set,
    must_use,
    nominal_solve,
    nominal_values,
)
from .uncertainty import Mixture

TOL = 1e-9


@dataclass
class SolveReport:
    """Result of one solver run.

    `oracle_calls` counts nominal-oracle calls, failed ones included and
    skipped ones not: the one `nominal_solve` of interval and midpoint,
    one per scalarization in parametric (the variance minimum too), the
    root search's solves plus each exclude child not skipped by
    `must_use` in bnb, one per start and per detour priced in local, the
    threshold columns priced plus each path rebuilt in budgeted-enum,
    and the feasible points enumerated in brute.
    """

    solution: Solution
    method: str
    optimal: bool
    nodes_explored: int = 0
    oracle_calls: int = 0
    guarantee: float | None = None

    @property
    def objective(self) -> float:
        return self.solution.value


def evaluate_wrp(mix: Mixture, x) -> float:
    """Weighted sum of per-component worst-case values, each set's
    `support`, summed in index order; no member is built."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for weight, uset in mix.components:
        total += weight * uset.support(x)
    return total


class _Search:
    """One solve's incumbent and its count of nominal-oracle calls.

    `offer` applies the incumbent rule, `solve` is the solvers' one way
    to call `nominal_solve`, and `report` builds the solve's result.
    """

    def __init__(self, inst: Instance, mix: Mixture):
        self.inst, self.mix = inst, mix
        self.obj, self.x = math.inf, None
        self.calls = 0

    def offer(self, x: tuple[int, ...], obj: float | None = None) -> None:
        """Offer x, of objective `obj` (by default the mixture's), as
        incumbent; item sets are compared only on a tie."""
        if obj is None:
            obj = evaluate_wrp(self.mix, x)
        if obj < self.obj - 1e-12 or (
            obj <= self.obj + 1e-12 and item_set(x) < item_set(self.x)
        ):
            self.obj, self.x = obj, x

    def solve(self, costs, **forced) -> Solution:
        """`nominal_solve` on this instance, counted even if it raises."""
        self.calls += 1
        return nominal_solve(self.inst, costs, **forced)

    def report(self, method: str, optimal: bool, nodes_explored=0, guarantee=None):
        """The incumbent and the call count as the solve's SolveReport."""
        solution = Solution(self.x, self.obj)
        return SolveReport(solution, method, optimal, nodes_explored, self.calls, guarantee)


def solve_interval_mix(inst: Instance, mix: Mixture) -> SolveReport:
    """All-interval mixtures reduce to a single nominal problem with
    reduced costs sum_j p_j hi^j, the intervals' bound members; the
    mixture sums and checks them once for all its solves."""
    mix.require("interval", "solve_interval_mix needs interval components")
    search = _Search(inst, mix)
    search.offer(search.solve(mix.checked_bound_costs).x)
    return search.report("interval", True)


THRESHOLD_BLOCK = 256  # threshold tuples priced per vector-label pass


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
    per column.  A column is solved only where the incumbent rule needs
    it: both sides of a tie within 1e-12 are offered to it, and at the
    end the best column, if still unsolved.  A column's solution has a
    true objective no larger than the column's value.
    """
    mix.require("budgeted", "solve_budgeted_mix needs budgeted components")
    candidate_lists = [
        sorted(set([0.0] + u.deviations.tolist())) for _, u in mix.components
    ]
    total = math.prod(len(cands) for cands in candidate_lists)
    if total > cap:
        raise CapExceededError(
            f"{total} threshold candidates exceed cap {cap}; use solve_bnb"
        )

    parts = [
        (w, uset.lo[:, None], uset.deviations[:, None], w * uset.gamma)
        for w, uset in mix.components
    ]
    search = _Search(inst, mix)
    # the best reduced value, and its cost column until that column is solved
    best_value = unsolved = None
    tuples = itertools.product(*candidate_lists)
    while chunk := list(itertools.islice(tuples, THRESHOLD_BLOCK)):
        pis = np.array(chunk).T  # one row of thresholds per component
        block = np.zeros((inst.n, pis.shape[1]))
        const = np.zeros(pis.shape[1])
        for (w, lo, dev, wg), pi in zip(parts, pis):
            block += w * (lo + np.maximum(dev - pi, 0.0))
            const += wg * pi
        values = nominal_values(inst, block) + const
        search.calls += pis.shape[1]
        for j, value in enumerate(values.tolist()):
            if best_value is None or value < best_value - 1e-12:
                best_value, unsolved = value, block[:, j].copy()
            elif value <= best_value + 1e-12:  # a tie: offer both sides' solutions
                if unsolved is not None:
                    search.offer(search.solve(unsolved).x)
                    unsolved = None
                search.offer(search.solve(block[:, j]).x)
    if unsolved is not None:
        search.offer(search.solve(unsolved).x)
    return search.report("budgeted-enum", True)


def solve_midpoint_approx(inst: Instance, mix: Mixture) -> SolveReport:
    """Optimize the weighted per-hull scenario average, the mixture's
    bound costs (each hull's bound member is its centre), summed and
    checked once per mixture; the result is a K^max-approximation where
    K^max is the largest point count."""
    mix.require("hull", "solve_midpoint_approx needs hull components")
    kmax = max(uset.num_points for _, uset in mix.components)
    search = _Search(inst, mix)
    search.offer(search.solve(mix.checked_bound_costs).x)
    return search.report("midpoint", False, guarantee=float(kmax))


def solve_ellipsoid_parametric(inst: Instance, mix: Mixture) -> SolveReport:
    """Exact solver for one diagonal ellipsoid plus interval components.

    The objective is linear(x) + w sqrt(S(x)) with S linear in binary x,
    so the optimum sits on the lower-left hull of the (linear, S)
    projection; a recursive dichotomic scan over scalarization slopes
    collects all supported solutions and picks the true best.  The
    report says optimal=False when the 200-step theta push or the
    depth-60 scan cap cut the search.  Direct calls only: a built
    ellipsoid's sample covariance is not diagonal, so `solve_auto` sends
    ellipsoid mixtures to `solve_bnb`.  The diagonal is read from the
    ellipsoid's `sigma`, its factor's F' F plus the ridge on the
    diagonal, formed as an n x n array on first read.  The linear term
    is the mixture's `bound_costs` (interval `hi` and ellipsoid `mu`,
    weighted), and every candidate is offered under its true objective.
    """
    ell = None
    for _, uset in mix.components:
        if uset.name == "ellipsoid":
            if ell is not None:
                raise UnsupportedError("at most one ellipsoid component; use solve_bnb")
            sigma = uset.sigma
            if not np.allclose(sigma, np.diag(np.diag(sigma)), atol=1e-12):
                raise UnsupportedError("ellipsoid covariance must be diagonal")
            ell = uset
        elif uset.name != "interval":
            raise UnsupportedError(
                "solve_ellipsoid_parametric allows only interval and ellipsoid components"
            )
    if ell is None:
        return solve_interval_mix(inst, mix)
    linear = mix.bound_costs
    spread = ell.lam * np.diag(ell.sigma)  # S(x) = spread . x
    search = _Search(inst, mix)

    def oracle(theta: float) -> Solution:
        return search.solve(linear + theta * spread)

    def pair(sol: Solution):
        x = np.asarray(sol.x, dtype=float)
        return float(linear @ x), float(spread @ x)

    sol_l = oracle(0.0)
    sol_v = search.solve(np.maximum(spread, 0.0))
    candidates = {sol.x: sol for sol in (sol_l, sol_v)}
    v_min = pair(sol_v)[1]

    # Push theta up until variance minimization dominates, so the
    # (min-variance, min-linear) corner itself is collected.  Either cap
    # cutting the search leaves the result unproven.
    proved = True
    theta = 1.0
    sol_r = sol_l
    for _ in range(200):
        sol_r = oracle(theta)
        candidates[sol_r.x] = sol_r
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
        candidates[mid.x] = mid
        scan(left, mid, depth + 1)
        scan(mid, right, depth + 1)

    scan(sol_l, sol_r)

    for x in sorted(candidates):
        search.offer(x)
    return search.report("parametric", proved)


def _search_steps(n: int) -> int:
    """Best-response steps of `solve_bnb`'s root member search: one per
    128 items, so small grids pay one extra plain solve and the 1012-arc
    grid eight."""
    return math.ceil(n / 128)


def solve_bnb(
    inst: Instance,
    mix: Mixture,
    max_nodes: int | None = None,
    time_limit: float | None = None,
) -> SolveReport:
    """Best-first branch-and-bound on item inclusion/exclusion.

    Node bounds are nominal completions under one member c_j of every
    component: sum_j p_j c_j . x never exceeds the objective, so each
    completion value is a valid bound (the Lagrangian bound for min-max
    problems, Kouvelis & Yu 1997).  A root search picks the members by
    best responses: it first prices each set's fixed `bound_member()`,
    then, at each step, the best-response members `member(xbar)`
    at the running average xbar of the completions found so far, with
    one plain `nominal_solve` per step.  The sets answer that average,
    but the path side prices only the latest member sum, not the
    average of the sums so far.  The search keeps the member sum with
    the largest value, whose completion becomes the root, and stops
    once that value reaches the incumbent minus TOL or after
    `_search_steps(n)` steps (one per 128 items), or at a member sum
    the oracle cannot price (`can_price`: a negative cost on a graph
    with a directed cycle).  Every completion is an incumbent candidate
    under the true objective.
    Returns optimal=True iff the search ran to completion within the
    budgets.

    The fixed members' sum is the mixture's `checked_bound_costs`,
    summed and checked once per mixture; each best-response sum is
    checked once (`check_costs`), and the chosen sum's `OracleCosts`
    goes to every exclude child.  Branching picks the undecided item
    with the largest `branch_spread`, also kept per mixture.  Heap
    entries carry their completion's sorted item tuple, taken once when
    the completion is pushed, so a node never scans x.  An exclude child
    that path counts prove infeasible (`must_use`: every path through
    the forced arcs uses the item) is skipped without an oracle call;
    on selection and on graphs with a directed cycle every exclude
    child is solved.

    The objective returned is optimal when proven, but on an exact
    objective tie the item set need not be the lexicographically
    smallest optimum: a subtree whose bound equals the incumbent's
    objective is pruned, and it may hold a smaller optimal item set.
    """
    spread = mix.branch_spread
    start = time.monotonic()
    search = _Search(inst, mix)
    bcosts = mix.checked_bound_costs
    root = search.solve(bcosts)
    search.offer(root.x)
    xsum = root.as_array()
    for step in range(1, _search_steps(inst.n) + 1):
        if root.value >= search.obj - TOL:
            break
        costs = check_costs(mix.weighted_sum("member", xsum / step), inst.n)
        if not can_price(inst, costs):
            break
        sol = search.solve(costs)
        search.offer(sol.x)
        xsum += sol.as_array()
        if sol.value > root.value:
            bcosts, root = costs, sol

    counter = itertools.count()
    # (bound, tie counter, forced in, forced out, completion's item set)
    heap = [(root.value, next(counter), frozenset(), frozenset(), root.items)]
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
        if bound >= search.obj - TOL:
            continue
        nodes += 1

        undecided = [i for i in items if i not in fin]
        if not undecided:
            continue  # completion is the unique member of this subspace
        item = max(undecided, key=lambda i: (spread[i], -i))

        # include child: completion stays optimal for the subspace
        heapq.heappush(heap, (bound, next(counter), fin | {item}, fout, items))
        # exclude child: re-complete without the item, unless no path can
        if must_use(inst, fin, item):
            continue
        try:
            child = search.solve(bcosts, forced_in=fin, forced_out=fout | {item})
        except InfeasibleError:
            continue
        search.offer(child.x)
        if child.value < search.obj - TOL:
            heapq.heappush(
                heap, (child.value, next(counter), fin, fout | {item}, child.items)
            )
    return search.report("bnb", complete, nodes_explored=nodes)


def solve_brute_force(inst: Instance, mix: Mixture, cap: int = 1_000_000) -> SolveReport:
    """Exact minimum of the objective by full enumeration of X."""
    search = _Search(inst, mix)
    for x in enumerate_feasible(inst, cap=cap):
        search.calls += 1  # a feasible point stands for an oracle call
        search.offer(x)
    if search.x is None:
        raise InfeasibleError("empty feasible set")
    return search.report("brute", True)


def _neighbors(search: _Search, x: tuple[int, ...], costs):
    """Deterministic neighborhood: single swap for selection, single-arc
    detour (cheapest re-route through one excluded arc, priced under
    `costs`) for paths.  On an acyclic graph an arc that no source-target
    path uses is skipped by its path counts, without an oracle call."""
    inst = search.inst
    chosen = set(item_set(x))
    if inst.kind == "selection":
        for i in sorted(chosen):
            for j in range(inst.n):
                if j not in chosen:
                    y = list(x)
                    y[i], y[j] = 0, 1
                    yield tuple(y)
        return
    graph = inst.graph
    counted = graph.topological_order is not None
    for arc in range(inst.n):
        if arc in chosen:
            continue
        tail, head = graph.arcs[arc]
        if counted and not (
            graph.paths_to(tail)[inst.source] and graph.paths_to(inst.target)[head]
        ):
            continue
        try:
            sol = search.solve(costs, forced_in={arc})
        except InfeasibleError:
            continue
        if sol.x != x:
            yield sol.x


def solve_local_search(
    inst: Instance, mix: Mixture, restarts: int = 3, seed: int = 0
) -> SolveReport:
    """Steepest-descent local search from perturbed nominal starts.

    Every detour prices under the mixture's bound costs, checked once
    per mixture (`checked_bound_costs`); each restart's start is checked
    on its own call.  On an acyclic graph a detour through an arc that
    lies on no source-target path is skipped without an oracle call.
    Each descent step moves to the best neighbour, picked by the
    incumbent rule, if it improves by more than TOL."""
    bcosts = mix.bound_costs
    checked = mix.checked_bound_costs
    rng = np.random.default_rng(seed)
    search = _Search(inst, mix)
    for r in range(restarts + 1):
        costs = bcosts if r == 0 else bcosts * rng.uniform(0.5, 1.5, size=inst.n)
        cur = _Search(inst, mix)  # the descent's point; calls count in `search`
        cur.offer(search.solve(costs).x)
        while True:
            best_nb = _Search(inst, mix)
            for y in _neighbors(search, cur.x, checked):
                best_nb.offer(y)
            if best_nb.obj >= cur.obj - TOL:
                break
            cur = best_nb
        search.offer(cur.x, cur.obj)
    return search.report("local", False)


def solve_auto(inst: Instance, mix: Mixture, max_nodes: int | None = None) -> SolveReport:
    """Dispatch to the cheapest exact method: the nominal reduction for
    all-interval mixtures, the threshold enumeration for all-budgeted
    ones within its cap, and `solve_bnb` for everything else."""
    types = mix.types
    if types == {"interval"}:
        return solve_interval_mix(inst, mix)
    if types == {"budgeted"}:
        try:
            return solve_budgeted_mix(inst, mix)
        except CapExceededError:
            return solve_bnb(inst, mix, max_nodes=max_nodes)
    return solve_bnb(inst, mix, max_nodes=max_nodes)
