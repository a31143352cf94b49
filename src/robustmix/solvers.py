"""Solvers for min over x in X of sum_j p_j max_{c in U_j} c . x.

Exact reductions for all-interval mixtures, all-budgeted mixtures and
one diagonal ellipsoid plus intervals; best-first branch-and-bound, a
brute-force oracle and a local search cover the rest.  Every solver
keeps its best candidate, the incumbent, by `_Search.offer`'s rule.
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
    enumerate_feasible,
    exclude_forcing,
    float_vector,
    item_set,
    nominal_solve,
    nominal_values,
)
from .uncertainty import Mixture, check_costs

TOL = 1e-9
THRESHOLD_CAP = 10_000_000  # threshold tuples solve_budgeted_mix enumerates at most
BRUTE_FORCE_CAP = 1_000_000  # feasible points solve_brute_force enumerates at most
SCAN_DEPTH_CAP = 60  # recursion depth of solve_ellipsoid_parametric's scan, at most


@dataclass
class SolveReport:
    """Result of one solver run.  `oracle_calls` counts nominal-oracle
    calls, failed ones included: one in interval and midpoint, one per
    scalarization in parametric, each root-search and exclude-child
    solve in bnb, each start and detour in local, each threshold column
    and path rebuilt in budgeted-enum, each feasible point in brute, and
    0 for a tuner answer taken from its pair's record."""

    solution: Solution
    method: str
    optimal: bool
    nodes_explored: int = 0
    oracle_calls: int = 0
    guarantee: float | None = None

    @property
    def objective(self) -> float:
        """The solution's value; interval and midpoint reports compute it
        on this first read, bit for bit `evaluate_wrp(mix, x)`."""
        return self.solution.value


def evaluate_wrp(mix: Mixture, x) -> float:
    """The objective at x, a length-n array-like: the weighted sum of each
    set's `support(x)`, in component order.  Raises UnsupportedError on a
    polyhedral component."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for weight, uset in mix.components:
        total += weight * uset.support(x)
    return total


class _Search:
    """One solve's incumbent (x, its objective `obj`) and its count of
    nominal-oracle calls."""

    def __init__(self, inst: Instance, mix: Mixture):
        self.inst, self.mix = inst, mix
        self.obj, self.x = math.inf, None
        self.calls = 0

    def offer(self, x: tuple[int, ...]) -> None:
        """Make 0/1 tuple x the incumbent if its objective is lower by more
        than 1e-12, or within 1e-12 with a lexicographically smaller item
        set."""
        obj = evaluate_wrp(self.mix, float_vector(x))
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


def priced_report(
    mix: Mixture, x, method: str, optimal: bool, calls: int, guarantee=None
) -> SolveReport:
    """The report of 0/1 tuple x after `calls` oracle calls; its objective
    is computed by `evaluate_wrp` only when first read."""
    solution = Solution.priced_on_read(x, lambda: evaluate_wrp(mix, float_vector(x)))
    return SolveReport(solution, method, optimal, oracle_calls=calls, guarantee=guarantee)


def solve_interval_mix(inst: Instance, mix: Mixture) -> SolveReport:
    """Exact optimum of an all-interval mixture: one nominal solve under
    the weighted upper bounds sum_j p_j hi_j.  Raises UnsupportedError
    on any other component."""
    mix.require("interval", "solve_interval_mix needs interval components")
    x = nominal_solve(inst, mix.checked_bound_costs).x
    return priced_report(mix, x, "interval", True, 1)


THRESHOLD_BLOCK = 256  # threshold tuples priced per vector-label pass


def solve_budgeted_mix(inst: Instance, mix: Mixture) -> SolveReport:
    """Exact optimum of an all-budgeted mixture over the tuples of dual
    thresholds, {0} union the deviations per component; both sides of a
    tie between tuples are offered.  Raises UnsupportedError on any other
    component, and CapExceededError, before pricing, past THRESHOLD_CAP."""
    mix.require("budgeted", "solve_budgeted_mix needs budgeted components")
    candidate_lists = [
        sorted(set([0.0] + u.deviations.tolist())) for _, u in mix.components
    ]
    total = math.prod(len(cands) for cands in candidate_lists)
    if total > THRESHOLD_CAP:
        raise CapExceededError(
            f"{total} threshold candidates exceed cap {THRESHOLD_CAP}; use solve_bnb"
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
    """One nominal solve under the weighted hull centres, a
    K^max-approximation with K^max the largest point count (the report's
    `guarantee`).  Raises UnsupportedError on any other component."""
    mix.require("hull", "solve_midpoint_approx needs hull components")
    kmax = max(uset.num_points for _, uset in mix.components)
    x = nominal_solve(inst, mix.checked_bound_costs).x
    return priced_report(mix, x, "midpoint", False, 1, guarantee=float(kmax))


def solve_ellipsoid_parametric(inst: Instance, mix: Mixture) -> SolveReport:
    """Exact optimum of one diagonal-covariance ellipsoid plus intervals
    by a dichotomic scan over mean-variance scalarizations, each answer
    offered as found; optimal=False when SCAN_DEPTH_CAP cuts it.  Raises
    UnsupportedError on a non-diagonal or second ellipsoid, another set
    type, or no ellipsoid (`solve_interval_mix` solves that).  Not used
    by `solve_auto`: a built ellipsoid's covariance is not diagonal."""
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
        raise UnsupportedError("no ellipsoid component; use solve_interval_mix")
    linear = mix.bound_costs
    spread = ell.lam * np.diag(ell.sigma)  # S(x) = spread . x
    search = _Search(inst, mix)

    def oracle(costs) -> Solution:
        sol = search.solve(costs)
        search.offer(sol.x)
        return sol

    def pair(sol: Solution):
        x = sol.as_array()
        return float(linear @ x), float(spread @ x)

    proved = True

    def scan(left: Solution, right: Solution, depth: int = 0):
        nonlocal proved
        if depth > SCAN_DEPTH_CAP:
            proved = False
            return
        l_l, s_l = pair(left)
        l_r, s_r = pair(right)
        if s_l <= s_r + 1e-12:  # ends tied in variance up to rounding
            return
        theta = (l_r - l_l) / (s_l - s_r)
        if theta <= 0:
            return
        mid = oracle(linear + theta * spread)
        l_m, s_m = pair(mid)
        if (abs(l_m - l_l) < 1e-12 and abs(s_m - s_l) < 1e-12) or (
            abs(l_m - l_r) < 1e-12 and abs(s_m - s_r) < 1e-12
        ):
            return
        scan(left, mid, depth + 1)
        scan(mid, right, depth + 1)

    # a variance minimum that is not the linear-cheapest one still ends the
    # scan exactly: that corner lies strictly below every segment to it
    scan(oracle(linear), oracle(np.maximum(spread, 0.0)))
    return search.report("parametric", proved)


def _search_steps(n: int) -> int:
    """Best-response steps of `solve_bnb`'s root search: one per 128 items."""
    return math.ceil(n / 128)


def solve_bnb(
    inst: Instance,
    mix: Mixture,
    max_nodes: int | None = None,
    time_limit: float | None = None,
) -> SolveReport:
    """Best-first branch-and-bound on item inclusion and exclusion.

    A node's bound is a nominal completion under one member of every
    set, weighted by the mixture (the Lagrangian bound for min-max
    problems, Kouvelis & Yu 1997); a root search picks the members by at
    most `_search_steps(n)` best-response steps.  `max_nodes` and
    `time_limit` (seconds) are checked before each expansion, and
    optimal=False means one of them left a node whose bound could still
    improve the incumbent; a root proof is optimal even at max_nodes=0.
    On an exact objective tie the item set need not be the
    lexicographically smallest optimum, since a subtree whose bound
    equals the incumbent's objective is pruned.  Raises InfeasibleError
    when the instance has no feasible solution.
    """
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

    rank = mix.branch_rank.__getitem__
    counter = itertools.count()
    # every node, the root first, is popped from the heap: (bound, tie
    # counter, forced in, forced out, completion), where the completion is
    # [its path, its branching order or None]; unique counters make
    # entries compare by bound and counter alone
    heap = [(root.value, next(counter), frozenset(), frozenset(), [root.path, None])]
    nodes = 0
    complete = True

    while heap:
        bound, _, fin, fout, completion = heapq.heappop(heap)
        if bound >= search.obj - TOL:
            break  # best-first: every node left is pruned too
        if max_nodes is not None and nodes >= max_nodes:
            complete = False
            break
        if time_limit is not None and time.monotonic() - start > time_limit:
            complete = False
            break
        nodes += 1

        path, order = completion
        if order is None:  # largest spread first, then the smaller index
            order = completion[1] = sorted(path, key=rank)
        for item in order:
            if item not in fin:
                break
        else:
            continue  # completion is the unique member of this subspace

        # include child: completion stays optimal for the subspace
        heapq.heappush(heap, (bound, next(counter), fin | {item}, fout, completion))
        # exclude child: re-complete without the item, unless no path can
        kept = exclude_forcing(inst, fin, path, item)
        if kept is None:
            continue
        out = fout | {item}
        try:
            # the costs the parent's completion was found with, which
            # keeps exclude_forcing's reuse of its other arcs exact
            child = search.solve(bcosts, forced_in=kept, forced_out=out)
        except InfeasibleError:
            continue
        # a completion value exceeds its objective by rounding at most, so
        # above this margin the child's objective loses to the incumbent
        if child.value > search.obj + TOL * max(1.0, abs(search.obj)):
            continue
        search.offer(child.x)
        if child.value < search.obj - TOL:
            heapq.heappush(
                heap, (child.value, next(counter), fin, out, [child.path, None])
            )
    return search.report("bnb", complete, nodes_explored=nodes)


def solve_brute_force(inst: Instance, mix: Mixture) -> SolveReport:
    """Exact optimum by enumerating X.  Raises CapExceededError past
    BRUTE_FORCE_CAP feasible points and InfeasibleError when X is empty."""
    search = _Search(inst, mix)
    for x in enumerate_feasible(inst, cap=BRUTE_FORCE_CAP):
        search.calls += 1  # a feasible point stands for an oracle call
        search.offer(x)
    if search.x is None:
        raise InfeasibleError("empty feasible set")
    return search.report("brute", True)


def _neighbors(search: _Search, x: tuple[int, ...], costs):
    """x's neighbours in a fixed order: single swaps for selection, and
    for paths the cheapest path under `costs` through each unused arc."""
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
    """Steepest-descent local search from the nominal start under the
    bound costs and from `restarts` starts perturbed by `seed`.  Each
    step moves to the best neighbour, by the incumbent rule, if it
    improves by more than TOL.  Never reports optimal."""
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
        search.offer(cur.x)
    return search.report("local", False)


def solve_auto(inst: Instance, mix: Mixture, max_nodes: int | None = None) -> SolveReport:
    """The cheapest exact method: `solve_interval_mix` for all-interval
    mixtures, `solve_budgeted_mix` for all-budgeted ones within its cap,
    and `solve_bnb` with `max_nodes` for everything else."""
    types = mix.types
    if types == {"interval"}:
        return solve_interval_mix(inst, mix)
    if types == {"budgeted"}:
        try:
            return solve_budgeted_mix(inst, mix)
        except CapExceededError:
            pass
    return solve_bnb(inst, mix, max_nodes=max_nodes)
