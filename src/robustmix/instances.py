"""Combinatorial ground sets, feasible sets and nominal minimization oracles.

Two instance kinds are supported: s-t path systems on a directed graph
(items are arcs, feasible solutions are simple source-target paths) and
cardinality selection (choose exactly p of n items).  Both expose the
same nominal oracle `nominal_solve`, which every reduction in the solver
module is built on.

Ties are broken towards the lexicographically smallest chosen
item-index set, which makes every downstream method deterministic.  The
rule is exact for selection, and for paths on an acyclic graph or with
strictly positive costs; on a graph with a directed cycle, a zero-cost
tie may break to another equal-cost path.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceededError, InfeasibleError, ParseError
from .uncertainty import ScenarioMatrix


@dataclass(frozen=True)
class Graph:
    """Directed graph whose arc list order defines the item universe.

    Arc index i is the item index of cost component i; the arc list
    order is canonical and must match the column order of any scenario
    data used with the graph.
    """

    num_nodes: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for i, (tail, head) in enumerate(self.arcs):
            if not (0 <= tail < self.num_nodes and 0 <= head < self.num_nodes):
                raise ValueError(f"arc {i} endpoint out of range")

    @property
    def n(self) -> int:
        return len(self.arcs)

    @cached_property
    def out_arcs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Adjacency as (arc index, head) pairs per tail node, in arc order."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.num_nodes)]
        for i, (tail, head) in enumerate(self.arcs):
            out[tail].append((i, head))
        return tuple(tuple(arcs) for arcs in out)

    @cached_property
    def topological_order(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Kahn topological order and each node's position in it, or None
        when the graph has a directed cycle."""
        indegree = [0] * self.num_nodes
        for _, head in self.arcs:
            indegree[head] += 1
        queue = deque(v for v in range(self.num_nodes) if indegree[v] == 0)
        order = []
        out = self.out_arcs
        while queue:
            v = queue.popleft()
            order.append(v)
            for _, head in out[v]:
                indegree[head] -= 1
                if indegree[head] == 0:
                    queue.append(head)
        if len(order) < self.num_nodes:
            return None
        position = [0] * self.num_nodes
        for i, v in enumerate(order):
            position[v] = i
        return tuple(order), tuple(position)

    def paths_to(self, end: int) -> tuple[int, ...]:
        """Exact number of directed paths from every node to `end`.

        Acyclic graphs only; raises ValueError on a directed cycle.  The
        counts are Python ints, so they stay exact past 2**63 (a 35x35
        grid has comb(68, 34) corner-to-corner paths).  Each end node
        costs one reverse topological pass the first time it is asked
        for; the result is cached on the graph.
        """
        counts = self._path_counts.get(end)
        if counts is None:
            if self.topological_order is None:
                raise ValueError("path counts need an acyclic graph")
            order, position = self.topological_order
            out = self.out_arcs
            paths = [0] * self.num_nodes
            paths[end] = 1
            for v in reversed(order[: position[end]]):
                paths[v] = sum(paths[head] for _, head in out[v])
            counts = self._path_counts[end] = tuple(paths)
        return counts

    @cached_property
    def _path_counts(self) -> dict[int, tuple[int, ...]]:
        return {}

    def hop_distances(self, source: int) -> list[float]:
        """Unweighted BFS distance from `source` to every node."""
        dist = [float("inf")] * self.num_nodes
        dist[source] = 0
        queue = deque([source])
        out = self.out_arcs
        while queue:
            v = queue.popleft()
            for _, head in out[v]:
                if dist[head] == float("inf"):
                    dist[head] = dist[v] + 1
                    queue.append(head)
        return dist


def parse_graph(text: str) -> Graph:
    """Parse the graph file format.

    Line 1 is `nodes <N>`, line 2 `arcs <M>`, followed by M lines
    `arc <index> <tail> <head>` with indices 0..M-1 in order.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ParseError("graph file needs at least a nodes and an arcs line")

    def _header(lineno: int, keyword: str) -> int:
        parts = lines[lineno].split()
        if len(parts) != 2 or parts[0] != keyword or not parts[1].isdigit():
            raise ParseError(f"line {lineno + 1}: expected '{keyword} <count>'")
        return int(parts[1])

    num_nodes = _header(0, "nodes")
    num_arcs = _header(1, "arcs")
    if len(lines) != 2 + num_arcs:
        raise ParseError(f"expected {num_arcs} arc lines, found {len(lines) - 2}")

    arcs = []
    for i, line in enumerate(lines[2:]):
        lineno = i + 3
        parts = line.split()
        if len(parts) != 4 or parts[0] != "arc":
            raise ParseError(f"line {lineno}: expected 'arc <index> <tail> <head>'")
        try:
            idx, tail, head = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field") from None
        if idx != i:
            raise ParseError(f"line {lineno}: arc index {idx}, expected {i}")
        for endpoint in (tail, head):
            if not (0 <= endpoint < num_nodes):
                raise ParseError(f"line {lineno}: endpoint {endpoint} out of range")
        arcs.append((tail, head))
    return Graph(num_nodes, tuple(arcs))


def graph_to_text(g: Graph) -> str:
    """Serialize a graph in the file format `parse_graph` reads."""
    lines = [f"nodes {g.num_nodes}", f"arcs {g.n}"]
    for i, (tail, head) in enumerate(g.arcs):
        lines.append(f"arc {i} {tail} {head}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    """A feasible set over binary item vectors of length n."""

    kind: str  # "spath" | "selection"
    n: int
    graph: Graph | None = None
    source: int = -1
    target: int = -1
    p: int = 0

    @staticmethod
    def spath(graph: Graph, source: int, target: int) -> "Instance":
        if source == target:
            raise ValueError("source and target must differ")
        for node in (source, target):
            if not (0 <= node < graph.num_nodes):
                raise ValueError(f"node {node} out of range")
        return Instance("spath", graph.n, graph=graph, source=source, target=target)

    @staticmethod
    def selection(n: int, p: int) -> "Instance":
        if not (0 < p <= n):
            raise ValueError("selection requires 0 < p <= n")
        return Instance("selection", n, p=p)


def item_set(x) -> tuple[int, ...]:
    """The sorted indices of the items that 0/1 vector x chooses."""
    return tuple(itertools.compress(range(len(x)), x))


@dataclass(frozen=True)
class Solution:
    """A member of the feasible set with its objective value."""

    x: tuple[int, ...]
    value: float

    @property
    def items(self) -> tuple[int, ...]:
        return item_set(self.x)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.x, dtype=float)


@dataclass(frozen=True)
class OracleCosts:
    """A cost vector checked once for `nominal_solve`.

    Built by `check_costs`: `values` holds the n finite costs as Python
    floats, and `nonnegative` records whether none is negative, which
    the oracle's sign rule reads (`can_price`).  A solver that calls the
    oracle many times with one vector checks it once and passes this
    object to every call.
    """

    n: int
    values: tuple[float, ...]
    nonnegative: bool


def _check_finite(costs: np.ndarray) -> bool:
    """Raise unless every cost is finite; return whether none is negative.

    One min and one max reduction decide both: a NaN anywhere makes
    both NaN, which fails the range test like an infinity does."""
    if costs.size == 0:
        return True
    lo, hi = float(costs.min()), float(costs.max())
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError("costs must be finite")
    return lo >= 0


def check_costs(costs, n: int) -> OracleCosts:
    """Check a length-n cost vector as `nominal_solve` does and keep a
    copy of it as Python floats; later changes to `costs` do not reach
    the copy.  Negative costs are recorded, not rejected: `can_price`
    decides whether the oracle takes them when it is called."""
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (n,):
        raise ValueError(f"costs length {costs.shape} does not match n={n}")
    return OracleCosts(n, tuple(costs.tolist()), _check_finite(costs))


def can_price(inst: Instance, costs: OracleCosts) -> bool:
    """The sign rule: does `nominal_solve` take `costs` on `inst`?  Any
    sign is exact for selection and an acyclic graph's topological pass;
    Dijkstra and the exhaustive search on a cyclic graph prune on cost."""
    signed = inst.kind == "selection" or inst.graph.topological_order is not None
    return signed or costs.nonnegative


def _incidence(n: int, items) -> tuple[int, ...]:
    """The 0/1 vector of length n with ones at `items`."""
    x = [0] * n
    for i in items:
        x[i] = 1
    return tuple(x)


def _lexkey(arcs) -> tuple[int, ...]:
    return tuple(sorted(arcs))


def _dijkstra(graph: Graph, costs, source: int, target: int, banned: frozenset):
    """Label-setting shortest path, used on graphs with a directed cycle;
    ties towards the lexicographically smallest arc-index set, which is
    exact for strictly positive costs.  Returns (cost, arcs) or None."""
    out = graph.out_arcs
    done = set()
    heap = [(0.0, (), source, ())]
    while heap:
        dist, key, v, arcs = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == target:
            return dist, arcs
        for arc_idx, head in out[v]:
            if arc_idx in banned or head in done:
                continue
            new_arcs = arcs + (arc_idx,)
            heapq.heappush(
                heap, (dist + costs[arc_idx], _lexkey(new_arcs), head, new_arcs)
            )
    return None


def _spath_acyclic(graph, costs, source, target, forced_in, forced_out):
    """Shortest path on an acyclic graph in one topological pass.

    A path visits nodes in topological order, so it takes the forced arcs
    in the order of their tails and, between two of them, stays inside
    the segment of the order from one forced head to the next forced
    tail.  A forced set that is not such a chain is infeasible; without
    forced arcs the only segment is source -> target.  Each segment is
    relaxed node by node from its start into a fresh distance list, so
    labels that land past its end are never read; the predecessor arcs
    are kept across segments and rebuild the whole path from the target.
    Each node and arc is visited at most once.  A node's label is final
    before its out-arcs are relaxed, so on an exact cost tie both
    candidate paths are rebuilt from the predecessors and the smaller
    sorted arc set wins; this is exact because two distinct paths with
    the same endpoints are never subsets of each other.  Returns
    (cost, arcs in path order) or None.
    """
    order, position = graph.topological_order
    arcs = graph.arcs
    forced = sorted(forced_in, key=lambda a: position[arcs[a][0]])
    # source, tail_1, head_1, ..., tail_k, head_k, target: pairs are segments
    ends = [source, *(v for a in forced for v in arcs[a]), target]
    segments = list(zip(ends[::2], ends[1::2]))
    if any(position[a] > position[b] for a, b in segments):
        return None

    out = graph.out_arcs
    inf = float("inf")
    pred = [-1] * graph.num_nodes  # arc into each labelled node

    def path_to(v):
        path = []
        while pred[v] >= 0:
            path.append(pred[v])
            v = arcs[pred[v]][0]
        return path

    reached = 0.0
    for i, (start, end) in enumerate(segments):
        dist = [inf] * graph.num_nodes
        if i:
            pred[start] = forced[i - 1]
            reached += costs[forced[i - 1]]
        dist[start] = reached
        for v in order[position[start] : position[end]]:
            dv = dist[v]
            if dv == inf:
                continue
            for arc_idx, head in out[v]:
                if arc_idx in forced_out:
                    continue
                nd = dv + costs[arc_idx]
                od = dist[head]
                if nd < od or (
                    nd == od
                    and sorted(path_to(v) + [arc_idx]) < sorted(path_to(head))
                ):
                    dist[head] = nd
                    pred[head] = arc_idx
        reached = dist[end]
        if reached == inf:
            return None
    return reached, path_to(target)[::-1]


def _spath_branching(graph, costs, source, target, forced_in, forced_out):
    """Exhaustive simple-path search honoring forced arcs.

    Exponential in the graph size: `nominal_solve` uses it only on graphs
    with a directed cycle, and tests use it as the reference for
    `_spath_acyclic`.  Prunes on cost, keeps equal cost paths alive so
    lexicographic tie-breaking stays exact.
    """
    out = graph.out_arcs
    best: list = [None]  # (cost, lexkey, arcs)

    def dfs(v, used_nodes, arcs, cost, fin_left):
        if best[0] is not None and cost > best[0][0]:
            return
        if v == target:
            if not fin_left:
                cand = (cost, _lexkey(arcs), arcs)
                if best[0] is None or cand[:2] < best[0][:2]:
                    best[0] = cand
            return
        for arc_idx, head in out[v]:
            if arc_idx in forced_out or head in used_nodes:
                continue
            dfs(
                head,
                used_nodes | {head},
                arcs + (arc_idx,),
                cost + costs[arc_idx],
                fin_left - {arc_idx},
            )

    dfs(source, {source}, (), 0.0, set(forced_in))
    if best[0] is None:
        return None
    return best[0][0], best[0][2]


def nominal_solve(
    inst: Instance,
    costs,
    forced_in=(),
    forced_out=(),
) -> Solution:
    """Minimize costs . x over the feasible set with forcing constraints.

    `costs` is an `OracleCosts` from `check_costs`, or any length-n
    array-like, which is checked and converted the same way on every
    call.  forced_in items must appear in the solution, forced_out must
    not.  Raises InfeasibleError when no feasible solution remains.

    A negative cost raises ValueError only on a graph with a directed
    cycle (`can_price`).  Ties break towards the lexicographically
    smallest item set: exactly for selection, and for paths on an
    acyclic graph or with strictly positive costs.

    Cost per call: selection sorts the items once.  A path on an acyclic
    graph, with or without forced_in items, takes one topological pass
    over its nodes and arcs.  Only a graph with a directed cycle uses
    Dijkstra without forced_in items, or exhaustive simple-path search
    with them, which is exponential in the graph size.  On a 6x6 grid,
    checking and converting an array-like costs about as much as the
    rest of a forced call, so branch-and-bound and local search price
    under the mixture's bound costs, checked once per mixture, and pass
    that `OracleCosts` to every node or detour: a node then costs its
    forced-set checks, the pass and building x.
    """
    if not isinstance(costs, OracleCosts):
        costs = check_costs(costs, inst.n)
    elif costs.n != inst.n:
        raise ValueError(f"checked costs for n={costs.n} do not match n={inst.n}")
    c = costs.values
    fin = frozenset(forced_in)
    fout = frozenset(forced_out)
    if fin & fout:
        raise ValueError("forced_in and forced_out overlap")
    if any(not 0 <= i < inst.n for i in fin | fout):
        raise ValueError("forced item index out of range")

    if inst.kind == "selection":
        if len(fin) > inst.p:
            raise InfeasibleError("forced_in exceeds cardinality p")
        allowed = [i for i in range(inst.n) if i not in fin and i not in fout]
        need = inst.p - len(fin)
        if need > len(allowed):
            raise InfeasibleError("not enough allowed items")
        order = sorted(allowed, key=lambda i: (c[i], i))
        chosen = sorted(fin | set(order[:need]))
        return Solution(_incidence(inst.n, chosen), float(sum(c[i] for i in chosen)))

    if not can_price(inst, costs):
        raise ValueError("spath oracle requires nonnegative costs")
    graph, s, t = inst.graph, inst.source, inst.target
    if graph.topological_order is not None:
        res = _spath_acyclic(graph, c, s, t, fin, fout)
    elif fin:
        res = _spath_branching(graph, c, s, t, fin, fout)
    else:
        res = _dijkstra(graph, c, s, t, fout)
    if res is None:
        raise InfeasibleError(
            f"no path from {inst.source} to {inst.target} under restrictions"
        )
    value, arcs = res
    return Solution(_incidence(inst.n, arcs), value)


def must_use(inst: Instance, forced_in, arc: int) -> bool:
    """Does every source-target path through `forced_in` use `arc`?

    `arc` must lie on some such path and not be in `forced_in`; when
    this is true, `nominal_solve` with `forced_in` and `arc` forced out
    raises InfeasibleError, whatever else is forced out.  On an acyclic
    graph the forced arcs cut a path into independent segments, so the
    answer is whether the segment holding `arc`, from the previous
    forced head (or the source) to the next forced tail (or the target),
    has no path around it: paths(start -> end) equals
    paths(start -> tail) * paths(head -> end), in exact path counts
    (`Graph.paths_to`).  O(|forced_in|) once those counts are cached.
    Selection and graphs with a directed cycle always answer False.
    """
    graph = inst.graph
    if inst.kind != "spath" or graph.topological_order is None:
        return False
    position = graph.topological_order[1]
    tail, head = graph.arcs[arc]
    start, end = inst.source, inst.target
    for f in forced_in:
        f_tail, f_head = graph.arcs[f]
        if position[start] < position[f_head] <= position[tail]:
            start = f_head
        elif position[head] <= position[f_tail] < position[end]:
            end = f_tail
    to_end = graph.paths_to(end)
    return to_end[start] == graph.paths_to(tail)[start] * to_end[head]


def nominal_values(inst: Instance, block) -> np.ndarray:
    """Optimal nominal value of every column of an (n, B) cost block.

    Column j of the result equals `nominal_solve(inst, block[:, j]).value`
    bit for bit, negative costs included; no solution is built.  The
    block is checked as `nominal_solve` checks one cost vector, and a
    target that no path reaches raises InfeasibleError with its message.

    Cost: on an acyclic path instance, one topological pass from the
    source to the target whose node labels are length-B vectors, so the
    B columns share every Python step: each relaxed arc is one vector
    addition and one in-place minimum, and a label is dropped once its
    node's out-arcs are relaxed, so at most the open frontier of labels
    is held.  Each column's value is the minimum over the same sums, in
    the same order, as `_spath_acyclic`, hence the same bits.  Selection
    and graphs with a directed cycle call `nominal_solve` once per
    column.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != inst.n:
        raise ValueError(f"cost block shape {block.shape} does not match n={inst.n}")
    _check_finite(block)
    if inst.kind == "selection" or inst.graph.topological_order is None:
        return np.array(
            [nominal_solve(inst, block[:, j]).value for j in range(block.shape[1])]
        )

    graph, s, t = inst.graph, inst.source, inst.target
    order, position = graph.topological_order
    out = graph.out_arcs
    label: list[np.ndarray | None] = [None] * graph.num_nodes
    label[s] = np.zeros(block.shape[1])
    for v in order[position[s] : position[t]]:
        dv = label[v]
        if dv is None:
            continue
        label[v] = None
        for arc_idx, head in out[v]:
            nd = dv + block[arc_idx]
            od = label[head]
            if od is None:
                label[head] = nd
            else:
                np.minimum(od, nd, out=od)
    if label[t] is None:
        raise InfeasibleError(
            f"no path from {inst.source} to {inst.target} under restrictions"
        )
    return label[t]


def enumerate_feasible(inst: Instance, cap: int | None = None):
    """Yield every feasible incidence vector (tuples of 0/1).

    SPath enumerates simple source-target paths by DFS; Selection yields
    all p-subsets.  Order is deterministic.  Raises CapExceededError
    before yielding a vector past the first `cap`.
    """
    if inst.kind == "selection":
        item_sets = itertools.combinations(range(inst.n), inst.p)
    else:
        item_sets = _simple_paths(inst)
    for count, items in enumerate(item_sets, 1):
        if cap is not None and count > cap:
            raise CapExceededError(f"enumeration exceeds cap {cap}")
        yield _incidence(inst.n, items)


def _simple_paths(inst: Instance):
    """Arc tuples of the simple source-target paths, depth first."""
    out = inst.graph.out_arcs
    stack = [(inst.source, {inst.source}, ())]
    while stack:
        v, used, arcs = stack.pop()
        if v == inst.target:
            yield arcs
            continue
        for arc_idx, head in reversed(out[v]):
            if head not in used:
                stack.append((head, used | {head}, arcs + (arc_idx,)))


def sample_st_pairs(
    g: Graph, count: int, min_hops: int = 0, seed: int = 0
) -> list[tuple[int, int]]:
    """Sample distinct (source, target) pairs with BFS hop distance >= min_hops."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    qualifying = []
    for u in range(g.num_nodes):
        dist = g.hop_distances(u)
        for v in range(g.num_nodes):
            if u != v and dist[v] != float("inf") and dist[v] >= min_hops:
                qualifying.append((u, v))
    if len(qualifying) < count:
        raise ValueError(
            f"only {len(qualifying)} pairs satisfy min_hops={min_hops}"
        )
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(qualifying), size=count, replace=False)
    return [qualifying[i] for i in idx]


NOISE_MODELS = ("mult", "two_block")


def gen_synthetic(
    width: int,
    height: int,
    num_scenarios: int,
    noise: str = "mult",
    seed: int = 0,
) -> tuple[Graph, ScenarioMatrix]:
    """Generate a grid digraph with right/down arcs and scenario costs.

    Noise models: "mult" draws a per-scenario global factor times
    per-entry jitter; "two_block" splits arcs into a left and a right
    block by tail column and inflates one block in the first half of the
    scenarios and the other block in the second half.  All costs are
    strictly positive and deterministic per seed.
    """
    if width < 2 or height < 2:
        raise ValueError("width and height must be >= 2")
    if num_scenarios < 2:
        raise ValueError("need at least 2 scenarios")
    if noise not in NOISE_MODELS:
        raise ValueError(f"unknown noise model {noise!r}")

    arcs = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                arcs.append((v, v + 1))
            if r + 1 < height:
                arcs.append((v, v + width))
    graph = Graph(width * height, tuple(arcs))
    n = graph.n

    rng = np.random.default_rng(seed)
    base = rng.uniform(1.0, 10.0, size=n)
    K = num_scenarios
    if noise == "mult":
        factors = rng.uniform(0.8, 1.2, size=K)
        jitter = rng.uniform(0.9, 1.1, size=(K, n))
        costs = base[None, :] * factors[:, None] * jitter
    else:
        in_left = np.array(
            [1.0 if (tail % width) < width / 2 else 0.0 for tail, _ in arcs]
        )
        # Per-arc inflation magnitudes are fixed across scenarios; only a
        # scenario-level scalar and a small per-entry jitter vary, so the
        # two cost regimes are stable between scenario subsets.
        hot_a = 1.0 + rng.uniform(1.0, 2.0, size=n) * in_left
        hot_b = 1.0 + rng.uniform(1.0, 2.0, size=n) * (1.0 - in_left)
        costs = np.empty((K, n))
        for k in range(K):
            hot = hot_a if k < K // 2 else hot_b
            scale = rng.uniform(0.95, 1.05)
            jitter = rng.uniform(0.99, 1.01, size=n)
            costs[k] = base * hot * scale * jitter
    return graph, ScenarioMatrix(costs)
