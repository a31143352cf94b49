"""Feasible sets and the nominal minimization oracle `nominal_solve`.

Two instance kinds: s-t paths on a directed graph (items are arcs) and
cardinality selection (exactly p of n items).  Oracle ties break towards
the lexicographically smallest item-index set: exactly for selection,
and for paths on an acyclic graph or with strictly positive costs.
Paths are compared by their sums as accumulated arc by arc, so two
paths equal in c @ x can differ by rounding, and then the smaller
accumulated sum wins.  On a graph with a directed cycle, a zero-cost
tie may break to another equal-cost path; an exact break there is
NP-hard, as it decides the directed two-disjoint-paths problem
(Fortune, Hopcroft & Wyllie 1980).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceededError, InfeasibleError, ParseError
from .uncertainty import OracleCosts, ScenarioMatrix, _check_finite, check_costs


@dataclass(frozen=True)
class Graph:
    """Directed graph whose arc i is item i, so the arc order must match
    the column order of any scenario data used with it.  Raises
    ValueError on an arc endpoint out of range."""

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

    @cached_property
    def arc_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Topological positions of every arc's tail and of its head, in
        arc order.  Acyclic graphs only."""
        position = self.topological_order[1]
        return (
            tuple(position[tail] for tail, _ in self.arcs),
            tuple(position[head] for _, head in self.arcs),
        )

    def paths_to(self, end: int) -> tuple[int, ...]:
        """Exact number of directed paths from every node to `end`, as
        Python ints, cached per end node.  Raises ValueError on a graph
        with a directed cycle."""
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

    def segment_plan(self, start: int, end: int) -> tuple:
        """The rows a label pass from `start` to `end` walks, as (node, its
        out-arcs) pairs in topological order, `end` excluded.  The first
        request for a segment gets the whole topological slice; later ones
        get a cached table of the nodes on some start-end path, each with
        its arcs into such a node or into `end`.  Both fold the same labels
        in the same order, so a pass returns the same bits and tie breaks.
        Acyclic graphs only."""
        plans = self._segment_plans
        plan = plans.get((start, end))
        if plan is None:
            if (start, end) in plans:
                plan = plans[start, end] = self._live_rows(start, end)
            else:  # one pass costs less than a table
                plans[start, end] = None
                position = self.topological_order[1]
                return self._rows[position[start] : position[end]]
        return plan

    @cached_property
    def _segment_plans(self) -> dict[tuple[int, int], tuple | None]:
        """`segment_plan`'s tables by segment, None for a segment seen once."""
        return {}

    @cached_property
    def _rows(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        out = self.out_arcs
        return tuple((v, out[v]) for v in self.topological_order[0])

    @cached_property
    def _reach(self) -> tuple[list[int], list[int], list[int]]:
        """Per topological position p, as bitsets over positions: the
        positions p reaches and those that reach p (p in both), and the
        positions of p's heads."""
        position = self.topological_order[1]
        heads = [[position[head] for _, head in leaving] for _, leaving in self._rows]
        size = len(heads)
        downstream, upstream = [0] * size, [1 << p for p in range(size)]
        head_bits = [0] * size
        for p in range(size):
            for q in heads[p]:
                upstream[q] |= upstream[p]
                head_bits[p] |= 1 << q
        for p in reversed(range(size)):
            reach = 1 << p
            for q in heads[p]:
                reach |= downstream[q]
            downstream[p] = reach
        return downstream, upstream, head_bits

    def _live_rows(self, start: int, end: int) -> tuple:
        """The rows whose node lies on a start-end path, each keeping its
        arcs into such a node or into `end`."""
        downstream, upstream, head_bits = self._reach
        position = self.topological_order[1]
        p, last = position[start], position[end]
        live = downstream[p] & upstream[last]  # holds p and last if a path exists
        if not live:
            return ()
        dead, flags = ~live, format(live, "b")[::-1]  # flags[q] == "1": q is live
        rows, plan = self._rows, []
        while p < last:
            row = rows[p]
            if head_bits[p] & dead:
                v, leaving = row
                row = (v, tuple(a for a in leaving if live >> position[a[1]] & 1))
            plan.append(row)
            p = flags.find("1", p + 1)
        return tuple(plan)

    @cached_property
    def _instances(self) -> dict[tuple[int, int], "Instance"]:
        """`Instance.spath`'s instances on this graph, by (source, target)."""
        return {}

    def hop_distances(self, source: int) -> list[float]:
        """Unweighted BFS distance from `source` to every node, inf where
        it is not reached."""
        inf = math.inf
        dist = [inf] * self.num_nodes
        dist[source] = 0
        queue = deque([source])
        out = self.out_arcs
        while queue:
            v = queue.popleft()
            for _, head in out[v]:
                if dist[head] == inf:
                    dist[head] = dist[v] + 1
                    queue.append(head)
        return dist


def parse_graph(text: str) -> Graph:
    """Parse the graph file format: `nodes <N>`, `arcs <M>`, then M lines
    `arc <index> <tail> <head>` with indices 0..M-1 in order; blank
    lines are skipped.  Raises ParseError on any other text."""
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
        """The s-t path instance on `graph`, the same object for each
        (source, target).  Raises ValueError when source == target or a
        node is out of range."""
        inst = graph._instances.get((source, target))
        if inst is None:
            if source == target:
                raise ValueError("source and target must differ")
            for node in (source, target):
                if not (0 <= node < graph.num_nodes):
                    raise ValueError(f"node {node} out of range")
            inst = Instance("spath", graph.n, graph=graph, source=source, target=target)
            graph._instances[source, target] = inst
        return inst

    @staticmethod
    def selection(n: int, p: int) -> "Instance":
        """Choose exactly p of n items; raises ValueError unless 0 < p <= n."""
        if not (0 < p <= n):
            raise ValueError("selection requires 0 < p <= n")
        return Instance("selection", n, p=p)


def item_set(x) -> tuple[int, ...]:
    """The sorted indices of the items that 0/1 vector x chooses."""
    return tuple(itertools.compress(range(len(x)), x))


def float_vector(x) -> np.ndarray:
    """0/1 vector x as a new float array."""
    # Bit for bit np.asarray(x, dtype=float), but one buffer cast instead of
    # a conversion entry by entry: solvers pay it on every objective value.
    return np.frombuffer(bytes(x), np.uint8).astype(float)


_assign = object.__setattr__  # Solution's own writes, past its guard


class Solution:
    """A feasible solution: its 0/1 vector x and its objective value.
    `Solution(None, value, path, n)` takes the chosen items out of n in
    the order found, kept as `path`, and builds x on first read;
    `Solution.priced_on_read(x, price)` computes the value as `price()`
    on first read, so a value need not be known when the solution is
    made.  An x given as a list or numpy array is kept as the equal tuple
    of ints, and raises ValueError unless every entry is 0 or 1.
    Immutable, equal and hashed by (x, value)."""

    __slots__ = ("_value", "_price", "path", "_n", "_x")

    def __init__(self, x: tuple[int, ...] | None, value: float, path=None, n=None):
        if x is not None and type(x) is not tuple:
            entries = np.asarray(x).tolist()
            if not isinstance(entries, list) or any(v not in (0, 1) for v in entries):
                raise ValueError(f"solution x must be a vector of 0s and 1s: {x!r}")
            x = tuple(map(int, entries))
        _assign(self, "_x", x)
        _assign(self, "_value", value)
        _assign(self, "_price", None)
        _assign(self, "path", path)
        _assign(self, "_n", n)

    @classmethod
    def priced_on_read(cls, x: tuple[int, ...], price) -> "Solution":
        """The solution x whose value is `price()`, called once, on the
        first read of `value`."""
        solution = cls(x, None)
        _assign(solution, "_price", price)
        return solution

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    @property
    def value(self) -> float:
        if self._price is not None:
            _assign(self, "_value", self._price())
            _assign(self, "_price", None)
        return self._value

    @property
    def x(self) -> tuple[int, ...]:
        if self._x is None:
            _assign(self, "_x", _incidence(self._n, self.path))
        return self._x

    @property
    def items(self) -> tuple[int, ...]:
        return item_set(self.x)

    def as_array(self) -> np.ndarray:
        return float_vector(self.x)

    def __eq__(self, other):
        if not isinstance(other, Solution):
            return NotImplemented
        return (self.x, self.value) == (other.x, other.value)

    def __hash__(self):
        return hash((self.x, self.value))

    def __repr__(self):
        return f"Solution(x={self.x!r}, value={self.value!r})"


def can_price(inst: Instance, costs: OracleCosts) -> bool:
    """Whether `nominal_solve` takes `costs` on `inst`: costs of any sign
    on selection and acyclic graphs, nonnegative ones on a graph with a
    directed cycle."""
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
    """Label-setting shortest path avoiding `banned`, ties towards the
    smallest sorted arc set (exact for strictly positive costs).  Returns
    (cost, arcs) or None."""
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


def _forced_chain(graph, source, target, forced_in, ordered=False):
    """The pieces (forced run into start, start, end) of every path
    through the arcs of forced_in, a tuple or list, or None when no path
    takes them all; a piece's free segment is empty when start == end.
    `ordered` says forced_in is sorted by tail without repeats."""
    order, position = graph.topological_order
    tails, heads = graph.arc_positions
    pieces, begin, at = [], 0, position[source]  # at: the walk's position
    for i, a in enumerate(forced_in):
        t = tails[a]
        if t != at:
            if t < at:
                if ordered:
                    return None
                chain = sorted(set(forced_in), key=tails.__getitem__)
                return _forced_chain(graph, source, target, chain, True)
            pieces.append((forced_in[begin:i], order[at], order[t]))
            begin = i
        at = heads[a]
    if at > position[target]:
        return None
    pieces.append((forced_in[begin:], order[at], target))
    return pieces


def _spath_acyclic(graph, costs, source, target, forced_in, forced_out):
    """Shortest path on an acyclic graph through the arcs of forced_in (a
    tuple or list) and avoiding forced_out, ties towards the smaller
    sorted arc set.  Each free segment is one label pass over
    `graph.segment_plan`'s rows, so a segment solved before walks only
    its live nodes.  Returns (cost, arcs in path order) or None."""
    arcs = graph.arcs
    if forced_in:
        pieces = _forced_chain(graph, source, target, forced_in)
        if pieces is None:
            return None
    else:  # a target before the source leaves its label unset: no path
        pieces = (((), source, target),)

    inf = math.inf
    pred = [-1] * graph.num_nodes  # arc into each labelled node

    def path_to(v, start):
        """The segment's arcs from start to v, last arc first."""
        path = []
        while v != start:
            path.append(pred[v])
            v = arcs[pred[v]][0]
        return path

    reached = 0.0
    path = []
    for run, start, end in pieces:
        for a in run:
            reached += costs[a]
        path += run
        if start == end:
            continue
        dist = [inf] * graph.num_nodes
        dist[start] = reached
        for v, leaving in graph.segment_plan(start, end):
            dv = dist[v]
            if dv == inf:
                continue
            for arc_idx, head in leaving:
                if forced_out and arc_idx in forced_out:
                    continue
                nd = dv + costs[arc_idx]
                od = dist[head]
                # v's label is final, so on an exact tie both paths are
                # rebuilt back to the segment's start.  Comparing them from
                # there is exact: they share every arc before the start, and
                # two distinct paths with the same ends are never subsets of
                # each other.
                if nd < od or (
                    nd == od
                    and sorted(path_to(v, start) + [arc_idx])
                    < sorted(path_to(head, start))
                ):
                    dist[head] = nd
                    pred[head] = arc_idx
        reached = dist[end]
        if reached == inf:
            return None
        path += reversed(path_to(end, start))
    return reached, path


def _spath_branching(graph, costs, source, target, forced_in, forced_out):
    """Exhaustive simple-path search through forced_in and avoiding
    forced_out, ties towards the smallest sorted arc set; exponential in
    the graph size.  Tests use it as `_spath_acyclic`'s reference.
    Returns (cost, arcs) or None."""
    out = graph.out_arcs
    best: list = [None]  # (cost, lexkey, arcs)

    def dfs(v, used_nodes, arcs, cost, fin_left):
        if best[0] is not None and cost > best[0][0]:  # ties stay alive
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


_NO_ITEMS = frozenset()


def nominal_solve(
    inst: Instance,
    costs,
    forced_in=(),
    forced_out=_NO_ITEMS,
) -> Solution:
    """Minimize costs . x with every forced_in item chosen and no
    forced_out item; ties break as the module docstring states.

    `costs` is an `OracleCosts` or a length-n array-like, checked alike
    (`check_costs`).  Returns a `Solution` whose `path` holds the items
    in the order found.  Raises InfeasibleError when no feasible
    solution remains, and ValueError on unfit costs, overlapping or
    out-of-range forced sets, or a negative cost on a graph with a
    directed cycle, where forced_in takes time exponential in its size.
    """
    if not isinstance(costs, OracleCosts):
        costs = check_costs(costs, inst.n)
    elif costs.n != inst.n:
        raise ValueError(f"checked costs for n={costs.n} do not match n={inst.n}")
    c = costs.values
    if not isinstance(forced_in, (tuple, list)):
        forced_in = tuple(forced_in)
    fout = forced_out if type(forced_out) is frozenset else frozenset(forced_out)
    if forced_in or fout:  # both checks are vacuous on empty forced sets
        if not fout.isdisjoint(forced_in):
            raise ValueError("forced_in and forced_out overlap")
        forced = (*forced_in, *fout)
        if min(forced) < 0 or max(forced) >= inst.n:
            raise ValueError("forced item index out of range")

    if inst.kind == "selection":
        fin = frozenset(forced_in)
        if len(fin) > inst.p:
            raise InfeasibleError("forced_in exceeds cardinality p")
        allowed = [i for i in range(inst.n) if i not in fin and i not in fout]
        need = inst.p - len(fin)
        if need > len(allowed):
            raise InfeasibleError("not enough allowed items")
        order = sorted(allowed, key=lambda i: (c[i], i))
        chosen = tuple(sorted(fin | set(order[:need])))
        return Solution(None, float(sum(c[i] for i in chosen)), chosen, inst.n)

    if not can_price(inst, costs):
        raise ValueError("spath oracle requires nonnegative costs")
    graph, s, t = inst.graph, inst.source, inst.target
    if graph.topological_order is not None:
        res = _spath_acyclic(graph, c, s, t, forced_in, fout)
    elif forced_in:
        res = _spath_branching(graph, c, s, t, forced_in, fout)
    else:
        res = _dijkstra(graph, c, s, t, fout)
    if res is None:
        raise InfeasibleError(
            f"no path from {inst.source} to {inst.target} under restrictions"
        )
    value, arcs = res
    return Solution(None, value, tuple(arcs), inst.n)


def exclude_forcing(inst: Instance, forced_in, completion, arc: int):
    """The forced_in set to solve the exclude child of `completion`
    without `arc` under, or None when every path through `forced_in`
    uses `arc`.  `completion` is an optimal path through `forced_in`
    holding `arc`, as its arcs in path order (a tuple or list).  On an
    acyclic graph the result is its arcs outside the segment between the
    forced arcs nearest `arc`, in path order, which under the costs the
    completion was found with gives the child's optimum and value bits.
    Selection and graphs with a directed cycle return `forced_in`."""
    graph = inst.graph
    if inst.kind != "spath" or graph.topological_order is None:
        return forced_in
    first = completion.index(arc)  # the segment is completion[first:last]
    last, length = first + 1, len(completion)
    while first and completion[first - 1] not in forced_in:
        first -= 1
    while last < length and completion[last] not in forced_in:
        last += 1
    arcs = graph.arcs
    start = arcs[completion[first - 1]][1] if first else inst.source
    end = arcs[completion[last]][0] if last < length else inst.target
    tail, head = arcs[arc]
    to_end = graph.paths_to(end)
    if to_end[start] == graph.paths_to(tail)[start] * to_end[head]:
        return None
    return completion[:first] + completion[last:]


def nominal_values(inst: Instance, block) -> np.ndarray:
    """Optimal nominal value of every column of an (n, B) cost block:
    column j equals `nominal_solve(inst, block[:, j]).value` bit for bit,
    and the block raises what `nominal_solve` would raise on a column.
    On an acyclic graph this is one vector-label pass over the rows of
    `segment_plan(source, target)`, the pass `nominal_solve` makes.  No
    solution is built.  Raises ValueError on a block of another shape."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != inst.n:
        raise ValueError(f"cost block shape {block.shape} does not match n={inst.n}")
    _check_finite(block)
    if inst.kind == "selection" or inst.graph.topological_order is None:
        return np.array(
            [nominal_solve(inst, block[:, j]).value for j in range(block.shape[1])]
        )

    graph, s, t = inst.graph, inst.source, inst.target
    label: list[np.ndarray | None] = [None] * graph.num_nodes
    label[s] = np.zeros(block.shape[1])
    # the same rows, sums and order as _spath_acyclic: the same bits
    for v, leaving in graph.segment_plan(s, t):
        dv = label[v]
        if dv is None:
            continue
        label[v] = None
        for arc_idx, head in leaving:
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
    """Yield every feasible 0/1 tuple in a fixed order: simple paths
    depth first, p-subsets in lexicographic order.  Raises
    CapExceededError before yielding a vector past the first `cap`."""
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


def _hop_counts(g: Graph) -> np.ndarray:
    """Hop distance from every node (rows) to every node (columns), as an
    N x N int32 array; an entry of N or more means no path."""
    n = g.num_nodes
    hops = np.full((n, n), n, dtype=np.int32)
    if g.topological_order is None:
        for u in range(n):
            hops[u] = [min(d, n) for d in g.hop_distances(u)]
        return hops
    out = g.out_arcs
    for u in reversed(g.topological_order[0]):
        row = hops[u]
        arcs = out[u]
        if arcs:
            row[:] = hops[arcs[0][1]]
            for _, head in arcs[1:]:
                np.minimum(row, hops[head], out=row)
            row += 1
        row[u] = 0
    return hops


def sample_st_pairs(
    g: Graph, count: int, min_hops: int = 0, seed: int = 0
) -> list[tuple[int, int]]:
    """`count` distinct (source, target) pairs with hop distance at least
    min_hops, drawn by `seed` without replacement from the qualifying
    pairs in (source, target) order.  Holds an N x N int32 array.
    Raises ValueError on a negative count or when fewer pairs qualify."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    n = g.num_nodes
    # Off-diagonal hop counts are whole numbers from 1 to n - 1, so
    # min_hops becomes a bound in that range (n when none can qualify,
    # nan included) before it meets the int32 array.
    if min_hops <= 1:
        lowest = 1
    elif min_hops <= n - 1:
        lowest = math.ceil(min_hops)
    else:
        lowest = n
    hops = _hop_counts(g)
    sources, targets = np.nonzero((hops >= lowest) & (hops < n))
    if len(sources) < count:
        raise ValueError(f"only {len(sources)} pairs satisfy min_hops={min_hops}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(sources), size=count, replace=False)
    return list(zip(sources[idx].tolist(), targets[idx].tolist()))


NOISE_MODELS = ("mult", "two_block")


def gen_synthetic(
    width: int,
    height: int,
    num_scenarios: int,
    noise: str = "mult",
    seed: int = 0,
) -> tuple[Graph, ScenarioMatrix]:
    """A width x height grid digraph with right and down arcs, and its
    scenario costs, strictly positive and fixed by `seed`.  "mult" noise
    is a per-scenario factor times per-entry jitter; "two_block"
    inflates the left half's arcs in the first half of the scenarios and
    the others in the second.  Raises ValueError on a side below 2,
    fewer than 2 scenarios or an unknown noise model."""
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
