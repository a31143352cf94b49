import dataclasses
import math
import re
from collections import deque

import numpy as np
import pytest

from robustmix import (
    CapExceededError,
    Graph,
    InfeasibleError,
    Instance,
    Mixture,
    OracleCosts,
    ParseError,
    ScenarioMatrix,
    build_set,
    check_costs,
    evaluate_wrp,
    gen_synthetic,
    graph_to_text,
    nominal_solve,
    nominal_values,
    parse_graph,
    sample_st_pairs,
    score,
    solve_interval_mix,
    split_scenarios,
)
from robustmix import instances
from robustmix.instances import (
    Solution,
    _spath_acyclic,
    _spath_branching,
    enumerate_feasible,
    float_vector,
    item_set,
)

# Two equal-cost 0 -> 2 paths: {1} is found first, {0, 2} is
# lexicographically smaller and reaches node 2 over a zero-cost arc.
ZERO_TIE_ARCS = ((1, 2), (0, 2), (0, 1))
ZERO_TIE_COSTS = (0.0, 1.0, 1.0)
# A 0 -> 4 graph with the directed cycle 1 -> 2 -> 1.
CYCLIC = Graph(
    5, ((0, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 4), (0, 2), (3, 2), (2, 4))
)
# A 0 -> 3 instance with four arcs, like the diamond, and the cycle 1 -> 2 -> 1.
CYCLIC4_INST = Instance.spath(Graph(4, ((0, 1), (1, 2), (2, 1), (2, 3))), 0, 3)


def relabelled_grid(rng, width, height):
    """A grid digraph with permuted node ids and arc order, plus the
    relabelled top-left and bottom-right corners."""
    grid, _ = gen_synthetic(width, height, 2, seed=0)
    nodes = rng.permutation(grid.num_nodes)
    arcs = tuple(
        (int(nodes[grid.arcs[a][0]]), int(nodes[grid.arcs[a][1]]))
        for a in rng.permutation(grid.n)
    )
    return Graph(grid.num_nodes, arcs), int(nodes[0]), int(nodes[-1])


def random_grid_case(rng):
    """A relabelled grid of 2..4 x 2..4 nodes, corner to corner or (30%)
    between two random nodes, with tie-heavy 0/1/2 costs."""
    graph, s, t = relabelled_grid(
        rng, int(rng.integers(2, 5)), int(rng.integers(2, 5))
    )
    assert graph.topological_order is not None
    if rng.random() < 0.3:
        s, t = (int(v) for v in rng.choice(graph.num_nodes, 2, replace=False))
    inst = Instance.spath(graph, s, t)
    return inst, rng.integers(0, 3, graph.n).astype(float)


def reference_x(inst, costs, forced_in, forced_out):
    """Incidence vector from the exhaustive search, or None if infeasible."""
    res = _spath_branching(
        inst.graph, np.asarray(costs, float), inst.source, inst.target,
        frozenset(forced_in), frozenset(forced_out),
    )
    if res is None:
        return None
    return tuple(1 if a in res[1] else 0 for a in range(inst.n))


def solve_or_none(inst, costs, forced_in, forced_out):
    try:
        return nominal_solve(inst, costs, forced_in, forced_out).x
    except InfeasibleError:
        return None


class TestInstanceMemos:
    def test_one_instance_per_pair(self, diamond):
        """The graph keeps each pair's instance; a new graph starts afresh."""
        inst = Instance.spath(diamond, 0, 3)
        assert Instance.spath(diamond, 0, 3) is inst
        assert Instance.spath(diamond, 1, 3) is not inst
        assert (inst.kind, inst.n, inst.graph, inst.source, inst.target) == (
            "spath", diamond.n, diamond, 0, 3,
        )
        copy = Graph(diamond.num_nodes, diamond.arcs)
        assert Instance.spath(copy, 0, 3) is not inst
        assert Instance.spath(copy, 0, 3) == inst

    @pytest.mark.parametrize("pair", [(1, 1), (0, 4), (-1, 3)])
    def test_bad_pairs_rejected_every_time(self, diamond, pair):
        for _ in range(2):
            with pytest.raises(ValueError):
                Instance.spath(diamond, *pair)
        assert pair not in diamond._instances

    @pytest.mark.parametrize("n, p", [(3, 0), (3, 4), (3, -1)])
    def test_selection_needs_p_in_range(self, n, p):
        with pytest.raises(ValueError, match="0 < p <= n"):
            Instance.selection(n, p)


class TestParseGraph:
    def test_smallest_valid_file(self):
        g = parse_graph("nodes 2\narcs 1\narc 0 0 1")
        assert g.num_nodes == 2
        assert g.arcs == ((0, 1),)

    def test_large_header_counts(self):
        rng = np.random.default_rng(0)
        lines = ["nodes 538", "arcs 1308"]
        for i in range(1308):
            tail, head = rng.integers(0, 538, size=2)
            lines.append(f"arc {i} {tail} {head}")
        g = parse_graph("\n".join(lines))
        assert g.num_nodes == 538
        assert g.n == 1308

    def test_endpoint_out_of_range(self):
        with pytest.raises(ParseError, match="endpoint 5 out of range"):
            parse_graph("nodes 2\narcs 1\narc 0 0 5")

    def test_wrong_arc_index(self):
        with pytest.raises(ParseError, match="arc index 7, expected 0"):
            parse_graph("nodes 2\narcs 1\narc 7 0 1")

    def test_arc_count_mismatch(self):
        with pytest.raises(ParseError, match="expected 2 arc lines"):
            parse_graph("nodes 2\narcs 2\narc 0 0 1")

    def test_non_integer_field(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_graph("nodes 2\narcs 1\narc 0 0 x")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "graph file needs at least a nodes and an arcs line"),
            ("nodes 2\n\n", "graph file needs at least a nodes and an arcs line"),
            ("nodes x\narcs 0", "line 1: expected 'nodes <count>'"),
            ("nodes 2 2\narcs 0", "line 1: expected 'nodes <count>'"),
            ("nodes 2\nedges 1\narc 0 0 1", "line 2: expected 'arcs <count>'"),
            ("nodes 2\narcs 1\nedge 0 0 1", "line 3: expected 'arc <index> <tail> <head>'"),
            ("nodes 2\narcs 1\narc 0 0", "line 3: expected 'arc <index> <tail> <head>'"),
        ],
        ids=["empty", "one-line", "nodes-count", "nodes-fields", "arcs-keyword",
             "arc-keyword", "arc-fields"],
    )
    def test_malformed_rejected(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_graph(text)

    def test_round_trip(self, diamond):
        assert parse_graph(graph_to_text(diamond)) == diamond


class TestNominalSolve:
    def test_selection_argmin(self):
        inst = Instance.selection(3, 1)
        sol = nominal_solve(inst, (2, 1, 3))
        assert sol.x == (0, 1, 0)
        assert sol.value == 1.0

    def test_diamond_shortest_path(self, diamond_inst):
        sol = nominal_solve(diamond_inst, (1, 1, 5, 5))
        assert sol.items == (0, 1)
        assert sol.value == 2.0

    def test_forced_out_infeasible(self, diamond_inst):
        with pytest.raises(InfeasibleError):
            nominal_solve(diamond_inst, (1, 1, 5, 5), forced_out={0, 2})

    def test_forced_in_reroutes(self, diamond_inst):
        sol = nominal_solve(diamond_inst, (1, 1, 5, 5), forced_in={2})
        assert sol.items == (2, 3)

    def test_selection_tie_break_lowest_index(self):
        inst = Instance.selection(4, 2)
        sol = nominal_solve(inst, (1.0, 1.0, 1.0, 1.0))
        assert sol.items == (0, 1)

    def test_spath_tie_break_lowest_arc_set(self, diamond_inst):
        sol = nominal_solve(diamond_inst, (1.0, 1.0, 1.0, 1.0))
        assert sol.items == (0, 1)

    def test_selection_forced_constraints(self):
        inst = Instance.selection(4, 2)
        sol = nominal_solve(inst, (1, 2, 3, 4), forced_in={3}, forced_out={0})
        assert sol.items == (1, 3)

    def test_forcing_overlap_rejected(self, diamond_inst):
        with pytest.raises(ValueError, match="overlap"):
            nominal_solve(diamond_inst, (1, 1, 1, 1), forced_in={0}, forced_out={0})

    def test_negative_spath_costs_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            nominal_solve(CYCLIC4_INST, (1, 1, -1, 1))

    def test_cost_length_checked(self, diamond_inst):
        with pytest.raises(ValueError):
            nominal_solve(diamond_inst, (1, 2, 3))

    def test_selection_matches_enumeration(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, n + 1))
            inst = Instance.selection(n, p)
            costs = rng.uniform(0.0, 10.0, n)
            sol = nominal_solve(inst, costs)
            best = min(
                (float(costs @ np.array(x)), tuple(i for i, v in enumerate(x) if v))
                for x in enumerate_feasible(inst)
            )
            assert sol.value == pytest.approx(best[0], abs=1e-9)
            assert sol.items == best[1]

    def test_spath_matches_enumeration(self, rng):
        for _ in range(50):
            w, h = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            graph, _ = gen_synthetic(w, h, 2, seed=int(rng.integers(1 << 30)))
            inst = Instance.spath(graph, 0, graph.num_nodes - 1)
            costs = rng.uniform(0.0, 10.0, graph.n)
            sol = nominal_solve(inst, costs)
            best = min(
                float(costs @ np.array(x)) for x in enumerate_feasible(inst)
            )
            assert sol.value == pytest.approx(best, abs=1e-9)


class TestForcedArcOracle:
    """The topological-pass oracle against the exhaustive reference."""

    def test_matches_exhaustive_search_on_relabelled_grids(self, rng):
        infeasible = 0
        for _ in range(400):
            inst, costs = random_grid_case(rng)
            graph = inst.graph
            paths = list(enumerate_feasible(inst))
            pool = np.arange(graph.n)
            if paths and rng.random() < 0.7:  # mostly arcs of one feasible path
                pool = np.flatnonzero(paths[rng.integers(len(paths))])
            k = min(int(rng.integers(1, 4)), len(pool))
            fin = {int(a) for a in rng.choice(pool, k, replace=False)}
            rest = [a for a in range(graph.n) if a not in fin]
            n_out = min(int(rng.integers(0, 3)), len(rest))
            fout = {int(a) for a in rng.choice(rest, n_out, replace=False)}
            expected = reference_x(inst, costs, fin, fout)
            assert solve_or_none(inst, costs, fin, fout) == expected
            infeasible += expected is None
        assert 50 < infeasible < 350

    def test_forced_in_order_and_repeats_do_not_matter(self, rng):
        """forced_in as a set, a tuple or list in path order, reversed,
        shuffled, with repeats, or as an iterator: the exhaustive
        search's value bits and arcs, in path order, or no path."""
        shapes = {
            "set": frozenset,
            "path order": tuple,
            "reversed": lambda arcs: list(reversed(arcs)),
            "shuffled": lambda arcs: tuple(rng.permutation(arcs).tolist()),
            "repeats": lambda arcs: [a for a in arcs for _ in range(2)],
            "repeats apart": lambda arcs: list(arcs) + list(arcs[:1]),
            "iterator": iter,
        }
        infeasible = 0
        for _ in range(300):
            inst, costs = random_grid_case(rng)
            graph = inst.graph
            paths = list(enumerate_feasible(inst))
            pool = np.arange(graph.n)
            if paths and rng.random() < 0.7:  # mostly arcs of one feasible path
                pool = np.flatnonzero(paths[rng.integers(len(paths))])
            k = min(int(rng.integers(1, 5)), len(pool))
            fin = path_order(graph, rng.choice(pool, k, replace=False).tolist())
            rest = [a for a in range(graph.n) if a not in fin]
            n_out = min(int(rng.integers(0, 3)), len(rest))
            fout = {int(a) for a in rng.choice(rest, n_out, replace=False)}
            expected = _spath_branching(
                graph, costs, inst.source, inst.target, frozenset(fin), fout
            )
            infeasible += expected is None
            for shape, make in shapes.items():
                try:
                    sol = nominal_solve(inst, costs, make(fin), fout)
                except InfeasibleError:
                    assert expected is None, shape
                    continue
                assert sol.value.hex() == expected[0].hex(), shape
                assert sorted(sol.path) == sorted(expected[1]), shape
                assert list(sol.path) == path_order(graph, sol.path), shape
        assert 50 < infeasible < 250

    def test_plain_calls_match_exhaustive_search_on_relabelled_grids(self, rng):
        infeasible = 0
        for _ in range(400):
            inst, costs = random_grid_case(rng)
            n_out = int(rng.integers(0, 4))
            fout = {int(a) for a in rng.choice(inst.n, n_out, replace=False)}
            expected = reference_x(inst, costs, (), fout)
            assert solve_or_none(inst, costs, (), fout) == expected
            infeasible += expected is None
        assert 50 < infeasible < 350

    def test_unforced_calls_match_exhaustive_value_and_x(self, rng):
        """Without forced arcs the pass is one source -> target segment;
        nominal_solve and the bare pass give the exhaustive search's
        value, bit for bit, and item set, or no path where it finds none."""
        infeasible = 0
        for _ in range(300):
            inst, costs = random_grid_case(rng)
            graph, s, t = inst.graph, inst.source, inst.target
            expected = _spath_branching(graph, costs, s, t, frozenset(), frozenset())
            bare = _spath_acyclic(graph, costs, s, t, (), frozenset())
            if expected is None:
                assert bare is None
                with pytest.raises(InfeasibleError):
                    nominal_solve(inst, costs)
                infeasible += 1
                continue
            value, arcs = expected
            assert bare[0] == value and sorted(bare[1]) == sorted(arcs)
            sol = nominal_solve(inst, costs)
            assert (sol.value, sol.items) == (value, tuple(sorted(arcs)))
        assert 20 < infeasible < 150

    def test_zero_cost_tie_on_acyclic_graph(self):
        inst = Instance.spath(Graph(3, ZERO_TIE_ARCS), 0, 2)
        assert nominal_solve(inst, ZERO_TIE_COSTS).items == (0, 2)

    def test_tie_in_dot_product_breaks_by_accumulated_sum(self):
        """Two paths equal in `c @ x` and in objective, bit for bit, can
        differ as the oracle sums them arc by arc; the smaller accumulated
        sum wins, and only an equal one goes to the smaller item set."""
        graph, data = gen_synthetic(4, 3, 25, "mult", 1188)
        data = ScenarioMatrix(np.round(data.costs))
        data = data.subset(split_scenarios(data.K, 0.75, seed=1188).train_idx)
        inst = Instance.spath(graph, 4, 11)
        first, second = (7, 9, 11, 13), (7, 10, 15, 16)  # both in path order
        for weight, chosen in [(0.10744824104005937, second), (1.0, first)]:
            mix = Mixture([(weight, build_set(data, "interval", 1.0))])
            costs = mix.bound_costs
            xs = [np.eye(inst.n)[list(path)].sum(axis=0) for path in (first, second)]
            assert len({(costs @ x).hex() for x in xs}) == 1
            assert len({evaluate_wrp(mix, x).hex() for x in xs}) == 1
            sums = [sum(costs[list(path)].tolist()) for path in (first, second)]
            assert (sums[1] < sums[0]) == (chosen == second)
            assert nominal_solve(inst, costs).items == chosen
            assert solve_interval_mix(inst, mix).solution.items == chosen

    def test_dijkstra_only_on_cyclic_graphs(self, monkeypatch, diamond_inst, rng):
        class DijkstraCalled(Exception):
            pass

        def refuse(*args):
            raise DijkstraCalled

        monkeypatch.setattr(instances, "_dijkstra", refuse)
        assert nominal_solve(diamond_inst, (1, 1, 5, 5)).items == (0, 1)
        for _ in range(20):
            inst, costs = random_grid_case(rng)
            solve_or_none(inst, costs, (), ())
        cyclic = Instance.spath(Graph(3, ((0, 1), (1, 2), (2, 1))), 0, 2)
        with pytest.raises(DijkstraCalled):
            nominal_solve(cyclic, (1, 1, 1))

    @pytest.mark.xfail(
        strict=True,
        reason="Dijkstra's per-node lexicographic label is exact only for "
        "strictly positive costs, and an exact zero-cost break on a cyclic "
        "graph is NP-hard (it decides the directed two-disjoint-paths problem)",
    )
    def test_zero_cost_tie_on_cyclic_graph(self):
        graph = Graph(5, ZERO_TIE_ARCS + ((3, 4), (4, 3)))
        assert graph.topological_order is None
        inst = Instance.spath(graph, 0, 2)
        assert nominal_solve(inst, ZERO_TIE_COSTS + (1.0, 1.0)).items == (0, 2)

    def test_chain_order_violation_infeasible(self):
        graph, _ = gen_synthetic(3, 3, 2, seed=0)
        inst = Instance.spath(graph, 0, 8)
        # (0,1) then (3,4): node 3 cannot follow node 1 on a right/down path
        fin = {graph.arcs.index((0, 1)), graph.arcs.index((3, 4))}
        with pytest.raises(InfeasibleError):
            nominal_solve(inst, np.ones(graph.n), forced_in=fin)

    def test_cyclic_graph_uses_exhaustive_search(self, rng):
        graph = CYCLIC
        assert graph.topological_order is None
        inst = Instance.spath(graph, 0, 4)
        paths = list(enumerate_feasible(inst))
        for _ in range(30):
            costs = rng.integers(0, 3, graph.n).astype(float)
            for fin in [{a} for a in range(graph.n)] + [{1, 5}, {2, 4}, {0, 8}]:
                members = [x for x in paths if all(x[a] for a in fin)]
                expected = min(
                    members,
                    key=lambda x: (costs @ x, np.flatnonzero(x).tolist()),
                    default=None,
                )
                assert solve_or_none(inst, costs, fin, ()) == expected

    def test_forced_index_out_of_range_rejected(self, diamond_inst):
        with pytest.raises(ValueError, match="out of range"):
            nominal_solve(diamond_inst, (1, 1, 1, 1), forced_in={-1})


def solve_outcome(inst, costs, forced_in=(), forced_out=()):
    """(x, value bits) of one oracle call, or None when infeasible."""
    try:
        sol = nominal_solve(inst, costs, forced_in, forced_out)
    except InfeasibleError:
        return None
    return sol.x, sol.value.hex()


class TestCheckedCosts:
    """A vector checked once by check_costs answers like the raw array."""

    def assert_same(self, inst, costs, forced_in=(), forced_out=()):
        checked = check_costs(costs, inst.n)
        expected = solve_outcome(inst, costs, forced_in, forced_out)
        assert solve_outcome(inst, checked, forced_in, forced_out) == expected
        return expected is None

    def test_matches_raw_array_on_relabelled_grids(self, rng):
        infeasible = 0
        for _ in range(200):
            inst, costs = random_grid_case(rng)
            if rng.random() < 0.5:
                costs = costs + rng.uniform(0.0, 1.0, inst.n)
            k = int(rng.integers(0, 3))
            fin = {int(a) for a in rng.choice(inst.n, k, replace=False)}
            rest = [a for a in range(inst.n) if a not in fin]
            fout = {int(a) for a in rng.choice(rest, int(rng.integers(0, 3)), replace=False)}
            infeasible += self.assert_same(inst, costs)
            infeasible += self.assert_same(inst, costs, fin, fout)
        assert 20 < infeasible < 300

    def test_matches_raw_array_on_selection_and_cyclic_graph(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            inst = Instance.selection(n, int(rng.integers(1, n + 1)))
            costs = rng.integers(-2, 3, n).astype(float)  # selection takes negatives
            fin = {int(a) for a in rng.choice(n, int(rng.integers(0, 3)), replace=False)}
            self.assert_same(inst, costs, fin, ())
            self.assert_same(inst, costs, (), fin)
        inst = Instance.spath(CYCLIC, 0, 4)
        for _ in range(40):
            costs = rng.integers(0, 3, CYCLIC.n).astype(float)
            a, b = (int(v) for v in rng.choice(CYCLIC.n, 2, replace=False))
            self.assert_same(inst, costs)
            self.assert_same(inst, costs, {a}, ())
            self.assert_same(inst, costs, (), {a, b})

    @pytest.mark.parametrize(
        "costs, forced_in, forced_out, message",
        [
            ((1.0, 2.0, 3.0), (), (), r"costs length \(3,\) does not match n=4"),
            ((np.inf, 1.0, 1.0), {0}, {0}, "costs length"),
            ((1.0, np.inf, 1.0, 1.0), (), (), "costs must be finite"),
            ((1.0, np.nan, 1.0, 1.0), {0}, {0}, "costs must be finite"),
            ((-1.0, 1.0, 1.0, 1.0), {0}, {0}, "forced_in and forced_out overlap"),
            ((-1.0, 1.0, 1.0, 1.0), {4}, (), "forced item index out of range"),
            ((-1.0, 1.0, 1.0, 1.0), (), (), "spath oracle requires nonnegative costs"),
        ],
    )
    def test_raw_input_errors_in_order(self, costs, forced_in, forced_out, message):
        # on a graph with a directed cycle, where negative costs are rejected
        with pytest.raises(ValueError, match=message):
            nominal_solve(CYCLIC4_INST, costs, forced_in, forced_out)
        # the same vector, checked first, fails at the same check
        with pytest.raises(ValueError, match=message):
            nominal_solve(CYCLIC4_INST, check_costs(costs, 4), forced_in, forced_out)

    def test_negative_costs_are_recorded_not_rejected(self, diamond_inst):
        checked = check_costs((0.0, -1.0, 2.0, 3.0), 4)
        assert not checked.nonnegative
        assert nominal_solve(Instance.selection(4, 2), checked).items == (0, 1)
        assert nominal_solve(diamond_inst, checked).items == (0, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            nominal_solve(CYCLIC4_INST, checked)

    def test_wrong_n_rejected(self, diamond_inst):
        with pytest.raises(ValueError, match="checked costs for n=3 do not match n=4"):
            nominal_solve(diamond_inst, check_costs(np.ones(3), 3))

    def test_stores_python_floats_and_is_immutable(self):
        checked = check_costs(np.array([1, 2, 3]), 3)
        assert checked == OracleCosts(3, (1.0, 2.0, 3.0), True)
        assert all(type(v) is float for v in checked.values)
        with pytest.raises(dataclasses.FrozenInstanceError):
            checked.n = 4

    def test_source_mutation_does_not_change_answers(self, diamond_inst):
        costs = np.array([1.0, 1.0, 5.0, 5.0])
        checked = check_costs(costs, 4)
        costs[:] = [5.0, 5.0, 1.0, 1.0]
        assert nominal_solve(diamond_inst, checked).items == (0, 1)
        assert nominal_solve(diamond_inst, checked, forced_out={3}).value == 2.0
        assert nominal_solve(diamond_inst, costs).items == (2, 3)

    @staticmethod
    def old_check_finite(costs):
        """The elementwise rule the min/max check replaced."""
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must be finite")
        return not np.any(costs < 0)

    @pytest.mark.parametrize(
        "costs",
        [
            [],
            [[]],
            [0.0],
            [-0.0, 1.0],
            [1.0, -1e-300],
            [-5e-324, 0.0],
            [np.nan, 1.0],
            [1.0, np.nan, -1.0],
            [np.inf, 0.0],
            [-np.inf, 0.0],
            [np.inf, -np.inf],
            [np.nan, np.inf],
            [[1.0, 2.0], [0.0, -3.0]],
            [[1.0, np.nan], [0.0, 3.0]],
            [1.7e308, 1.7e308],
        ],
    )
    def test_finite_check_matches_elementwise_rule(self, costs):
        costs = np.asarray(costs, dtype=float)
        try:
            expected = self.old_check_finite(costs)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                instances._check_finite(costs)
        else:
            assert instances._check_finite(costs) is expected


class TestNominalValues:
    """The batched value oracle against nominal_solve, column by column."""

    @staticmethod
    def assert_columns_match(inst, block):
        values = nominal_values(inst, block)
        assert values.shape == (block.shape[1],)
        for j in range(block.shape[1]):
            assert values[j] == nominal_solve(inst, block[:, j]).value

    def test_relabelled_grids(self, rng):
        for trial in range(60):
            inst, _ = random_grid_case(rng)
            cols = int(rng.integers(1, 9))
            if trial % 2:
                block = rng.integers(0, 3, (inst.n, cols)).astype(float)
            else:
                block = rng.uniform(0.0, 10.0, (inst.n, cols))
            try:
                self.assert_columns_match(inst, block)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    nominal_solve(inst, block[:, 0])

    def test_selection_and_cyclic_graph_per_column(self, monkeypatch, rng):
        calls = []

        def counting(inst, costs):
            calls.append(costs)
            return nominal_solve(inst, costs)

        monkeypatch.setattr(instances, "nominal_solve", counting)
        cases = [(Instance.selection(7, 3), 7), (Instance.spath(CYCLIC, 0, 4), 9)]
        for inst, n in cases:
            block = rng.integers(0, 3, (n, 5)).astype(float)
            self.assert_columns_match(inst, block)
        assert len(calls) == 10

    def test_zero_columns(self, diamond_inst):
        assert nominal_values(diamond_inst, np.ones((4, 0))).shape == (0,)

    def test_unreachable_target(self, diamond):
        inst = Instance.spath(diamond, 3, 0)
        with pytest.raises(InfeasibleError, match="no path from 3 to 0"):
            nominal_values(inst, np.ones((4, 3)))

    @pytest.mark.parametrize(
        "block, message",
        [
            (np.ones(4), "shape"),
            (np.ones((3, 2)), "shape"),
            (np.array([[1.0], [np.inf], [1.0], [1.0]]), "finite"),
            (np.array([[1.0], [np.nan], [1.0], [1.0]]), "finite"),
            (np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, 1.0]]), "nonnegative"),
        ],
    )
    def test_rejects_bad_blocks(self, block, message):
        with pytest.raises(ValueError, match=message):
            nominal_values(CYCLIC4_INST, block)

    def test_rejects_negative_block_on_cyclic_graph(self):
        block = np.ones((CYCLIC.n, 2))
        block[3, 1] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            nominal_values(Instance.spath(CYCLIC, 0, 4), block)


class TestSignedCosts:
    """Negative costs on selection and acyclic paths, against brute force."""

    def test_match_enumeration_with_forced_items_and_ties(self):
        rng = np.random.default_rng(20261019)
        feasible = ties = 0
        for _ in range(500):
            if rng.random() < 0.2:
                n = int(rng.integers(2, 8))
                inst = Instance.selection(n, int(rng.integers(1, n + 1)))
            else:
                inst, _ = random_grid_case(rng)
            top = int(rng.choice([1, 3]))  # costs in -1..1 tie often
            costs = rng.integers(-top, top + 1, inst.n).astype(float)
            feasible_x = list(enumerate_feasible(inst))
            pool = np.arange(inst.n)
            if feasible_x and rng.random() < 0.7:  # mostly items of one solution
                pool = np.flatnonzero(feasible_x[rng.integers(len(feasible_x))])
            k = min(int(rng.integers(0, 3)), len(pool))
            fin = {int(a) for a in rng.choice(pool, k, replace=False)}
            rest = [a for a in range(inst.n) if a not in fin]
            n_out = min(int(rng.integers(0, 3)), len(rest))
            fout = {int(a) for a in rng.choice(rest, n_out, replace=False)}
            allowed = [
                (float(costs @ np.array(x)), item_set(x))
                for x in feasible_x
                if all(x[a] for a in fin) and not any(x[a] for a in fout)
            ]
            if not allowed:
                with pytest.raises(InfeasibleError):
                    nominal_solve(inst, costs, fin, fout)
                continue
            best = min(allowed)
            sol = nominal_solve(inst, costs, fin, fout)
            assert (sol.value, sol.items) == best
            feasible += 1
            ties += [v for v, _ in allowed].count(best[0]) > 1
        assert feasible > 300 and ties > 30

    def test_values_match_per_column_solves(self):
        rng = np.random.default_rng(20261020)
        for _ in range(100):
            inst, _ = random_grid_case(rng)
            block = rng.integers(-3, 4, (inst.n, 4)).astype(float)
            try:
                TestNominalValues.assert_columns_match(inst, block)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    nominal_solve(inst, block[:, 0])


class TestGraphStructure:
    def test_adjacency_is_cached_and_immutable(self, diamond):
        out = diamond.out_arcs
        assert out is diamond.out_arcs
        assert out == (((0, 1), (2, 2)), ((1, 3),), ((3, 3),), ())
        with pytest.raises(TypeError):
            out[0][0] = (9, 9)

    def test_topological_order(self, diamond):
        order, position = diamond.topological_order
        assert sorted(order) == [0, 1, 2, 3]
        for tail, head in diamond.arcs:
            assert position[tail] < position[head]
        assert all(order[position[v]] == v for v in range(4))

    @pytest.mark.parametrize("arcs", [((0, 1), (1, 2)), ((-1, 0), (0, 1))])
    def test_arc_endpoint_out_of_range(self, arcs):
        bad = next(i for i, arc in enumerate(arcs) if not all(0 <= v < 2 for v in arc))
        with pytest.raises(ValueError, match=f"arc {bad} endpoint out of range"):
            Graph(2, arcs)

    def test_self_loop_is_a_cycle(self):
        assert Graph(2, ((0, 1), (1, 1))).topological_order is None

    def test_path_counts_are_exact_past_int64(self):
        grid, _ = gen_synthetic(35, 35, 2, seed=0)
        counts = grid.paths_to(grid.num_nodes - 1)
        assert counts[0] == math.comb(68, 34) > 2**63
        assert type(counts[0]) is int
        assert grid.paths_to(grid.num_nodes - 1) is counts  # cached
        assert counts[1] == math.comb(67, 33)  # one column to the right

    def test_path_counts_match_enumeration(self, rng):
        for _ in range(20):
            graph = extra_arcs_grid(rng)
            for end in range(graph.num_nodes):
                counts = graph.paths_to(end)
                for start in range(graph.num_nodes):
                    expected = 1 if start == end else (
                        sum(1 for _ in enumerate_feasible(Instance.spath(graph, start, end)))
                    )
                    assert counts[start] == expected

    def test_path_counts_reject_a_cycle(self):
        with pytest.raises(ValueError, match="acyclic"):
            CYCLIC.paths_to(4)


def extra_arcs_grid(rng):
    """A relabelled grid of 2..4 x 2..4 nodes plus a few extra forward
    arcs (in topological order) and parallel copies of grid arcs."""
    graph, _, _ = relabelled_grid(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    order, _ = graph.topological_order
    arcs = list(graph.arcs)
    for _ in range(int(rng.integers(0, 4))):
        i, j = sorted(int(v) for v in rng.choice(graph.num_nodes, 2, replace=False))
        arcs.append((order[i], order[j]))
    for _ in range(int(rng.integers(0, 3))):
        arcs.append(arcs[int(rng.integers(len(arcs)))])
    return Graph(graph.num_nodes, tuple(arcs[i] for i in rng.permutation(len(arcs))))


def path_order(graph, items):
    """A path's arcs in the order the path takes them."""
    return sorted(items, key=graph.arc_positions[0].__getitem__)


class TestSegmentResolve:
    """An exclude child re-solved with `exclude_forcing`'s forced set, as
    branch-and-bound does, against the same child with only its own
    forced arcs."""

    COSTS = {
        "float": lambda rng, n: rng.uniform(0.0, 10.0, n),
        "ties": lambda rng, n: rng.integers(0, 3, n).astype(float),
        "signed": lambda rng, n: rng.uniform(-5.0, 5.0, n),
        "signed ties": lambda rng, n: rng.integers(-2, 3, n).astype(float),
    }

    @pytest.mark.parametrize("kind", sorted(COSTS))
    def test_children_of_real_completions_match(self, rng, kind):
        """None exactly when every path through fin uses the item (checked
        by enumeration); otherwise the returned arcs, in path order, hold
        fin, not the item, and give the child's outcome, x and value bits
        or no path, that fin alone gives.  Skipped and solved children
        count apart."""
        skipped = feasible = infeasible = 0
        for _ in range(300):
            graph = extra_arcs_grid(rng)
            order, _ = graph.topological_order
            if rng.random() < 0.5:
                s, t = order[0], order[-1]
            else:
                s, t = (int(v) for v in rng.choice(graph.num_nodes, 2, replace=False))
            inst = Instance.spath(graph, s, t)
            costs = check_costs(self.COSTS[kind](rng, inst.n), inst.n)
            n_out = int(rng.integers(0, 3))
            fout = frozenset(int(a) for a in rng.choice(inst.n, n_out, replace=False))
            try:
                parent = nominal_solve(inst, costs, (), fout).items
            except InfeasibleError:
                continue
            fin = frozenset(a for a in parent if rng.random() < 0.4)
            parent = nominal_solve(inst, costs, fin, fout).items  # a real completion
            paths = [set(item_set(x)) for x in enumerate_feasible(inst)]
            through = [p for p in paths if fin <= p]
            path = path_order(graph, parent)
            for item in parent:
                if item in fin:
                    continue
                kept = instances.exclude_forcing(inst, fin, path, item)
                assert (kept is None) == all(item in p for p in through)
                if kept is None:
                    skipped += 1
                    continue
                assert fin <= set(kept) and item not in kept
                assert kept == path_order(graph, kept)
                child = solve_outcome(inst, costs, fin, fout | {item})
                assert solve_outcome(inst, costs, kept, fout | {item}) == child
                feasible += child is not None
                infeasible += child is None
        assert skipped > 100 and feasible > 150 and infeasible > 20

    def test_selection_and_cyclic_graph_return_forced_in(self):
        fin = frozenset({0, 1})
        selection = Instance.selection(3, 3)
        assert instances.exclude_forcing(selection, fin, (0, 1, 2), 2) is fin
        # a graph with a directed cycle has no path counts: 0 -> 1 -> 3 -> 4
        fin = frozenset({0})
        cyclic = Instance.spath(CYCLIC, 0, 4)
        assert instances.exclude_forcing(cyclic, fin, (0, 3, 5), 3) is fin

    def test_long_forced_chains_match_exhaustive_search(self, rng):
        """Adjacent forced arcs: a chain from the source, one into the
        target, one in the middle, both ends, or the whole path."""
        shapes = dict.fromkeys(("source", "target", "middle", "ends", "whole"), 0)
        for _ in range(400):
            inst, costs = random_grid_case(rng)
            graph, s, t = inst.graph, inst.source, inst.target
            paths = list(enumerate_feasible(inst))
            if not paths:
                continue
            path = path_order(graph, item_set(paths[rng.integers(len(paths))]))
            k = int(rng.integers(1, len(path) + 1))
            shape = list(shapes)[rng.integers(len(shapes))]
            i = int(rng.integers(0, len(path) - k + 1))
            fin = tuple({
                "source": path[:k],
                "target": path[-k:],
                "middle": path[i : i + k],
                "ends": path[:i] + path[i + k :],
                "whole": path,
            }[shape])
            rest = [a for a in range(graph.n) if a not in fin]
            n_out = min(int(rng.integers(0, 3)), len(rest))
            fout = frozenset(int(a) for a in rng.choice(rest, n_out, replace=False))
            expected = _spath_branching(graph, costs, s, t, fin, fout)
            got = _spath_acyclic(graph, costs, s, t, fin, fout)
            if expected is None:
                assert got is None
            else:
                assert got[0].hex() == expected[0].hex()
                assert sorted(got[1]) == sorted(expected[1])
                assert got[1] == path_order(graph, got[1])
            shapes[shape] += 1
        assert min(shapes.values()) > 50

    def test_chain_with_an_arc_out_of_order_has_no_path(self, rng):
        """A forced chain from the source to u plus an arc leaving a node
        before u that the chain does not use: no path takes both."""
        cases = 0
        for _ in range(300):
            inst, costs = random_grid_case(rng)
            graph, s, t = inst.graph, inst.source, inst.target
            paths = list(enumerate_feasible(inst))
            if not paths:
                continue
            path = path_order(graph, item_set(paths[rng.integers(len(paths))]))
            run = path[: int(rng.integers(1, len(path) + 1))]
            tails, heads = graph.arc_positions
            early = [
                a for a in range(graph.n)
                if a not in run and tails[a] < heads[run[-1]]
            ]
            if not early:
                continue
            fin = (*run, early[rng.integers(len(early))])  # the last arc steps back
            assert _spath_branching(graph, costs, s, t, fin, frozenset()) is None
            assert _spath_acyclic(graph, costs, s, t, fin, frozenset()) is None
            with pytest.raises(InfeasibleError):
                nominal_solve(inst, costs, fin)
            cases += 1
        assert cases > 100


class TestSegmentPlan:
    """Three passes on one new graph object: the first walks the whole
    topological slice between a segment's ends, the later ones the
    segment's cached table of live rows."""

    COSTS = {
        "zero": lambda rng, n: np.zeros(n),
        "integer": lambda rng, n: rng.integers(0, 4, n).astype(float),
        "float": lambda rng, n: rng.uniform(0.0, 10.0, n),
        "signed": lambda rng, n: rng.integers(-2, 3, n).astype(float),
    }

    @staticmethod
    def fresh_case(rng):
        """A relabelled grid or, half the time, one with extra forward and
        parallel arcs, as a new graph object, corner to corner or between
        two random nodes, and its s-t paths as sorted arc tuples."""
        if rng.random() < 0.5:
            graph = extra_arcs_grid(rng)
        else:
            graph, _, _ = relabelled_grid(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        order = graph.topological_order[0]
        if rng.random() < 0.5:
            s, t = order[0], order[-1]
        else:
            s, t = (int(v) for v in rng.choice(graph.num_nodes, 2, replace=False))
        paths = [item_set(x) for x in enumerate_feasible(Instance.spath(graph, s, t))]
        return graph, s, t, paths

    @staticmethod
    def exhaustive(graph, costs, s, t, fin, fout, paths, signed):
        """The reference (value, arcs) or None: `_spath_branching`, or on
        signed costs, where its prune on partial sums does not hold, the
        best enumerated path, its costs summed in path order."""
        if not signed:
            return _spath_branching(graph, costs, s, t, frozenset(fin), fout)
        allowed = [
            (sum(costs[a] for a in path_order(graph, p)), p)
            for p in paths
            if set(fin) <= set(p) and fout.isdisjoint(p)
        ]
        return min(allowed) if allowed else None

    @pytest.mark.parametrize("kind", sorted(COSTS))
    def test_spath_passes_agree_cold_and_warm(self, rng, kind):
        """All three passes give the exhaustive value bits and arc set, and
        the same arcs in the same order, or all three find no path where
        it finds none.  forced_in is taken from one s-t path, in path
        order; forced_out is random or, a quarter of the time, every other
        arc on an s-t path, which cuts every live arc."""
        seen = dict.fromkeys(("path", "none", "forced", "cut"), 0)
        for _ in range(300):
            graph, s, t, paths = self.fresh_case(rng)
            costs = self.COSTS[kind](rng, graph.n).tolist()
            fin = []
            if paths:
                path = path_order(graph, paths[rng.integers(len(paths))])
                fin = [a for a in path if rng.random() < 0.4]
            if paths and rng.random() < 0.25:
                fout = frozenset(a for p in paths for a in p) - set(fin)
                seen["cut"] += 1
            else:
                rest = [a for a in range(graph.n) if a not in fin]
                n_out = min(int(rng.integers(0, 3)), len(rest))
                fout = frozenset(int(a) for a in rng.choice(rest, n_out, replace=False))
            expected = self.exhaustive(graph, costs, s, t, fin, fout, paths, kind == "signed")
            results = [_spath_acyclic(graph, costs, s, t, fin, fout) for _ in range(3)]
            if expected is None:
                assert results == [None] * 3
            else:
                for value, arcs in results:
                    assert value.hex() == expected[0].hex()
                    assert sorted(arcs) == sorted(expected[1])
                assert results[0] == results[1] == results[2]
            seen["none" if expected is None else "path"] += 1
            seen["forced"] += bool(fin)
        assert min(seen.values()) > 40, seen

    @pytest.mark.parametrize("kind", sorted(COSTS))
    def test_nominal_values_agree_cold_and_warm(self, rng, kind):
        """All three batched passes give each column's exhaustive value
        bits, or all three raise the same InfeasibleError."""
        infeasible = 0
        for _ in range(150):
            graph, s, t, paths = self.fresh_case(rng)
            inst = Instance.spath(graph, s, t)
            cols = int(rng.integers(1, 5))
            block = np.column_stack([self.COSTS[kind](rng, graph.n) for _ in range(cols)])
            expected = [
                self.exhaustive(
                    graph, block[:, j].tolist(), s, t, (), frozenset(), paths, kind == "signed"
                )
                for j in range(cols)
            ]
            outcomes = []
            for _ in range(3):
                try:
                    outcomes.append(nominal_values(inst, block).tobytes())
                except InfeasibleError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1] == outcomes[2]
            if expected[0] is None:
                assert outcomes[0] == f"no path from {s} to {t} under restrictions"
                infeasible += 1
            else:
                assert outcomes[0] == np.array([e[0] for e in expected]).tobytes()
        assert 10 < infeasible < 140

    def test_one_pass_builds_no_table(self, monkeypatch):
        """A segment's first pass walks its topological slice and builds
        no table; the second builds the table, which later passes reuse.
        The table holds the rectangle between the corners (1, 1) and
        (3, 3) of a 5x5 grid, end excluded, without the arcs leaving it."""
        built = []
        live_rows = Graph._live_rows
        monkeypatch.setattr(
            Graph, "_live_rows", lambda g, *seg: built.append(seg) or live_rows(g, *seg)
        )
        s, t = 6, 18
        rectangle = {r * 5 + c for r in (1, 2, 3) for c in (1, 2, 3)}
        for passes in (
            lambda g: _spath_acyclic(g, [1.0] * g.n, s, t, (), frozenset()),
            lambda g: nominal_values(Instance.spath(g, s, t), np.ones((g.n, 2))),
        ):
            graph, _ = gen_synthetic(5, 5, 2, seed=0)
            built.clear()
            passes(graph)
            assert built == []
            passes(graph)
            passes(graph)
            assert built == [(s, t)]
            order = graph.topological_order[0]
            rows = graph.segment_plan(s, t)
            assert [v for v, _ in rows] == [v for v in order if v in rectangle - {t}]
            for v, leaving in rows:
                assert leaving == tuple(a for a in graph.out_arcs[v] if a[1] in rectangle)
            slice_rows = graph.segment_plan(0, 24)  # a segment not seen before
            assert slice_rows == tuple((v, graph.out_arcs[v]) for v in order[:-1])
        assert built == [(s, t)]


class TestEnumerateFeasible:
    def test_selection_count(self):
        xs = list(enumerate_feasible(Instance.selection(4, 2)))
        assert len(xs) == 6
        assert all(sum(x) == 2 for x in xs)

    def test_diamond_two_paths(self, diamond_inst):
        xs = sorted(enumerate_feasible(diamond_inst))
        assert xs == [(0, 0, 1, 1), (1, 1, 0, 0)]

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError, match="cap"):
            list(enumerate_feasible(Instance.selection(10, 5), cap=3))


class TestFloatVector:
    @pytest.mark.parametrize("n", [0, 1, 7, 60, 1012])
    def test_equals_asarray_bit_for_bit(self, rng, n):
        for density in (0.0, 0.2, 1.0):
            x = tuple((rng.random(n) < density).astype(int).tolist())
            reference = np.asarray(x, dtype=float)
            for got in (float_vector(x), Solution(x, 0.0).as_array()):
                assert got.dtype == reference.dtype and got.shape == reference.shape
                assert got.tobytes() == reference.tobytes()
                assert got.flags.writeable


class TestSolution:
    def test_oracle_solution_equals_one_built_from_x(self, rng):
        """`nominal_solve` keeps the items it chose in `path`, path order
        for a path and ascending for a selection; its x, items, equality
        and hash are those of `Solution(x, value)`."""
        for _ in range(100):
            inst, costs = random_grid_case(rng)
            if rng.random() < 0.3:
                inst = Instance.selection(inst.n, int(rng.integers(1, inst.n + 1)))
            try:
                sol = nominal_solve(inst, costs)
            except InfeasibleError:
                continue
            same = Solution(sol.x, sol.value)
            assert same.path is None
            assert (sol.items, sol.x) == (same.items, same.x)
            assert sol == same and hash(sol) == hash(same)
            assert repr(sol) == repr(same)
            assert sol.items == tuple(sorted(sol.path))
            if inst.kind == "selection":
                assert sol.path == sol.items
            else:
                assert list(sol.path) == path_order(inst.graph, sol.path)
        assert Solution((1, 0), 1.0) != Solution((0, 1), 1.0)
        assert Solution((1, 0), 1.0) != Solution((1, 0), 2.0)

    @pytest.mark.parametrize(
        "x",
        [[1, 0, 1], np.array([1, 0, 1]), np.array([1, 0, 1], dtype=np.int8),
         np.array([True, False, True])],
        ids=["list", "int64", "int8", "bool"],
    )
    def test_x_given_as_list_or_array_is_the_equal_tuple(self, x):
        """A list or numpy array x is kept as the equal tuple of ints; an
        int64 array used to be read byte by byte, as 24 entries."""
        sol, same = Solution(x, 2.0), Solution((1, 0, 1), 2.0)
        assert sol.x == (1, 0, 1) and all(type(v) is int for v in sol.x)
        assert sol.as_array().tolist() == [1.0, 0.0, 1.0]
        assert sol.items == (0, 2)
        assert sol == same and hash(sol) == hash(same)
        data = ScenarioMatrix(np.arange(12.0).reshape(4, 3))
        assert score([sol], data) == score([same], data)

    @pytest.mark.parametrize(
        "x", [[1, 2, 0], np.array([0.5, 0.0, 1.0])], ids=["two", "half"]
    )
    def test_x_entries_other_than_0_or_1_rejected(self, x):
        with pytest.raises(ValueError, match="0s and 1s"):
            Solution(x, 1.0)

    def test_x_is_built_when_first_read(self):
        sol = Solution(None, 2.0, (3, 1), 5)
        assert sol._x is None
        assert (sol.value, sol.path) == (2.0, (3, 1))
        assert sol._x is None
        assert sol.x == (0, 1, 0, 1, 0)
        assert sol.x is sol.x
        assert sol.items == (1, 3)

    def test_value_is_priced_when_first_read(self):
        """`priced_on_read` calls its price once, on the first read of the
        value, which equality, hash and repr each make; then the solution
        is equal to, hashed and shown as the eager one."""
        eager = Solution((0, 1, 1), 2.5)
        for probe in ("value", "eq", "hash", "repr"):
            calls = []
            sol = Solution.priced_on_read((0, 1, 1), lambda: calls.append(1) or 2.5)
            assert (sol.x, sol.items, sol.path, calls) == ((0, 1, 1), (1, 2), None, [])
            {
                "value": lambda: sol.value,
                "eq": lambda: sol == eager,
                "hash": lambda: hash(sol),
                "repr": lambda: repr(sol),
            }[probe]()
            assert calls == [1], probe
            assert sol == eager and hash(sol) == hash(eager) and repr(sol) == repr(eager)
            assert sol.value == 2.5 and calls == [1]

    def test_is_immutable(self):
        for sol in (
            Solution((0, 1), 1.0),
            Solution(None, 1.0, (1,), 2),
            Solution.priced_on_read((0, 1), lambda: 1.0),
        ):
            for name in ("x", "value", "path", "_x", "_value", "_price"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(sol, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(sol, name)
            assert (sol.x, sol.value) == ((0, 1), 1.0)


def bfs_hops(g, u):
    """Hop distance from u to every node it reaches, by a BFS."""
    dist = {u: 0}
    queue = deque([u])
    while queue:
        v = queue.popleft()
        for tail, head in g.arcs:
            if tail == v and head not in dist:
                dist[head] = dist[v] + 1
                queue.append(head)
    return dist


def bfs_qualifying(g, min_hops):
    """Every (u, v) at hop distance >= min_hops, in (u, v) order."""
    return [
        (u, v) for u in range(g.num_nodes)
        for v, d in sorted(bfs_hops(g, u).items()) if v != u and d >= min_hops
    ]


def bfs_pairs(g, count, min_hops, seed):
    """The sampler's contract, spelled out: `count` positions of the
    qualifying list drawn without replacement."""
    qualifying = bfs_qualifying(g, min_hops)
    if len(qualifying) < count:
        raise ValueError(f"only {len(qualifying)} pairs satisfy min_hops={min_hops}")
    idx = np.random.default_rng(seed).choice(len(qualifying), size=count, replace=False)
    return [qualifying[i] for i in idx]


def sampled_or_error(sampler, *args):
    try:
        return sampler(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# Isolated node 6, nodes 4 and 5 unreachable from the rest, and two
# parallel 0 -> 1 arcs.
SPARSE = Graph(7, ((0, 1), (1, 2), (0, 1), (2, 3), (0, 2), (5, 4), (1, 3)))


class TestSampleStPairs:
    def test_paper_scale_pairs_pinned(self):
        graph, _ = gen_synthetic(23, 23, 271, "two_block", seed=1)
        assert sample_st_pairs(graph, 8, min_hops=30, seed=1) == [
            (186, 482), (48, 459), (0, 515), (186, 480),
            (119, 481), (4, 497), (97, 526), (50, 503),
        ]

    def test_acceptance_pairs_pinned(self):
        graph, _ = gen_synthetic(6, 6, 40, "two_block", seed=1)
        assert sample_st_pairs(graph, 6, min_hops=4, seed=1) == [
            (13, 17), (7, 17), (24, 28), (6, 30), (1, 11), (0, 15),
        ]

    def test_bnb_prove_pairs_pinned(self):
        graph, _ = gen_synthetic(8, 8, 40, "two_block", seed=1)
        assert sample_st_pairs(graph, 12, min_hops=6, seed=1) == [
            (0, 36), (11, 31), (32, 39), (25, 60), (40, 53), (10, 31),
            (3, 54), (1, 52), (9, 44), (21, 55), (6, 47), (36, 63),
        ]

    @pytest.mark.parametrize(
        "graph",
        [
            relabelled_grid(np.random.default_rng(3), 5, 4)[0],
            relabelled_grid(np.random.default_rng(4), 3, 6)[0],
            SPARSE,
            CYCLIC,
            Graph(6, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (5, 5))),
        ],
        ids=["grid-5x4", "grid-3x6", "sparse", "cyclic", "cyclic-self-loop"],
    )
    def test_matches_bfs_reference(self, graph):
        longest = max(max(bfs_hops(graph, u).values()) for u in range(graph.num_nodes))
        for min_hops in (-math.inf, -3, 0, 1, 2.5, longest, longest + 1, 2**70, math.nan):
            total = len(bfs_qualifying(graph, min_hops))
            for count in sorted({1, 3, total, total + 1}):
                for seed in (0, 7):
                    args = (graph, count, min_hops, seed)
                    assert sampled_or_error(sample_st_pairs, *args) == sampled_or_error(
                        bfs_pairs, *args
                    ), args
            message = f"only {total} pairs satisfy min_hops={min_hops}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sample_st_pairs(graph, total + 1, min_hops)

    def test_relabelled_grid_is_not_in_node_order(self):
        # The differential test's grids sweep in an order that is not
        # node order, so row labels are not simply filled back to front.
        order = relabelled_grid(np.random.default_rng(3), 5, 4)[0].topological_order[0]
        assert list(order) != sorted(order)

    def test_single_qualifying_pair(self):
        g = Graph(2, ((0, 1),))
        assert sample_st_pairs(g, 1, min_hops=1, seed=7) == [(0, 1)]

    def test_min_hops_unreachable(self, diamond):
        with pytest.raises(ValueError, match="only 0 pairs satisfy min_hops=3"):
            sample_st_pairs(diamond, 5, min_hops=3)

    def test_empty_request(self, diamond):
        assert sample_st_pairs(diamond, 0) == []

    def test_negative_count_rejected(self, diamond):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            sample_st_pairs(diamond, -1)

    def test_deterministic_and_distinct(self, diamond):
        a = sample_st_pairs(diamond, 3, seed=5)
        b = sample_st_pairs(diamond, 3, seed=5)
        assert a == b
        assert len(set(a)) == 3

    def test_min_hops_respected(self):
        graph, _ = gen_synthetic(4, 4, 2, seed=0)
        for s, t in sample_st_pairs(graph, 10, min_hops=3, seed=2):
            assert graph.hop_distances(s)[t] >= 3


class TestGenSynthetic:
    def test_shapes_and_positivity(self):
        graph, data = gen_synthetic(2, 2, 3, seed=1)
        assert graph.num_nodes == 4
        assert graph.n == 4
        assert data.costs.shape == (3, 4)
        assert np.all(data.costs > 0)

    def test_determinism(self):
        g1, d1 = gen_synthetic(3, 3, 5, seed=9)
        g2, d2 = gen_synthetic(3, 3, 5, seed=9)
        assert g1 == g2
        assert np.array_equal(d1.costs, d2.costs)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="width and height must be >= 2"):
            gen_synthetic(1, 2, 3)
        with pytest.raises(ValueError, match="need at least 2 scenarios"):
            gen_synthetic(2, 2, 1)

    def test_unknown_noise_rejected(self):
        with pytest.raises(ValueError, match="unknown noise model"):
            gen_synthetic(2, 2, 3, noise="white")

    def test_two_block_regime_shift(self):
        graph, data = gen_synthetic(4, 4, 20, noise="two_block", seed=3)
        in_left = np.array(
            [1.0 if (tail % 4) < 2 else 0.0 for tail, _ in graph.arcs]
        )
        first = data.costs[:10].mean(axis=0)
        second = data.costs[10:].mean(axis=0)
        # the left block is dearer in the first half, the right in the second
        assert first[in_left == 1].sum() > second[in_left == 1].sum()
        assert first[in_left == 0].sum() < second[in_left == 0].sum()

    def test_grid_arcs_go_right_and_down(self):
        graph, _ = gen_synthetic(3, 2, 2, seed=0)
        for tail, head in graph.arcs:
            assert head - tail in (1, 3)
