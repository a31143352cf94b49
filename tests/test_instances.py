import dataclasses
import math

import numpy as np
import pytest

from robustmix import (
    CapExceededError,
    Graph,
    InfeasibleError,
    Instance,
    OracleCosts,
    ParseError,
    check_costs,
    gen_synthetic,
    graph_to_text,
    nominal_solve,
    nominal_values,
    parse_graph,
    sample_st_pairs,
)
from robustmix import instances
from robustmix.instances import _spath_branching, enumerate_feasible, item_set

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

    def test_zero_cost_tie_on_acyclic_graph(self):
        inst = Instance.spath(Graph(3, ZERO_TIE_ARCS), 0, 2)
        assert nominal_solve(inst, ZERO_TIE_COSTS).items == (0, 2)

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
        "strictly positive costs",
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


class TestMustUse:
    def test_matches_enumeration_on_forced_chains(self, rng):
        skips = keeps = 0
        for _ in range(300):
            graph = extra_arcs_grid(rng)
            order, _ = graph.topological_order
            if rng.random() < 0.5:
                s, t = order[0], order[-1]
            else:
                s, t = (int(v) for v in rng.choice(graph.num_nodes, 2, replace=False))
            inst = Instance.spath(graph, s, t)
            paths = [{a for a, used in enumerate(x) if used} for x in enumerate_feasible(inst)]
            if not paths:
                continue
            path = sorted(paths[int(rng.integers(len(paths)))])
            fin = {a for a in path if rng.random() < 0.4}
            through = [p for p in paths if fin <= p]
            for arc in path:
                if arc in fin:
                    continue
                expected = all(arc in p for p in through)
                assert instances.must_use(inst, fin, arc) is expected
                skips += expected
                keeps += not expected
        assert skips > 100 and keeps > 100

    def test_selection_and_cyclic_graph_answer_false(self):
        assert not instances.must_use(Instance.selection(3, 3), {0, 1}, 2)
        # arc 5 (3 -> 4) is on every 0 -> 4 path of CYCLIC but has no counts
        assert not instances.must_use(Instance.spath(CYCLIC, 0, 4), (), 5)


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


class TestSampleStPairs:
    def test_single_qualifying_pair(self):
        g = Graph(2, ((0, 1),))
        assert sample_st_pairs(g, 1, min_hops=1, seed=7) == [(0, 1)]

    def test_min_hops_unreachable(self, diamond):
        with pytest.raises(ValueError, match="only 0 pairs satisfy min_hops=3"):
            sample_st_pairs(diamond, 5, min_hops=3)

    def test_empty_request(self, diamond):
        assert sample_st_pairs(diamond, 0) == []

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
