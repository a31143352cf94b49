import re

import numpy as np
import pytest

from robustmix import (
    BudgetedSet,
    EllipsoidSet,
    Graph,
    HullSet,
    Instance,
    IntervalSet,
    Mixture,
    ModelStats,
    ParseError,
    PolyhedronSet,
    Solution,
    UnsupportedError,
    check_emitted,
    emit_model,
    gen_synthetic,
    parse_lp,
    solve_brute_force,
)
from robustmix import mip_emit
from robustmix.mip_emit import _coef, _expr, expected_stats
from robustmix.verify import random_budgeted_mixture, random_hull_mixture, random_instance

from lp_grammar import check_lp_grammar
from test_solvers import random_mixture


def budgeted_selection():
    inst = Instance.selection(2, 1)
    mix = Mixture(((1.0, BudgetedSet(np.array([1.0, 2.0]), np.array([4.0, 3.0]), 1)),))
    return inst, mix


def hull_diamond(diamond):
    inst = Instance.spath(diamond, 0, 3)
    mix = Mixture(((1.0, HullSet(np.array([[1.0, 1.0, 5.0, 5.0], [5.0, 5.0, 1.0, 1.0]]))),))
    return inst, mix


class TestExpectedStats:
    def test_budgeted_selection_counts(self):
        inst, mix = budgeted_selection()
        stats = expected_stats(inst, mix)
        assert stats.num_binary == 2
        assert stats.num_continuous == 3  # pi plus one rho per item
        assert stats.num_constraints == 3  # two dual rows plus cardinality

    def test_hull_diamond_counts(self, diamond):
        inst, mix = hull_diamond(diamond)
        stats = expected_stats(inst, mix)
        assert stats.num_binary == 4
        assert stats.num_continuous == 1
        assert stats.num_constraints == 6  # two epigraph rows plus four flow rows

    def test_ellipsoid_rejected(self):
        mix = Mixture(((1.0, EllipsoidSet(np.ones(2), np.eye(2), 1.0)),))
        with pytest.raises(UnsupportedError, match="conic"):
            expected_stats(Instance.selection(2, 1), mix)


class TestEmitAndParse:
    def test_budgeted_file_well_formed(self):
        inst, mix = budgeted_selection()
        text, stats = emit_model(inst, mix)
        assert check_lp_grammar(text) == []
        model = parse_lp(text)
        assert len(model.general) == stats.num_binary
        assert len(model.constraints) == stats.num_constraints

    def test_hull_file_well_formed(self, diamond):
        inst, mix = hull_diamond(diamond)
        text, _ = emit_model(inst, mix)
        assert check_lp_grammar(text) == []

    def test_returns_the_counts_it_wrote(self, monkeypatch):
        """The returned stats count the text, not the closed form: a block
        that emits an extra row shows up in them."""
        family = mip_emit._FAMILIES["budgeted"]

        def block_with_extra_row(model, j, weight, uset, n):
            family.block(model, j, weight, uset, n)
            model.rows.append((f"extra_{j}", [(1.0, "x_0")], ">=", 0.0))

        monkeypatch.setitem(
            mip_emit._FAMILIES, "budgeted", family._replace(block=block_with_extra_row)
        )
        inst, mix = budgeted_selection()
        text, stats = emit_model(inst, mix)
        model = parse_lp(text)
        n_bin = len(model.general)
        assert stats == ModelStats(
            n_bin, len(model.bounds) - n_bin, len(model.constraints)
        )
        assert stats.num_constraints == expected_stats(inst, mix).num_constraints + 1

    def test_emission_deterministic(self, diamond):
        inst, mix = hull_diamond(diamond)
        assert emit_model(inst, mix) == emit_model(inst, mix)

    @staticmethod
    def old_flow_lines(inst):
        """Flow rows as the per-node scan over every arc rendered them."""
        g = inst.graph
        lines = []
        for v in range(g.num_nodes):
            terms = []
            for i, (tail, head) in enumerate(g.arcs):
                if tail == v:
                    terms.append((1.0, f"x_{i}"))
                if head == v:
                    terms.append((-1.0, f"x_{i}"))
            rhs = 1.0 if v == inst.source else (-1.0 if v == inst.target else 0.0)
            if not terms:
                terms = [(0.0, "x_0")]
            lines.append(f" flow_{v}: {_expr(terms)} = {_coef(rhs)}")
        return lines

    @pytest.mark.parametrize(
        "graph",
        [
            gen_synthetic(23, 23, 2, seed=0)[0],
            # parallel arcs, self-loops and an isolated node
            Graph(5, ((0, 1), (1, 1), (0, 1), (1, 3), (3, 3), (0, 3), (1, 3))),
        ],
    )
    def test_flow_rows_match_per_node_scan(self, graph):
        inst = Instance.spath(graph, 0, 3)
        lo = np.arange(graph.n, dtype=float)
        mix = Mixture(((1.0, BudgetedSet(lo, lo + 1.0, 2)),))
        text, _ = emit_model(inst, mix)
        lines = text.split("\n")
        flow = [ln for ln in lines if ln.startswith(" flow_")]
        assert flow == self.old_flow_lines(inst)
        bounds = lines.index("Bounds")
        assert lines[bounds - len(flow) : bounds] == flow

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (" obj: 1 x_0", " obj: 1 2 x_0", "two consecutive numbers near '2'"),
            (" obj: 1 x_0", " obj: 1 x.0", "bad variable name 'x.0'"),
            (" obj: 1 x_0", " obj: 1 x_0 + 2", "dangling coefficient in expression"),
            (" obj: 1 x_0", " 1 x_0", "objective line missing label"),
            (" r: 1 x_0 >= 0", " 1r: 1 x_0 >= 0", "bad constraint name '1r'"),
            (" r: 1 x_0 >= 0", " r: 1 x_0 >= 0 1", "constraint needs '<terms> <sense> <rhs>'"),
            (" r: 1 x_0 >= 0", " r: 1 x_0 >= a", "bad rhs in"),
            ("General\n x_0", "General\n x.0", "bad general entry 'x.0'"),
            ("Minimize", "junk\nMinimize", "content before Minimize: 'junk'"),
        ],
        ids=["two-numbers", "variable-name", "dangling", "objective-label",
             "constraint-name", "constraint-shape", "rhs", "general", "preamble"],
    )
    def test_parse_rejects(self, old, new, message):
        text = (
            "Minimize\n obj: 1 x_0\nSubject To\n r: 1 x_0 >= 0\n"
            "Bounds\n 0 <= x_0 <= 1\nGeneral\n x_0\nEnd\n"
        )
        parse_lp(text)
        assert text.count(old) == 1
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_lp(text.replace(old, new))

    def test_parse_rejects_bad_section_order(self):
        with pytest.raises(ParseError, match="section"):
            parse_lp("Minimize\n obj: 1 x_0\nBounds\n 0 <= x_0 <= 1\nEnd\n")

    def test_parse_rejects_unlabeled_constraint(self):
        text = (
            "Minimize\n obj: 1 x_0\nSubject To\n 1 x_0 >= 0\n"
            "Bounds\n 0 <= x_0 <= 1\nGeneral\n x_0\nEnd\n"
        )
        with pytest.raises(ParseError, match="label"):
            parse_lp(text)

    def test_parse_rejects_content_after_end(self):
        text = (
            "Minimize\n obj: 1 x_0\nSubject To\n r: 1 x_0 >= 0\n"
            "Bounds\n 0 <= x_0 <= 1\nGeneral\n x_0\nEnd\n junk\n"
        )
        with pytest.raises(ParseError, match="after End"):
            parse_lp(text)

    def test_parse_rejects_a_fixed_bound(self):
        """`emit_model` writes no `x = v` bound; both parsers reject one."""
        text = (
            "Minimize\n obj: 1 x_0\nSubject To\n r: 1 x_0 >= 0\n"
            "Bounds\n x_0 = 1\nGeneral\n x_0\nEnd\n"
        )
        assert check_lp_grammar(text) == ["line 6: bad bound ' x_0 = 1'"]
        with pytest.raises(ParseError, match="bad bounds line"):
            parse_lp(text)

    def test_hull_epigraph_variables_are_free(self, diamond):
        """A hull's y_j is free, in the text and in the parsed bounds,
        and the grammar accepts the line; other variables keep >= 0."""
        inst, hull = hull_diamond(diamond)
        mix = Mixture(hull.components + ((1.0, BudgetedSet(np.zeros(4), np.ones(4), 1)),))
        text, stats = emit_model(inst, mix)
        lines = text.splitlines()
        assert " y_0 free" in lines and " pi_1 >= 0" in lines
        assert check_lp_grammar(text) == []
        bounds = parse_lp(text).bounds
        assert bounds["y_0"] == (-float("inf"), float("inf"))
        assert bounds["pi_1"] == (0.0, float("inf"))
        assert len(bounds) == stats.num_binary + stats.num_continuous

    @pytest.mark.parametrize("line", [" y_0 free 1", " free y_0", " 1y free"])
    def test_parse_rejects_bad_free_bound(self, line):
        text = (
            "Minimize\n obj: 1 y_0\nSubject To\n r: 1 y_0 >= 0\n"
            f"Bounds\n{line}\nGeneral\n x_0\nEnd\n"
        )
        assert check_lp_grammar(text) == [f"line 6: bad bound {line!r}"]
        with pytest.raises(ParseError, match="bad bounds line"):
            parse_lp(text)


class TestCheckEmitted:
    def test_budgeted_round_trip(self):
        inst, mix = budgeted_selection()
        text, _ = emit_model(inst, mix)
        best = solve_brute_force(inst, mix)
        check = check_emitted(inst, mix, best.solution, text)
        assert check.ok and check.objective_match, check.message

    def test_hull_round_trip(self, diamond):
        inst, mix = hull_diamond(diamond)
        text, _ = emit_model(inst, mix)
        best = solve_brute_force(inst, mix)
        check = check_emitted(inst, mix, best.solution, text)
        assert check.ok and check.objective_match, check.message

    def test_negative_hull_loads_round_trip(self):
        """Every point's load at the optimum is negative: the free y_0
        takes the largest, -1, where a y_0 >= 0 bound made the text's
        objective 0."""
        inst = Instance.selection(3, 1)
        mix = Mixture(((1.0, HullSet(np.array([[-1.0, -2.0, 3.0], [-3.0, 2.0, 1.0]]))),))
        best = solve_brute_force(inst, mix).solution
        assert best.x == (1, 0, 0) and best.value == -1.0
        text, _ = emit_model(inst, mix)
        check = check_emitted(inst, mix, best, text)
        assert check.ok and check.objective_match, check.message
        bounded = text.replace(" y_0 free", " y_0 >= 0")
        check = check_emitted(inst, mix, best, bounded)
        assert not (check.ok and check.objective_match), check

    def test_all_zero_objective_is_one_zero_term(self):
        inst = Instance.selection(2, 1)
        mix = Mixture(((1.0, IntervalSet(np.zeros(2), np.zeros(2))),))
        text, _ = emit_model(inst, mix)
        assert " obj: 0 x_0" in text.splitlines()
        assert check_lp_grammar(text) == []
        assert parse_lp(text).objective == {"x_0": 0.0}
        check = check_emitted(inst, mix, Solution((1, 0), 0.0), text)
        assert check.ok and check.objective_match, check.message

    def test_corrupted_file_detected(self):
        inst, mix = budgeted_selection()
        text, _ = emit_model(inst, mix)
        lines = text.splitlines()
        # drop the first dual row
        del lines[next(i for i, ln in enumerate(lines) if ln.startswith(" bud_"))]
        best = solve_brute_force(inst, mix)
        check = check_emitted(inst, mix, best.solution, "\n".join(lines) + "\n")
        assert not check.ok
        assert "mismatch" in check.message

    @pytest.mark.parametrize("prefix", [" bud_0_", " hull_0_"], ids=["budgeted", "hull"])
    def test_halved_x_coefficients_detected(self, prefix):
        """Halving every x coefficient of one family's rows leaves a
        model that the text-completed variables expose: its objective no
        longer matches the in-process one."""
        inst = Instance.selection(5, 2)
        rng = np.random.default_rng(3)
        lo = rng.uniform(0.0, 5.0, 5)
        uset = BudgetedSet(lo, lo + rng.uniform(0.0, 5.0, 5), 1)
        if prefix == " hull_0_":
            uset = HullSet(rng.uniform(0.0, 10.0, (3, 5)))
        mix = Mixture(((1.0, uset),))
        text, _ = emit_model(inst, mix)
        best = solve_brute_force(inst, mix).solution
        assert check_emitted(inst, mix, best, text).objective_match
        lines = []
        for line in text.splitlines():
            if line.startswith(prefix):
                line = re.sub(r"(\d[\d.e+-]*) x_", lambda m: f"{float(m[1]) / 2:.12g} x_", line)
            lines.append(line)
        corrupted = "\n".join(lines) + "\n"
        assert corrupted != text
        check = check_emitted(inst, mix, best, corrupted)
        assert not (check.ok and check.objective_match), check

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (" rho_0_1 >= 0", " rho_0_1 >= 100", "bound of rho_0_1 violated at point"),
            (" 0 <= x_0 <= 1", " 0 <= x_0 <= 0", "x_0 bounds (0.0, 0.0) are not (0, 1)"),
            (" 0 <= x_1 <= 1", " 5 <= x_1 <= 9", "x_1 bounds (5.0, 9.0) are not (0, 1)"),
            (
                " card: 1 x_0 + 1 x_1 + 1 x_2 + 1 x_3 + 1 x_4 = 2",
                " card: 1 x_0 + 1 x_1 + 1 x_2 + 1 x_3 + 1 x_4 = 3",
                "constraint card violated at point",
            ),
            ("Minimize", "Minimize\n junk", "parse-back failure: objective line missing label"),
        ],
        ids=["rho_lower", "x_upper", "x_range", "row", "parse"],
    )
    def test_edited_bounds_detected(self, old, new, message):
        """Each edit leaves the objective intact at the optimum; only one
        bound or row is wrong, or the text no longer parses."""
        inst = Instance.selection(5, 2)
        rng = np.random.default_rng(3)
        lo = rng.uniform(0.0, 5.0, 5)
        mix = Mixture(((1.0, BudgetedSet(lo, lo + rng.uniform(0.0, 5.0, 5), 1)),))
        text, _ = emit_model(inst, mix)
        best = solve_brute_force(inst, mix).solution
        assert best.x == (1, 0, 0, 0, 1)
        assert text.count(f"{old}\n") == 1
        check = check_emitted(inst, mix, best, text.replace(f"{old}\n", f"{new}\n"))
        assert not check.ok and check.message == message

    def test_polyhedral_completion_skipped(self):
        inst = Instance.selection(2, 1)
        mix = Mixture(((1.0, PolyhedronSet(np.eye(2), np.array([3.0, 4.0]))),))
        text, _ = emit_model(inst, mix)
        assert check_lp_grammar(text) == []
        check = check_emitted(inst, mix, Solution((1, 0), 0.0), text)
        assert check.ok and not check.objective_match
        assert "skipped" in check.message

    def test_random_models_round_trip(self, rng):
        for trial in range(30):
            inst = random_instance(rng, max_sel_n=6)
            if trial % 3 == 0:
                mix = random_budgeted_mixture(rng, inst.n)
            elif trial % 3 == 1:
                mix = random_hull_mixture(rng, inst.n)
            else:
                families = rng.permutation(["interval", "budgeted", "hull"])
                mix = random_mixture(rng, inst.n, families)
            text, stats = emit_model(inst, mix)
            assert stats == expected_stats(inst, mix)
            assert check_lp_grammar(text) == []
            best = solve_brute_force(inst, mix)
            check = check_emitted(inst, mix, best.solution, text)
            assert check.ok and check.objective_match, check.message
