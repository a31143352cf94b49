from pathlib import Path

import numpy as np
import pytest

from robustmix import (
    BudgetedSet,
    EllipsoidSet,
    Graph,
    HullSet,
    Instance,
    Mixture,
    ModelStats,
    ParseError,
    PolyhedronSet,
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
    def test_budgeted_file_well_formed(self, tmp_path):
        inst, mix = budgeted_selection()
        path = str(tmp_path / "model.lp")
        stats = emit_model(inst, mix, path)
        text = Path(path).read_text()
        assert check_lp_grammar(text) == []
        model = parse_lp(text)
        assert len(model.general) == stats.num_binary
        assert len(model.constraints) == stats.num_constraints

    def test_hull_file_well_formed(self, tmp_path, diamond):
        inst, mix = hull_diamond(diamond)
        path = str(tmp_path / "model.lp")
        emit_model(inst, mix, path)
        assert check_lp_grammar(Path(path).read_text()) == []

    def test_returns_the_counts_it_wrote(self, tmp_path, monkeypatch):
        """The returned stats count the file, not the closed form: a block
        that emits an extra row shows up in them."""
        family = mip_emit._FAMILIES["budgeted"]

        def block_with_extra_row(model, j, weight, uset, n):
            family.block(model, j, weight, uset, n)
            model.rows.append((f"extra_{j}", [(1.0, "x_0")], ">=", 0.0))

        monkeypatch.setitem(
            mip_emit._FAMILIES, "budgeted", family._replace(block=block_with_extra_row)
        )
        inst, mix = budgeted_selection()
        path = str(tmp_path / "model.lp")
        stats = emit_model(inst, mix, path)
        model = parse_lp(Path(path).read_text())
        n_bin = len(model.general)
        assert stats == ModelStats(
            n_bin, len(model.bounds) - n_bin, len(model.constraints)
        )
        assert stats.num_constraints == expected_stats(inst, mix).num_constraints + 1

    def test_emission_deterministic(self, tmp_path, diamond):
        inst, mix = hull_diamond(diamond)
        a, b = str(tmp_path / "a.lp"), str(tmp_path / "b.lp")
        emit_model(inst, mix, a)
        emit_model(inst, mix, b)
        assert Path(a).read_text() == Path(b).read_text()

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
    def test_flow_rows_match_per_node_scan(self, tmp_path, graph):
        inst = Instance.spath(graph, 0, 3)
        lo = np.arange(graph.n, dtype=float)
        mix = Mixture(((1.0, BudgetedSet(lo, lo + 1.0, 2)),))
        path = tmp_path / "model.lp"
        emit_model(inst, mix, str(path))
        lines = path.read_text().split("\n")
        flow = [ln for ln in lines if ln.startswith(" flow_")]
        assert flow == self.old_flow_lines(inst)
        bounds = lines.index("Bounds")
        assert lines[bounds - len(flow) : bounds] == flow

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


class TestCheckEmitted:
    def test_budgeted_round_trip(self, tmp_path):
        inst, mix = budgeted_selection()
        path = str(tmp_path / "model.lp")
        emit_model(inst, mix, path)
        best = solve_brute_force(inst, mix)
        check = check_emitted(inst, mix, best.solution, path)
        assert check.ok and check.objective_match, check.message

    def test_hull_round_trip(self, tmp_path, diamond):
        inst, mix = hull_diamond(diamond)
        path = str(tmp_path / "model.lp")
        emit_model(inst, mix, path)
        best = solve_brute_force(inst, mix)
        check = check_emitted(inst, mix, best.solution, path)
        assert check.ok and check.objective_match, check.message

    def test_corrupted_file_detected(self, tmp_path):
        inst, mix = budgeted_selection()
        path = str(tmp_path / "model.lp")
        emit_model(inst, mix, path)
        lines = Path(path).read_text().splitlines()
        # drop the first dual row
        del lines[next(i for i, ln in enumerate(lines) if ln.startswith(" bud_"))]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        best = solve_brute_force(inst, mix)
        check = check_emitted(inst, mix, best.solution, path)
        assert not check.ok
        assert "mismatch" in check.message

    def test_polyhedral_completion_skipped(self, tmp_path):
        inst = Instance.selection(2, 1)
        mix = Mixture(((1.0, PolyhedronSet(np.eye(2), np.array([3.0, 4.0]))),))
        path = str(tmp_path / "model.lp")
        emit_model(inst, mix, path)
        assert check_lp_grammar(Path(path).read_text()) == []
        from robustmix import Solution

        check = check_emitted(inst, mix, Solution((1, 0), 0.0), path)
        assert check.ok and not check.objective_match
        assert "skipped" in check.message

    def test_random_models_round_trip(self, rng, tmp_path):
        for trial in range(30):
            inst = random_instance(rng, max_sel_n=6)
            if trial % 3 == 0:
                mix = random_budgeted_mixture(rng, inst.n)
            elif trial % 3 == 1:
                mix = random_hull_mixture(rng, inst.n)
            else:
                families = rng.permutation(["interval", "budgeted", "hull"])
                mix = random_mixture(rng, inst.n, families)
            path = str(tmp_path / f"m{trial}.lp")
            stats = emit_model(inst, mix, path)
            assert stats == expected_stats(inst, mix)
            assert check_lp_grammar(Path(path).read_text()) == []
            best = solve_brute_force(inst, mix)
            check = check_emitted(inst, mix, best.solution, path)
            assert check.ok and check.objective_match, check.message
