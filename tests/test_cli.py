import argparse
import json
import os
import warnings
from pathlib import Path

import pytest

from robustmix import cli, tuning
from robustmix.cli import main


@pytest.fixture
def workdir(tmp_path):
    """Generated instance files shared by the CLI tests."""
    paths = {
        "graph": str(tmp_path / "g.txt"),
        "scenarios": str(tmp_path / "s.csv"),
        "pairs": str(tmp_path / "p.csv"),
        "dir": tmp_path,
    }
    assert (
        main(
            [
                "gen",
                "--width", "3", "--height", "3", "--scenarios", "12",
                "--seed", "4",
                "--out-graph", paths["graph"],
                "--out-scenarios", paths["scenarios"],
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "pairs",
                "--graph", paths["graph"],
                "--count", "2", "--min-hops", "2", "--seed", "4",
                "--out", paths["pairs"],
            ]
        )
        == 0
    )
    return paths


def write_mixture(tmp_path, components):
    path = str(tmp_path / "mix.json")
    with open(path, "w") as fh:
        json.dump({"components": components}, fh)
    return path


INTERVAL_MIX = [{"weight": 1.0, "type": "interval", "lambda": 0.5}]


class TestSolve:
    def test_happy_path(self, workdir, capsys):
        mixture = write_mixture(workdir["dir"], INTERVAL_MIX)
        out = str(workdir["dir"] / "sol.json")
        code = main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--source", "0", "--target", "8",
                "--method", "bnb",
                "--out", out,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("objective=")
        assert "optimal=true" in captured.out
        doc = json.loads(Path(out).read_text())
        assert len(doc["solutions"]) == 1
        assert os.path.exists(out + ".manifest.json")

    def test_parametric_rejects_non_diagonal(self, workdir, capsys):
        """Built ellipsoids are never diagonal, so the parametric scan is
        no --method: argparse rejects it."""
        mixture = write_mixture(
            workdir["dir"], [{"weight": 1.0, "type": "ellipsoid", "lambda": 2.0}]
        )
        code = main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--source", "0", "--target", "8",
                "--method", "parametric",
            ]
        )
        assert code == 2
        assert "invalid choice: 'parametric'" in capsys.readouterr().err

    def test_unreachable_target_infeasible(self, workdir, capsys):
        mixture = write_mixture(workdir["dir"], INTERVAL_MIX)
        # grid arcs only go right/down, so node 0 is unreachable from 8
        code = main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--source", "8", "--target", "0",
            ]
        )
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_missing_endpoints_invalid(self, workdir, capsys):
        mixture = write_mixture(workdir["dir"], INTERVAL_MIX)
        code = main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
            ]
        )
        assert code == 2

    def test_pairs_file_input(self, workdir, capsys):
        mixture = write_mixture(workdir["dir"], INTERVAL_MIX)
        code = main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--pairs", workdir["pairs"],
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.count("objective=") == 2

    @pytest.mark.parametrize(
        "method, extra, expected",
        [
            ("bnb", ["--max-nodes", "0"], 4),
            ("auto", ["--max-nodes", "0"], 4),
            ("midpoint", [], 0),
            ("local", [], 0),
        ],
    )
    def test_unproven_search_exits_4(self, workdir, capsys, method, extra, expected):
        """A search cut short before a proof exits 4 and still writes its
        output; the heuristics never prove optimality and exit 0."""
        mixture = write_mixture(
            workdir["dir"], [{"weight": 1.0, "type": "hull", "lambda": 0.5}]
        )
        out = str(workdir["dir"] / "sol.json")
        code = main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--pairs", workdir["pairs"],
                "--method", method,
                "--out", out,
                *extra,
            ]
        )
        assert code == expected
        assert "optimal=false" in capsys.readouterr().out
        records = json.loads(Path(out).read_text())["solutions"]
        assert len(records) == 2
        assert not any(rec["optimal"] for rec in records)
        assert os.path.exists(out + ".manifest.json")

    @pytest.mark.parametrize("method", sorted(cli.METHODS))
    def test_negative_max_nodes_invalid(self, workdir, capsys, monkeypatch, method):
        def no_solve(inst, mix, args):
            raise AssertionError("solved despite a negative --max-nodes")

        monkeypatch.setitem(cli.METHODS, method, no_solve)
        mixture = write_mixture(
            workdir["dir"], [{"weight": 1.0, "type": "hull", "lambda": 0.5}]
        )
        out = workdir["dir"] / "sol.json"
        code = main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--pairs", workdir["pairs"],
                "--method", method,
                "--max-nodes", "-1",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "--max-nodes must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedMixture:
    @pytest.mark.parametrize(
        "components",
        [
            [1],
            [{"weight": None, "type": "interval", "lambda": 0.5}],
            [{"weight": 1.0, "type": "interval", "lambda": None}],
            [{"weight": 1.0, "type": "budgeted", "lambda": 0.5, "gamma": None}],
            [{"weight": 1.0, "type": "ellipsoid", "lambda": 1.0, "ridge": None}],
        ],
        ids=["not-an-object", "null-weight", "null-lambda", "null-gamma", "null-ridge"],
    )
    def test_exits_2(self, workdir, capsys, components):
        mixture = write_mixture(workdir["dir"], components)
        code = main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--pairs", workdir["pairs"],
            ]
        )
        assert code == 2
        assert "error: component 0" in capsys.readouterr().err


class TestNonFiniteRidge:
    @pytest.mark.parametrize(
        "ridge, named",
        [('"nan"', "ridge nan must be finite"), ("1e400", "ridge inf must be finite")],
        ids=["nan-string", "overflowing-number"],
    )
    def test_exits_2_naming_the_ridge(self, workdir, capsys, ridge, named):
        mixture = workdir["dir"] / "mix.json"
        mixture.write_text(
            '{"components": [{"weight": 1.0, "type": "ellipsoid", "lambda": 1.0, '
            f'"ridge": {ridge}}}]}}'
        )
        code = main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", str(mixture),
                "--pairs", workdir["pairs"],
            ]
        )
        assert code == 2
        assert named in capsys.readouterr().err


EMPTY_PAIRS = "empty pair list: the pairs CSV has a header but no rows"


class TestInvalidValues:
    """Values that parse but make no sense exit 2 with an error naming them."""

    @pytest.mark.parametrize(
        "argv, components, named",
        [
            (["baseline", "--type", "interval", "--pairs", "{header_only}",
              "--out", "{out}"], None, EMPTY_PAIRS),
            (["solve", "--mixture", "{mixture}", "--pairs", "{header_only}",
              "--out", "{out}"], INTERVAL_MIX, EMPTY_PAIRS),
            (["tune", "--pairs", "{header_only}", "--weights", "0.4,0.3,0.3",
              "--out-config", "{out}"], None, EMPTY_PAIRS),
            (["tune", "--pairs", "{pairs}", "--weight-grid", "0",
              "--out-config", "{out}"], None, "got 0.0"),
            (["tune", "--pairs", "{pairs}", "--weight-grid=-0.5",
              "--out-config", "{out}"], None, "got -0.5"),
            (["tune", "--pairs", "{pairs}", "--weights", "nan,0,0",
              "--out-config", "{out}"], None, "got nan,0,0"),
            (["solve", "--mixture", "{mixture}", "--pairs", "{pairs}"],
             [{"weight": 1.0, "type": "budgeted", "lambda": 0.5, "gamma": 2.7}],
             "gamma 2.7 is not an integer"),
            (["solve", "--mixture", "{mixture}", "--pairs", "{pairs}"],
             [{"weight": 1.0, "type": "hull", "lamda": 0.5}],
             "component 0 key 'lamda' is not read by 'hull'"),
            (["solve", "--mixture", "{mixture}", "--pairs", "{pairs}"],
             [INTERVAL_MIX[0], {"weight": 1.0, "type": "hull", "lambda": 0.5, "gamma": 2}],
             "component 1 key 'gamma' is not read by 'hull'"),
            (["solve", "--mixture", "{mixture}", "--pairs", "{pairs}"],
             [{"weight": 1.0, "type": "interval", "lambda": 0.5, "ridge": 0.1}],
             "component 0 key 'ridge' is not read by 'interval'"),
        ],
        ids=["header-only-pairs", "header-only-pairs-solve", "header-only-pairs-tune",
             "weight-grid-zero", "weight-grid-negative",
             "weights-nan", "gamma-fractional", "lambda-typo", "gamma-on-hull",
             "ridge-on-interval"],
    )
    def test_exits_2(self, workdir, capsys, argv, components, named):
        header_only = workdir["dir"] / "header_only.csv"
        header_only.write_text("source,target\n")
        names = {
            **workdir,
            "header_only": header_only,
            "mixture": components and write_mixture(workdir["dir"], components),
            "out": workdir["dir"] / "out",
        }
        argv = [a.format(**names) for a in argv]
        argv += ["--graph", workdir["graph"], "--scenarios", workdir["scenarios"]]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not names["out"].exists()

    def test_integral_float_gamma_accepted(self, workdir):
        mixture = write_mixture(
            workdir["dir"],
            [{"weight": 1.0, "type": "budgeted", "lambda": 0.5, "gamma": 3.0}],
        )
        argv = ["solve", "--graph", workdir["graph"], "--scenarios",
                workdir["scenarios"], "--mixture", mixture, "--pairs", workdir["pairs"]]
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "key, component",
        [
            ("weight", {"weight": True, "type": "interval", "lambda": 0.5}),
            ("lambda", {"weight": 1.0, "type": "interval", "lambda": False}),
            ("gamma", {"weight": 1.0, "type": "budgeted", "lambda": 0.5, "gamma": True}),
            ("ridge", {"weight": 1.0, "type": "ellipsoid", "lambda": 1.0, "ridge": True}),
        ],
        ids=["weight", "lambda", "gamma", "ridge"],
    )
    def test_json_boolean_exits_2(self, workdir, capsys, key, component):
        """A JSON boolean is not a number in any numeric mixture field."""
        mixture = write_mixture(workdir["dir"], [component])
        argv = ["solve", "--graph", workdir["graph"], "--scenarios",
                workdir["scenarios"], "--mixture", mixture, "--pairs", workdir["pairs"]]
        assert main(argv) == 2
        named = f"component 0 {key} {component[key]!r} is not a number"
        assert named in capsys.readouterr().err


# the --method choices that take no node cap
UNCAPPED_METHODS = sorted(set(cli.METHODS) - {"auto", "bnb"})


class TestUnreadFlags:
    """A flag the chosen mode does not read exits 2 naming it, before
    any input file is read."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["solve", "--pairs", "p.csv", "--source", "0", "--target", "1"],
             "--source is not read with --pairs"),
            (["solve", "--pairs", "p.csv", "--target", "1"],
             "--target is not read with --pairs"),
            (["emit-mip", "--graph", "g.txt", "--source", "0", "--target", "35",
              "--select-n", "60", "--select-p", "3"],
             "--select-n is not read with --graph"),
            (["emit-mip", "--select-n", "60", "--select-p", "3", "--source", "0"],
             "--source is not read without --graph"),
            *(
                (["solve", "--pairs", "p.csv", "--method", method, "--max-nodes", "5"],
                 f"--max-nodes is not read by --method {method}")
                for method in UNCAPPED_METHODS
            ),
        ],
        ids=["solve-pairs-source", "solve-pairs-target", "emit-mip-graph-select",
             "emit-mip-select-source",
             *(f"solve-{method}-max-nodes" for method in UNCAPPED_METHODS)],
    )
    def test_exits_2_before_reading(self, tmp_path, capsys, monkeypatch, argv, named):
        def no_read(path):
            raise AssertionError(f"read {path} despite an unread flag")

        monkeypatch.setattr(cli, "_read", no_read)
        out = tmp_path / "out"
        argv += ["--scenarios", "s.csv", "--mixture", "mix.json", "--out", str(out)]
        if argv[0] == "solve":
            argv += ["--graph", "g.txt"]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestEmptySplitSide:
    """A --ratio that leaves the training side of the split empty exits 2
    naming it, before any statistic of an empty matrix can warn."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["baseline", "--type", "hull", "--out"],
            ["tune", "--weights", "0.4,0.3,0.3", "--out-config"],
        ],
        ids=["baseline", "tune"],
    )
    def test_exits_2_without_warning(self, workdir, capsys, argv):
        five = workdir["dir"] / "five.csv"
        lines = Path(workdir["scenarios"]).read_text().splitlines()
        five.write_text("\n".join(lines[:6]) + "\n")  # the header and 5 scenarios
        out = workdir["dir"] / "out"
        argv = argv + [str(out), "--graph", workdir["graph"], "--scenarios", str(five),
                       "--pairs", workdir["pairs"], "--ratio", "0.1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert "leaves the train side of 5 scenarios empty" in capsys.readouterr().err
        assert not out.exists()


class TestTuneExitCode:
    def test_exit_4_when_any_weight_run_is_incomplete(self, workdir, monkeypatch):
        """Exit 4 follows every run of a weight grid, not only the last."""
        calls = []

        def fake_tune(space, graph, pairs, data, split, w, seed):
            calls.append(w)
            best = tuning.Config((tuning.ParentSpec("interval", 0.5, 1.0),))
            return tuning.TuneResult(best, 1.0, [], len(calls) > 1, 1)

        monkeypatch.setattr(cli, "tune", fake_tune)
        argv = ["tune", "--graph", workdir["graph"], "--scenarios",
                workdir["scenarios"], "--pairs", workdir["pairs"],
                "--weight-grid", "1", "--out-config", str(workdir["dir"] / "grid.csv")]
        assert main(argv) == 4
        assert len(calls) == 3


class TestJsonOutput:
    def test_bytes_equal_json_dump(self, tmp_path):
        doc = {
            "solutions": [
                {"source": 0, "target": 8, "x": [1, 0] * 30, "objective": 12.345678,
                 "optimal": True, "method": "bnb"},
                {"source": 2, "target": 5, "x": [], "objective": 1e-7,
                 "optimal": False, "method": "local"},
            ],
            "argv": ["solve", "--out", "s\u00f6l.json"],
            "seed": None,
        }
        path = tmp_path / "one.json"
        cli._write_json(str(path), doc)
        with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def solve_pairs(workdir, capsys) -> Path:
    """Solve the interval mixture on the fixture's pairs; the solutions path."""
    sol_path = workdir["dir"] / "sol.json"
    mixture = write_mixture(workdir["dir"], INTERVAL_MIX)
    argv = ["solve", "--graph", workdir["graph"], "--scenarios", workdir["scenarios"],
            "--mixture", mixture, "--pairs", workdir["pairs"], "--out", str(sol_path)]
    assert main(argv) == 0
    capsys.readouterr()
    return sol_path


class TestEvaluate:
    @pytest.mark.parametrize("alpha", ["inf", "nan", "0", "-1", "1.5"])
    def test_alpha_outside_unit_interval_invalid(self, workdir, capsys, alpha):
        sol_path = solve_pairs(workdir, capsys)
        argv = ["evaluate", "--solutions", str(sol_path), "--scenarios",
                workdir["scenarios"], f"--alpha={alpha}"]
        assert main(argv) == 2
        assert "alpha must lie in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [2, -1, 0.5, 1.0, "1", None, True])
    def test_non_binary_x_entry_invalid(self, workdir, capsys, entry):
        sol_path = solve_pairs(workdir, capsys)
        doc = json.loads(sol_path.read_text())
        doc["solutions"][-1]["x"][0] = entry
        sol_path.write_text(json.dumps(doc))
        argv = ["evaluate", "--solutions", str(sol_path), "--scenarios", workdir["scenarios"]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"record {len(doc['solutions']) - 1} has an 'x' entry that is not 0 or 1" in err

    def test_scores_solution_file(self, workdir, capsys):
        mixture = write_mixture(workdir["dir"], INTERVAL_MIX)
        sol_path = str(workdir["dir"] / "sol.json")
        main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--pairs", workdir["pairs"],
                "--out", sol_path,
            ]
        )
        capsys.readouterr()
        out = str(workdir["dir"] / "metrics.txt")
        code = main(
            [
                "evaluate",
                "--solutions", sol_path,
                "--scenarios", workdir["scenarios"],
                "--out", out,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("avg=")
        assert Path(out).read_text().strip() == captured.out.strip()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([{"x": [1, 0]}], "'solutions' list"),
            ({"records": []}, "'solutions' list"),
            ({"solutions": [{"objective": 1.0}]}, "record 0 needs an 'x' list"),
            ({"solutions": [{"x": [1], "objective": None}]}, "record 0 has a bad 'objective'"),
        ],
    )
    def test_malformed_solutions_invalid(self, workdir, capsys, doc, message):
        sol_path = workdir["dir"] / "sol.json"
        sol_path.write_text(json.dumps(doc))
        code = main(
            [
                "evaluate",
                "--solutions", str(sol_path),
                "--scenarios", workdir["scenarios"],
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err


class TestMethods:
    @pytest.mark.parametrize(
        "method, solver, kwargs",
        [
            ("auto", "solve_auto", {"max_nodes": 7}),
            ("brute", "solve_brute_force", {}),
            ("bnb", "solve_bnb", {"max_nodes": 7}),
            ("budgeted-enum", "solve_budgeted_mix", {}),
            ("interval", "solve_interval_mix", {}),
            ("midpoint", "solve_midpoint_approx", {}),
            ("local", "solve_local_search", {"seed": 3}),
        ],
    )
    def test_method_table(self, monkeypatch, method, solver, kwargs):
        """Each --method calls its solver with the options it takes."""
        calls = []
        monkeypatch.setattr(cli, solver, lambda *a, **k: calls.append((a, k)))
        cli.METHODS[method]("inst", "mix", argparse.Namespace(max_nodes=7, seed=3))
        assert calls == [(("inst", "mix"), kwargs)]

    def test_threads_flag_gone(self, capsys):
        assert main(["verify", "--trials", "1", "--threads", "2"]) == 2


class TestBaselineAndTune:
    def test_baseline_writes_82_rows(self, workdir, capsys):
        out = str(workdir["dir"] / "baseline.csv")
        code = main(
            [
                "baseline",
                "--type", "interval",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--pairs", workdir["pairs"],
                "--seed", "4",
                "--out", out,
            ]
        )
        assert code == 0
        assert "rows=82" in capsys.readouterr().out
        assert len(Path(out).read_text().splitlines()) == 83

    def test_tune_requires_weights(self, workdir, capsys):
        code = main(
            [
                "tune",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--pairs", workdir["pairs"],
                "--out-config", str(workdir["dir"] / "cfg.json"),
            ]
        )
        assert code == 2
        assert "--weights" in capsys.readouterr().err

    def test_tune_rejects_weights_beside_weight_grid(self, workdir, capsys):
        out = workdir["dir"] / "cfg.json"
        code = main(
            [
                "tune",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--pairs", workdir["pairs"],
                "--weights", "0.4,0.3,0.3",
                "--weight-grid", "0.5",
                "--out-config", str(out),
            ]
        )
        assert code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_tune_single_weight_run(self, workdir, capsys):
        out = str(workdir["dir"] / "cfg.json")
        trace = str(workdir["dir"] / "trace.csv")
        code = main(
            [
                "tune",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--pairs", workdir["pairs"],
                "--budget", "100",
                "--weights", "0.4,0.3,0.3",
                "--seed", "4",
                "--out-config", out,
                "--out-trace", trace,
            ]
        )
        assert code == 0
        assert "budget=100" in capsys.readouterr().out
        doc = json.loads(Path(out).read_text())
        assert doc["components"]
        assert Path(trace).read_text().splitlines()[0] == "generation,config_id,pairs,cost,params"


class TestEmitMip:
    def test_selection_model(self, workdir, capsys):
        mixture = write_mixture(
            workdir["dir"],
            [{"weight": 1.0, "type": "budgeted", "lambda": 0.5, "gamma": 2}],
        )
        out = str(workdir["dir"] / "model.lp")
        code = main(
            [
                "emit-mip",
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--select-n", "12", "--select-p", "3",
                "--out", out,
            ]
        )
        assert code == 0
        assert "binary=12" in capsys.readouterr().out

    def test_ellipsoid_rejected(self, workdir, capsys):
        mixture = write_mixture(
            workdir["dir"], [{"weight": 1.0, "type": "ellipsoid", "lambda": 1.0}]
        )
        code = main(
            [
                "emit-mip",
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--select-n", "12", "--select-p", "2",
                "--out", str(workdir["dir"] / "model.lp"),
            ]
        )
        assert code == 2
        assert "conic" in capsys.readouterr().err


def write_scenarios(path, columns: int) -> str:
    """A three-row scenario CSV with `columns` arcs."""
    rows = [",".join(f"arc_{i}" for i in range(columns))]
    rows += [",".join(["1.5"] * columns)] * 3
    Path(path).write_text("\n".join(rows) + "\n")
    return str(path)


BUDGETED_MIX = [{"weight": 1.0, "type": "budgeted", "lambda": 0.5, "gamma": 1}]


class TestColumnCheck:
    """Every subcommand that pairs scenarios with items checks their
    counts before it solves or emits anything (the workdir graph has 12
    arcs)."""

    def run(self, workdir, capsys, argv, columns):
        scenarios = write_scenarios(workdir["dir"] / f"s{columns}.csv", columns)
        mixture = write_mixture(workdir["dir"], BUDGETED_MIX)
        out = workdir["dir"] / "out"
        names = {**workdir, "scenarios": scenarios, "mixture": mixture, "out": out}
        argv = [a.format(**names) for a in argv]
        code = main(argv)
        return code, capsys.readouterr().err, out

    @pytest.mark.parametrize("columns", [4, 13])
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--graph", "{graph}", "--scenarios", "{scenarios}",
             "--mixture", "{mixture}", "--pairs", "{pairs}", "--out", "{out}"],
            ["baseline", "--type", "interval", "--graph", "{graph}",
             "--scenarios", "{scenarios}", "--pairs", "{pairs}", "--out", "{out}"],
            ["tune", "--graph", "{graph}", "--scenarios", "{scenarios}",
             "--pairs", "{pairs}", "--budget", "10", "--weights", "1,0,0",
             "--out-config", "{out}"],
            ["emit-mip", "--graph", "{graph}", "--scenarios", "{scenarios}",
             "--mixture", "{mixture}", "--source", "0", "--target", "8",
             "--out", "{out}"],
        ],
        ids=["solve", "baseline", "tune", "emit-mip-graph"],
    )
    def test_graph_subcommands(self, workdir, capsys, argv, columns):
        code, err, out = self.run(workdir, capsys, argv, columns)
        assert code == 2
        assert f"scenario CSV has {columns} columns, graph has 12 arcs" in err
        assert not out.exists()

    @pytest.mark.parametrize("columns", [4, 13])
    def test_emit_mip_selection(self, workdir, capsys, columns):
        argv = ["emit-mip", "--scenarios", "{scenarios}", "--mixture", "{mixture}",
                "--select-n", "12", "--select-p", "3", "--out", "{out}"]
        code, err, out = self.run(workdir, capsys, argv, columns)
        assert code == 2
        assert f"scenario CSV has {columns} columns, selection has 12 items" in err
        assert not out.exists()


class TestVerify:
    def test_small_suites_pass(self, capsys):
        code = main(["verify", "--suite", "dual", "--trials", "10"])
        assert code == 0
        assert "dual: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ["-1", "0"])
    def test_trials_below_one_invalid(self, capsys, trials):
        assert main(["verify", "--suite", "dual", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert f"trials must be at least 1, got {trials}" in captured.err
        assert "ok" not in captured.out

    def test_all_suites_run_in_order(self, capsys):
        assert main(["verify", "--suite", "all", "--trials", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            "submodular: ok",
            "ratio: ok",
            "dual: ok",
        ]


class TestManifests:
    def test_manifest_records_argv(self, workdir):
        manifest = json.loads(Path(workdir["graph"] + ".manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert "--seed" in manifest["argv"]
        assert manifest["outputs"] == [workdir["graph"], workdir["scenarios"]]

    def test_seed_defaults_to_0_whatever_the_environment(self, workdir, monkeypatch):
        """No environment variable sets the seed: a run without --seed is
        the run with --seed 0, so its recorded argv replays it."""
        monkeypatch.setenv("ROBUSTMIX_SEED", "5")
        written = {}
        for seed in ([], ["--seed", "0"], ["--seed", "5"]):
            out = workdir["dir"] / f"pairs{len(written)}.csv"
            argv = ["pairs", "--graph", workdir["graph"], "--count", "6", "--out", str(out)]
            assert main(argv + seed) == 0
            written[tuple(seed)] = out.read_bytes()
        assert written[()] == written[("--seed", "0")] != written[("--seed", "5")]

    def test_rerun_from_manifest_is_byte_identical(self, workdir):
        manifest = json.loads(Path(workdir["graph"] + ".manifest.json").read_text())
        before = {p: Path(p).read_bytes() for p in manifest["outputs"]}
        assert main(manifest["argv"]) == 0
        for p, blob in before.items():
            assert Path(p).read_bytes() == blob
