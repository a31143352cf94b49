import argparse
import json
import os
from pathlib import Path

import pytest

from robustmix import cli
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
        assert "diagonal" in capsys.readouterr().err

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


class TestEvaluate:
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
            ("parametric", "solve_ellipsoid_parametric", {}),
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


class TestManifests:
    def test_manifest_records_argv(self, workdir):
        manifest = json.loads(Path(workdir["graph"] + ".manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert "--seed" in manifest["argv"]
        assert manifest["outputs"] == [workdir["graph"], workdir["scenarios"]]

    def test_rerun_from_manifest_is_byte_identical(self, workdir):
        manifest = json.loads(Path(workdir["graph"] + ".manifest.json").read_text())
        before = {p: Path(p).read_bytes() for p in manifest["outputs"]}
        assert main(manifest["argv"]) == 0
        for p, blob in before.items():
            assert Path(p).read_bytes() == blob
