import argparse
import csv
import io
import json
import os
import re
import warnings
from dataclasses import astuple
from pathlib import Path

import pytest

from robustmix import (
    Instance,
    ScenarioMatrix,
    build_mixture,
    check_emitted,
    cli,
    parse_graph,
    solve_bnb,
    solvers,
    split_scenarios,
    tuning,
    verify,
)
from robustmix.cli import main
from robustmix.mip_emit import expected_stats
from robustmix.tuning import baseline_grid


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
HULL_MIX = [{"weight": 1.0, "type": "hull", "lambda": 0.5}]


@pytest.fixture
def two_diamonds(tmp_path):
    """Files for two disjoint diamonds 0->3 and 4->7, each with two
    2-arc routes that the two scenarios price 2/10 and 10/2: the root
    bound of either pair does not prove its optimum, so a zero node cap
    cuts the search."""
    arcs = [(0, 1), (1, 3), (0, 2), (2, 3), (4, 5), (5, 7), (4, 6), (6, 7)]
    paths = {
        "graph": str(tmp_path / "diamonds.txt"),
        "scenarios": str(tmp_path / "diamonds.csv"),
        "pairs": str(tmp_path / "diamond_pairs.csv"),
        "dir": tmp_path,
    }
    texts = {
        "graph": "nodes 8\narcs 8\n"
        + "".join(f"arc {i} {tail} {head}\n" for i, (tail, head) in enumerate(arcs)),
        "scenarios": ",".join(f"arc_{i}" for i in range(8))
        + "\n1,1,5,5,1,1,5,5\n5,5,1,1,5,5,1,1\n",
        "pairs": "source,target\n0,3\n4,7\n",
    }
    for name, text in texts.items():
        Path(paths[name]).write_text(text)
    return paths


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

    @pytest.mark.parametrize("blank_after", [1, 2], ids=["middle", "trailing"])
    def test_pairs_file_empty_lines_skipped(self, workdir, capsys, blank_after):
        """A blank line in the pairs CSV is skipped, as in a scenario CSV:
        the solutions match those of the file without it."""
        mixture = write_mixture(workdir["dir"], INTERVAL_MIX)
        lines = Path(workdir["pairs"]).read_text().splitlines()
        assert len(lines) == 3
        blanked = workdir["dir"] / "blanked.csv"
        lines.insert(blank_after + 1, "")
        blanked.write_text("\n".join(lines) + "\n")
        outs = []
        for pairs in (workdir["pairs"], blanked):
            outs.append(workdir["dir"] / f"sol_{len(outs)}.json")
            argv = ["solve", "--graph", workdir["graph"], "--scenarios", workdir["scenarios"],
                    "--mixture", mixture, "--pairs", str(pairs), "--out", str(outs[-1])]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(json.loads(outs[1].read_text())["solutions"]) == 2

    @pytest.mark.parametrize(
        "method, extra, expected",
        [
            ("bnb", ["--max-nodes", "0"], 4),
            ("auto", ["--max-nodes", "0"], 4),
            ("midpoint", [], 0),
            ("local", [], 0),
        ],
    )
    def test_unproven_search_exits_4(
        self, two_diamonds, capsys, method, extra, expected
    ):
        """A search cut short before a proof exits 4 and still writes its
        output; the heuristics never prove optimality and exit 0."""
        mixture = write_mixture(two_diamonds["dir"], HULL_MIX)
        out = str(two_diamonds["dir"] / "sol.json")
        code = main(
            [
                "solve",
                "--graph", two_diamonds["graph"],
                "--scenarios", two_diamonds["scenarios"],
                "--mixture", mixture,
                "--pairs", two_diamonds["pairs"],
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

    @pytest.mark.parametrize("method", ["bnb", "auto"])
    def test_root_proven_search_exits_0_at_zero_node_cap(
        self, workdir, capsys, method
    ):
        """A zero node cap cuts nothing when the root bound already
        proves both pairs: every record is optimal and the exit is 0."""
        mixture = write_mixture(workdir["dir"], HULL_MIX)
        out = str(workdir["dir"] / "sol.json")
        code = main(
            [
                "solve",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--pairs", workdir["pairs"],
                "--method", method,
                "--max-nodes", "0",
                "--out", out,
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.count("optimal=true") == 2
        records = json.loads(Path(out).read_text())["solutions"]
        assert [rec["optimal"] for rec in records] == [True, True]

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


class TestExitCodes:
    """Exit 4 when an enumeration cap stops a solve, exit 2 on a file
    that cannot be read."""

    @pytest.mark.parametrize(
        "method, cap, value",
        [("budgeted-enum", "THRESHOLD_CAP", 5), ("brute", "BRUTE_FORCE_CAP", 3)],
    )
    def test_enumeration_cap_exits_4_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, method, cap, value
    ):
        graph, scenarios = str(tmp_path / "g.txt"), str(tmp_path / "s.csv")
        assert main(
            [
                "gen",
                "--width", "4", "--height", "4", "--scenarios", "10", "--seed", "1",
                "--out-graph", graph, "--out-scenarios", scenarios,
            ]
        ) == 0
        mixture = write_mixture(
            tmp_path, [{"weight": 1.0, "type": "budgeted", "lambda": 0.5, "gamma": 2}]
        )
        monkeypatch.setattr(solvers, cap, value)
        out = tmp_path / "sol.json"
        capsys.readouterr()
        code = main(
            [
                "solve",
                "--graph", graph,
                "--scenarios", scenarios,
                "--mixture", mixture,
                "--source", "0", "--target", "15",
                "--method", method,
                "--out", str(out),
            ]
        )
        assert code == 4
        assert capsys.readouterr().err.startswith("budget exceeded:")
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    def test_missing_graph_file_exits_2(self, workdir, capsys):
        mixture = write_mixture(workdir["dir"], HULL_MIX)
        code = main(
            [
                "solve",
                "--graph", str(workdir["dir"] / "missing.txt"),
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--source", "0", "--target", "8",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("io error:")


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


# the one mixture each method accepts on the overflow inputs
OVERFLOW_MIXES = {
    "budgeted-enum": [{"weight": 1.0, "type": "budgeted", "lambda": 0.5, "gamma": 1}],
    "interval": INTERVAL_MIX,
    "midpoint": HULL_MIX,
}


class TestCostOverflow:
    """Finite costs whose sums, means or squares overflow are invalid
    input under every method, on the two-arc path 0 -> 1 -> 2."""

    @pytest.mark.parametrize("method", sorted(cli.METHODS))
    @pytest.mark.parametrize(
        "rows, ellipsoid, named",
        [
            ("1e308,1e308\n", False, "overflow|objective inf is not finite"),
            ("1.7e308,1\n1.7e308,2\n", False, "scenario cost means overflow"),
            ("1e200,2e200\n3e200,1e200\n", True, "the default ridge must be finite"),
        ],
        ids=["path-sum", "mean", "ellipsoid"],
    )
    def test_exits_2(self, tmp_path, capsys, method, rows, ellipsoid, named):
        graph, scenarios = tmp_path / "g.txt", tmp_path / "s.csv"
        graph.write_text("nodes 3\narcs 2\narc 0 0 1\narc 1 1 2\n")
        scenarios.write_text("arc_0,arc_1\n" + rows)
        components = OVERFLOW_MIXES.get(method, HULL_MIX)
        if ellipsoid:
            components = [{"weight": 1.0, "type": "ellipsoid", "lambda": 1.0}]
        code = main(
            [
                "solve",
                "--graph", str(graph),
                "--scenarios", str(scenarios),
                "--mixture", write_mixture(tmp_path, components),
                "--source", "0", "--target", "2",
                "--method", method,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert re.search(named, err)

    def test_evaluate_exits_2(self, tmp_path, capsys):
        """A solution whose scenario costs sum past the float maximum."""
        solutions, scenarios = tmp_path / "sol.json", tmp_path / "s.csv"
        solutions.write_text('{"solutions": [{"x": [1, 1], "objective": 1.0}]}')
        scenarios.write_text("arc_0,arc_1\n1e308,1e308\n")
        argv = ["evaluate", "--solutions", str(solutions), "--scenarios", str(scenarios)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: the metrics overflow: avg=inf max=inf cvar=inf\n"
        )


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

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--count", "0"], "--count must be at least 1, got 0"),
            (["--count", "-2"], "--count must be at least 1, got -2"),
            (["--count", "3", "--min-hops", "-1"], "--min-hops must be nonnegative, got -1"),
        ],
        ids=["count-zero", "count-negative", "min-hops-negative"],
    )
    def test_pairs_exits_2_before_reading(self, tmp_path, capsys, monkeypatch, flags, named):
        """A pairs file with no rows is rejected by every command that
        reads one, so `pairs` refuses to write it."""

        def no_read(path):
            raise AssertionError(f"read {path} despite an invalid value")

        monkeypatch.setattr(cli, "_read", no_read)
        assert main(["pairs", "--graph", "g.txt", *flags, "--out", str(tmp_path / "p.csv")]) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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


class TestInvalidInputWritesNothing:
    """Malformed input files and missing options exit 2 naming the fault,
    and leave neither an output file nor a manifest behind."""

    @pytest.mark.parametrize(
        "argv, files, named",
        [
            (["solve", "--mixture", "{mixture}", "--pairs", "{bad}", "--out", "{out}",
              "--graph", "{graph}", "--scenarios", "{scenarios}"],
             {"bad": "0,8\n1,7\n"}, "pairs CSV must start with header source,target"),
            (["solve", "--mixture", "{mixture}", "--pairs", "{bad}", "--out", "{out}",
              "--graph", "{graph}", "--scenarios", "{scenarios}"],
             {"bad": "source,target\n0,8,1\n"}, "bad pairs row ['0', '8', '1']"),
            (["solve", "--mixture", "{mixture}", "--pairs", "{bad}", "--out", "{out}",
              "--graph", "{graph}", "--scenarios", "{scenarios}"],
             {"bad": "source,target\n\n"}, EMPTY_PAIRS),
            (["tune", "--weights", "0.5,0.5", "--pairs", "{pairs}", "--out-config", "{out}",
              "--graph", "{graph}", "--scenarios", "{scenarios}"],
             {}, "--weights needs three comma-separated values"),
            (["evaluate", "--solutions", "{bad}", "--scenarios", "{scenarios}", "--out", "{out}"],
             {"bad": "{\"solutions\": [\n"}, "invalid solutions JSON"),
            (["evaluate", "--solutions", "{bad}", "--scenarios", "{scenarios}", "--out", "{out}"],
             {"bad": '{"solutions": []}\n'}, "need at least one solution to score"),
            (["emit-mip", "--graph", "{graph}", "--scenarios", "{scenarios}",
              "--mixture", "{mixture}", "--out", "{out}"],
             {}, "emit-mip with --graph needs --source/--target"),
            (["emit-mip", "--scenarios", "{scenarios}", "--mixture", "{mixture}",
              "--out", "{out}"],
             {}, "emit-mip needs --graph or --select-n/--select-p"),
        ],
        ids=["pairs-no-header", "pairs-three-fields", "pairs-blank-only",
             "tune-two-weights", "solutions-not-json", "solutions-empty",
             "emit-mip-graph-no-endpoints", "emit-mip-no-mode"],
    )
    def test_exits_2(self, workdir, capsys, argv, files, named):
        for name, text in files.items():
            (workdir["dir"] / name).write_text(text)
        mixture = write_mixture(workdir["dir"], INTERVAL_MIX)
        before = sorted(workdir["dir"].iterdir())
        names = {**workdir, "mixture": mixture, "bad": workdir["dir"] / "bad",
                 "out": workdir["dir"] / "out"}
        assert main([a.format(**names) for a in argv]) == 2
        assert named in capsys.readouterr().err
        assert sorted(workdir["dir"].iterdir()) == before


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
        text = Path(out).read_text()
        lines = text.split("\n")
        assert lines[:3] == [
            "label,sample,avg,max,cvar",
            "interval_lambda_0.000000,in,11.723632,13.451113,13.451113",
            "interval_lambda_0.000000,out,10.424892,12.515437,12.515437",
        ]
        assert len(lines) == 84 and lines[-1] == ""  # header, 82 rows, final LF
        # the metrics read back match the in-process grid to 6 decimals
        graph = parse_graph(Path(workdir["graph"]).read_text())
        scenarios = ScenarioMatrix.from_csv(Path(workdir["scenarios"]).read_text())
        pairs = cli._load_pairs(workdir["pairs"])
        split = split_scenarios(scenarios.K, 0.75, seed=4)
        grid = baseline_grid("interval", graph, pairs, scenarios, split)
        expected = [
            [f"interval_lambda_{lam:.6f}", sample, *astuple(m)]
            for lam, m_in, m_out in grid
            for sample, m in (("in", m_in), ("out", m_out))
        ]
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert [row[:2] for row in rows] == [row[:2] for row in expected]
        for row, want in zip(rows, expected):
            assert [float(v) for v in row[2:]] == pytest.approx(want[2:], abs=1e-6)

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

    def test_graph_model(self, workdir, capsys):
        """A path model on the workdir grid: the printed counts are the
        closed-form ones, and the written text checks out at the
        branch-and-bound optimum."""
        specs = [
            {"weight": 0.5, "type": "budgeted", "lambda": 0.5, "gamma": 2},
            {"weight": 1.0, "type": "hull", "lambda": 0.5},
        ]
        mixture = write_mixture(workdir["dir"], specs)
        out = workdir["dir"] / "model.lp"
        code = main(
            [
                "emit-mip",
                "--graph", workdir["graph"],
                "--scenarios", workdir["scenarios"],
                "--mixture", mixture,
                "--source", "0", "--target", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        graph = parse_graph(Path(workdir["graph"]).read_text())
        inst = Instance.spath(graph, 0, 8)
        scenarios = ScenarioMatrix.from_csv(Path(workdir["scenarios"]).read_text())
        mix = build_mixture(specs, scenarios)
        stats = expected_stats(inst, mix)
        assert capsys.readouterr().out == (
            f"binary={stats.num_binary} continuous={stats.num_continuous} "
            f"rows={stats.num_constraints}\n"
        )
        check = check_emitted(inst, mix, solve_bnb(inst, mix).solution, out.read_text())
        assert check.ok and check.objective_match, check.message

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

    def test_failed_suite_exits_1_with_manifest(self, tmp_path, capsys, monkeypatch):
        def fail(seed, trials):
            print("dual: FAIL forced")
            return False

        monkeypatch.setitem(verify.SUITES, "dual", fail)
        manifest = tmp_path / "m.json"
        argv = ["verify", "--trials", "2", "--manifest", str(manifest)]
        assert main(argv) == cli.EXIT_FAILED == 1
        out = capsys.readouterr().out
        assert "submodular: ok" in out and "dual: FAIL forced" in out
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "verify" and doc["argv"] == argv
        assert doc["outputs"] == []

    @pytest.mark.parametrize(
        "shift, named",
        [(-1.0, "dual: FAIL negative threshold"), (1.0, "dual: FAIL negative overflow")],
        ids=["pi", "rho"],
    )
    def test_dual_suite_checks_signs(self, capsys, monkeypatch, shift, named):
        """A certificate that is exact and covers every deviation, but
        moves one unit between pi and rho, fails on the sign it breaks:
        pi = -1 below zero, or pi + 1 with some rho_i - 1 below zero."""
        exact = verify.dual_certificate

        def shifted(mix, x):
            cert = exact(mix, x)
            pis = tuple(-1.0 if shift < 0 else pi + shift for pi in cert.pi)
            rhos = tuple(
                tuple(r + pi - new_pi for r in rho)
                for pi, new_pi, rho in zip(cert.pi, pis, cert.rho)
            )
            return verify.DualCertificate(pis, rhos, cert.objective)

        monkeypatch.setattr(verify, "dual_certificate", shifted)
        assert main(["verify", "--suite", "dual", "--trials", "3"]) == 1
        assert capsys.readouterr().out.startswith(named)

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

    def test_solve_without_out_writes_the_named_manifest(self, workdir, capsys):
        mixture = write_mixture(workdir["dir"], INTERVAL_MIX)
        manifest = workdir["dir"] / "m.json"
        argv = ["solve", "--graph", workdir["graph"], "--scenarios", workdir["scenarios"],
                "--mixture", mixture, "--source", "0", "--target", "8",
                "--manifest", str(manifest)]
        assert main(argv) == 0
        assert "objective=" in capsys.readouterr().out
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "solve" and doc["argv"] == argv
        assert doc["outputs"] == [] and doc["seed"] == 0

    def test_manifest_flag_replaces_the_default_path(self, workdir):
        out = workdir["dir"] / "p.csv"
        manifest = workdir["dir"] / "run.json"
        argv = ["pairs", "--graph", workdir["graph"], "--count", "2",
                "--out", str(out), "--manifest", str(manifest)]
        out.with_name("p.csv.manifest.json").unlink()
        assert main(argv) == 0
        assert json.loads(manifest.read_text())["outputs"] == [str(out)]
        assert not out.with_name("p.csv.manifest.json").exists()

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
