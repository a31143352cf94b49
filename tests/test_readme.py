"""The README's references to the package resolve, and its command-line
block parses and runs through the CLI, writing the files it promises.

The CI workflow runs the `## Command line` sh block through the
installed script; these checks run the same block in-process once, so
a README edit that would break that step fails here first, and check
the files it writes against in-process runs on the same instance.
"""

import json
import re
import shlex
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import robustmix
from robustmix import (
    ConfigSpace,
    Instance,
    ScenarioMatrix,
    build_mixture,
    check_emitted,
    cli,
    parse_graph,
    solve_auto,
    solve_bnb,
    tune,
    tuning,
)
from robustmix.evaluation import ALPHA, mean_metrics, pair_metrics, split_scenarios, tail_count
from robustmix.tuning import BASELINE_NODE_CAP, baseline_lambdas, solve_for_pair
from robustmix.uncertainty import mixture_spec_from_json, mixture_spec_to_json

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")

# a dotted Python name, optionally called: `Graph.paths_to`, `support(x)`
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def inline_code(text: str) -> list[str]:
    """The backticked spans of `text` outside its fenced code blocks."""
    prose = re.sub(r"^```.*?^```$", "", text, flags=re.M | re.S)
    return re.findall(r"`([^`\n]+)`", prose)


def package_names(text: str) -> list[str]:
    """The dotted names in backticks that start with a `robustmix`
    module or exported name; file names, flags, JSON keys and other
    words are skipped."""
    names = []
    for span in inline_code(text):
        match = _NAME.fullmatch(span)
        if match is None or span.endswith(".py"):
            continue
        name = match.group(1)
        if hasattr(robustmix, name.split(".")[0]):
            names.append(name)
    return names


def resolves(name: str) -> bool:
    obj = robustmix
    for part in name.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def command_line_block(text: str) -> list[str]:
    """The `## Command line` sh block's lines, cut as the CI workflow's
    awk cuts them: from the first ```sh line after that heading to the
    next ``` line."""
    lines, in_section, in_block = [], False, False
    for line in text.split("\n"):
        if line.startswith("## Command line"):
            in_section = True
        if in_section and line == "```sh":
            in_block = True
            continue
        if in_block and line == "```":
            break
        if in_block:
            lines.append(line)
    return lines


_HEREDOC = re.compile(r"cat > (\S+) <<'EOF'")


def shell_steps(block: list[str]) -> list[tuple]:
    """The block's steps in order, with backslash continuations joined:
    ("write", name, text) for each `cat > NAME <<'EOF'` heredoc,
    ("run", argv) for each `robustmix ...` command, argv without the
    program name, and ("other", line) for any other line that is not
    blank or a comment."""
    steps, pending, heredoc = [], "", None
    for line in block:
        if heredoc is not None:
            if line == "EOF":
                steps.append(("write", heredoc[0], "".join(heredoc[1])))
                heredoc = None
            else:
                heredoc[1].append(line + "\n")
            continue
        pending += line
        if pending.endswith("\\"):
            pending = pending[:-1]
            continue
        line, pending = pending, ""
        match = _HEREDOC.fullmatch(line)
        argv = shlex.split(line, comments=True)
        if match:
            heredoc = (match.group(1), [])
        elif argv and argv[0] == "robustmix":
            steps.append(("run", argv[1:]))
        elif argv:
            steps.append(("other", line))
    assert heredoc is None and not pending, "unterminated heredoc or continuation"
    return steps


def test_readme_package_names_resolve():
    names = package_names(README)
    assert "Graph.paths_to" in names and "solvers._Search.offer" in names
    assert [name for name in names if not resolves(name)] == []


def test_package_names_skip_files_flags_and_keys():
    text = "`verify.py` `--max-nodes` `\"gamma\"` `solve --out` `x` `Graph.nope`"
    assert package_names(text) == ["Graph.nope"]
    assert not resolves("Graph.nope")


def test_command_line_block_uses_parser_subcommands():
    block = command_line_block(README)
    assert any(line.strip() for line in block)
    commands = [step[1] for step in shell_steps(block) if step[0] == "run"]
    assert commands
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions if action.dest == "command"]
    assert [argv[0] for argv in commands if argv[0] not in sub.choices] == []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    """The block, run once in a temporary directory: each heredoc is
    written to its file and each `robustmix` command run through
    `cli.main`.  Returns the directory and each step with its exit code
    (None for a step that is not a `robustmix` command)."""
    where = tmp_path_factory.mktemp("readme")
    results = []
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(where)
        for step in shell_steps(command_line_block(README)):
            if step[0] == "write":
                Path(step[1]).write_text(step[2], encoding="utf-8", newline="\n")
            results.append((step, cli.main(step[1]) if step[0] == "run" else None))
    return where, results


def test_command_line_block_runs(readme_run):
    """Each `robustmix` command of the block exits 0; any other shell
    line fails the test."""
    _, results = readme_run
    assert any(step[0] == "run" for step, _ in results)
    for step, code in results:
        if step[0] == "run":
            assert code == 0, shlex.join(step[1])
        elif step[0] != "write":
            pytest.fail(f"README shell line not run in-process: {step[1]}")


class TestCommandLineOutputs:
    """The files the block writes, against in-process runs on its instance."""

    @pytest.fixture
    def out(self, readme_run, monkeypatch):
        monkeypatch.chdir(readme_run[0])
        return readme_run[0]

    @staticmethod
    def instance():
        """The block's graph, scenarios and pairs, parsed."""
        graph = parse_graph(Path("g.txt").read_text())
        data = ScenarioMatrix.from_csv(Path("s.csv").read_text())
        lines = Path("p.csv").read_text().split()[1:]
        return graph, data, [tuple(map(int, line.split(","))) for line in lines]

    def test_manifests_and_baseline_csv(self, out):
        """Each run with an output file leaves a non-empty manifest beside
        its first output; the trade-off CSV has its header and 83 lines."""
        for name in ("g.txt", "p.csv", "solutions.json", "baseline.csv", "tuned.json",
                     "model.lp"):
            assert Path(f"{name}.manifest.json").stat().st_size > 0, name
        text = Path("baseline.csv").read_text()
        assert text.split("\n")[0] == "label,sample,avg,max,cvar"
        assert text.count("\n") == 83

    def test_lp_model_checks_at_the_bnb_solution(self, out):
        text = Path("model.lp").read_text()
        assert text.splitlines()[-1] == "End"
        specs = mixture_spec_from_json(Path("lpmix.json").read_text())
        graph, data, _ = self.instance()
        mix = build_mixture(specs, data)
        inst = Instance.spath(graph, 0, 35)
        check = check_emitted(inst, mix, solve_bnb(inst, mix).solution, text)
        assert check.ok and check.objective_match, check

    def test_solutions_repeat_on_one_graph(self, out):
        """The CLI solved each pair once on a fresh graph, so every pass
        walked a whole topological slice; three rounds on one graph
        object walk its cached tables of live rows, and must write the
        same solutions file."""
        graph, data, pairs = self.instance()
        mix = build_mixture(mixture_spec_from_json(Path("mix.json").read_text()), data)
        for round in range(3):
            records = []
            for s, t in pairs:
                report = solve_auto(Instance.spath(graph, s, t), mix)
                records.append({
                    "source": s, "target": t, "x": list(report.solution.x),
                    "objective": float(f"{report.objective:.6f}"),
                    "optimal": report.optimal, "method": report.method,
                })
            text = json.dumps({"solutions": records}, indent=2, sort_keys=True) + "\n"
            assert text == Path("solutions.json").read_text(), f"round {round} differs"

    def test_tune_without_record_fills(self, out):
        """The CLI's tune answers an interval configuration from a pair's
        record of earlier interval solves when they bracket it; the same
        tune with every evaluation solved picks the same configuration,
        written byte for byte as tuned.json."""
        solve = tuning.solve_for_pair

        def unrecorded(graph, pair, mix, node_cap=None, *, bracket=None):
            return solve(graph, pair, mix, node_cap)

        graph, data, pairs = self.instance()
        split = split_scenarios(data.K, 0.75, 0)  # the CLI's default --ratio and --seed
        space = ConfigSpace(budget=2000, max_parents=3)  # --budget 2000, default --max-parents
        with mock.patch.object(tuning, "solve_for_pair", unrecorded):
            result = tune(space, graph, pairs, data, split, (0.4, 0.3, 0.3), 0)
        assert mixture_spec_to_json(result.best.to_specs()) == Path("tuned.json").read_text()

    @pytest.mark.parametrize("set_type", ["interval", "hull", "ellipsoid"])
    def test_baseline_grid_is_the_lambda_sweep(self, out, set_type):
        """The block's interval grid, and a hull and an ellipsoid grid on
        its instance, each equal byte for byte their rows recomputed
        lambda by lambda (on this instance only the ellipsoid's paths
        change with lambda)."""
        path = "baseline.csv" if set_type == "interval" else f"{set_type}.csv"
        if set_type != "interval":
            argv = ["baseline", "--type", set_type, "--graph", "g.txt", "--scenarios",
                    "s.csv", "--pairs", "p.csv", "--out", path]
            assert cli.main(argv) == 0
        graph, data, pairs = self.instance()
        split = split_scenarios(data.K, 0.75, 0)  # the CLI's default --ratio and --seed
        train, test = data.subset(split.train_idx), data.subset(split.test_idx)
        lines = ["label,sample,avg,max,cvar"]
        for lam in baseline_lambdas(set_type):
            mix = build_mixture([{"weight": 1.0, "type": set_type, "lambda": lam}], train)
            xs = [
                np.asarray(solve_for_pair(graph, p, mix, BASELINE_NODE_CAP).solution.x, float)
                for p in pairs
            ]
            for sample, pool in (("in", train), ("out", test)):
                tail = tail_count(ALPHA, pool.K)
                m = mean_metrics([pair_metrics(x, pool.costs, tail) for x in xs])
                label = f"{set_type}_lambda_{lam:.6f}"
                lines.append(",".join([label, sample, *(f"{v:.6f}" for v in astuple(m))]))
        assert Path(path).read_text() == "\n".join(lines) + "\n"
