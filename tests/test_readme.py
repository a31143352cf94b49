"""The README's references to the package resolve, and its command-line
block parses and runs through the CLI.

The CI workflow runs the `## Command line` sh block through the
installed script; these checks run the same block in-process, so a
README edit that would break that step fails here first.
"""

import re
import shlex
from pathlib import Path

import pytest

import robustmix
from robustmix import cli

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


def test_command_line_block_runs(tmp_path, monkeypatch):
    """The block, run in a temporary directory: each heredoc is written
    to its file and each `robustmix` command must exit 0 through
    `cli.main`; any other shell line fails the test."""
    monkeypatch.chdir(tmp_path)
    steps = shell_steps(command_line_block(README))
    assert any(step[0] == "run" for step in steps)
    for step in steps:
        if step[0] == "write":
            Path(step[1]).write_text(step[2], encoding="utf-8", newline="\n")
        elif step[0] == "run":
            assert cli.main(step[1]) == 0, shlex.join(step[1])
        else:
            pytest.fail(f"README shell line not run in-process: {step[1]}")
