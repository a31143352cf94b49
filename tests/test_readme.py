"""The README's references to the package resolve, and its command-line
block runs only subcommands and flags the CLI parser accepts.

The CI workflow runs the `## Command line` sh block; these checks catch
a README edit that would break that step without running it.
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


def robustmix_commands(block: list[str]) -> list[list[str]]:
    """Each `robustmix ...` command of the block as its argv, with
    backslash continuations joined."""
    commands, pending = [], ""
    for line in block:
        pending += line
        if pending.endswith("\\"):
            pending = pending[:-1]
            continue
        argv = shlex.split(pending, comments=True)
        if argv and argv[0] == "robustmix":
            commands.append(argv[1:])
        pending = ""
    return commands


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
    commands = robustmix_commands(block)
    assert commands
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions if action.dest == "command"]
    assert [argv[0] for argv in commands if argv[0] not in sub.choices] == []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
