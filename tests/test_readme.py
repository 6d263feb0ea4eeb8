"""The README's examples run as written: its Python example executes, and
every `qgl` command of its shell examples parses with the CLI's parser."""
import re
import shlex
from pathlib import Path

import pytest

from qgl.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)


def _qgl_commands():
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("qgl "):
                yield shlex.split(line)[1:]


def test_readme_python_example_runs(capsys):
    (example,) = _blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", list(_qgl_commands()), ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in _qgl_commands()} == {
        "spectrum", "counts", "domains", "magnetic", "stats", "manifold"}
