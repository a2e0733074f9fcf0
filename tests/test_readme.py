"""The README's library examples run against the current API, and its
command lines name only flags the CLI has."""
import pathlib
import re

import pytest

from pam6link.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _flags(subcommand, capsys):
    """The option strings of a subcommand, read from its --help."""
    with pytest.raises(SystemExit):
        build_parser().parse_args([subcommand, "--help"])
    return set(re.findall(r"(?m)^  (?:-\w, )?(--[\w-]+)", capsys.readouterr().out))


def test_readme_command_line_flags_exist(capsys):
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(),
                      re.S).group(1)
    lines = block.splitlines()
    assert lines
    for line in lines:
        prog, subcommand, *_ = line.split()
        assert prog == "pam6link", line
        flags = _flags(subcommand, capsys)
        assert "--help" in flags
        for flag in re.findall(r"--[\w-]+", line):
            assert flag in flags, f"README names {flag} in {line!r}"
