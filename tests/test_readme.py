"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from predictorlab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start(capsys):
    exec(compile(block("Library quick start", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().err == ""


COMMANDS = block("Command line", "sh").splitlines()


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line(capsys, line):
    prog, *argv = shlex.split(line)
    assert prog == "predictorlab"
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out and err == ""
