"""Every ``hurwitz ...`` line of the README's ``sh`` blocks runs, in one
process, and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from hurwitz.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("hurwitz ")]


def test_readme_has_examples():
    assert len(readme_commands()) >= 13


@pytest.mark.parametrize("line", readme_commands())
def test_readme_example_exits_zero(capsys, line):
    assert main(shlex.split(line)[1:]) == EXIT_OK
    assert capsys.readouterr().out
