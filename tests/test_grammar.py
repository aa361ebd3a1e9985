"""Every source and test file parses under the grammar of the oldest
Python that ``pyproject.toml`` admits (``requires-python``).

This checks the grammar only: a library call missing on that version
still needs a run on it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def oldest_python() -> tuple[int, int]:
    floor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    return int(floor[1]), int(floor[2])


def test_the_floor_is_python_3_10():
    assert oldest_python() == (3, 10)


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_under_the_oldest_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=oldest_python())
