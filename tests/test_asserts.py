"""The package holds no ``assert`` statement.

``python -O`` strips asserts, so a correctness guard written as one would
silently vanish; every guard in ``src/ptstrace`` raises a real exception
instead.  Tests and demos may assert freely.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptstrace"
MODULES = sorted(PACKAGE.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_package_modules_are_found():
    assert {"__init__.py", "cli.py", "equivalence.py", "linear.py"} <= \
        {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_an_assert_is_reported():
    source = "x = 1\nassert x\nif x:\n    assert x > 0, 'positive'\n"
    assert assert_lines(source) == [2, 4]
