"""``tools/code_lines.py`` counts the lines that hold code.

A line counts when it holds a token other than a comment; docstrings,
comments and blank lines do not count, while a string that is not a
docstring counts every line it spans.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


class Box:
    """A class docstring."""

    size = 2


def area(box):
    """A function docstring,

    over three lines."""
    # a comment in a body
    text = """a string that is
    not a docstring"""
    return (math.pi
            * box.size ** 2), text
'''


def test_a_fixed_snippet_counts_only_its_code_lines():
    # import, class, size, def, the two lines of text, return and its
    # continuation
    assert code_lines.docstring_lines(SNIPPET) == {1, 2, 9, 15, 16, 17}
    assert code_lines.code_lines(SNIPPET) == 8


def test_a_docstring_alone_or_a_later_string_is_told_apart():
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines('x = 1\n"""A later string is code."""\n') == 2
    assert code_lines.code_lines("def f():\n    'doc'\n    return 'doc'\n") == 2


def test_the_tool_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n# y\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     1  a.py\n     8  b.py\n     9  total\n"
