"""No chained assignment in the package reads a name it has just rebound.

``a = b[a] = value`` assigns its targets left to right: ``a`` is rebound
first, so ``b[a]`` is indexed by the new value, not the old one.  In a
union-find halving step, ``key = parent[key] = grand`` therefore makes the
grandparent its own parent and cuts it loose from its root, where
``parent[key] = key = grand`` halves the path.  A stdlib AST check flags
every chained assignment in ``src/ptstrace`` where a subscript or
attribute target reads a name that an earlier target of the same
statement binds.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptstrace"
MODULES = sorted(PACKAGE.glob("*.py"))


def _names(target: ast.expr, context: type) -> set[str]:
    # in a target, Store names are the names it binds and Load names those
    # its subscripts and attributes read
    return {node.id for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, context)}


def stale_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) for each target that reads a name an earlier target binds."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Assign) or len(node.targets) < 2:
            continue
        bound: set[str] = set()
        for target in node.targets:
            found += [(node.lineno, name) for name in sorted(_names(target, ast.Load) & bound)]
            bound |= _names(target, ast.Store)
    return found


def chained_count(source: str) -> int:
    return sum(isinstance(node, ast.Assign) and len(node.targets) > 1
               for node in ast.walk(ast.parse(source)))


def test_package_has_chained_assignments_to_check():
    assert sum(chained_count(p.read_text(encoding="utf-8")) for p in MODULES) > 0


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_chained_assignment_reads_a_rebound_name(path):
    assert stale_reads(path.read_text(encoding="utf-8")) == []


def test_a_stale_read_is_reported():
    source = "\n".join([
        "key = parent[key] = grand",                  # 1: flagged
        "parent[key] = key = grand",                  # 2: safe, key is read first
        "node = self._parent[node] = grand",          # 3: flagged
        "row = rows[pivot] = value",                  # 4: safe
        "position = start = 0",                       # 5: names only
        "a, *b = c[b].d = value",                     # 6: flagged through unpacking
        "obj = obj.attr = value",                     # 7: flagged on an attribute
        "x = (y, z[x]) = value",                      # 8: flagged inside a tuple
        "key = parent[key]",                          # 9: not chained
    ]) + "\n"
    assert chained_count(source) == 8
    assert stale_reads(source) == [(1, "key"), (3, "node"), (6, "b"), (7, "obj"), (8, "x")]
