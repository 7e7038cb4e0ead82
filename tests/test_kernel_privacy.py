"""No package module but ``linear`` reads a private name of ``linear``.

A stdlib AST check: every other module reaches the kernel through its
public functions and ``LinearRep``'s public fields and views, never through
a ``_``-prefixed function, cache or field that ``linear.py`` defines.  A
read is an attribute access (``rep._name``), a ``getattr`` with the name as
a literal, or a ``from .linear import _name``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptstrace"
KERNEL = PACKAGE / "linear.py"
READERS = sorted(p for p in PACKAGE.glob("*.py") if p != KERNEL)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _bound(statement: ast.stmt) -> list[str]:
    # the names a module- or class-level statement defines
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else (
        [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def private_names(source: str) -> set[str]:
    """The private names a module defines: at module level, in class bodies,
    and as attributes it assigns anywhere."""
    tree = ast.parse(source)
    statements = list(tree.body)
    statements += [s for c in tree.body if isinstance(c, ast.ClassDef) for s in c.body]
    names = {name for s in statements for name in _bound(s)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    return {name for name in names if _private(name)}


def private_reads(source: str, names: set[str]) -> list[tuple[int, str]]:
    """``(line, name)`` of each read of one of ``names`` in a module."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linear":
            reads += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                node.func.id == "getattr" and len(node.args) >= 2 and \
                isinstance(node.args[1], ast.Constant) and node.args[1].value in names:
            reads.append((node.lineno, node.args[1].value))
    return sorted(reads)


KERNEL_NAMES = private_names(KERNEL.read_text(encoding="utf-8"))


def test_the_kernel_defines_private_names():
    assert {"_solve_sparse", "_mass_cache", "_product"} <= KERNEL_NAMES
    assert {"measure.py", "equivalence.py", "cli.py", "model.py"} <= {p.name for p in READERS}


@pytest.mark.parametrize("path", READERS, ids=lambda p: p.name)
def test_module_reads_no_private_name_of_the_kernel(path):
    assert private_reads(path.read_text(encoding="utf-8"), KERNEL_NAMES) == []


def test_a_private_read_is_reported():
    kernel = (
        "from functools import cached_property\n"
        "_LIMIT = 3\n"
        "def _helper(x):\n"
        "    _local = x\n"
        "    return _local\n"
        "class Rep:\n"
        "    _slot: int = 0\n"
        "    def __init__(self):\n"
        "        self._seen = set()\n"
        "    @cached_property\n"
        "    def _cache(self):\n"
        "        return {}\n"
        "    def public(self):\n"
        "        return self._cache\n")
    names = private_names(kernel)
    assert names == {"_LIMIT", "_helper", "_slot", "_seen", "_cache"}
    reader = (
        "from .linear import Rep, _helper\n"
        "from . import linear\n"
        "def read(rep, own):\n"
        "    own._local = rep.public()\n"
        "    rep.__dict__.clear()\n"
        "    return rep._cache, getattr(rep, '_seen'), linear._LIMIT, own._mine\n")
    assert private_reads(reader, names) == [
        (1, "_helper"), (6, "_LIMIT"), (6, "_cache"), (6, "_seen")]
