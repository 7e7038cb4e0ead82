"""No package module reads a private name that another module defines.

A stdlib AST check: every other module reaches the kernel through its
public functions and ``LinearRep``'s public fields and views, never through
a ``_``-prefixed function, cache or field that ``linear.py`` defines; and
each module reads only the ``_``-prefixed attributes it defines itself.  A
read is an attribute access (``rep._name``), a ``getattr`` with the name as
a literal, or a ``from .module import _name``.  And ``brute_measure``
reads only the four fields of its ``Pts`` and no name imported from ``linear``.
The letter layout is known to the kernel and the equivalence checker alone:
``cli.py``, ``measure.py`` and ``oracle.py`` read no ``steps`` attribute,
and reach a letter through ``int_walk``, ``step`` or ``LinearRep.dense``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptstrace"
KERNEL = PACKAGE / "linear.py"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = [p for p in MODULES if p != KERNEL]
FIELDS = {"alphabet", "states", "stops", "rows"}
LAYOUT_FREE = ("cli.py", "measure.py", "oracle.py")


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


def _reads(source: str) -> list[tuple[int, str, str | None]]:
    """``(line, name, module)`` of each attribute access, ``getattr`` with a
    literal name and from-import in a module; ``module`` names the module
    a name is imported from, and is None for the other two."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            reads.append((node.lineno, node.attr, None))
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            reads += [(node.lineno, a.name, module) for a in node.names]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                node.func.id == "getattr" and len(node.args) >= 2 and \
                isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str):
            reads.append((node.lineno, node.args[1].value, None))
    return reads


def private_reads(source: str, names: set[str]) -> list[tuple[int, str]]:
    """``(line, name)`` of each read of one of ``names`` in a module."""
    return sorted((line, name) for line, name, module in _reads(source)
                  if name in names and module in (None, "linear"))


def foreign_reads(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each read of a private name the module does not define."""
    own = private_names(source)
    return sorted((line, name) for line, name, _ in _reads(source)
                  if _private(name) and name not in own)


def oracle_reads(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each attribute of ``pts`` but its fields, and each
    name bound to ``linear`` or imported from it, that ``brute_measure`` reads."""
    tree = ast.parse(source)
    kernel = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
              for a in node.names if "linear" in (node.module, a.name)}
    function = next(node for node in tree.body if getattr(node, "name", "") == "brute_measure")
    return sorted((node.lineno, getattr(node, "attr", getattr(node, "id", None)))
                  for node in ast.walk(function)
                  if (isinstance(node, ast.Attribute) and node.attr not in FIELDS
                      and getattr(node.value, "id", "") == "pts")
                  or (isinstance(node, ast.Name) and node.id in kernel))


KERNEL_NAMES = private_names(KERNEL.read_text(encoding="utf-8"))


def test_the_kernel_defines_private_names():
    assert {"_solve_sparse", "_mass_cache", "_product"} <= KERNEL_NAMES
    assert {"measure.py", "equivalence.py", "cli.py", "model.py"} <= {p.name for p in READERS}


@pytest.mark.parametrize("path", READERS, ids=lambda p: p.name)
def test_module_reads_no_private_name_of_the_kernel(path):
    assert private_reads(path.read_text(encoding="utf-8"), KERNEL_NAMES) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_only_the_private_names_it_defines(path):
    assert foreign_reads(path.read_text(encoding="utf-8")) == []


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
    # the reader defines _local, by assigning it, and reads _mine, which no
    # module defines; the kernel reads only what it defines
    assert foreign_reads(reader) == [
        (1, "_helper"), (6, "_LIMIT"), (6, "_cache"), (6, "_mine"), (6, "_seen")]
    assert foreign_reads(kernel) == []


def test_brute_measure_reads_only_the_fields_of_a_pts_and_nothing_of_the_kernel():
    assert oracle_reads((PACKAGE / "oracle.py").read_text(encoding="utf-8")) == []


def test_an_oracle_reading_a_view_or_the_kernel_is_reported():
    source = ("from .linear import build_rep as rep_of, step\nfrom . import linear\n"
              "def brute_measure(pts, state, target):\n"
              "    moves, rows = pts.moves, pts.rows\n"
              "    return rep_of(pts), linear.dirac(pts, state), pts.stops\n")
    assert oracle_reads(source) == [(4, "moves"), (5, "linear"), (5, "rep_of")]


def attribute_reads(source: str, name: str = "steps") -> list[int]:
    """The lines of each read of the attribute ``name``: an attribute access
    or a ``getattr`` with the name as a literal, not a bare name."""
    return sorted(line for line, attr, module in _reads(source) if attr == name and module is None)


@pytest.mark.parametrize("name", LAYOUT_FREE)
def test_module_reads_no_letter_step(name):
    assert attribute_reads((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_a_letter_step_read_is_reported():
    source = ("from .linear import steps\n"
              "def rows(rep, letter, steps):\n"
              "    columns, d = rep.steps[letter]\n"
              "    return getattr(rep, 'steps'), steps, rep.dense(letter, str, '0')\n"
              "def walk(rep, word):\n"
              "    return [rep.steps.get(a) for a in word], rep.stop_row\n")
    # the import and the bare parameter are not attribute reads
    assert attribute_reads(source) == [3, 4, 6]
