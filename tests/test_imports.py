"""Every name a module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule, run over the package,
the tests, the demos and the benchmark's scripts (``perfbench/``).  The
package's ``__init__.py`` is left out: its imports are the re-exports
listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ptstrace"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(path for folder in ("tests", "demos", "perfbench")
                 for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_are_found():
    assert {"equivalence.py", "linear.py", "cli.py"} <= {p.name for p in MODULES}
    assert {"test_imports.py", "systems.py", "02_cantor_space.py", "spans.py"} <= \
        {p.name for p in SCRIPTS}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_test_or_demo_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "import os.path\nfrom math import gcd, lcm as l\nfrom .linear import eliminate\n"
    assert unused_imports(source + "print(os.sep, gcd)\n") == ["eliminate", "l"]
