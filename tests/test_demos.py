"""The narrative demos print exactly their committed output.

Each ``demos/*.py`` runs in a fresh interpreter with ``src`` on the path;
its stdout must match ``tests/golden/<demo>.txt`` byte for byte.  Demo 01
prints ``finite_mass_vector``, so this also pins the exact values and
their formatting from one run to the next.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.txt")) == \
        [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_byte_identical(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_bytes()
