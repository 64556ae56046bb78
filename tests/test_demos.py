"""The demos run as documented: ``python3 demos/<name>.py`` with the
package on ``PYTHONPATH``, each exiting 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_three_demos():
    assert [p.name for p in DEMOS] == [
        "01_build_and_inspect.py", "02_laminar_hierarchy.py", "03_excluded_minors.py"]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(path):
    proc = _run(path)
    assert proc.returncode == 0, proc.stderr


def test_hierarchy_demo_min_k():
    lines = _run(ROOT / "demos" / "02_laminar_hierarchy.py").stdout.splitlines()
    assert [line.strip() for line in lines if line.strip().startswith("min k")] == [
        "min k with M k-laminar:          0",
        "min k with M k-closure-laminar:  0",
        "min k with M k-laminar:          3",
        "min k with M k-closure-laminar:  3",
    ]
