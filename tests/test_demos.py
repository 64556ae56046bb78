"""The demos run as documented: ``python3 demos/<name>.py`` with the
package on ``PYTHONPATH``, each exiting 0; the README "Library tour"
gives the values its comments state, its "File format" example
parses, and its "CLI" section states the key order of ``analyze --json``."""

import ast
import builtins
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lamina import checks, cli, core, formats, laminar, minors
from lamina.constructions import uniform

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


def test_readme_library_tour():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    shown = []
    for stmt in ast.parse(tour).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    full_rank, min_k, excluded = shown
    assert full_rank == 4 and min_k == 3 and excluded
    verdict = ns["verdict"]
    assert not verdict and len(verdict.witness) == 2


def test_readme_file_format():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## File format", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    assert formats.parse_matroid(block) == uniform(2, 4, ("a", "b", "c", "d"))
    assert all(kind in block for kind in formats.KINDS)
    assert all(f"`{usage}`" in section for usage, _, _ in formats._FORMS.values())


def test_readme_harness_names_exist():
    """Every ``lamina.checks`` class or private helper the README
    "Verification harness" section quotes is still in the module."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## Verification harness", 1)[1].split("\n#", 1)[0]
    quoted = {m[1] for m in re.finditer(r"`(?:lamina\.checks\.)?(_\w+|[A-Z]\w*)(?:\(.*?\))?`",
                                        section)}
    names = quoted - set(vars(builtins))
    assert {"Sweep", "Agree", "_minor_closed", "_battery"} <= names
    assert [name for name in sorted(names) if not hasattr(checks, name)] == []


def test_readme_laminar_bullet_names_exist():
    """Every name the README's ``lamina.laminar`` bullet quotes is an
    attribute of the module."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = text.split("- `lamina.laminar` —", 1)[1].split("\n- ", 1)[0]
    names = re.findall(r"`([^`]+)`", bullet)
    assert names
    assert [name for name in names if not hasattr(laminar, name)] == []


def test_readme_minors_bullet_names_exist():
    """Every name the README's ``lamina.minors`` bullet quotes, calls
    stripped of their arguments, is an attribute of the module, or of
    ``lamina.core`` when written ``core.<name>``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = text.split("- `lamina.minors` —", 1)[1].split("\n- ", 1)[0]
    names = [re.sub(r"\(.*\)$", "", name) for name in re.findall(r"`([^`]+)`", bullet)]
    assert {"find_isomorphism", "_pair_row", "_REFINE_AFTER", "core.halves"} <= set(names)
    owners = {"": minors, "core": core}
    missing = [name for name in names
               if not hasattr(owners[name.rpartition(".")[0]], name.rpartition(".")[2])]
    assert missing == []


def test_readme_analyze_key_order():
    """The key order the README "CLI" section states is the order
    ``analyze --json`` writes."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = text.split("keys in this fixed order:", 1)[1].split(". ", 1)[0]
    keys = re.findall(r"`(\w+)`", stated)
    assert list(json.loads(cli._json_report(uniform(1, 2)))) == keys
