"""Every imported name is used: an AST check standing in for a linter.

A module's imported names must each be referenced somewhere in the module,
as a name or as the base of an attribute. The package's ``__init__.py``
only re-exports, so it is exempt.

Also: the package's only run-time dependency is numpy, so a run of every
root search loads no SciPy module; and every documented surface, the names
in ``nkshoot.__all__`` and the ``nk.<name>`` uses in the README's "Library
use" block, resolves.
"""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nkshoot

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "nkshoot").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])
SOURCES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds a; "as c" binds c; "from a import b"
                # binds b
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [
        "os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


NO_SCIPY_RUN = """
import json, sys
from nkshoot.geometry import count_v0_zeros
from nkshoot.shoot import (find_doubling, refine_matching, solve_family,
                           trace_curve)
fa = solve_family("alpha", 0.5646)
fb = solve_family("beta", 0.05)
find_doubling("beta", (0.9, 1.1), "u0")
refine_matching(trace_curve("alpha", 0.55, 0.57, 2),
                trace_curve("beta", 0.59, 0.61, 2), (0.56, 0.60), "w1")
count_v0_zeros(fb.traj)
fb.state_at(fb.t_star / 2)
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def test_root_searches_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == []


def test_documented_surfaces_resolve():
    missing = [n for n in nkshoot.__all__ if not hasattr(nkshoot, n)]
    assert missing == []
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library use\s+```python\n(.*?)```", readme,
                      re.DOTALL).group(1)
    used = set(re.findall(r"\bnk\.(\w+)", block))
    assert {"max_orbit", "find_doubling", "find_matching"} <= used
    assert sorted(n for n in used if not hasattr(nkshoot, n)) == []
