"""The package's public surface: every exported name resolves, every
module uses each name it imports, and every demo script runs to
completion against the sources."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semtrack

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted((ROOT / "src" / "semtrack").glob("*.py"))


def test_every_export_resolves():
    missing = [name for name in semtrack.__all__
               if not hasattr(semtrack, name)]
    assert not missing


def unused_imports(source):
    """The names that ``source`` imports and never reads, nor lists in its
    ``__all__``.  ``__future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["b", "os"]
    assert unused_imports("from __future__ import annotations\n"
                          "import numpy as np\n__all__ = ['np']\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(module):
    assert unused_imports(module.read_text()) == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
