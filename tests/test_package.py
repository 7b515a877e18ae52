"""The package's public surface: every exported name resolves, and every
demo script runs to completion against the sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import semtrack

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_export_resolves():
    missing = [name for name in semtrack.__all__
               if not hasattr(semtrack, name)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
