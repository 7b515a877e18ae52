"""The benchmark against the program.  Its tracer patches program
functions by name; each of them must exist on its own owner (an inherited
or aliased one would be patched on the wrong object), so that a rename
fails here rather than in a traced run.  And one traced run of the
benchmark's own command must be correct, so that a rename of anything
else the benchmark reads fails here too."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402


@pytest.mark.parametrize("patch", spans.PATCHES,
                         ids=lambda p: f"{p[0].__name__}.{p[1]}")
def test_patched_attribute_exists(patch):
    owner, attr = patch[:2]
    assert callable(vars(owner).get(attr)), \
        f"{owner.__name__}.{attr} is patched by perfbench.spans"


def test_traced_benchmark_run_is_correct():
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "highway_long", "--seed", "1",
                   "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    assert result["metrics"]["trace.coverage"]["value"] >= 0.999
