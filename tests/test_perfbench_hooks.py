"""The benchmark's tracer patches program functions by name; each of them
must exist on its own owner (an inherited or aliased one would be patched
on the wrong object), so that a rename fails here rather than in a traced
run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spans  # noqa: E402


@pytest.mark.parametrize("patch", spans.PATCHES,
                         ids=lambda p: f"{p[0].__name__}.{p[1]}")
def test_patched_attribute_exists(patch):
    owner, attr = patch[:2]
    assert callable(vars(owner).get(attr)), \
        f"{owner.__name__}.{attr} is patched by perfbench.spans"
