"""Every function the benchmark wraps is still defined where it looks for it."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import child  # noqa: E402


@pytest.mark.parametrize("name", sorted(set(child.ALWAYS + child.LAYERS)))
def test_benchmark_layer_resolves(name):
    # install() wraps owner.__dict__[attr]: a renamed, moved or merely
    # inherited function fails here before it fails a benchmark run
    owner, attr, _ = child._resolve(name)
    assert attr in owner.__dict__
