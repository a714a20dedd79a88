"""Every function the benchmark wraps is still defined where it looks for it, and
the benchmark's own copy of the decay envelope is the library's."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import child  # noqa: E402
import run  # noqa: E402

from g2flow import diagnostics  # noqa: E402


@pytest.mark.parametrize("name", sorted(set(child.ALWAYS + child.LAYERS)))
def test_benchmark_layer_resolves(name):
    # install() wraps owner.__dict__[attr]: a renamed, moved or merely
    # inherited function fails here before it fails a benchmark run
    owner, attr, _ = child._resolve(name)
    assert attr in owner.__dict__


def test_benchmark_l2_envelope_slack_is_the_library_s():
    # run.py evaluates the envelope on series.jsonl when the summary has no
    # fit, as both flow workloads' summaries have too few samples for one
    assert run.L2_BOUND_SLACK == diagnostics.L2_BOUND_SLACK
