"""Stored series: a flow run writes the same series.jsonl as when its golden file was made.

Each config in CONFIGS runs through `g2flow flow` under the default step
policy, and every channel of every sample is compared with
tests/golden/<name>.jsonl: within GOLDEN_RTOL relative, or within
GOLDEN_ATOL absolute for the channels that read roundoff. A change that
moves a channel on purpose regenerates the files and logs why:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from g2flow import cli

GOLDEN = Path(__file__).parent / "golden"

# The stored files were bit-identical under OPENBLAS_NUM_THREADS=1 and 2;
# the bounds leave room for another BLAS, not for a change of discretization.
GOLDEN_RTOL = 1e-12
GOLDEN_ATOL = 1e-14
# harmonic_residual and the two self-check channels read roundoff, relative
# to which any reordered sum is a large change
ABSOLUTE = ("harmonic_residual", "scalar_identity_residual", "rhs_cross_residual")

# Two beta modes on the first axis, two on the 2-D and two on the 3-D lattice; each mode
# excites an axis outside its component, so d beta is not zero.
MODES_1D = [{"mode": [1, 0, 0, 0, 0, 0, 0], "component": [2, 3], "amplitude": 0.05},
            {"mode": [2, 0, 0, 0, 0, 0, 0], "component": [4, 6], "amplitude": 0.03,
             "phase": 0.7}]
MODES_2D = [{"mode": [1, 2, 0, 0, 0, 0, 0], "component": [3, 4], "amplitude": 0.04},
            {"mode": [2, -1, 0, 0, 0, 0, 0], "component": [1, 5], "amplitude": 0.03,
             "phase": 1.1}]
MODES_3D = [{"mode": [1, 0, 1, 0, 0, 0, 0], "component": [2, 6], "amplitude": 0.04},
            {"mode": [0, 1, -1, 0, 0, 0, 0], "component": [4, 7], "amplitude": 0.03,
             "phase": 0.4}]


def _config(axes, n, scheme, kind, modes):
    return {"lattice": {"active_axes": axes, "points_per_axis": n, "scheme": scheme},
            "flow": {"kind": kind},
            "perturbation": modes,
            "control": {"t_end": 0.3},
            "output": {"sample_interval": 1}}


CONFIGS = {
    f"1d_n16_{kind}_{scheme}": _config([1], 16, scheme, kind, MODES_1D)
    for kind in ("deturck", "laplacian") for scheme in ("spectral", "fd4")
}
CONFIGS.update({f"2d_n8_{kind}_{scheme}": _config([1, 2], 8, scheme, kind, MODES_2D)
                for kind, scheme in (("deturck", "spectral"), ("deturck", "fd4"),
                                     ("laplacian", "spectral"))})
# 512 sites: the only config past one site block of the metric path
CONFIGS["3d_n8_deturck_spectral"] = _config([1, 2, 3], 8, "spectral", "deturck", MODES_3D)


def run_series(name, workdir: Path) -> list:
    """Samples of `g2flow flow` on CONFIGS[name], as the lines of its series.jsonl."""
    config = dict(CONFIGS[name])
    config["output"] = dict(config["output"], directory=str(workdir / name))
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config))
    assert cli.main(["flow", str(path)]) == 0
    return (workdir / name / "series.jsonl").read_text().splitlines()


def channel_drift(got: dict, want: dict) -> list:
    """(channel, got, want) for every value outside its bound."""
    out = []
    for key, value in want.items():
        pairs = zip(got[key], value) if isinstance(value, list) else [(got[key], value)]
        for g, w in pairs:
            bound = GOLDEN_ATOL if key in ABSOLUTE else GOLDEN_RTOL * abs(w)
            if not abs(g - w) <= bound:
                out.append((key, g, w))
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_series_matches_golden(name, tmp_path):
    lines = run_series(name, tmp_path)
    golden = (GOLDEN / f"{name}.jsonl").read_text().splitlines()
    assert len(lines) == len(golden)
    for number, (line, want) in enumerate(zip(lines, golden), 1):
        got, want = json.loads(line), json.loads(want)
        assert sorted(got) == sorted(want)
        assert channel_drift(got, want) == [], f"sample {number}"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CONFIGS):
            lines = run_series(name, Path(tmp))
            (GOLDEN / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
            print(f"{name}: {len(lines)} samples", file=sys.stderr)
