"""What a `g2flow` process loads: no scipy, since derivatives are numpy
matmuls, and in a flow no OpenSSL, since checkpoints hash with CPython's
built-in SHA-256, and no check suite, which only `g2flow check` imports. A
check loads no OpenSSL either: its inputs come from checks.Draws, not
numpy.random, which imports secrets and through hmac OpenSSL's _hashlib."""

import json
import os
import subprocess
import sys
from pathlib import Path

import g2flow


def _fresh_interpreter(code, cwd=None) -> list:
    """Lines printed by code in a fresh interpreter, so modules the test
    session already holds do not count."""
    src = str(Path(g2flow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120, check=True).stdout.splitlines()


def test_cli_import_loads_no_scipy():
    code = ("import sys, g2flow, g2flow.cli, g2flow.checks\n"
            "print(g2flow.__file__)\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = _fresh_interpreter(code)
    assert Path(out[0]).resolve() == Path(g2flow.__file__).resolve()
    assert out[1] == ""


def test_flow_run_loads_no_openssl(tmp_path):
    # nor the check suite, which only cmd_check imports
    config = {"lattice": {"active_axes": [1], "points_per_axis": 8},
              "perturbation": [{"mode": [1, 0, 0, 0, 0, 0, 0], "component": [2, 3],
                                "amplitude": 1e-3}],
              "control": {"t_end": 0.02, "dt": 0.01},
              "output": {"directory": "out"}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = ("import sys, g2flow.cli\n"
            "print(g2flow.cli.main(['flow', 'config.json']))\n"
            "print('_hashlib' in sys.modules, 'g2flow.checks' in sys.modules)\n")
    assert _fresh_interpreter(code, cwd=tmp_path)[-2:] == ["0", "False False"]
    assert (tmp_path / "out" / "checkpoints" / "step_00000002.json").exists()


def test_check_run_loads_no_numpy_random():
    code = ("import sys, g2flow.cli\n"
            "print(g2flow.cli.main(['check', '--n-random', '16']))\n"
            "print(*(m in sys.modules for m in ('numpy.random', 'secrets', '_hashlib')))\n")
    assert _fresh_interpreter(code)[-2:] == ["0", "False False False"]
