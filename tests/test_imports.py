"""`g2flow` imports without scipy: derivatives are numpy matmuls."""

import os
import subprocess
import sys
from pathlib import Path

import g2flow


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules the test session already holds do not count
    src = str(Path(g2flow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, g2flow, g2flow.cli, g2flow.checks\n"
            "print(g2flow.__file__)\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout.splitlines()
    assert Path(out[0]).resolve() == Path(g2flow.__file__).resolve()
    assert out[1] == ""
