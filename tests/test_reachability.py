"""The flow modules hold only what a flow runs.

Run as a script, this file is the traced child: a fresh interpreter that sets
sys.setprofile before it imports g2flow, so calls made at import time count.
It runs a 1-D n=8 flow of each kind under the default step policy (so the
step size reads the metric), resumes each run from one of its checkpoints,
and runs `g2flow spectrum` and `g2flow perturb`; then it prints, as JSON,
every function and method defined in MODULES that no call reached.

    PYTHONPATH=src python tests/test_reachability.py WORKDIR

The test asserts that those are exactly the allow-listed names, so dead code
cannot come back and the allow-list cannot go stale.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

MODULES = ("flow", "g2algebra", "riemann", "lattice", "tables", "diagnostics")

# name -> why no flow run reaches it
ALLOWED = {
    "flow.StepFailed.__init__": "an error path: every halving of one step was rejected",
    "g2algebra.Metric.__getitem__": "the check suite slices metric batches with it",
    "g2algebra.metric_from_phi": "public API (g2flow.__all__)",
    "g2algebra.is_positive": "public API (g2flow.__all__)",
    "g2algebra.form_inner": "project_3form and the check suite use it",
    # perfbench/child.py LAYERS wraps these four by their module paths
    "g2algebra.wedge_components": "benchmark layer; the check suite's one wedge",
    "g2algebra.project_3form": "benchmark layer; the check suite's 3-form types",
    "g2algebra.full_torsion": "benchmark layer; the check suite's torsion from nabla phi",
    "tables.compound_matrix": "benchmark layer; a reference its own test compares against",
}


def defined_functions(path: Path, module: str) -> dict:
    """First line of each def in the file -> 'module.Outer.name', nested defs included.

    The first line is that of a code object (co_firstlineno): the first
    decorator's line for a decorated def.
    """
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[first] = name
                visit(child, name)

    visit(ast.parse(path.read_text()), module)
    return out


class Collector:
    """Code objects of every Python call made between start and stop."""

    def __init__(self):
        self.codes = set()

    def _profile(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def start(self):
        sys.setprofile(self._profile)

    def stop(self):
        sys.setprofile(None)

    def unreached(self, files: dict) -> list:
        """Names of the functions defined in files ({module: path}) that no call reached."""
        reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in self.codes}
        return sorted(name for module, path in files.items()
                      for line, name in defined_functions(path, module).items()
                      if (os.path.realpath(path), line) not in reached)


def _flow_config(kind: str, out: Path) -> dict:
    return {
        "lattice": {"active_axes": [1], "points_per_axis": 8},
        "flow": {"kind": kind},
        "perturbation": [{"mode": [1, 0, 0, 0, 0, 0, 0], "component": [2, 3],
                          "amplitude": 0.05},
                         {"mode": [2, 0, 0, 0, 0, 0, 0], "component": [4, 6],
                          "amplitude": 0.03, "phase": 0.7}],
        "control": {"t_end": 0.5, "checkpoint_every": 2},
        "output": {"directory": str(out), "sample_interval": 3},
    }


def child(workdir: Path) -> list:
    """Trace the flow commands from before the import of g2flow; the unreached names."""
    collector = Collector()
    collector.start()
    try:
        import g2flow
        from g2flow import cli

        for kind in ("laplacian", "deturck"):
            out = workdir / kind
            config = workdir / f"{kind}.json"
            config.write_text(json.dumps(_flow_config(kind, out)))
            assert cli.main(["flow", str(config)]) == 0
            resume = out / "checkpoints" / "step_00000002.json"
            assert cli.main(["flow", str(config), "--resume", str(resume)]) == 0
        assert cli.main(["spectrum", str(config)]) == 0
        assert cli.main(["perturb", str(config)]) == 0
    finally:
        collector.stop()
    package = Path(g2flow.__file__).parent
    return collector.unreached({m: package / f"{m}.py" for m in MODULES})


def _run_child(tmp_path) -> list:
    import g2flow

    src = str(Path(g2flow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_collector_reports_a_dead_function(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from functools import lru_cache\n"
                    "def used():\n"
                    "    def inner():\n"
                    "        pass\n"
                    "    inner()\n"
                    "def dead():\n"
                    "    pass\n"
                    "@lru_cache(maxsize=None)\n"
                    "def cached_dead():\n"
                    "    pass\n"
                    "class Box:\n"
                    "    @property\n"
                    "    def size(self):\n"
                    "        return 1\n"
                    "    def dead_method(self):\n"
                    "        pass\n"
                    "used()\n")
    spec = importlib.util.spec_from_file_location("sample", path)
    collector = Collector()
    previous = sys.getprofile()
    collector.start()
    try:
        sample = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sample)
        assert sample.Box().size == 1
    finally:
        sys.setprofile(previous)
    assert collector.unreached({"sample": path}) == [
        "sample.Box.dead_method", "sample.cached_dead", "sample.dead"]


def test_flow_modules_hold_only_what_a_flow_runs(tmp_path):
    unreached = set(_run_child(tmp_path))
    dead = sorted(unreached - set(ALLOWED))
    assert not dead, f"defined in the flow modules, reached by no flow run: {dead}"
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"allow-listed but reached, or no longer defined: {stale}"


if __name__ == "__main__":
    print(json.dumps(child(Path(sys.argv[1]))))
