"""One instrumented `g2flow` invocation, run in a fresh interpreter.

    python3 perfbench/child.py --spawn <monotonic> --out <result.json>
        [--trace] [--setup-only] -- <g2flow arguments>

The child imports `g2flow` from the checkout's `src/`, wraps public functions
from the outside, calls `g2flow.cli.main(<g2flow arguments>)` and writes what
it measured to `--out`. `--spawn` is the parent's `time.monotonic()` just
before it started this process (CLOCK_MONOTONIC is system-wide on Linux), so
set-up time runs from interpreter start to the entry of `flow.run_flow` or
`checks.run_identity_suite`. With `--setup-only` the child stops at that
entry. Without `--trace` only the functions the end-to-end metrics and
output checks need are wrapped; with it every layer in `LAYERS` is too.
"""

import argparse
import functools
import importlib
import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Wrapped in every run: the entry points, the step and sample loops, and the
# two places where an RK4 attempt is rejected.
ENTRY_POINTS = ("flow.run_flow", "checks.run_identity_suite")
ALWAYS = ENTRY_POINTS + ("flow.step_rk4", "flow._validate",
                         "g2algebra.G2Structure.from_phi",
                         "diagnostics.diagnostic_snapshot")

# Per-layer functions, wrapped only in traced runs.
LAYERS = (
    "tables.compound_matrix",
    "g2algebra.metric_from_phi",
    "g2algebra.hodge_star",
    "g2algebra.G2Structure.from_phi",
    "g2algebra.full_torsion",
    "g2algebra.project_3form",
    "g2algebra.i_phi",
    "g2algebra.wedge_components",
    "lattice.Lattice.partial_array",
    "lattice.exterior_derivative",
    "riemann.christoffels",
    "riemann.covariant_derivative_array",
    "riemann.curvature",
    "riemann.tensor_norm_sq",
    "riemann.deturck_vector",
    "flow.step_rk4",
    "flow.flow_rhs",
    "flow._validate",
    "flow.laplacian_phi_hodge",
    "flow.laplacian_phi_intrinsic",
    "diagnostics.diagnostic_snapshot",
    "diagnostics.ck_channels",
    "io.write_form_field",
    "checks.SuiteContext.pointwise",
    "checks.SuiteContext.closed_structure",
    "config.RunConfig.build_initial",
)

CHECK_PREFIX = "check:"


class SetupDone(Exception):
    """Raised at the entry point of a set-up-only run."""


class Tracer:
    """Spans of wrapped calls, kept in memory until the run ends."""

    def __init__(self, stop_at_entry=False):
        self.stop_at_entry = stop_at_entry
        self.entry_time = None
        self.spans = []     # [name, start, end, parent span index or -1]
        self.stack = []     # indices of open spans
        self.errors = Counter()
        self.rejections = 0
        self.bytes_written = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in ENTRY_POINTS and self.entry_time is None:
                self.entry_time = time.monotonic()
                if self.stop_at_entry:
                    raise SetupDone()
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(name, exc)
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
            if name == "io.write_form_field":
                self.bytes_written += (result.stat().st_size
                                       + result.with_suffix(".bin").stat().st_size)
            return result

        return traced

    def _count_error(self, name, exc):
        kind = type(exc).__name__
        self.errors[f"{name}:{kind}"] += 1
        in_step = any(self.spans[i][0] == "flow.step_rk4" for i in self.stack)
        if in_step and ((name == "g2algebra.G2Structure.from_phi" and kind == "NotPositive")
                        or (name == "flow._validate" and kind == "NotClosed")):
            self.rejections += 1

    def durations(self):
        """Per-call wall seconds of every finished span, by name."""
        out = {}
        for name, start, end, _ in self.spans:
            if end is not None:
                out.setdefault(name, []).append(end - start)
        return out

    def layers(self):
        """calls, total and self seconds by name; self excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


def _resolve(path):
    """(owner, attribute, module) for 'module.attr' or 'module.Class.attr'."""
    module_name, *attrs = path.split(".")
    module = importlib.import_module(f"g2flow.{module_name}")
    owner = module
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1], module


def install(tracer, names, checks_module):
    """Wrap each named function everywhere `g2flow` holds a reference to it.

    `flow`, `config`, `cli` and others bind names with `from .x import f`, so
    every g2flow module attribute that is the original function is replaced,
    not only the defining one. Returns the originals, which `verify` uses.
    """
    modules = [m for n, m in sys.modules.items() if n == "g2flow" or n.startswith("g2flow.")]
    originals = []
    for name in names:
        owner, attr, _ = _resolve(name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            fn = raw.__func__
            setattr(owner, attr, classmethod(tracer.wrap(name, fn)))
        else:
            fn = raw
            wrapped = tracer.wrap(name, fn)
            setattr(owner, attr, wrapped)
            if not isinstance(owner, type):
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapped)
        originals.append((name, fn))
    checks_module.CHECKS[:] = [(label, tol, tracer.wrap(CHECK_PREFIX + label, fn))
                               for label, tol, fn in checks_module.CHECKS]
    return originals


def verify(originals):
    """Raise if any g2flow module or class still reaches an unwrapped original."""
    ids = {id(fn): name for name, fn in originals}
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "g2flow" or mod_name.startswith("g2flow.")):
            continue
        for key, value in vars(module).items():
            targets = [value]
            if isinstance(value, type) and value.__module__.startswith("g2flow"):
                targets = [getattr(v, "__func__", v) for v in vars(value).values()]
            for target in targets:
                if id(target) in ids:
                    raise RuntimeError(f"{ids[id(target)]} still reachable unwrapped "
                                       f"through {mod_name}.{key}")


def environment():
    """Library versions, BLAS, CPU and the thread knobs, as this process sees them."""
    import numpy
    import scipy

    def blas_of(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
        except (TypeError, KeyError) as exc:  # show_config differs across versions
            return f"unknown ({type(exc).__name__}: {exc})"
        return "; ".join(f"{k} {deps[k].get('name')} {deps[k].get('version')}"
                         for k in ("blas", "lapack") if k in deps)

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(numpy),
        "scipy_blas": blas_of(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "G2FLOW_THREADS": os.environ.get("G2FLOW_THREADS", "unset"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("g2flow_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    g2flow_args = args.g2flow_args[1:] if args.g2flow_args[:1] == ["--"] else args.g2flow_args

    from g2flow import checks, cli

    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported g2flow from {source}, not from {ROOT / 'src'}")
    tracer = Tracer(stop_at_entry=args.setup_only)
    names = ALWAYS + tuple(n for n in LAYERS if n not in ALWAYS) if args.trace else ALWAYS
    verify(install(tracer, names, checks))

    result = {"exit_code": None, "error": None}
    try:
        result["exit_code"] = cli.main(g2flow_args)
    except SetupDone:
        result["exit_code"] = 0
    except Exception as exc:  # reported to the parent, which counts the failure
        result["error"] = f"{type(exc).__name__}: {exc}"
    end = time.monotonic()

    result.update({
        "setup_s": (tracer.entry_time - args.spawn) if tracer.entry_time else None,
        "wall_s": end - args.spawn,
        "durations": tracer.durations(),
        "layers": tracer.layers() if args.trace else None,
        "errors": dict(tracer.errors),
        "rejections": tracer.rejections,
        "bytes_written": tracer.bytes_written,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    Path(args.out).write_text(json.dumps(result, sort_keys=True))
    if args.trace:
        Path(args.out).with_name("spans.json").write_text(json.dumps(tracer.spans))
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
