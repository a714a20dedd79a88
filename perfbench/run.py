"""Benchmark of `g2flow`: wall time per unit of flow time, and identity checks.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each workload runs `g2flow` the way a user
does: a fresh interpreter per invocation, `g2flow.cli.main(["flow", <config>])`
or `g2flow.cli.main(["check", ...])`, with `src/` on `PYTHONPATH`. The seed
makes the inputs; `g2flow` receives only the generated config or arguments.

A run starts `SETUP_PROBES` processes that stop at the entry of the flow or
the suite, then a fixed number of measured processes, one at a time, chosen
so that the run lasts about `--seconds` on a 2-CPU machine. The count depends
only on `--seconds`, so every run of a workload does the same work. Layers are
timed only from outside, by `child.py` wrapping public functions. With
`--trace 0` the last line of stdout holds the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run. Everything the run writes
goes under `.bench_run/` in the checkout; a fuller report per run, with the
environment, goes to `.bench_run/reports/`.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from child import ENTRY_POINTS, LAYERS, CHECK_PREFIX  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
DEADLINE_S = 170.0
SETUP_PROBES = 4
MIN_MEASURED = 2
TAIL_BEYOND = 10

# Output checks that hold for any seed.
L2_BOUND_SLACK = 1.05         # the factor cli._write_summary uses

# Final values at DEFAULT_SEED, matched to REFERENCE_RTOL.
DEFAULT_SEED = 0
REFERENCE_RTOL = 1e-8
REFERENCE = {
    "flow_2d": {"l2_theta": 33.02958175703097,
                "ck_theta": [0.01300068723888671, 0.029565902706936546,
                             0.06857245524123415, 0.15768965609134167]},
    "diag_3d": {"l2_theta": 123.26767285709485,
                "ck_theta": [0.025133826540235132, 0.03044950252249013,
                             0.04277971354476843, 0.06705244825579101]},
}


@dataclass(frozen=True)
class FlowWorkload:
    """A DeTurck flow on a spectral lattice with dt pinned inside RK4's
    real stability interval [-2.785, 0]. dt is dyadic, so `steps` steps land
    exactly on t_end and a clamp of the last step to t_end changes nothing."""

    axes: tuple
    n: int
    dt: float
    steps: int
    sample_interval: int
    checkpoint_every: int
    kmax: int
    rhs_cross_max: float      # bound on the final rhs_cross_residual
    est_s: float              # seconds per measured process on a 2-CPU machine

    kind = "flow"


@dataclass(frozen=True)
class CheckWorkload:
    n_random: int
    est_s: float

    kind = "check"


WORKLOADS = {
    # Step-bound: dt*lambda_max ~ 1.9; sparse samples, only the final
    # checkpoint. The Hodge star and metric path dominate self time.
    # rhs_cross_max: 20 seeds reached at most 6.2e-7 at t_end (3-D: 4.2e-6);
    # an RK4-unstable run drives the residual to ~1e-3.
    "flow_2d": FlowWorkload(axes=(1, 2), n=16, dt=5 / 256, steps=20,
                            sample_interval=25, checkpoint_every=10**6,
                            kmax=2, rhs_cross_max=1e-5, est_s=6.0),
    # Output-bound: dt*lambda_max ~ 1.7; a snapshot and a checkpoint after
    # every step, so torsion, curvature, C^k stacks and I/O carry weight.
    "diag_3d": FlowWorkload(axes=(1, 2, 3), n=8, dt=1 / 16, steps=8,
                            sample_interval=1, checkpoint_every=1,
                            kmax=1, rhs_cross_max=1e-4, est_s=12.0),
    # Random GL+ pullbacks far from flat, every form degree 0..7,
    # project_3form solves and full_torsion on a 2-D n=32 structure.
    "check_suite": CheckWorkload(n_random=2000, est_s=11.0),
}

END_TO_END = ("setup_s", "wall_per_unit_s", "op_ms_p50", "peak_rss_mb")
UNITS = {"setup_s": "s", "wall_per_unit_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}
LAYER_FIELDS = (("calls", "count"), ("self_s", "s"), ("share", "fraction"))
PER_LAYER_EXTRA = (("flow.step_rk4.rejections", "count"),
                   ("io.write_form_field.bytes", "B"),
                   ("trace.setup_s", "s"),
                   ("trace.wall_per_unit_s", "s"),
                   ("trace.op_ms_p50", "ms"))


def per_layer_names():
    return [(f"{layer}.{field}", unit) for layer in LAYERS for field, unit in LAYER_FIELDS] \
        + list(PER_LAYER_EXTRA)


def flow_config(name, w, seed, out_dir):
    """Reference plus d(beta) for two seeded Fourier modes of beta."""
    rng = random.Random(f"{name}:{seed}")
    modes = []
    while len(modes) < 2:
        mode = [0] * 7
        for axis in w.axes:
            mode[axis - 1] = rng.randint(-w.kmax, w.kmax)
        component = sorted(rng.sample(range(1, 8), 2))
        amplitude = rng.uniform(0.03, 0.05)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        # d(sin(k.x) e^ij) vanishes unless k excites an axis outside {i, j}.
        if any(mode[axis - 1] and axis not in component for axis in w.axes):
            modes.append({"mode": mode, "component": component,
                          "amplitude": amplitude, "phase": phase})
    return {
        "lattice": {"active_axes": list(w.axes), "points_per_axis": w.n,
                    "scheme": "spectral"},
        "flow": {"kind": "deturck"},
        "perturbation": modes,
        "control": {"t_end": w.steps * w.dt, "dt": w.dt,
                    "checkpoint_every": w.checkpoint_every},
        "output": {"directory": str(out_dir), "sample_interval": w.sample_interval},
        "seed": seed,
    }


def g2flow_args(name, w, seed, proc_dir):
    out_dir = proc_dir / "out"
    out_dir.mkdir(parents=True)
    if w.kind == "check":
        return ["check", "--seed", str(seed), "--n-random", str(w.n_random),
                "--report", str(out_dir / "report.json")]
    config = proc_dir / "config.json"
    config.write_text(json.dumps(flow_config(name, w, seed, out_dir), indent=2) + "\n")
    return ["flow", str(config)]


def spawn(proc_dir, args, trace, setup_only, timeout):
    """Run child.py in a fresh interpreter; returns its result dict or None."""
    out = proc_dir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--out", str(out)]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    with open(proc_dir / "log.txt", "w") as log:
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawn", repr(start), "--"] + args, cwd=ROOT,
                                  env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            print(f"{proc_dir.name}: timed out after {timeout:.0f} s", file=sys.stderr)
            return None
    if proc.returncode != 0 or not out.exists():
        tail = (proc_dir / "log.txt").read_text()[-2000:]
        print(f"{proc_dir.name}: exit {proc.returncode}\n{tail}", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def tail_of(values):
    """Highest order statistic with TAIL_BEYOND samples beyond it, and its percentile."""
    xs = sorted(values)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


class Checks:
    """Operations attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, label, ok, attempts=1, failures=None):
        self.attempted += attempts
        bad = (0 if ok else 1) if failures is None else failures
        self.failed += bad
        if bad:
            self.failures.append(label)


def check_flow(name, w, seed, proc_dir, res, trace, checks):
    """Output checks of one measured flow process; returns flow time reached."""
    label = proc_dir.name
    steps = len(res["durations"].get("flow.step_rk4", []))
    rejections = res["rejections"]
    # Every RK4 attempt is an operation; a rejected one (NotPositive in a stage
    # or NotClosed from _validate's closedness / harmonic-drift bounds) failed.
    checks.add(f"{label}: RK4 rejections", rejections == 0,
               attempts=steps + rejections, failures=rejections)
    summary_path = proc_dir / "out" / "summary.json"
    ok = res["exit_code"] == 0 and summary_path.exists()
    checks.add(f"{label}: exit code {res['exit_code']}", ok)
    if not ok:
        return None
    summary = json.loads(summary_path.read_text())
    final = summary["final"]
    res["rhs_cross_residual"] = final["rhs_cross_residual"]
    checks.add(f"{label}: {summary['steps']} steps, not {w.steps}",
               summary["steps"] == w.steps == steps)
    checks.add(f"{label}: rhs_cross_residual {final['rhs_cross_residual']:.3e}",
               final["rhs_cross_residual"] <= w.rhs_cross_max)
    decay = summary.get("decay", {})
    if "l2_bound_exp_minus_lambda1_t_over_2" in decay:
        bound_ok = decay["l2_bound_exp_minus_lambda1_t_over_2"] is True
    else:
        # Too few samples for a decay fit, so the summary omits the bound:
        # evaluate it on the series with the summary's own formula.
        series = [json.loads(line) for line in
                  (proc_dir / "out" / "series.jsonl").read_text().splitlines()]
        lam1 = summary["lambda1"]
        bound_ok = all(r["l2_theta"] <= L2_BOUND_SLACK * series[0]["l2_theta"]
                       * math.exp(-0.5 * lam1 * r["t"]) for r in series)
    checks.add(f"{label}: |theta|^2 above exp(-lambda1 t / 2) bound", bound_ok)
    if seed == DEFAULT_SEED and name in REFERENCE:
        ref = REFERENCE[name]
        got = [final["l2_theta"]] + list(final["ck_theta"])
        want = [ref["l2_theta"]] + list(ref["ck_theta"])
        checks.add(f"{label}: final l2_theta/ck_theta {got} != {want}",
                   all(math.isclose(g, r, rel_tol=REFERENCE_RTOL) for g, r in zip(got, want)))
    if trace:
        # RK4 structure: 4 flow_rhs and 4 from_phi (3 stages + _validate) per
        # attempt, plus from_phi for the reference and the initial structure.
        calls = {k: v["calls"] for k, v in res["layers"].items()}
        want = {"flow.flow_rhs": 4 * steps, "g2algebra.G2Structure.from_phi": 4 * steps + 2,
                "flow._validate": steps}
        got = {k: calls.get(k, 0) for k in want}
        checks.add(f"{label}: call counts {got} != {want}", rejections == 0 and got == want)
    return summary["final_t"]


def check_suite(proc_dir, res, checks):
    label = proc_dir.name
    report_path = proc_dir / "out" / "report.json"
    ok = res["exit_code"] == 0 and report_path.exists()
    checks.add(f"{label}: exit code {res['exit_code']}", ok)
    if not ok:
        return
    report = json.loads(report_path.read_text())
    for c in report["checks"]:
        checks.add(f"{label}: {c['name']}", c["passed"])
    checks.add(f"{label}: report not passed", report["passed"] is True)


def measure(name, seed, seconds, trace):
    w = WORKLOADS[name]
    work = RUN_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.monotonic()
    checks = Checks()
    setups, measured = [], []

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    n_measured = max(MIN_MEASURED, round(seconds / w.est_s))
    roles = [("setup", True)] * SETUP_PROBES + [("run", False)] * n_measured
    for i, (role, setup_only) in enumerate(roles):
        proc_dir = work / f"{i:02d}_{role}"
        proc_dir.mkdir()
        args = g2flow_args(name, w, seed, proc_dir)
        res = spawn(proc_dir, args, trace, setup_only, remaining())
        ok = res is not None and res["error"] is None and res["setup_s"] is not None
        checks.add(f"{proc_dir.name}: process failed", ok)
        if not ok:
            if remaining() <= 0:
                break
            continue
        setups.append(res["setup_s"])
        if setup_only:
            continue
        if w.kind == "flow":
            units = check_flow(name, w, seed, proc_dir, res, trace, checks)
        else:
            check_suite(proc_dir, res, checks)
            units = 1.0
        if units:
            measured.append((res, units))
    if not measured:
        return None, checks, {}
    return aggregate(w, setups, measured, trace), checks, measured[0][0]["env"]


def aggregate(w, setups, measured, trace):
    """End-to-end and, in traced runs, per-layer values over measured processes."""
    entry = ENTRY_POINTS[0] if w.kind == "flow" else ENTRY_POINTS[1]
    if w.kind == "flow":
        ops = [d for res, _ in measured for d in res["durations"].get("flow.step_rk4", [])]
    else:
        ops = [d for res, _ in measured for k, v in res["durations"].items()
               if k.startswith(CHECK_PREFIX) for d in v]
    op_tail, op_tail_pct = tail_of(ops)
    samples = [d for res, _ in measured
               for d in res["durations"].get("diagnostics.diagnostic_snapshot", [])]
    wall = statistics.median(res["durations"][entry][0] / units for res, units in measured)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_per_unit_s": wall,
        "op_ms_p50": 1e3 * statistics.median(ops),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res, _ in measured),
    }
    detail = {
        "processes": {"setup_probes": len(setups) - len(measured), "measured": len(measured)},
        "op": "flow.step_rk4" if w.kind == "flow" else "one identity check",
        "op_count": len(ops),
        "op_ms_tail": 1e3 * op_tail,
        "op_tail_percentile": op_tail_pct,
    }
    if w.kind == "flow":
        detail.update({"wall_per_flow_time_s": wall, "step_ms_p50": e2e["op_ms_p50"],
                       "step_ms_tail": detail["op_ms_tail"],
                       "sample_ms_p50": 1e3 * statistics.median(samples) if samples else None,
                       "sample_count": len(samples),
                       "rhs_cross_residual_max": max(res["rhs_cross_residual"]
                                                     for res, _ in measured)})
    else:
        detail["identity_suite_s"] = wall
    result = {"end_to_end": e2e, "detail": detail}
    if trace:
        layers = {}
        for layer in LAYERS:
            rows = [res["layers"].get(layer, {"calls": 0, "self_s": 0.0}) for res, _ in measured]
            layers[f"{layer}.calls"] = statistics.median(r["calls"] for r in rows)
            layers[f"{layer}.self_s"] = statistics.median(r["self_s"] for r in rows)
            layers[f"{layer}.share"] = statistics.median(
                r["self_s"] / res["wall_s"] for r, (res, _) in zip(rows, measured))
        layers["flow.step_rk4.rejections"] = sum(res["rejections"] for res, _ in measured)
        layers["io.write_form_field.bytes"] = statistics.median(
            res["bytes_written"] for res, _ in measured)
        for key in ("setup_s", "wall_per_unit_s", "op_ms_p50"):
            layers[f"trace.{key}"] = e2e[key]
        result["per_layer"] = layers
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "g2flow" / "cli.py").is_file():
        print(f"no g2flow source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result, checks, env = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print("no measured process completed", file=sys.stderr)
        return 1
    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": checks.attempted, "failed": checks.failed,
              "error_rate": checks.failed / max(checks.attempted, 1),
              "failures": checks.failures, "environment": env, **result}
    reports = RUN_DIR / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("detail: " + json.dumps(result["detail"], sort_keys=True))
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": UNITS[name]}
                   for name in END_TO_END}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
