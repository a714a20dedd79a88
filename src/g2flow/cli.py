"""Command-line entry point: check, flow, spectrum, perturb.

Exit codes: 0 success, 1 identity/self-check failure, 2 configuration error,
3 time-integration failure (with the last checkpoint path reported).
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import diagnostics, flow
from . import io as ckpt
from .checks import run_identity_suite
from .config import ConfigError, RunConfig
from .g2algebra import NotPositive, flat_reference
from .lattice import is_number

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_STEP = 3


def cmd_check(args) -> int:
    report_path = Path(args.report) if args.report else None
    if report_path and (report_path.is_dir() or not report_path.parent.is_dir()):
        raise ConfigError(f"cannot write the report to {report_path}")
    report = run_identity_suite(seed=args.seed, n_random=args.n_random)
    for c in report["checks"]:
        flag = "PASS" if c["passed"] else "FAIL"
        line = f"{flag} {c['name']}: residual {c['max_residual']:.3e} (tol {c['tolerance']:.1e})"
        if c.get("error"):
            line += f" [{c['error']}]"
        print(line)
    if report_path:
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if report["passed"]:
        print(f"all {len(report['checks'])} identity checks passed (seed {args.seed})")
        return EXIT_OK
    print(f"identity check failed: {report['first_failure']}")
    return EXIT_IDENTITY


def _decay_svg(path, times, values, title="log10 |theta|^2_L2 vs t"):
    """Self-contained SVG line plot of log10(values) against times."""
    w, h, ml, mr, mt, mb = 640, 420, 70, 20, 30, 50
    pts = [(t, np.log10(v)) for t, v in zip(times, values) if v > 0]
    if len(pts) < 2:
        return
    xs, ys = zip(*pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * (w - ml - mr)

    def sy(y):
        return h - mb - (y - y0) / (y1 - y0) * (h - mt - mb)

    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    ticks = []
    for i in range(5):
        xt = x0 + i * (x1 - x0) / 4
        yt = y0 + i * (y1 - y0) / 4
        ticks.append(f'<line x1="{sx(xt):.1f}" y1="{h-mb}" x2="{sx(xt):.1f}" y2="{h-mb+5}" stroke="black"/>')
        ticks.append(f'<text x="{sx(xt):.1f}" y="{h-mb+20}" font-size="11" text-anchor="middle">{xt:.3g}</text>')
        ticks.append(f'<line x1="{ml-5}" y1="{sy(yt):.1f}" x2="{ml}" y2="{sy(yt):.1f}" stroke="black"/>')
        ticks.append(f'<text x="{ml-8}" y="{sy(yt)+4:.1f}" font-size="11" text-anchor="end">{yt:.3g}</text>')
    svg = f"""<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">
<rect width="{w}" height="{h}" fill="white"/>
<text x="{w/2}" y="18" font-size="13" text-anchor="middle">{title}</text>
<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h-mb}" stroke="black"/>
<line x1="{ml}" y1="{h-mb}" x2="{w-mr}" y2="{h-mb}" stroke="black"/>
{''.join(ticks)}
<polyline points="{poly}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>
<text x="{w/2}" y="{h-12}" font-size="12" text-anchor="middle">t</text>
</svg>
"""
    Path(path).write_text(svg)


def _write_summary(path, state, records, steps, stop_reason):
    lat = state.structure.lattice
    lam1 = diagnostics.lambda1_exact_forms(lat)
    last = records[-1]
    summary = {
        "final_t": state.t,
        "steps": steps,
        "stop_reason": stop_reason,
        "lambda1": lam1,
        "samples": len(records),
        "final": last.to_dict(),
    }
    series = [(r.t, r.l2_theta) for r in records]
    positive = [s for s in series if s[1] > 0]
    try:
        fit = diagnostics.fit_decay_rate(positive, lambda1=lam1)
        bound_ok = all(r.l2_theta <= 1.05 * records[0].l2_theta * np.exp(-0.5 * lam1 * r.t)
                       for r in records)
        summary["decay"] = {
            "fitted_rate": fit.fitted_rate,
            "r_squared": fit.r_squared,
            "window": list(fit.window),
            "rate_at_least_half_lambda1": fit.fitted_rate >= 0.5 * lam1,
            "l2_bound_exp_minus_lambda1_t_over_2": bound_ok,
        }
    except (diagnostics.InsufficientData, diagnostics.NonPositiveSeries) as exc:
        summary["decay"] = {"fitted_rate": None, "reason": str(exc)}
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _output_directory(cfg) -> Path:
    """cfg's output directory, created if missing; ConfigError if it cannot be."""
    out = Path(cfg.output.directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _flow_extra(cfg, t, step) -> dict:
    """Sidecar entries of a flow checkpoint: its time, its step and cfg's flow section."""
    return {"t": t, "step": step, **asdict(cfg.flow)}


def _resume_state(path, cfg):
    """(structure, t, step) of a flow checkpoint; ConfigError unless it fits cfg."""
    try:
        phi, extra = ckpt.read_form_field(Path(path).with_suffix(""))
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    missing = [key for key in _flow_extra(cfg, None, None) if key not in extra]
    if missing:
        raise ConfigError(f"checkpoint {path} is not a flow state: "
                          f"no {', '.join(missing)} in its sidecar")
    if phi.degree != 3:
        raise ConfigError(f"checkpoint {path} holds a {phi.degree}-form, not a 3-form")
    if phi.lattice != cfg.lattice:
        raise ConfigError(f"checkpoint lattice {phi.lattice} differs from the config's {cfg.lattice}")
    for key, want in asdict(cfg.flow).items():
        if extra[key] != want:
            raise ConfigError(f"checkpoint {key} {extra[key]!r} differs from the config's {want!r}")
    # Older sidecars record the gauge's trace weight; only its zero is this gauge.
    if extra.get("deturck_a", 0.0) != 0:
        raise ConfigError(f"checkpoint deturck_a {extra['deturck_a']!r} is not the "
                          "fixed DeTurck gauge (0)")
    t, step = extra["t"], extra["step"]
    if not (is_number(t) and np.isfinite(t)):
        raise ConfigError(f"checkpoint t {t!r} is not a finite number")
    if not is_number(step, integer=True):
        raise ConfigError(f"checkpoint step {step!r} is not an integer")
    # The flow's invariants: positive, closed, and in the reference's class.
    try:
        initial = flow._validate(phi, flat_reference(cfg.lattice))
    except (NotPositive, flow.NotClosed) as exc:
        raise ConfigError(f"checkpoint form breaks a flow invariant: {exc}") from exc
    return initial, t, step


def _drop_samples_from(series_path, t0):
    """Remove samples at t0 and later, which a run resumed at t0 writes again.

    A line that is not JSON was torn by the interrupted run and is dropped.
    A JSON line that is not a sample raises ConfigError, before any step.
    """
    if not series_path.exists():
        return
    kept = []
    for number, line in enumerate(series_path.read_text().splitlines(keepends=True), 1):
        try:
            sample = json.loads(line)
        except ValueError:
            continue
        try:
            if diagnostics.TimeSeriesRecord.from_dict(sample).t < t0:
                kept.append(line)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{series_path} line {number} is not a sample: "
                              f"{type(exc).__name__}: {exc}") from exc
    series_path.write_text("".join(kept))


def cmd_flow(args) -> int:
    cfg = RunConfig.from_file(args.config)
    reference = flat_reference(cfg.lattice)

    out = _output_directory(cfg)
    ckpt_dir = out / "checkpoints"
    series_path = out / "series.jsonl"

    t0, step0 = 0.0, 0
    if args.resume:
        initial, t0, step0 = _resume_state(args.resume, cfg)
        series_mode = "a"
        _drop_samples_from(series_path, t0)
    else:
        initial = cfg.build_initial(reference)
        series_mode = "w"

    ckpt.write_form_field(ckpt_dir / "reference", reference.phi)
    last_ckpt = {"path": None, "step": step0}

    def checkpoint_cb(state, step):
        base = ckpt_dir / f"step_{step:08d}"
        ckpt.write_form_field(base, state.structure.phi,
                              extra=_flow_extra(cfg, state.t, step))
        last_ckpt["path"] = str(base.with_suffix(".json"))
        last_ckpt["step"] = step

    with open(series_path, series_mode) as series_file:
        def record_cb(rec):
            series_file.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")

        try:
            state, _ = flow.run_flow(
                initial, reference, cfg.flow.kind, cfg.control,
                sample_interval=cfg.output.sample_interval, record_cb=record_cb,
                checkpoint_cb=checkpoint_cb, t0=t0, step0=step0)
        except flow.StepFailed as exc:
            print(f"integration failed: {exc}", file=sys.stderr)
            if exc.state is not None:
                base = ckpt_dir / f"failed_step_{exc.step:08d}"
                ckpt.write_form_field(base, exc.state.structure.phi,
                                      extra=_flow_extra(cfg, exc.state.t, exc.step))
                last_ckpt["path"] = str(base.with_suffix(".json"))
            print(f"last checkpoint: {last_ckpt['path']}", file=sys.stderr)
            return EXIT_STEP

    # The whole series, so a resumed run summarizes the samples before the resume too.
    records = [diagnostics.TimeSeriesRecord.from_dict(json.loads(line))
               for line in series_path.read_text().splitlines()]
    steps = last_ckpt["step"]
    stop_reason = ("t_end reached" if flow.reached_end(state.t, cfg.control)
                   else "theta below stop tolerance")
    summary = _write_summary(out / "summary.json", state, records, steps, stop_reason)
    if cfg.output.plot:
        _decay_svg(out / "decay.svg", [r.t for r in records],
                   [r.l2_theta for r in records])
    rate = (summary.get("decay") or {}).get("fitted_rate")
    print(f"done: t={state.t:.6g} samples={len(records)} fitted_rate={rate}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = RunConfig.from_file(args.config)
    analytic = diagnostics.lambda1_exact_forms(cfg.lattice)
    discrete = diagnostics.rayleigh_lowest_mode(cfg.lattice)
    print(f"lambda1 analytic: {analytic!r}")
    print(f"lambda1 discrete Rayleigh: {discrete!r}")
    if abs(analytic - discrete) > 1e-8 * max(abs(analytic), 1.0):
        print("mismatch beyond 1e-8", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_perturb(args) -> int:
    cfg = RunConfig.from_file(args.config)
    reference = flat_reference(cfg.lattice)
    initial = cfg.build_initial(reference)
    out = _output_directory(cfg)
    ckpt.write_form_field(out / "checkpoints" / "reference", reference.phi)
    path = ckpt.write_form_field(
        out / "checkpoints" / "initial", initial.phi, extra=_flow_extra(cfg, 0.0, 0))
    theta0 = initial.phi.data - reference.phi.data
    print(f"initial checkpoint: {path}")
    print(f"theta0 max-norm: {float(np.max(np.abs(theta0))):.6e}")
    return EXIT_OK


def _int_at_least(low):
    """argparse type: an integer no smaller than low."""
    def integer(text):  # argparse names the type in its messages
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="g2flow",
        description="Laplacian-flow simulator for closed G2 structures on flat 7-tori.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="run every identity of checks.CHECKS at seeded random inputs; "
                      "exit 1 names the first that fails")
    p_check.add_argument("--seed", type=_int_at_least(0), default=0)
    p_check.add_argument("--n-random", type=_int_at_least(1), default=1000,
                         help="randomized inputs per pointwise identity")
    p_check.add_argument("--report", help="write the JSON report to this path")
    p_check.set_defaults(fn=cmd_check)

    p_flow = sub.add_parser("flow", help="run a flow experiment from a JSON config")
    p_flow.add_argument("config")
    p_flow.add_argument("--resume", help="checkpoint base or sidecar to resume from")
    p_flow.set_defaults(fn=cmd_flow)

    p_spec = sub.add_parser("spectrum",
                            help="print analytic and discrete lambda1 on exact 3-forms")
    p_spec.add_argument("config")
    p_spec.set_defaults(fn=cmd_spectrum)

    p_pert = sub.add_parser("perturb",
                            help="validate the config and write the initial checkpoint")
    p_pert.add_argument("config")
    p_pert.set_defaults(fn=cmd_perturb)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
