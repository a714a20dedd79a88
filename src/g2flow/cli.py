"""Command-line entry point: check, flow, spectrum, perturb.

cli runs, writes and reports; it computes no verdict. The flow summary's
decay block is diagnostics.decay_verdicts of the series.

Exit codes: 0 success, 1 identity/self-check failure, 2 configuration error,
3 time-integration failure (with the last checkpoint path reported).
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import diagnostics, flow
from . import io as ckpt
from .config import ConfigError, RunConfig
from .g2algebra import NotPositive, flat_reference
from .lattice import require_number

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_STEP = 3


def cmd_check(args) -> int:
    from .checks import run_identity_suite  # only here, so a flow process loads no check suite

    report_path = Path(args.report) if args.report else None
    if report_path and (os.path.isdir(report_path) or not os.path.isdir(report_path.parent)):
        raise ConfigError(f"cannot write the report to {report_path}")
    report = run_identity_suite(seed=args.seed, n_random=args.n_random)
    for c in report["checks"]:
        flag = "PASS" if c["passed"] else "FAIL"
        value = c.get("error") or f"residual {c['max_residual']:.3e}"
        print(f"{flag} {c['name']}: {value} (tol {c['tolerance']:.1e})")
    if report_path:
        try:
            ckpt.replace_atomically(report_path, (json.dumps(
                report, indent=2, sort_keys=True, allow_nan=False) + "\n").encode())
        except OSError as exc:
            raise ConfigError(f"cannot write the report to {report_path}: {exc}") from exc
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
    with _writing(path):
        ckpt.replace_atomically(Path(path), svg.encode())


def _write_summary(path, state, records, steps, stop_reason):
    lam1 = diagnostics.lambda1_exact_forms(state.structure.lattice)
    summary = {
        "final_t": state.t,
        "steps": steps,
        "stop_reason": stop_reason,
        "lambda1": lam1,
        "samples": len(records),
        "final": records[-1].to_dict(),
        "decay": diagnostics.decay_verdicts(records, lam1),
    }
    with _writing(path):
        ckpt.replace_atomically(path, (json.dumps(summary, indent=2, sort_keys=True)
                                       + "\n").encode())
    return summary


def _output_directory(cfg) -> Path:
    """cfg's output directory, created if missing; ConfigError if it cannot be."""
    out = Path(cfg.output.directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _require_output_paths(out, files=()) -> None:
    """ConfigError if out/checkpoints is not a directory or one of the files is one.

    cmd_flow and cmd_perturb call it before any step or write.
    """
    ckpt_dir = out / "checkpoints"
    if ckpt_dir.exists() and not ckpt_dir.is_dir():
        raise ConfigError(f"cannot write checkpoints to {ckpt_dir}: it is not a directory")
    for path in files:
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")


@contextmanager
def _writing(path):
    """Turn an OSError raised while writing path into ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_checkpoint(base, field, extra=None) -> Path:
    """io.write_form_field; ConfigError naming base if the write fails."""
    with _writing(base):
        return ckpt.write_form_field(base, field, extra=extra)


def _flow_extra(cfg, t, step) -> dict:
    """Sidecar entries of a flow checkpoint: its time, its step and cfg's flow section."""
    return {"t": t, "step": step, **asdict(cfg.flow)}


def _resume_state(path, cfg, reference):
    """(structure, t, step) of a flow checkpoint; ConfigError unless it fits cfg and reference."""
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
    t_max = cfg.control.t_end * (1.0 + flow.END_RTOL)  # a step may pass t_end by roundoff
    try:
        t = require_number("checkpoint t", extra["t"], 0, t_max)
        step = require_number("checkpoint step", extra["step"], 0, integer=True)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # The flow's invariants: positive, closed, and in the reference's class.
    try:
        initial = flow._validate(phi, reference)
    except (NotPositive, flow.NotClosed) as exc:
        raise ConfigError(f"checkpoint form breaks a flow invariant: {exc}") from exc
    return initial, t, step


def _drop_samples_from(series_path, t0):
    """Remove samples at t0 and later, which a run resumed at t0 writes again.

    A line that is not UTF-8 JSON was torn by the interrupted run and is
    dropped. A JSON line that is not a sample raises ConfigError, before any
    step, as does a failed read. The kept samples replace it atomically; a
    failed write raises ConfigError.
    """
    if not series_path.exists():
        return
    try:
        lines = series_path.read_bytes().splitlines(keepends=True)
    except OSError as exc:
        raise ConfigError(f"cannot read {series_path}: {exc}") from exc
    kept = []
    for number, line in enumerate(lines, 1):
        try:
            sample = json.loads(line.decode())
        except ValueError:  # UnicodeDecodeError among them
            continue
        try:
            if diagnostics.TimeSeriesRecord.from_dict(sample).t < t0:
                kept.append(line)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{series_path} line {number} is not a sample: "
                              f"{type(exc).__name__}: {exc}") from exc
    try:
        ckpt.replace_atomically(series_path, b"".join(kept))
    except OSError as exc:
        raise ConfigError(f"cannot rewrite {series_path}: {exc}") from exc


def _require_stable_dt(initial, cfg) -> None:
    """flow.require_stable_dt at the starting state; ConfigError if the set dt is outside it."""
    try:
        flow.require_stable_dt(initial, cfg.control)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_flow(args) -> int:
    cfg = RunConfig.from_file(args.config)
    reference = flat_reference(cfg.lattice).phi  # all a flow reads of the reference

    out = _output_directory(cfg)
    ckpt_dir = out / "checkpoints"
    series_path = out / "series.jsonl"
    outputs = [series_path, out / "summary.json"]
    if cfg.output.plot:
        outputs.append(out / "decay.svg")
    _require_output_paths(out, outputs)

    t0, step0 = 0.0, 0
    if args.resume:
        initial, t0, step0 = _resume_state(args.resume, cfg, reference)
    else:
        initial = cfg.build_initial(reference)
    _require_stable_dt(initial, cfg)
    series_mode = "a" if args.resume else "w"
    if args.resume:
        _drop_samples_from(series_path, t0)
    # run_flow gets the only reference to the initial structure (start.pop()),
    # so the structure is freed once step 1 replaces it
    start = [initial]
    del initial

    _write_checkpoint(ckpt_dir / "reference", reference)
    last_ckpt = {"path": None, "step": step0}

    def checkpoint_cb(state, step):
        base = ckpt_dir / f"step_{step:08d}"
        _write_checkpoint(base, state.structure.phi, extra=_flow_extra(cfg, state.t, step))
        last_ckpt["path"] = str(base.with_suffix(".json"))
        last_ckpt["step"] = step

    # an OSError that no inner write names is the series file's
    with _writing(series_path), open(series_path, series_mode) as series_file:
        def record_cb(rec):
            series_file.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")

        try:
            state, _ = flow.run_flow(
                start.pop(), reference, cfg.flow.kind, cfg.control,
                sample_interval=cfg.output.sample_interval, record_cb=record_cb,
                checkpoint_cb=checkpoint_cb, t0=t0, step0=step0)
        except flow.StepFailed as exc:
            print(f"integration failed: {exc}", file=sys.stderr)
            if exc.state is not None:
                base = ckpt_dir / f"failed_step_{exc.step:08d}"
                _write_checkpoint(base, exc.state.structure.phi,
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
    rate = summary["decay"]["fitted_rate"]
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
    reference = flat_reference(cfg.lattice).phi
    initial = cfg.build_initial(reference)
    _require_stable_dt(initial, cfg)
    out = _output_directory(cfg)
    _require_output_paths(out)
    _write_checkpoint(out / "checkpoints" / "reference", reference)
    path = _write_checkpoint(out / "checkpoints" / "initial", initial.phi,
                             extra=_flow_extra(cfg, 0.0, 0))
    theta0 = initial.phi.data - reference.data
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
