"""CLI subcommands: exit codes, outputs, determinism, resume."""

import json

import numpy as np
import pytest

from g2flow import cli
from g2flow import io as ckpt
from g2flow import g2algebra as g2
from g2flow.checks import CHECKS, SuiteContext, run_check, run_identity_suite
from g2flow.tables import index_position

TWO_PI = 2.0 * np.pi


def write_config(tmp_path, **overrides):
    cfg = {
        "lattice": {"active_axes": [1], "points_per_axis": 16,
                    "period": TWO_PI, "scheme": "spectral"},
        "flow": {"kind": "deturck"},
        "perturbation": [{"mode": [1, 0, 0, 0, 0, 0, 0], "component": [2, 3],
                          "amplitude": 1e-3, "phase": 0.0}],
        "control": {"t_end": 0.5, "cfl_coefficient": 0.2, "checkpoint_every": 20},
        "output": {"directory": str(tmp_path / "out"), "sample_interval": 5,
                   "plot": False},
        "seed": 0,
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def _mode(**changes):
    """The default perturbation mode of write_config with some entries changed."""
    return {"mode": [1, 0, 0, 0, 0, 0, 0], "component": [2, 3],
            "amplitude": 1e-3, "phase": 0.0, **changes}


# --- check -----------------------------------------------------------------------

def test_check_passes_and_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = cli.main(["check", "--seed", "0", "--n-random", "60",
                     "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "i_phi(metric) = 3 phi" in names
    assert "j_phi(i_phi(h)) = 4h + 2tr(h) metric" in names
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_mutation_fails_with_named_identity(monkeypatch, capsys):
    # psi0 with its e4567 sign flipped: the star of it is no longer the model
    # 3-form, which breaks the i_phi(g) = 3 phi battery
    psi0 = g2.PSI0.copy()
    psi0[index_position(4)[(3, 4, 5, 6)]] *= -1.0
    monkeypatch.setattr(g2, "PSI0", psi0)
    code = cli.main(["check", "--seed", "0", "--n-random", "30"])
    assert code == 1
    out = capsys.readouterr().out
    assert "identity check failed" in out
    report = run_identity_suite(seed=0, n_random=30)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "i_phi(metric) = 3 phi" in failed


@pytest.mark.parametrize("args", [["--n-random", "0"], ["--n-random", "-3"],
                                  ["--seed", "-1"]])
def test_check_out_of_range_argument_exit_2(capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--n-random", "5", *args])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_check_deterministic_same_seed(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert cli.main(["check", "--seed", "3", "--n-random", "40",
                     "--report", str(r1)]) == 0
    assert cli.main(["check", "--seed", "3", "--n-random", "40",
                     "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_check_verdicts_identical_across_100_seeds():
    # the pointwise battery at reduced batch size over 100 distinct seeds:
    # every seed must produce the identical all-pass verdict vector
    pointwise = range(14)  # the pointwise battery, through positivity
    assert CHECKS[pointwise[-1]][0] == "positivity detection"
    verdicts = set()
    for seed in range(100):
        ctx = SuiteContext(seed, 25)
        verdicts.add(tuple(run_check(ctx, i).passed for i in pointwise))
    assert verdicts == {tuple([True] * len(pointwise))}


# --- spectrum ----------------------------------------------------------------------

def test_spectrum_unit_period(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert cli.main(["spectrum", str(path)]) == 0
    out = capsys.readouterr().out
    assert "analytic: 1.0" in out


def test_spectrum_half_period(tmp_path, capsys):
    path, _ = write_config(tmp_path, lattice={"period": np.pi})
    assert cli.main(["spectrum", str(path)]) == 0
    assert "analytic: 4.0" in capsys.readouterr().out


@pytest.mark.parametrize("n, lambda1", [(16, "0.99844"), (9, "0.65070")])
def test_spectrum_fd4(tmp_path, capsys, n, lambda1):
    # lambda1 is the least discrete fd4 symbol, which the Rayleigh quotient
    # reproduces, not the continuum 1.0
    path, _ = write_config(tmp_path, lattice={"points_per_axis": n, "scheme": "fd4"})
    assert cli.main(["spectrum", str(path)]) == 0
    assert f"analytic: {lambda1}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["flow", "spectrum", "perturb"])
@pytest.mark.parametrize("override", [{"control": {"t_end": 0.0}},
                                      {"control": {"t_end": -0.5}},
                                      {"control": {"dt": 0.0}},
                                      {"control": {"dt": -0.01}},
                                      {"lattice": {"points_per_axis": 7}},
                                      {"flow": {"kind": "ricci"}},
                                      {"control": {"cfl_coefficient": 0.0}},
                                      {"control": {"max_dt": 0.0}},
                                      {"control": {"max_dt": -0.1}},
                                      {"control": {"checkpoint_every": 0}},
                                      {"control": {"max_halvings": -1}},
                                      {"output": {"sample_interval": 0}},
                                      {"control": {"max_halvings": 1.5}},
                                      {"control": {"checkpoint_every": 2.5}},
                                      {"output": {"sample_interval": 2.5}},
                                      {"lattice": {"points_per_axis": 16.0}},
                                      {"flow": {"deturck_a": 0.0}},
                                      {"perturbation": [_mode(amplitude="x")]},
                                      {"perturbation": [_mode(phase="x")]},
                                      {"perturbation": [_mode(amplitude=float("nan"))]},
                                      {"perturbation": [_mode(mode=[1.5, 0, 0, 0, 0, 0, 0])]},
                                      {"perturbation": [_mode(component=[1.9, 3])]},
                                      {"lattice": {"active_axes": [1.7]}},
                                      {"lattice": {"period": float("inf")}},
                                      {"control": {"stop_tolerance": float("nan")}},
                                      {"control": {"stop_tolerance": "x"}},
                                      {"control": {"stop_tolerance": -1.0}},
                                      {"lattice": {"period": True}},
                                      {"control": {"t_end": True}},
                                      {"control": {"dt": True}},
                                      {"control": {"cfl_coefficient": True}},
                                      {"control": {"max_dt": True}},
                                      {"flow": {"kind": "laplacian"},
                                       "control": {"t_end": float("inf")}},
                                      {"output": {"directory": 5}},
                                      {"output": {"plot": "no"}},
                                      {"perturbation": [_mode(mode=[8, 0, 0, 0, 0, 0, 0])]},
                                      {"perturbation": [_mode(mode=[-8, 0, 0, 0, 0, 0, 0])]},
                                      {"perturbation": [_mode(mode=[17, 0, 0, 0, 0, 0, 0])]}],
                         ids=["t_end0", "t_end_negative", "dt0", "dt_negative",
                              "odd_spectral_n", "kind", "cfl0", "max_dt0",
                              "max_dt_negative", "checkpoint_every0",
                              "max_halvings_negative", "sample_interval0",
                              "max_halvings_float", "checkpoint_every_float",
                              "sample_interval_float", "points_per_axis_float",
                              "deturck_a", "amplitude_str", "phase_str",
                              "amplitude_nan", "mode_float", "component_float",
                              "active_axes_float", "period_inf", "stop_tolerance_nan",
                              "stop_tolerance_str", "stop_tolerance_negative",
                              "period_true", "t_end_true", "dt_true", "cfl_true",
                              "max_dt_true", "t_end_inf", "directory_int", "plot_str",
                              "mode_nyquist", "mode_negative_nyquist", "mode_aliased"])
def test_invalid_setting_exit_2(tmp_path, capsys, command, override):
    path, _ = write_config(tmp_path, **override)
    assert cli.main([command, str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["config_is_directory", "config_not_utf8",
                                  "flow_output_is_file", "perturb_output_is_file",
                                  "report_directory_missing", "report_is_directory"])
def test_bad_path_exit_2(tmp_path, capsys, case):
    # each path is rejected before any work: nothing is printed to stdout
    path, _ = write_config(tmp_path)
    if case == "config_is_directory":
        argv = ["flow", str(tmp_path)]
    elif case == "config_not_utf8":
        path.write_bytes(b'{"seed": "\xff"}')
        argv = ["flow", str(path)]
    elif case.endswith("output_is_file"):
        (tmp_path / "out").write_text("")
        argv = [case.split("_")[0], str(path)]
    else:
        report = tmp_path / "missing" / "r.json" if case.endswith("missing") else tmp_path
        argv = ["check", "--n-random", "5", "--report", str(report)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert captured.out == ""


def test_spectrum_bad_config_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert cli.main(["spectrum", str(path)]) == 2


# --- perturb -----------------------------------------------------------------------

def test_perturb_writes_validated_checkpoint(tmp_path, capsys):
    path, cfg = write_config(tmp_path)
    assert cli.main(["perturb", str(path)]) == 0
    out_dir = tmp_path / "out" / "checkpoints"
    assert (out_dir / "initial.json").exists()
    assert (out_dir / "initial.bin").exists()
    assert (out_dir / "reference.json").exists()
    assert "theta0 max-norm: 1.0" in capsys.readouterr().out


def test_perturb_rejects_positivity_loss(tmp_path):
    path, _ = write_config(tmp_path, perturbation=[
        {"mode": [1, 0, 0, 0, 0, 0, 0], "component": [2, 3],
         "amplitude": 10.0, "phase": 0.0}])
    assert cli.main(["perturb", str(path)]) == 2


# --- flow --------------------------------------------------------------------------

def test_flow_bad_config_exit_2(tmp_path):
    path = tmp_path / "nope.json"
    assert cli.main(["flow", str(path)]) == 2


def test_flow_reference_only_stops_immediately(tmp_path, capsys):
    path, cfg = write_config(tmp_path, perturbation=[])
    assert cli.main(["flow", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_t"] == 0.0
    assert summary["steps"] == 0
    assert summary["final"]["l2_theta"] == 0.0
    assert summary["decay"]["fitted_rate"] is None
    lines = (tmp_path / "out" / "series.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1


def test_flow_writes_outputs_and_plot(tmp_path):
    path, cfg = write_config(tmp_path, output={"plot": True,
                                               "directory": str(tmp_path / "out")})
    assert cli.main(["flow", str(path)]) == 0
    out = tmp_path / "out"
    assert (out / "series.jsonl").exists()
    assert (out / "summary.json").exists()
    svg = (out / "decay.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    ckpts = sorted((out / "checkpoints").glob("step_*.json"))
    assert ckpts  # periodic checkpoints written
    records = [json.loads(l) for l in (out / "series.jsonl").read_text().splitlines()]
    assert all(r["harmonic_residual"] < 1e-10 for r in records)


def test_flow_series_bit_identical_across_runs(tmp_path):
    path1, _ = write_config(tmp_path, output={"directory": str(tmp_path / "a")})
    assert cli.main(["flow", str(path1)]) == 0
    path2, _ = write_config(tmp_path, output={"directory": str(tmp_path / "b")})
    assert cli.main(["flow", str(path2)]) == 0
    a = (tmp_path / "a" / "series.jsonl").read_bytes()
    b = (tmp_path / "b" / "series.jsonl").read_bytes()
    assert a == b


def _full_and_interrupted_runs(tmp_path):
    """(series lines, summary) of a full run, and (config, checkpoint) to resume it.

    Fixed dt keeps the sample steps aligned; the partial run stops exactly
    on a sample/checkpoint boundary so the resumed run continues the grid.
    0.01 is not dyadic: ten summed steps fall short of 0.1 by roundoff, and
    the partial run must still pass through the same times as the full one.
    A sample every step gives the 21 samples the decay fit needs, so the
    summary's fit must also cover the samples from before the resume.
    """
    control_full = {"t_end": 0.2, "dt": 0.01, "checkpoint_every": 10}
    full_path, _ = write_config(tmp_path, output={"directory": str(tmp_path / "full"),
                                                  "sample_interval": 1},
                                control=control_full)
    assert cli.main(["flow", str(full_path)]) == 0
    full_lines = (tmp_path / "full" / "series.jsonl").read_text().splitlines()
    full_summary = json.loads((tmp_path / "full" / "summary.json").read_text())
    assert full_summary["decay"]["fitted_rate"] is not None

    # interrupted at a smaller t_end, to be resumed from its final checkpoint
    part_path, _ = write_config(tmp_path, output={"directory": str(tmp_path / "part"),
                                                  "sample_interval": 1},
                                control={"t_end": 0.1, "dt": 0.01,
                                         "checkpoint_every": 10})
    assert cli.main(["flow", str(part_path)]) == 0
    resume_from = sorted((tmp_path / "part" / "checkpoints").glob("step_*.json"))[-1]
    resume_path, _ = write_config(tmp_path, output={"directory": str(tmp_path / "part"),
                                                    "sample_interval": 1},
                                  control=control_full)
    return full_lines, full_summary, resume_path, resume_from


def test_flow_resume_reproduces_series_bit_identically(tmp_path):
    full_lines, full_summary, resume_path, resume_from = _full_and_interrupted_runs(tmp_path)
    with open(tmp_path / "part" / "series.jsonl", "a") as fh:
        fh.write('{"ck_theta": [0.1, ')  # a sample torn by an interrupted write
    assert cli.main(["flow", str(resume_path), "--resume", str(resume_from)]) == 0
    part_lines = (tmp_path / "part" / "series.jsonl").read_text().splitlines()

    # the union of partial + resumed samples reproduces the uninterrupted
    # series, and the summary is fitted on all of it
    assert part_lines == full_lines
    part_summary = json.loads((tmp_path / "part" / "summary.json").read_text())
    assert part_summary == full_summary

    # resuming again from the earlier checkpoint replaces the samples after it
    assert cli.main(["flow", str(resume_path), "--resume", str(resume_from)]) == 0
    assert (tmp_path / "part" / "series.jsonl").read_text().splitlines() == full_lines
    assert json.loads((tmp_path / "part" / "summary.json").read_text()) == full_summary


@pytest.mark.parametrize("line", ['{"t": -1.0}', '{"l2_theta": 1.0}'], ids=["no_fields", "no_t"])
def test_flow_resume_with_foreign_series_line_exit_2(tmp_path, capsys, line):
    # valid JSON that is no sample: rejected before the first step, and the
    # series is left as it was
    path, _ = write_config(tmp_path, control={"t_end": 0.1, "dt": 0.01, "checkpoint_every": 5})
    assert cli.main(["flow", str(path)]) == 0
    series = tmp_path / "out" / "series.jsonl"
    series.write_text(line + "\n" + series.read_text())
    before = series.read_bytes()
    resume_from = tmp_path / "out" / "checkpoints" / "step_00000005.json"
    capsys.readouterr()
    assert cli.main(["flow", str(path), "--resume", str(resume_from)]) == 2
    assert "line 1 is not a sample" in capsys.readouterr().err
    assert series.read_bytes() == before


def _run_outputs(out):
    return ((out / "series.jsonl").read_bytes(), (out / "summary.json").read_bytes())


def test_flow_resume_from_perturb_checkpoint_matches_uninterrupted_run(tmp_path):
    # the resumed run starts at step 0, a sample step, so it records t = 0
    control = {"t_end": 0.05, "dt": 0.01}
    full_path, _ = write_config(tmp_path, control=control,
                                output={"directory": str(tmp_path / "full"),
                                        "sample_interval": 1})
    assert cli.main(["flow", str(full_path)]) == 0
    path, _ = write_config(tmp_path, control=control, output={"sample_interval": 1})
    assert cli.main(["perturb", str(path)]) == 0
    initial = tmp_path / "out" / "checkpoints" / "initial.json"
    assert cli.main(["flow", str(path), "--resume", str(initial)]) == 0
    assert _run_outputs(tmp_path / "out") == _run_outputs(tmp_path / "full")


def test_flow_resume_from_final_checkpoint_matches_uninterrupted_run(tmp_path):
    # the run ends at step 5, off the sample grid: resuming there must replace,
    # not repeat, the final sample
    path, _ = write_config(tmp_path, control={"t_end": 0.05, "dt": 0.01},
                           output={"sample_interval": 2})
    assert cli.main(["flow", str(path)]) == 0
    full = _run_outputs(tmp_path / "out")
    assert json.loads(full[1])["samples"] == 4  # steps 0, 2, 4 and 5
    final = tmp_path / "out" / "checkpoints" / "step_00000005.json"
    assert cli.main(["flow", str(path), "--resume", str(final)]) == 0
    assert _run_outputs(tmp_path / "out") == full


def _set_sidecar_extra(sidecar_path, key, value):
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["extra"][key] = value
    sidecar_path.write_text(json.dumps(sidecar))


def test_flow_resume_from_sidecar_with_zero_deturck_a(tmp_path):
    # checkpoints of earlier versions record the gauge's trace weight, always 0.0
    full_lines, full_summary, resume_path, resume_from = _full_and_interrupted_runs(tmp_path)
    _set_sidecar_extra(resume_from, "deturck_a", 0.0)
    assert cli.main(["flow", str(resume_path), "--resume", str(resume_from)]) == 0
    assert (tmp_path / "part" / "series.jsonl").read_text().splitlines() == full_lines
    assert json.loads((tmp_path / "part" / "summary.json").read_text()) == full_summary


def test_flow_resume_from_sidecar_with_other_deturck_a_exit_2(tmp_path, capsys):
    _, _, resume_path, resume_from = _full_and_interrupted_runs(tmp_path)
    _set_sidecar_extra(resume_from, "deturck_a", 0.5)
    capsys.readouterr()
    assert cli.main(["flow", str(resume_path), "--resume", str(resume_from)]) == 2
    assert "config error" in capsys.readouterr().err


def test_flow_resume_from_non_flow_checkpoint_exit_2(tmp_path, capsys):
    # the reference checkpoint has no t/step/kind
    path, _ = write_config(tmp_path, control={"t_end": 0.05, "dt": 0.01})
    assert cli.main(["flow", str(path)]) == 0
    reference = tmp_path / "out" / "checkpoints" / "reference.json"
    assert cli.main(["flow", str(path), "--resume", str(reference)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override", [{"lattice": {"points_per_axis": 32}},
                                      {"flow": {"kind": "laplacian"}}])
def test_flow_resume_with_mismatched_config_exit_2(tmp_path, capsys, override):
    path, _ = write_config(tmp_path, control={"t_end": 0.05, "dt": 0.01,
                                              "checkpoint_every": 5})
    assert cli.main(["flow", str(path)]) == 0
    resume_from = sorted((tmp_path / "out" / "checkpoints").glob("step_*.json"))[-1]
    other, _ = write_config(tmp_path, control={"t_end": 0.1, "dt": 0.01}, **override)
    assert cli.main(["flow", str(other), "--resume", str(resume_from)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("bump, reason", [(np.sin, "closedness violated"),
                                           (np.ones_like, "harmonic part drifted")])
def test_flow_resume_from_checkpoint_off_the_flow_exit_2(tmp_path, capsys, bump, reason):
    # phi0 + 0.01 f(x1) e^234 is positive; with f = sin it is not closed, and
    # with f = 1 it is closed but in another cohomology class than phi0's
    control = {"t_end": 0.05, "dt": 0.01, "checkpoint_every": 5}
    path, _ = write_config(tmp_path, control=control)
    assert cli.main(["flow", str(path)]) == 0
    resume_from = sorted((tmp_path / "out" / "checkpoints").glob("step_*.json"))[-1]
    path, _ = write_config(tmp_path, control={**control, "t_end": 0.1})  # steps left
    phi, extra = ckpt.read_form_field(resume_from.with_suffix(""))
    data = np.broadcast_to(g2.PHI0, phi.data.shape).copy()
    data[..., index_position(3)[(1, 2, 3)]] += 0.01 * bump(phi.lattice.coordinate(1))
    ckpt.write_form_field(resume_from.with_suffix(""), phi.replace_data(data), extra=extra)
    capsys.readouterr()
    assert cli.main(["flow", str(path), "--resume", str(resume_from)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and reason in err


@pytest.mark.parametrize("section, key, value", [("lattice", "points_per_axis", "16"),
                                                 ("lattice", "spacing", 0.1),
                                                 ("extra", "t", "x"),
                                                 ("extra", "t", float("nan")),
                                                 ("extra", "step", 2.5),
                                                 (None, "degree", "3"),
                                                 (None, "degree", 3.0),
                                                 (None, "shape", [16, "35"]),
                                                 (None, "blob", 5),
                                                 (None, "extra", 5),
                                                 (None, "extra", ["t", "step", "kind"]),
                                                 (None, None, [1, 2])])
def test_flow_resume_from_corrupted_sidecar_exit_2(tmp_path, capsys, section, key, value):
    path, _ = write_config(tmp_path, control={"t_end": 0.05, "dt": 0.01,
                                              "checkpoint_every": 5})
    assert cli.main(["flow", str(path)]) == 0
    resume_from = sorted((tmp_path / "out" / "checkpoints").glob("step_*.json"))[-1]
    sidecar = json.loads(resume_from.read_text())
    if key is None:
        sidecar = value  # the whole sidecar
    else:
        (sidecar[section] if section else sidecar)[key] = value  # None: a top-level key
    resume_from.write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert cli.main(["flow", str(path), "--resume", str(resume_from)]) == 2
    assert "config error" in capsys.readouterr().err


def test_flow_step_failure_exit_3(tmp_path, capsys):
    path, _ = write_config(tmp_path, control={"t_end": 5.0, "dt": 2.0,
                                              "max_halvings": 0},
                           perturbation=[{"mode": [1, 0, 0, 0, 0, 0, 0],
                                          "component": [2, 3],
                                          "amplitude": 1e-2, "phase": 0.0}])
    assert cli.main(["flow", str(path)]) == 3
    err = capsys.readouterr().err
    assert "integration failed" in err
    assert "last checkpoint" in err


@pytest.mark.parametrize("dt", [1e200, 1e300])
def test_flow_overflowing_step_exit_3(tmp_path, capsys, dt):
    # the first step overflows to a non-finite form, which no halving rescues
    path, _ = write_config(tmp_path, control={"t_end": 1e300, "dt": dt})
    with pytest.warns(RuntimeWarning):
        assert cli.main(["flow", str(path)]) == 3
    assert "integration failed" in capsys.readouterr().err
