"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402

STEPS = 3


def _run_child(tmp_path, g2flow_args, trace=True):
    out = tmp_path / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out),
           "--spawn", repr(time.monotonic())] + (["--trace"] if trace else [])
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(cmd + ["--"] + g2flow_args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced_flow(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("flow")
    w = run.FlowWorkload(axes=(1,), n=8, dt=1 / 64, steps=STEPS, sample_interval=2,
                         checkpoint_every=2, kmax=1, rhs_cross_max=1e-5, est_s=1.0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run.flow_config("tiny", w, 7, tmp_path / "out")))
    return _run_child(tmp_path, ["flow", str(config)]), tmp_path


def test_call_counts_follow_rk4_structure(traced_flow):
    res, _ = traced_flow
    calls = {name: row["calls"] for name, row in res["layers"].items()}
    assert res["exit_code"] == 0 and res["rejections"] == 0
    assert calls["flow.step_rk4"] == STEPS
    assert calls["flow.flow_rhs"] == 4 * STEPS
    # 3 RK4 stages + _validate per step, plus the reference and initial structures.
    assert calls["g2algebra.G2Structure.from_phi"] == 4 * STEPS + 2
    assert calls["flow._validate"] == STEPS
    assert calls["config.RunConfig.build_initial"] == 1
    # Samples at steps 0, 2 and the final step 3; checkpoints: reference, 2, 3.
    assert calls["diagnostics.diagnostic_snapshot"] == 3
    assert calls["io.write_form_field"] == 3


def test_every_flow_layer_is_reached_through_from_imports(traced_flow):
    # flow, config and diagnostics bind these with `from .x import f`; a
    # wrapper that only patched the defining module would see no calls.
    res, _ = traced_flow
    unused = {"g2algebra.project_3form", "checks.SuiteContext.pointwise",
              "checks.SuiteContext.closed_structure"}
    missing = [n for n in child.LAYERS if n not in unused and n not in res["layers"]]
    assert missing == []


def test_self_time_excludes_children(traced_flow):
    res, _ = traced_flow
    for name, row in res["layers"].items():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-9, name
    step = res["layers"]["flow.step_rk4"]
    assert step["self_s"] < 0.5 * step["total_s"]


def test_bytes_written_match_checkpoint_files(traced_flow):
    res, tmp_path = traced_flow
    files = list((tmp_path / "out" / "checkpoints").iterdir())
    assert res["bytes_written"] == sum(f.stat().st_size for f in files)


def test_verify_reports_an_unwrapped_reference():
    from g2flow import flow

    with pytest.raises(RuntimeError, match="flow.flow_rhs"):
        child.verify([("flow.flow_rhs", flow.flow_rhs)])


def test_seeded_inputs_repeat_and_excite_theta():
    w = run.WORKLOADS["diag_3d"]
    a = run.flow_config("diag_3d", w, 3, Path("out"))
    assert a == run.flow_config("diag_3d", w, 3, Path("out"))
    assert a != run.flow_config("diag_3d", w, 4, Path("out"))
    for seed in range(50):
        for m in run.flow_config("flow_2d", run.WORKLOADS["flow_2d"], seed, Path("o"))["perturbation"]:
            assert 0.03 <= m["amplitude"] <= 0.05
            assert any(m["mode"][ax - 1] and ax not in m["component"] for ax in (1, 2))


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail_of(range(100))
    assert value == 89 and pct == 90.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == [run.UNITS[n] for n in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow_2d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
