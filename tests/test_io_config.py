"""Checkpoint persistence and run-configuration round trips."""

import hashlib
import json
import struct

import numpy as np
import pytest

from g2flow import io as ckpt
from g2flow.config import ConfigError, OutputConfig, RunConfig
from g2flow.flow import StepControl
from g2flow.g2algebra import flat_reference
from g2flow.lattice import FormField, Lattice

from conftest import band_limited_form

TWO_PI = 2.0 * np.pi


def test_checkpoint_round_trip_bit_identical(tmp_path, rng):
    lat = Lattice((1, 3), 16, 1.5, scheme="fd4")
    field = band_limited_form(lat, 3, rng)
    ckpt.write_form_field(tmp_path / "snap", field, extra={"t": 0.125, "step": 7})
    back, extra = ckpt.read_form_field(tmp_path / "snap")
    assert np.array_equal(back.data, field.data)  # bitwise
    assert back.lattice == lat
    assert back.degree == 3
    assert extra == {"t": 0.125, "step": 7}


def test_checkpoint_sidecar_fields(tmp_path, rng):
    lat = Lattice((1,), 8, TWO_PI)
    field = band_limited_form(lat, 2, rng)
    path = ckpt.write_form_field(tmp_path / "f", field)
    sidecar = json.loads(path.read_text())
    assert sidecar["version"] == 1
    assert sidecar["endianness"] == "little"
    assert sidecar["degree"] == 2
    assert sidecar["lattice"]["active_axes"] == [1]
    assert sidecar["shape"] == [8, 21]


def test_checkpoint_without_scheme_reads_as_spectral(tmp_path, rng):
    # sidecars written before fd4 existed carry no scheme entry
    lat = Lattice((1,), 8, TWO_PI)
    path = ckpt.write_form_field(tmp_path / "f", band_limited_form(lat, 2, rng))
    sidecar = json.loads(path.read_text())
    del sidecar["lattice"]["scheme"]
    path.write_text(json.dumps(sidecar))
    back, _ = ckpt.read_form_field(tmp_path / "f")
    assert back.lattice == lat


def test_checkpoint_blob_little_endian_layout(tmp_path):
    # site-major, component-minor: blob[site * ncomp + comp]
    lat = Lattice((1,), 8, TWO_PI)
    data = np.arange(8 * 7, dtype=float).reshape(8, 7)
    ckpt.write_form_field(tmp_path / "f", FormField(lat, 1, data))
    raw = (tmp_path / "f.bin").read_bytes()
    assert struct.unpack("<d", raw[:8])[0] == 0.0
    assert struct.unpack("<d", raw[8 * (3 * 7 + 2):8 * (3 * 7 + 2) + 8])[0] == 23.0


def test_checkpoint_rejects_other_version(tmp_path, rng):
    lat = Lattice((1,), 8, TWO_PI)
    path = ckpt.write_form_field(tmp_path / "f", band_limited_form(lat, 1, rng))
    sidecar = json.loads(path.read_text())
    sidecar["version"] = 99
    path.write_text(json.dumps(sidecar))
    with pytest.raises(ValueError):
        ckpt.read_form_field(tmp_path / "f")


def test_checkpoint_rejects_truncated_blob(tmp_path, rng):
    lat = Lattice((1,), 8, TWO_PI)
    ckpt.write_form_field(tmp_path / "f", band_limited_form(lat, 3, rng))
    blob = tmp_path / "f.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ValueError, match="bytes"):
        ckpt.read_form_field(tmp_path / "f")


def test_checkpoint_digest_is_hashlib_sha256(tmp_path, rng):
    # the built-in digest io uses is hashlib's, so a sidecar written with
    # either verifies under the other
    lat = Lattice((1, 2), 8, TWO_PI)
    path = ckpt.write_form_field(tmp_path / "f", band_limited_form(lat, 3, rng))
    blob = (tmp_path / "f.bin").read_bytes()
    assert json.loads(path.read_text())["blob_sha256"] == hashlib.sha256(blob).hexdigest()


def test_checkpoint_rejects_flipped_byte(tmp_path, rng):
    lat = Lattice((1,), 8, TWO_PI)
    ckpt.write_form_field(tmp_path / "f", band_limited_form(lat, 3, rng))
    blob = tmp_path / "f.bin"
    raw = bytearray(blob.read_bytes())
    raw[100] ^= 0x01
    blob.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="sha256"):
        ckpt.read_form_field(tmp_path / "f")


def test_checkpoint_write_leaves_no_temporary_files(tmp_path, rng):
    lat = Lattice((1,), 8, TWO_PI)
    for _ in range(2):  # the second write replaces the first pair
        ckpt.write_form_field(tmp_path / "f", band_limited_form(lat, 3, rng))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "f.json"]


CANONICAL = {
    "lattice": {"active_axes": [1], "points_per_axis": 32,
                "period": TWO_PI, "scheme": "spectral"},
    "flow": {"kind": "deturck"},
    "perturbation": [{"mode": [1, 0, 0, 0, 0, 0, 0], "component": [2, 3],
                      "amplitude": 1e-3, "phase": 0.0}],
    "control": {"t_end": 10.0},
    "output": {"directory": "run", "sample_interval": 10, "plot": False},
    "seed": 0,
}


def test_config_round_trip_is_identity():
    cfg = RunConfig.from_dict(CANONICAL)
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg
    assert RunConfig.from_json(again.to_json()) == again


def test_config_sections_are_library_objects():
    # lattice and control are built once, with the library's own defaults;
    # the unread top-level "seed" is ignored and not written back
    cfg = RunConfig.from_dict(CANONICAL)
    assert cfg.lattice == Lattice((1,), 32, TWO_PI, "spectral")
    assert cfg.control == StepControl(t_end=10.0)
    assert cfg.control.dt is None
    minimal = RunConfig.from_dict({"lattice": {"active_axes": [2]}})
    assert minimal.lattice == Lattice((2,))
    assert minimal.control == StepControl()
    text = cfg.to_json()
    assert "seed" not in json.loads(text)
    assert "Infinity" not in text and "NaN" not in text  # strict JSON


@pytest.mark.parametrize("section, override", [
    ("lattice", {"points_per_axis": 7}),
    ("lattice", {"active_axes": [3, 1]}),
    ("lattice", {"scheme": "fd2"}),
    ("lattice", {"period": 0.0}),
    ("lattice", {"spacing": 0.1}),
    ("control", {"t_end": "soon"}),
    ("control", {"max_step": 0.1}),
])
def test_config_rejects_bad_section(section, override):
    bad = json.loads(json.dumps(CANONICAL))
    bad[section].update(override)
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)


def test_step_control_validates_itself():
    with pytest.raises(ValueError, match="t_end"):
        StepControl(t_end=0.0)
    with pytest.raises(ValueError, match="dt"):
        StepControl(t_end=1.0, dt=-1e-3)
    with pytest.raises(ValueError, match="checkpoint_every"):
        StepControl(checkpoint_every=0)
    with pytest.raises(TypeError):
        StepControl(max_halvings=0)  # every step is attempted once; no setting
    for value in ("x", float("nan"), -1.0, True, float("inf")):
        with pytest.raises(ValueError, match="stop_tolerance"):
            StepControl(stop_tolerance=value)
    StepControl(stop_tolerance=0)  # run to t_end whatever theta does
    for value in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="checkpoint_every must be an integer"):
            StepControl(checkpoint_every=value)
    for value in (0, 2.5, True):
        with pytest.raises(ValueError, match="sample_interval"):
            OutputConfig(sample_interval=value)
    with pytest.raises(ValueError, match="points_per_axis must be an integer"):
        Lattice((1,), 16.0)


def test_config_builds_initial_structure():
    cfg = RunConfig.from_dict(CANONICAL)
    initial = cfg.build_initial()
    theta = initial.phi.data - flat_reference(cfg.lattice).phi.data
    assert initial.lattice == cfg.lattice
    assert np.max(np.abs(theta)) == pytest.approx(1e-3, rel=1e-10)


def test_config_rejects_mode_on_inactive_axis():
    bad = json.loads(json.dumps(CANONICAL))
    bad["perturbation"][0]["mode"] = [0, 1, 0, 0, 0, 0, 0]
    with pytest.raises(ConfigError, match="inactive axis"):
        RunConfig.from_dict(bad)


def test_config_rejects_bad_component():
    bad = json.loads(json.dumps(CANONICAL))
    bad["perturbation"][0]["component"] = [3, 2]
    with pytest.raises(ConfigError, match="component"):
        RunConfig.from_dict(bad)


def test_config_rejects_positivity_breaking_amplitude():
    bad = json.loads(json.dumps(CANONICAL))
    bad["perturbation"][0]["amplitude"] = 5.0
    cfg = RunConfig.from_dict(bad)
    with pytest.raises(ConfigError):
        cfg.build_initial()


def test_config_rejects_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_file(p)
    with pytest.raises(ConfigError):
        RunConfig.from_file(tmp_path / "absent.json")
    # an int past sys.get_int_max_str_digits(): json raises a bare ValueError
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.from_json('{"lattice": {"points_per_axis": ' + "1" * 5000 + "}}")


def test_config_rejects_bad_kind():
    bad = json.loads(json.dumps(CANONICAL))
    bad["flow"]["kind"] = "ricci"
    with pytest.raises(ConfigError, match="ricci"):
        RunConfig.from_dict(bad)


def test_config_multi_mode_beta_sum():
    d = json.loads(json.dumps(CANONICAL))
    d["perturbation"].append({"mode": [2, 0, 0, 0, 0, 0, 0], "component": [4, 5],
                              "amplitude": 2e-3, "phase": 0.25})
    cfg = RunConfig.from_dict(d)
    lat = cfg.lattice
    beta = cfg.build_beta()
    from g2flow import tables
    x = lat.coordinate(1)
    pos = tables.index_position(2)
    expect23 = 1e-3 * np.sin(x)
    expect45 = 2e-3 * np.sin(2 * x + 0.25)
    assert np.max(np.abs(beta.data[..., pos[(1, 2)]] - expect23)) < 1e-15
    assert np.max(np.abs(beta.data[..., pos[(3, 4)]] - expect45)) < 1e-15
