"""Run configuration: a single JSON document describing one experiment.

The lattice and control sections are the library's own Lattice and
StepControl, built and validated once when the document is loaded; their
defaults live in those classes.

The perturbation spec is a list of Fourier modes of the 2-form potential
beta; the initial 3-form is the reference plus d(beta), which keeps the
initial value closed and in the reference cohomology class by construction.
"""

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tables
from .flow import KINDS, StepControl
from .g2algebra import G2Structure, NotPositive, flat_reference
from .lattice import TWO_PI, FormField, Lattice, exterior_derivative, is_number


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass
class PerturbationMode:
    """One Fourier mode of beta: amplitude * sin(2 pi k.x / L + phase) e^component."""

    mode: list                 # integer mode vector, one entry per coordinate axis (7)
    component: list            # increasing 2-form component, 1-based axis pair
    amplitude: float
    phase: float = 0.0

    def check(self, lattice: Lattice):
        """Raise ValueError unless the mode fits the lattice."""
        mode, comp = list(self.mode), tuple(self.component)
        for name, entries in (("mode", mode), ("component", comp)):
            if not all(is_number(v, integer=True) for v in entries):
                raise ValueError(f"{name} entries must be integers, got {entries}")
        for name in ("amplitude", "phase"):
            v = getattr(self, name)
            if not (is_number(v) and np.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if len(mode) != 7:
            raise ValueError(f"mode vector must have 7 entries, got {mode}")
        n = lattice.points_per_axis
        for axis, k in enumerate(mode, start=1):
            if k and axis not in lattice.active_axes:
                raise ValueError(f"mode {mode} excites inactive axis {axis}")
            if 2 * abs(k) >= n:  # aliased to a lower mode, or the unresolved Nyquist sine
                raise ValueError(f"mode {mode} is not resolved by {n} points per axis: "
                                 f"need |k| < {n / 2:g} on axis {axis}")
        if len(comp) != 2 or not (1 <= comp[0] < comp[1] <= 7):
            raise ValueError(
                f"component must be an increasing 1-based pair, got {self.component}")


@dataclass
class FlowConfig:
    kind: str = "deturck"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown flow kind {self.kind!r}")


@dataclass
class OutputConfig:
    directory: str = "run"
    sample_interval: int = 10
    plot: bool = False

    def __post_init__(self):
        if not isinstance(self.directory, str):
            raise ValueError(f"directory must be a string, got {self.directory!r}")
        if not isinstance(self.plot, bool):
            raise ValueError(f"plot must be true or false, got {self.plot!r}")
        n = self.sample_interval
        if not is_number(n, integer=True):
            raise ValueError(f"sample_interval must be an integer, got {n!r}")
        if not n >= 1:
            raise ValueError("sample_interval must be at least 1")


@dataclass
class RunConfig:
    lattice: Lattice
    flow: FlowConfig = field(default_factory=FlowConfig)
    perturbation: list = field(default_factory=list)
    control: StepControl = field(default_factory=StepControl)
    output: OutputConfig = field(default_factory=OutputConfig)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build and validate every section; unknown top-level keys are ignored."""
        try:
            cfg = cls(
                lattice=Lattice(**d["lattice"]),
                flow=FlowConfig(**d.get("flow", {})),
                perturbation=[PerturbationMode(**m) for m in d.get("perturbation", [])],
                control=StepControl(**d.get("control", {})),
                output=OutputConfig(**d.get("output", {})),
            )
            for m in cfg.perturbation:
                m.check(cfg.lattice)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad config structure: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(d)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return cls.from_json(text)

    # -- construction ------------------------------------------------------
    def build_beta(self) -> FormField:
        lattice = self.lattice
        data = np.zeros(lattice.grid_shape + (21,))
        pos2 = tables.index_position(2)
        for m in self.perturbation:
            i, j = (c - 1 for c in m.component)
            arg = m.phase * np.ones(lattice.grid_shape)
            for axis in lattice.active_axes:
                k = m.mode[axis - 1]
                if k:
                    arg = arg + (TWO_PI * k / lattice.period) * lattice.coordinate(axis)
            data[..., pos2[(i, j)]] += (
                m.amplitude * np.broadcast_to(np.sin(arg), lattice.grid_shape))
        return FormField(lattice, 2, data)

    def build_initial(self, reference: G2Structure = None) -> G2Structure:
        """Reference plus d(beta), validated positive."""
        reference = reference or flat_reference(self.lattice)
        phi0 = reference.phi + exterior_derivative(self.build_beta())
        try:
            return G2Structure.from_phi(phi0)
        except NotPositive as exc:
            raise ConfigError(f"initial form not positive: {exc}") from exc
