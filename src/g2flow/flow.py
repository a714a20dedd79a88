"""Right-hand sides and time integration for the Laplacian flows.

Both flow kinds return the rate of change of phi as an explicitly exact form
(d of a 2-form), so closedness and the cohomology class are preserved to
roundoff by any linear time integrator; no post-step projection is applied.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import riemann
from .g2algebra import G2Structure, NotPositive, expand_form, i_phi
from .lattice import FormField, exterior_derivative, is_number

KINDS = ("laplacian", "deturck")

# Post-step structural tolerances, relative to max|phi|.
CLOSED_TOL = 1e-9
HARMONIC_TOL = 1e-10

# Roundoff allowance on the (positive) t_end, relative: a run this close to
# t_end has reached it, and a step past it by no more keeps its full dt.
END_RTOL = 1e-9


class NotClosed(Exception):
    """Raised when a closed-structure formula is applied to a non-closed form."""


class StepFailed(Exception):
    """Raised after repeated step rejections (positivity loss or blow-up)."""

    def __init__(self, message, state=None, step=None):
        super().__init__(message)
        self.state = state
        self.step = step


@dataclass(frozen=True)
class FlowState:
    """Time stamp, evolving structure and the fixed reference structure."""

    t: float
    structure: G2Structure
    reference: G2Structure
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown flow kind {self.kind!r}")

    def theta(self) -> np.ndarray:
        return self.structure.phi.data - self.reference.phi.data


@dataclass
class StepControl:
    """Time-step policy.

    With dt unset the step is cfl_coefficient * (L/n)^2 / (a s) where a is
    the number of active axes and s the largest eigenvalue of g^{-1} over all
    sites. The symbol of the Hodge Laplacian is bounded by s |k|^2, and the
    largest resolved |k|^2 is a (pi (1 - 2/n) / h)^2 (spectral) or
    a (1.372 / h)^2 (fd4), so cfl_coefficient <= 0.28 keeps it inside the
    RK4 stability interval [-2.785, 0] on every lattice. A set dt is used
    as is; max_dt, when set, caps either step.
    """

    t_end: float = 10.0
    dt: float = None
    cfl_coefficient: float = 0.2
    max_dt: float = None
    stop_tolerance: float = 1e-10
    checkpoint_every: int = 200
    max_halvings: int = 10

    def __post_init__(self):
        for name in ("t_end", "dt", "cfl_coefficient", "max_dt"):
            value = getattr(self, name)
            if value is None and name in ("dt", "max_dt"):
                continue
            if not (is_number(value) and 0 < value < np.inf):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        tol = self.stop_tolerance
        if not (is_number(tol) and 0 <= tol < np.inf):
            raise ValueError(f"stop_tolerance must be a finite number >= 0, got {tol!r}")
        for name in ("checkpoint_every", "max_halvings"):
            value = getattr(self, name)
            if not is_number(value, integer=True):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not self.checkpoint_every >= 1:
            raise ValueError("checkpoint_every must be at least 1")
        if not self.max_halvings >= 0:
            raise ValueError("max_halvings must not be negative")


def coexact_part(structure: G2Structure) -> FormField:
    """d* phi = -*d* phi, the 2-form potential of the Hodge Laplacian on closed phi.

    Cached on the structure as "tau2": on closed phi, d* phi is the torsion
    form tau2, so flow_rhs, laplacian_phi_hodge and riemann.torsion_of share
    one d psi per structure.
    """
    data = structure.cached(
        "tau2", lambda: -structure.star(exterior_derivative(structure.psi)).data)
    return FormField(structure.lattice, 2, data)


def dphi_of(structure: G2Structure) -> FormField:
    """d phi, cached on the structure; _validate fills it for every accepted state."""
    data = structure.cached("dphi", lambda: exterior_derivative(structure.phi).data)
    return FormField(structure.lattice, 4, data)


def require_closed(structure: G2Structure) -> None:
    """Raise NotClosed unless max|d phi| <= CLOSED_TOL max|phi|.

    The one closedness rule: _validate applies it to every accepted state,
    and each closed-only formula (both Laplacians of phi, riemann.torsion_of)
    to its input. flow_rhs does not, because an RK4 stage structure has no
    d phi to read.
    """
    dphi_max = dphi_of(structure).max_norm()
    if dphi_max > CLOSED_TOL * max(structure.phi.max_norm(), 1e-300):
        raise NotClosed(f"closedness violated: {dphi_max:.3e}")


def codifferential(structure: G2Structure, alpha: FormField) -> FormField:
    """d* = (-1)^k * d * on k-forms of the 7-torus (adjoint of d)."""
    sign = -1.0 if alpha.degree % 2 else 1.0
    return sign * structure.star(exterior_derivative(structure.star(alpha)))


def hodge_laplacian(structure: G2Structure, alpha: FormField) -> FormField:
    """Hodge Laplacian d d* + d* d of any form in the structure's metric."""
    k = alpha.degree
    out = None
    if k >= 1:
        out = exterior_derivative(codifferential(structure, alpha))
    if k <= 6:
        term = codifferential(structure, exterior_derivative(alpha))
        out = term if out is None else out + term
    return out


def laplacian_phi_hodge(structure: G2Structure) -> FormField:
    """Hodge Laplacian of a closed phi: d d* phi, the Laplacian flow's own velocity.

    d* d phi vanishes on closed phi, so this is d of coexact_part, the
    d tau2 that flow_rhs integrates for kind "laplacian". Raises NotClosed
    on any other phi; hodge_laplacian assembles d d* + d* d for any form.
    """
    require_closed(structure)
    return exterior_derivative(coexact_part(structure))


def intrinsic_h(structure: G2Structure) -> np.ndarray:
    """Symmetric tensor h with Laplacian(phi) = i_phi(h) for closed phi.

    h_ij = -nabla_m T_ni phi_j^mn - |T|^2 g_ij / 3 - T_i^l T_lj, symmetrized
    to remove the discretization-level antisymmetric residue.
    """
    t = riemann.torsion_of(structure)
    g, g_inv = structure.g, structure.g_inv
    batch = g.shape[:-2]
    # phi_j^mn = g^am phi_jab g^bn, one (7, 7) sandwich per j
    phi_mix = (np.swapaxes(g_inv, -1, -2)[..., None, :, :]
               @ expand_form(structure.phi.data, 3) @ g_inv[..., None, :, :])
    # nabla_m T_ni phi_j^mn: (i, mn) @ (mn, j)
    nabla_t = riemann.nabla_torsion_of(structure).reshape(batch + (49, 7))
    grad_term = np.swapaxes(nabla_t, -1, -2) @ np.swapaxes(
        phi_mix.reshape(batch + (7, 49)), -1, -2)
    t_sq = riemann.tensor_norm_sq(t, structure)
    h = -grad_term - (t_sq / 3.0)[..., None, None] * g - t @ g_inv @ t
    return 0.5 * (h + np.swapaxes(h, -1, -2))


def laplacian_phi_intrinsic(structure: G2Structure) -> FormField:
    """i_phi(h) form of the Laplacian; raises NotClosed unless phi is closed."""
    require_closed(structure)
    data = i_phi(intrinsic_h(structure), structure.phi.data, structure)
    return FormField(structure.lattice, 3, data)


def flow_rhs(state: FlowState) -> FormField:
    """Rate of change of phi, returned as d(sigma) so exactness is structural."""
    structure = state.structure
    sigma = coexact_part(structure)
    if state.kind == "deturck":
        sigma = sigma + structure.interior(riemann.deturck_vector(structure, state.reference))
    return exterior_derivative(sigma)


def max_metric_speed(structure: G2Structure) -> float:
    """Largest eigenvalue of g^{-1} over sites (flat-reference symbol bound)."""
    return float(np.max(np.linalg.eigvalsh(structure.g_inv)))


def reached_end(t: float, control: StepControl) -> bool:
    """True once t is at control.t_end, up to roundoff in the summed steps."""
    return t >= control.t_end * (1.0 - END_RTOL)


def propose_dt(state: FlowState, control: StepControl) -> float:
    """Step size from the policy, capped by max_dt and clamped to t_end - t.

    Only a remainder genuinely shorter than dt is clamped. One within
    roundoff of dt takes dt itself, so t follows the same t + dt sums as a
    run to a later t_end, and reached_end holds after the step.
    """
    if control.dt is not None:
        dt = control.dt
    else:
        lattice = state.structure.lattice
        h = lattice.spacing
        dt = (control.cfl_coefficient * h * h
              / (lattice.ndim_active * max_metric_speed(state.structure)))
    if control.max_dt is not None:
        dt = min(dt, control.max_dt)
    if state.t + dt > control.t_end * (1.0 + END_RTOL):
        dt = control.t_end - state.t
    return dt


def _validate(phi: FormField, reference: G2Structure) -> G2Structure:
    """Re-validate the FlowState invariants; raises on violation.

    The returned structure carries its d phi, which the closedness guard of
    the snapshot's Laplacians and torsion reads again.
    """
    structure = G2Structure.from_phi(phi)  # NotPositive on positivity loss
    require_closed(structure)
    theta_mean = phi.lattice.site_mean(phi.data - reference.phi.data)
    if np.max(np.abs(theta_mean)) > HARMONIC_TOL * max(phi.max_norm(), 1e-300):
        raise NotClosed(f"harmonic part drifted: {np.max(np.abs(theta_mean)):.3e}")
    return structure


def step_rk4(state: FlowState, control: StepControl) -> FlowState:
    """One classical RK4 step with rejection and dt halving on invariant loss."""
    dt = propose_dt(state, control)
    phi = state.structure.phi
    k1 = flow_rhs(state)  # independent of dt, so shared by every attempt
    for _ in range(control.max_halvings + 1):
        try:
            s2 = G2Structure.from_phi(phi + (0.5 * dt) * k1)
            k2 = flow_rhs(replace(state, structure=s2))
            s3 = G2Structure.from_phi(phi + (0.5 * dt) * k2)
            k3 = flow_rhs(replace(state, structure=s3))
            s4 = G2Structure.from_phi(phi + dt * k3)
            k4 = flow_rhs(replace(state, structure=s4))
            new_phi = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            structure = _validate(new_phi, state.reference)
        except (NotPositive, NotClosed):
            dt *= 0.5
            continue
        # A step clamped to t_end lands on it exactly, free of roundoff in t + dt.
        t = control.t_end if dt == control.t_end - state.t else state.t + dt
        return replace(state, t=t, structure=structure)
    raise StepFailed(f"step rejected {control.max_halvings + 1} times at t={state.t:.6g}",
                     state=state)


def run_flow(initial: G2Structure, reference: G2Structure, kind: str,
             control: StepControl, sample_interval: int,
             record_cb=None, checkpoint_cb=None,
             t0: float = 0.0, step0: int = 0):
    """Integrate to t_end (or to stop_tolerance on |theta|_L2), sampling diagnostics.

    Returns (final_state, records). record_cb/checkpoint_cb, when given, are
    called as record_cb(record) per sample and checkpoint_cb(state, step) per
    control.checkpoint_every accepted steps (and at the end). t0/step0 resume
    an interrupted run: its first state is sampled iff step0 is a sample
    step, as the uninterrupted run sampled it. The stop test reads the last
    sample, so a resumed and an uninterrupted run stop at the same step.
    After its snapshot, a sampled structure, initial included, caches only
    interior_phi and the tau2 that k1 of the next step reads
    (G2Structure.retain): the snapshot's geometry would otherwise stay
    cached as long as the caller holds the structure.
    """
    from .diagnostics import diagnostic_snapshot  # diagnostics imports this module

    state = FlowState(t=t0, structure=initial, reference=reference, kind=kind)
    records = []

    def sample(st):
        """Record a snapshot; returns its l2_theta for the stop test."""
        rec = diagnostic_snapshot(st)
        st.structure.retain("tau2")
        records.append(rec)
        if record_cb is not None:
            record_cb(rec)
        return rec.l2_theta

    # Off the sample grid, the run got past its last sample, which was
    # therefore above stop_tolerance.
    l2 = sample(state) if step0 % sample_interval == 0 else np.inf
    step = step0
    try:
        while not reached_end(state.t, control) and np.sqrt(l2) >= control.stop_tolerance:
            state = step_rk4(state, control)
            step += 1
            if step % sample_interval == 0:
                l2 = sample(state)
            if checkpoint_cb is not None and step % control.checkpoint_every == 0:
                checkpoint_cb(state, step)
    except StepFailed as exc:
        exc.step = step
        raise
    if step % sample_interval != 0:
        sample(state)
    if checkpoint_cb is not None:
        checkpoint_cb(state, step)
    return state, records
