"""Right-hand sides and time integration for the Laplacian flows.

Both flow kinds return the rate of change of phi as an explicitly exact form
(d of a 2-form), so closedness and the cohomology class are preserved to
roundoff by any linear time integrator; no post-step projection is applied.
"""

import sys
from dataclasses import dataclass, replace

import numpy as np

from . import riemann
from .g2algebra import G2Structure, NotPositive, i_phi
from .lattice import FormField, derivative_symbol, exterior_derivative, require_number

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
    """Raised when a step is rejected (positivity loss or blow-up); names the cause."""

    def __init__(self, message, state=None, step=None):
        super().__init__(message)
        self.state = state
        self.step = step


@dataclass(frozen=True)
class FlowState:
    """Time stamp, evolving structure and the fixed reference 3-form.

    theta is measured from the reference, which is all the flow reads of
    the reference structure. The DeTurck gauge is relative to the flat
    background (riemann.deturck_vector), whose 3-form is the reference of
    every flow the command line runs: flat_reference(lattice).phi.
    """

    t: float
    structure: G2Structure
    reference: FormField
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown flow kind {self.kind!r}")

    def theta(self) -> np.ndarray:
        return self.structure.phi.data - self.reference.data


# The CFL step, taken when dt is unset, is CFL_COEFFICIENT * (L/n)^2 / (a s)
# where a is the number of active axes and s the largest eigenvalue of g^{-1}
# over all sites. The symbol of the Hodge Laplacian is bounded by s |k|^2, and
# the largest resolved |k|^2 is a (pi (1 - 2/n) / h)^2 (spectral) or
# a (1.372 / h)^2 (fd4), so a coefficient <= 0.28 keeps the step inside the
# RK4 stability interval [-RK4_INTERVAL, 0] on every lattice.
# require_stable_dt holds a set dt to the same bound at a state.
CFL_COEFFICIENT = 0.2
RK4_INTERVAL = 2.785


@dataclass
class StepControl:
    """Time-step policy: a set dt is used as is, else the CFL step; one attempt per step."""

    t_end: float = 10.0
    dt: float = None
    stop_tolerance: float = 1e-10
    checkpoint_every: int = 200

    def __post_init__(self):
        # No time is subnormal: sys.float_info.min is the least normal float.
        require_number("t_end", self.t_end, sys.float_info.min)
        if self.dt is not None:
            require_number("dt", self.dt, sys.float_info.min)
        require_number("stop_tolerance", self.stop_tolerance, 0)
        require_number("checkpoint_every", self.checkpoint_every, 1, integer=True)


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
    to remove the discretization-level antisymmetric residue. The first
    term is the cached riemann.torsion_derivative's, built per site block.
    """
    t = riemann.torsion_of(structure)
    g, g_inv = structure.g, structure.g_inv
    grad_term = riemann.torsion_derivative_of(structure).phi_term
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
        sigma = sigma + structure.interior(riemann.deturck_vector(structure))
    return exterior_derivative(sigma)


def max_metric_speed(structure: G2Structure) -> float:
    """Largest eigenvalue of g^{-1} over sites (flat-reference symbol bound)."""
    return float(np.max(np.linalg.eigvalsh(structure.g_inv)))


def require_stable_dt(structure: G2Structure, control: StepControl) -> None:
    """ValueError if a set dt is outside RK4's stability interval at structure.

    The CFL bound above with the scheme's symbol sigma in place of its
    estimate: dt a max sigma^2 max_metric_speed <= RK4_INTERVAL. The CFL
    step, taken when dt is unset, keeps inside it. A caller that sets dt
    checks the starting state before run_flow.
    """
    if control.dt is None:
        return
    lat = structure.lattice
    sigma = derivative_symbol(lat.scheme, lat.points_per_axis, lat.period)
    rate = lat.ndim_active * float(np.max(sigma * sigma)) * max_metric_speed(structure)
    if control.dt * rate > RK4_INTERVAL:
        raise ValueError(
            f"dt {control.dt!r} is outside RK4's stability interval: dt a max sigma^2 "
            f"max eig g^-1 = {control.dt * rate:.4g} > {RK4_INTERVAL} at the "
            f"starting state (dt <= {RK4_INTERVAL / rate:.6g})")


def reached_end(t: float, control: StepControl) -> bool:
    """True once t is at control.t_end, up to roundoff in the summed steps."""
    return t >= control.t_end * (1.0 - END_RTOL)


def propose_dt(state: FlowState, control: StepControl) -> float:
    """The set dt, else the CFL step; clamped to t_end - t.

    Only a remainder genuinely shorter than dt is clamped. One within
    roundoff of dt takes dt itself, so t follows the same t + dt sums as a
    run to a later t_end, and reached_end holds after the step.
    """
    if control.dt is not None:
        dt = control.dt
    else:
        lattice = state.structure.lattice
        h = lattice.spacing
        dt = (CFL_COEFFICIENT * h * h
              / (lattice.ndim_active * max_metric_speed(state.structure)))
    if state.t + dt > control.t_end * (1.0 + END_RTOL):
        dt = control.t_end - state.t
    return dt


def _validate(phi: FormField, reference: FormField) -> G2Structure:
    """Re-validate the FlowState invariants; raises on violation.

    The returned structure carries its d phi, which the closedness guard of
    the snapshot's Laplacians and torsion reads again.
    """
    structure = G2Structure.from_phi(phi)  # NotPositive on positivity loss
    require_closed(structure)
    theta_mean = phi.lattice.site_mean(phi.data - reference.data)
    if np.max(np.abs(theta_mean)) > HARMONIC_TOL * max(phi.max_norm(), 1e-300):
        raise NotClosed(f"harmonic part drifted: {np.max(np.abs(theta_mean)):.3e}")
    return structure


def _slope(state: FlowState, phi: FormField) -> FormField:
    """flow_rhs at the structure of phi, an RK4 stage; the structure is freed on return."""
    return flow_rhs(replace(state, structure=G2Structure.from_phi(phi)))


def step_rk4(state: FlowState, control: StepControl) -> FlowState:
    """One classical RK4 step at the proposed dt; StepFailed if it loses an invariant.

    Each stage structure lives only while its slope is taken (_slope), so
    one stage at a time sits beside the state's structure.
    """
    dt = propose_dt(state, control)
    phi = state.structure.phi
    try:
        k1 = flow_rhs(state)
        k2 = _slope(state, phi + (0.5 * dt) * k1)
        k3 = _slope(state, phi + (0.5 * dt) * k2)
        k4 = _slope(state, phi + dt * k3)
        new_phi = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        structure = _validate(new_phi, state.reference)
    except (NotPositive, NotClosed) as exc:
        raise StepFailed(f"step rejected at t={state.t:.6g}: {type(exc).__name__}: {exc}",
                         state=state) from exc
    # A step clamped to t_end lands on it exactly, free of roundoff in t + dt.
    t = control.t_end if dt == control.t_end - state.t else state.t + dt
    return replace(state, t=t, structure=structure)


def run_flow(initial: G2Structure, reference: FormField, kind: str,
             control: StepControl, sample_interval: int,
             record_cb=None, checkpoint_cb=None,
             t0: float = 0.0, step0: int = 0):
    """Integrate to t_end (or to stop_tolerance on |theta|_L2), sampling diagnostics.

    Returns (final_state, records). record_cb/checkpoint_cb, when given, are
    called as record_cb(record) per sample and checkpoint_cb(state, step) once
    per step number: every control.checkpoint_every accepted steps, and at the
    end unless the last step was one of those. t0/step0 resume
    an interrupted run: its first state is sampled iff step0 is a sample
    step, as the uninterrupted run sampled it. The stop test reads the last
    sample, so a resumed and an uninterrupted run stop at the same step.
    After its snapshot, a sampled structure, initial included, caches only
    interior_phi and the tau2 that k1 of the next step reads
    (G2Structure.retain): the snapshot's geometry would otherwise stay
    cached as long as the caller holds the structure. Nor does run_flow
    keep the initial structure past step 1, so a caller that hands over
    its only reference has it freed then.
    """
    from .diagnostics import diagnostic_snapshot  # diagnostics imports this module

    state = FlowState(t=t0, structure=initial, reference=reference, kind=kind)
    del initial  # the state holds it until step 1 replaces the state
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
    if checkpoint_cb is not None and (step == step0 or step % control.checkpoint_every != 0):
        checkpoint_cb(state, step)
    return state, records
