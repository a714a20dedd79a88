"""Flow right-hand sides, RK4 stepping and structural preservation."""

import numpy as np
import pytest

from g2flow import diagnostics, flow
from g2flow import g2algebra as g2
from g2flow import riemann, tables
from g2flow.lattice import FormField, Lattice, exterior_derivative

import oracles
from conftest import band_limited_form, closed_perturbed_phi

TWO_PI = 2.0 * np.pi


def lowest_mode_initial(lat, eps, component=(1, 2)):
    """phi0 + d(eps sin(x_first) e^component) on the first active axis."""
    x = lat.coordinate(lat.active_axes[0])
    beta = np.zeros(lat.grid_shape + (21,))
    pos = tables.index_position(2)
    beta[..., pos[component]] = eps * np.broadcast_to(
        np.sin(TWO_PI * x / lat.period), lat.grid_shape)
    theta0 = exterior_derivative(FormField(lat, 2, beta))
    return g2.G2Structure.from_phi(FormField(lat, 3, g2.PHI0 + theta0.data)), theta0


@pytest.fixture(scope="module")
def closed_structure_32():
    lat = Lattice((1, 2), 32, TWO_PI)
    st = g2.G2Structure.from_phi(
        closed_perturbed_phi(lat, np.random.default_rng(31), amp=3e-3))
    return st, lat


# --- codifferential and Hodge Laplacian -------------------------------------------

def test_adjointness_of_codifferential(rng, closed_structure_32):
    # <d a, c> = <a, d* c> integrated, in the curved metric, for fields
    # sharing mode content so the integrals are far from zero
    st, lat = closed_structure_32
    x1, x2 = lat.coordinate(1), lat.coordinate(2)

    def shared_mode(degree, seed):
        r = np.random.default_rng(seed)
        d = np.zeros(lat.grid_shape + (tables.num_components(degree),))
        for (k1, k2) in ((1, 0), (0, 1), (1, 1), (2, 1)):
            c = r.integers(0, tables.num_components(degree))
            d[..., c] += r.normal() * np.broadcast_to(
                np.cos(k1 * x1 + k2 * x2 + r.uniform(0, TWO_PI)), lat.grid_shape)
        return FormField(lat, degree, d)

    def inner(alpha, beta):
        return g2.form_inner(alpha.data, beta.data, alpha.degree, st)

    checked = 0
    for k in (0, 1, 2, 3):
        a = shared_mode(k, 100 + k)
        c = shared_mode(k + 1, 200 + k)
        lhs = lat.integrate(inner(exterior_derivative(a), c), vol_density=st.vol)
        rhs = lat.integrate(inner(a, flow.codifferential(st, c)), vol_density=st.vol)
        scale = (lat.integrate(inner(c, c), vol_density=st.vol)
                 * lat.integrate(inner(a, a), vol_density=st.vol)) ** 0.5
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), scale)
        if abs(lhs) > 1e-3 * scale:
            checked += 1
    assert checked >= 2  # the test actually exercised nonzero pairings


def test_laplacian_zero_at_torsion_free():
    lat = Lattice((1,), 16, TWO_PI)
    ref = g2.flat_reference(lat)
    assert flow.laplacian_phi_hodge(ref).max_norm() < 1e-13
    assert flow.laplacian_phi_intrinsic(ref).max_norm() < 1e-13


def test_laplacian_small_perturbation_first_order_oracle():
    # phi = phi0 + theta with theta = eps cos(x1) e^123. Decomposing e^123
    # into types (1/7 phi0 plus a 27-part, no 7-part since e^123 ^ phi0 = 0)
    # and pushing it through the 4-form variation
    # 4 f0 psi0 + f1 ^ phi0 - *f3 of the dual form gives, after -d * d,
    # the first-order value eps cos(x1) (-2/3 e^123 + 1/3 e^145 + 1/3 e^167).
    # The quadratic remainder is O(eps^2).
    lat = Lattice((1,), 32, TWO_PI)
    eps = 1e-5
    st, theta0 = lowest_mode_initial(lat, eps, component=(1, 2))
    lap = flow.laplacian_phi_hodge(st)
    x = lat.coordinate(1)[..., None]
    pos = tables.index_position(3)
    oracle = np.zeros(lat.grid_shape + (35,))
    wave = eps * np.cos(TWO_PI * x[..., 0] / lat.period)
    oracle[..., pos[(0, 1, 2)]] = -(2.0 / 3.0) * wave
    oracle[..., pos[(0, 3, 4)]] = (1.0 / 3.0) * wave
    oracle[..., pos[(0, 5, 6)]] = (1.0 / 3.0) * wave
    assert np.max(np.abs(lap.data - oracle)) < 50 * eps ** 2
    # the Fourier-multiplier form Delta_flat(d beta) = |k|^2 d(beta) is NOT
    # the linearization of the ungauged operator; the gauge-fixed one is
    # (see test_deturck_linearization_centered)
    assert np.max(np.abs(lap.data - theta0.data)) > eps


@pytest.mark.parametrize(
    "formula", [flow.laplacian_phi_intrinsic, flow.laplacian_phi_hodge, riemann.torsion_of],
    ids=["laplacian_phi_intrinsic", "laplacian_phi_hodge", "torsion_of"])
def test_intrinsic_requires_closed(rng, formula):
    # a closed phi passes; a non-closed bump raises, from max|d phi| of 1e-2
    # max|phi| down to 1e-8, between CLOSED_TOL (1e-9) and 1e-6, so that a
    # closed-only formula accepts no form that _validate rejects
    lat = Lattice((1, 2), 16, TWO_PI)
    closed = closed_perturbed_phi(lat, rng, amp=1e-2)
    formula(g2.G2Structure.from_phi(closed))
    bump = band_limited_form(lat, 3, rng)
    bump = bump * (closed.max_norm() / exterior_derivative(bump).max_norm())
    for rel_dphi in (1e-2, 1e-8):
        phi = closed + rel_dphi * bump
        with pytest.raises(flow.NotClosed, match="closedness violated"):
            flow._validate(phi, g2.flat_reference(lat))
        with pytest.raises(flow.NotClosed, match="closedness violated"):
            formula(g2.G2Structure.from_phi(phi))


def test_hodge_vs_intrinsic_cross_validation(closed_structure_32):
    st, lat = closed_structure_32
    rh = flow.laplacian_phi_hodge(st)
    ri = flow.laplacian_phi_intrinsic(st)
    assert (rh - ri).max_norm() <= 1e-5 * rh.max_norm()


def test_laplacian_trace_pairing(closed_structure_32):
    # <Laplacian(phi), phi> = 3 tr_g h pointwise, via i_phi(g) = 3 phi and
    # type orthogonality; both sides computed independently
    st, lat = closed_structure_32
    lap = flow.laplacian_phi_hodge(st)
    lhs = g2.form_inner(lap.data, st.phi.data, 3, st)
    h = flow.intrinsic_h(st)
    rhs = 3.0 * np.einsum("...ij,...ij->...", st.g_inv, h)
    assert np.max(np.abs(lhs - rhs)) < 1e-6 * max(np.max(np.abs(rhs)), 1e-300)


# --- flow RHS ---------------------------------------------------------------------

def test_rhs_zero_at_reference():
    lat = Lattice((1,), 16, TWO_PI)
    ref = g2.flat_reference(lat)
    for kind in flow.KINDS:
        state = flow.FlowState(0.0, ref, ref, kind)
        assert flow.flow_rhs(state).max_norm() < 1e-13


def test_rhs_deturck_equals_laplacian_when_metric_flat():
    # pointwise rotations keep g euclidean, so V = 0 and both kinds agree
    lat = Lattice((1,), 16, TWO_PI)
    angle = 0.2 * np.sin(lat.coordinate(1))
    rot = np.zeros(lat.grid_shape + (7, 7))
    rot[..., :, :] = np.eye(7)
    rot[..., 0, 0] = np.cos(angle)
    rot[..., 0, 1] = -np.sin(angle)
    rot[..., 1, 0] = np.sin(angle)
    rot[..., 1, 1] = np.cos(angle)
    full = np.einsum("...ai,...bj,...ck,abc->...ijk", rot, rot, rot,
                     g2.expand_form(g2.PHI0, 3))
    st = g2.G2Structure.from_phi(FormField(lat, 3, g2.compress_form(full, 3)))
    ref = g2.flat_reference(lat)
    r_lap = flow.flow_rhs(flow.FlowState(0.0, st, ref, "laplacian"))
    r_det = flow.flow_rhs(flow.FlowState(0.0, st, ref, "deturck"))
    assert (r_lap - r_det).max_norm() < 1e-10 * max(r_lap.max_norm(), 1e-300)


def test_rhs_is_exact_form(closed_structure_32):
    st, lat = closed_structure_32
    ref = g2.flat_reference(lat)
    for kind in flow.KINDS:
        rhs = flow.flow_rhs(flow.FlowState(0.0, st, ref, kind))
        d_rhs = exterior_derivative(rhs)
        assert d_rhs.max_norm() <= 1e-12 * max(rhs.max_norm(), 1e-300)
        assert np.max(np.abs(lat.site_mean(rhs.data))) <= 1e-14 * max(rhs.max_norm(), 1e-300)


def test_deturck_linearization_centered():
    # centered finite difference of the gauge-fixed RHS converges to the
    # negative flat Hodge Laplacian at quadratic rate in epsilon
    lat = Lattice((1, 2), 32, TWO_PI)
    ref = g2.flat_reference(lat)
    x1, x2 = lat.coordinate(1), lat.coordinate(2)
    pos = tables.index_position(2)
    b = np.zeros(lat.grid_shape + (21,))
    b[..., pos[(3, 4)]] = np.broadcast_to(np.sin(x1) + 0.3 * np.cos(2 * x2),
                                          lat.grid_shape)
    b[..., pos[(0, 6)]] = np.broadcast_to(np.sin(x1 + x2), lat.grid_shape)
    dbeta = exterior_derivative(FormField(lat, 2, b))
    target = -1.0 * flow.hodge_laplacian(ref, dbeta).data
    errs = []
    for e in (1e-2, 1e-3):
        sp = g2.G2Structure.from_phi(FormField(lat, 3, g2.PHI0 + e * dbeta.data))
        sm = g2.G2Structure.from_phi(FormField(lat, 3, g2.PHI0 - e * dbeta.data))
        rp = flow.flow_rhs(flow.FlowState(0.0, sp, ref, "deturck")).data
        rm = flow.flow_rhs(flow.FlowState(0.0, sm, ref, "deturck")).data
        errs.append(np.max(np.abs((rp - rm) / (2 * e) - target)))
    slope = np.log(errs[1] / errs[0]) / np.log(0.1)
    assert 1.9 <= slope <= 2.1


# --- RK4 stepping -----------------------------------------------------------------

def test_step_leaves_stationary_point_fixed():
    lat = Lattice((1,), 16, TWO_PI)
    ref = g2.flat_reference(lat)
    state = flow.FlowState(0.0, ref, ref, "deturck")
    control = flow.StepControl(t_end=1.0)
    out = flow.step_rk4(state, control)
    assert (out.structure.phi - ref.phi).max_norm() < 1e-14
    assert out.t > 0


def test_step_matches_scalar_exponential_oracle():
    # linearized single-mode problem decays like exp(-|k|^2 dt); one RK4 step
    # reproduces it to O(dt^5) (plus the O(eps) nonlinear remainder)
    lat = Lattice((1,), 32, TWO_PI)
    eps = 1e-7
    st, theta0 = lowest_mode_initial(lat, eps)
    ref = g2.flat_reference(lat)
    dt = 0.05
    control = flow.StepControl(t_end=1.0, dt=dt)
    out = flow.step_rk4(flow.FlowState(0.0, st, ref, "deturck"), control)
    theta1 = out.structure.phi.data - ref.phi.data
    ratio = np.sum(theta1 * theta0.data) / np.sum(theta0.data * theta0.data)
    x = dt  # |k|^2 (2 pi / L)^2 = 1 for the lowest mode at L = 2 pi
    rk4_poly = 1 - x + x ** 2 / 2 - x ** 3 / 6 + x ** 4 / 24
    assert abs(ratio - rk4_poly) < 1e-6 * dt  # nonlinear remainder only
    assert abs(ratio - np.exp(-x)) < x ** 5 / 100


def test_accepted_step_calls_four_stages_and_one_validation(monkeypatch):
    # the call structure the benchmark's traced check counts per RK4 attempt:
    # from_phi for the three inner stages and in _validate, flow_rhs per stage
    lat = Lattice((1, 2), 8, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, np.random.default_rng(5)))
    ref = g2.flat_reference(lat)
    calls = {"from_phi": 0, "flow_rhs": 0, "_validate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    from_phi = g2.G2Structure.from_phi.__func__
    monkeypatch.setattr(g2.G2Structure, "from_phi",
                        classmethod(counted("from_phi", from_phi)))
    monkeypatch.setattr(flow, "flow_rhs", counted("flow_rhs", flow.flow_rhs))
    monkeypatch.setattr(flow, "_validate", counted("_validate", flow._validate))
    out = flow.step_rk4(flow.FlowState(0.0, st, ref, "deturck"),
                        flow.StepControl(t_end=1.0, dt=1e-3))
    assert out.t == 1e-3  # accepted at the proposed dt, no halving
    assert calls == {"from_phi": 4, "flow_rhs": 4, "_validate": 1}


def test_rejected_step_evaluates_k1_once(monkeypatch):
    # dt = 10 loses positivity and dt = 5 is accepted; k1 = flow_rhs(state)
    # does not depend on dt, so the start state is evaluated once, not per attempt
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-2)  # mode 1 on e^23
    ref = g2.flat_reference(lat)
    state = flow.FlowState(0.0, st, ref, "deturck")
    flow_rhs = flow.flow_rhs
    on_start = []

    def counted(s):
        if s is state:
            on_start.append(s)
        return flow_rhs(s)

    monkeypatch.setattr(flow, "flow_rhs", counted)
    out = flow.step_rk4(state, flow.StepControl(t_end=10.0, dt=10.0, max_halvings=3))
    assert out.t == 5.0
    assert len(on_start) == 1


def test_temporal_self_convergence():
    # halving dt reduces the end-state error ~16x (classical 4th order);
    # the base dt keeps every resolved mode inside the stability region
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-2)
    ref = g2.flat_reference(lat)
    t_end = 0.8
    finals = []
    for dt in (0.04, 0.02, 0.01):
        state = flow.FlowState(0.0, st, ref, "deturck")
        control = flow.StepControl(t_end=t_end, dt=dt)
        while state.t < t_end - 1e-12:
            state = flow.step_rk4(state, control)
        finals.append(state.structure.phi.data)
    e1 = np.max(np.abs(finals[0] - finals[1]))
    e2 = np.max(np.abs(finals[1] - finals[2]))
    assert 11.0 <= e1 / e2 <= 21.0


def test_step_failure_after_rejections():
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-2)
    ref = g2.flat_reference(lat)
    # an end time far past the step, so the step is not clamped to t_end - t
    control = flow.StepControl(t_end=1e300, dt=1e6, max_halvings=2)
    with pytest.raises(flow.StepFailed):
        flow.step_rk4(flow.FlowState(0.0, st, ref, "laplacian"), control)


def test_run_flow_step_failure_carries_state():
    # an over-CFL fixed step with no halvings allowed blows up within a few
    # steps and surfaces the last good state on the exception
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-2)
    ref = g2.flat_reference(lat)
    control = flow.StepControl(t_end=10.0, dt=2.0, max_halvings=0)
    with pytest.raises(flow.StepFailed) as exc_info:
        flow.run_flow(st, ref, "laplacian", control, sample_interval=1000)
    assert exc_info.value.state is not None
    assert exc_info.value.step is not None


# --- run_flow ---------------------------------------------------------------------

@pytest.mark.parametrize("dt,steps", [(0.03, 4), (0.01, 10)])
def test_run_flow_ends_at_non_dyadic_t_end(dt, steps):
    # 0.03 does not divide 0.1: the last step is clamped to 0.01 instead of
    # overshooting to 0.12. Ten sums of 0.01 fall short of 0.1 by roundoff:
    # the tenth step is a full one, it reaches t_end and no sliver step follows.
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    ref = g2.flat_reference(lat)
    control = flow.StepControl(t_end=0.1, dt=dt)
    done = []
    final, records = flow.run_flow(st, ref, "deturck", control, sample_interval=100,
                                   checkpoint_cb=lambda state, step: done.append(step))
    assert final.t == pytest.approx(0.1, rel=1e-12)
    assert final.t <= 0.1
    assert records[-1].t == final.t
    assert flow.reached_end(final.t, control)
    assert done == [steps]


@pytest.mark.parametrize("scheme, oracle", [("spectral", oracles.fft_partial),
                                            ("fd4", oracles.fd4_partial)])
def test_default_step_inside_rk4_interval(scheme, oracle):
    # dt * lambda_max <= 2.785 (RK4's real stability interval) for the default
    # and the largest documented cfl_coefficient; lambda_max = s a max|sigma|^2
    # with s = 1/scale^2 for phi = scale^3 phi0 (g = scale^2 I)
    scale, period = 1.25, 1.7
    ns = (8, 10, 16, 32) if scheme == "spectral" else (5, 6, 7, 9, 16, 32)
    for a in (1, 2, 3):
        for n in ns:
            if a == 3 and n > 16:
                continue  # 32^3 sites add run time and no new symbol
            lat = Lattice(tuple(range(1, a + 1)), n, period, scheme)
            st = g2.G2Structure.from_phi(FormField.constant(lat, 3, scale ** 3 * g2.PHI0))
            assert np.isclose(flow.max_metric_speed(st), scale ** -2)
            sigma = oracles.derivative_symbol(lambda f: oracle(f, 0, period), n)
            lam_max = a * np.max(sigma) ** 2 / scale ** 2
            for c in (0.2, 0.28):
                control = flow.StepControl(t_end=1e300, cfl_coefficient=c)
                dt = flow.propose_dt(flow.FlowState(0.0, st, st, "deturck"), control)
                assert dt * lam_max <= 2.785, (scheme, a, n, c)


def test_step_clamped_to_short_remainder_lands_on_t_end():
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    ref = g2.flat_reference(lat)
    control = flow.StepControl(t_end=0.1, dt=0.03)
    state = flow.FlowState(0.09, st, ref, "deturck")
    assert flow.propose_dt(state, control) == 0.1 - 0.09
    assert flow.step_rk4(state, control).t == 0.1


def test_sampled_structures_keep_only_what_the_next_step_reads(rng):
    # the snapshot's d phi, connection, curvature, torsion and nabla T go
    # once it is recorded; u = e_i . phi and the tau2 that k1 reads stay
    lat = Lattice((1, 2), 8, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng))
    control = flow.StepControl(t_end=3 * 2.0 ** -6, dt=2.0 ** -6)
    final, records = flow.run_flow(st, g2.flat_reference(lat), "deturck", control,
                                   sample_interval=1)
    assert len(records) == 4
    for structure in (st, final.structure):
        assert set(structure._cache) == {"interior_phi", "tau2"}


def test_resumed_run_flow_snapshots_only_the_samples_it_records(monkeypatch):
    # a resume off the sample grid takes no snapshot at the resume point
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    ref = g2.flat_reference(lat)
    snapshot = diagnostics.diagnostic_snapshot
    calls = []
    monkeypatch.setattr(diagnostics, "diagnostic_snapshot",
                        lambda state: calls.append(state.t) or snapshot(state))
    written = []
    control = flow.StepControl(t_end=0.1, dt=0.01)
    _, records = flow.run_flow(st, ref, "deturck", control, sample_interval=2,
                               record_cb=written.append, t0=0.05, step0=5)
    assert len(calls) == len(written) == len(records) == 3  # steps 6, 8 and 10
    assert calls == [r.t for r in written]
    assert min(calls) > 0.05


def test_resumed_run_flow_stops_where_the_uninterrupted_run_stops():
    # |theta| falls below stop_tolerance at step 11, between the samples at
    # steps 10 and 15; the uninterrupted run sees it at step 15
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    ref = g2.flat_reference(lat)
    states = {}
    probe = flow.StepControl(t_end=1.0, dt=0.05, checkpoint_every=1)
    flow.run_flow(st, ref, "deturck", probe, sample_interval=5,
                  checkpoint_cb=lambda state, step: states.setdefault(step, state))
    norm = {k: np.sqrt(diagnostics.flat_l2(lat, s.theta())) for k, s in states.items()}
    tol = 0.5 * (norm[10] + norm[11])
    control = flow.StepControl(t_end=3.0, dt=0.05, stop_tolerance=tol)
    full, full_records = flow.run_flow(st, ref, "deturck", control, sample_interval=5)
    resumed, records = flow.run_flow(states[11].structure, ref, "deturck", control,
                                     sample_interval=5, t0=states[11].t, step0=11)
    assert full.t == resumed.t == states[15].t
    assert [r.to_dict() for r in records] == [r.to_dict() for r in full_records[-1:]]


def test_run_flow_immediate_stop_at_reference():
    lat = Lattice((1,), 16, TWO_PI)
    ref = g2.flat_reference(lat)
    control = flow.StepControl(t_end=1.0)
    final, records = flow.run_flow(ref, ref, "deturck", control, sample_interval=10)
    assert final.t == 0.0
    assert len(records) == 1
    assert records[0].l2_theta == 0.0


def test_run_flow_preserves_exactness_and_closure():
    lat = Lattice((1,), 32, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    ref = g2.flat_reference(lat)
    control = flow.StepControl(t_end=0.5)
    final, records = flow.run_flow(st, ref, "deturck", control, sample_interval=5)
    for rec in records:
        assert rec.harmonic_residual <= 1e-10 * np.max(np.abs(g2.PHI0))
    dphi = exterior_derivative(final.structure.phi)
    assert dphi.max_norm() <= 1e-9 * final.structure.phi.max_norm()


def test_metric_evolution_identity_along_flow():
    # (g(t+dt) - g(t)) / dt = 2 h(t+dt/2) + O(dt^2): integrate at dt/2 and
    # compare across two substeps
    lat = Lattice((1,), 32, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    ref = g2.flat_reference(lat)
    half = 0.002
    control = flow.StepControl(t_end=1.0, dt=half)
    s0 = flow.FlowState(0.0, st, ref, "laplacian")
    s1 = flow.step_rk4(s0, control)
    s2 = flow.step_rk4(s1, control)
    fd = (s2.structure.g - s0.structure.g) / (2 * half)
    h_mid = flow.intrinsic_h(s1.structure)
    err = np.max(np.abs(fd - 2.0 * h_mid))
    scale = np.max(np.abs(2.0 * h_mid))
    assert err <= scale * (0.05 + 50 * half ** 2)  # O(dt^2) + spatial roundoff

    # halving dt improves the finite-difference residual ~4x
    quarter = half / 2
    control_q = flow.StepControl(t_end=1.0, dt=quarter)
    q1 = flow.step_rk4(s0, control_q)
    q2 = flow.step_rk4(q1, control_q)
    fd_q = (q2.structure.g - s0.structure.g) / (2 * quarter)
    err_q = np.max(np.abs(fd_q - 2.0 * flow.intrinsic_h(q1.structure)))
    assert 2.5 <= err / err_q <= 6.0


def test_metric_evolution_formula_2h(closed_structure_32):
    # 2h = -2 Ric - (2/3)|T|^2 g - 4 T.T pointwise
    st, lat = closed_structure_32
    h = flow.intrinsic_h(st)
    curv = riemann.curvature_of(st)
    t = riemann.torsion_of(st)
    t_sq = riemann.tensor_norm_sq(t, st)
    rhs = (-2.0 * curv.ric - (2.0 / 3.0) * t_sq[..., None, None] * st.g
           - 4.0 * np.einsum("...ia,...ab,...bj->...ij", t, st.g_inv, t))
    scale = max(np.max(np.abs(rhs)), 1e-300)
    assert np.max(np.abs(2.0 * h - rhs)) <= 1e-6 * scale


def test_volume_form_evolution_pointwise():
    # d(vol)/dt = (2/3)|T|^2 vol along the ungauged flow, centered difference
    lat = Lattice((1,), 32, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    ref = g2.flat_reference(lat)
    dt = 0.004
    control = flow.StepControl(t_end=1.0, dt=dt)
    s0 = flow.FlowState(0.0, st, ref, "laplacian")
    s1 = flow.step_rk4(s0, control)
    s2 = flow.step_rk4(s1, control)
    fd = (s2.structure.vol - s0.structure.vol) / (2 * dt)
    t_mid = riemann.torsion_of(s1.structure)
    t_sq = riemann.tensor_norm_sq(t_mid, s1.structure)
    rate = (2.0 / 3.0) * t_sq * s1.structure.vol
    assert np.max(np.abs(fd - rate)) <= 1e-4 * max(np.max(np.abs(rate)), 1e-300)


def test_run_flow_cross_residual_recorded():
    lat = Lattice((1,), 32, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    ref = g2.flat_reference(lat)
    control = flow.StepControl(t_end=0.3)
    _, records = flow.run_flow(st, ref, "laplacian", control, sample_interval=10)
    assert all(rec.rhs_cross_residual <= 1e-5 for rec in records)
