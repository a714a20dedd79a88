"""Flow right-hand sides, RK4 stepping and structural preservation."""

import functools
import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from g2flow import diagnostics, flow
from g2flow import io as ckpt
from g2flow import g2algebra as g2
from g2flow import riemann, tables
from g2flow.config import RunConfig
from g2flow.lattice import FormField, Lattice, exterior_derivative

import oracles
from conftest import band_limited_form, closed_perturbed_phi
from test_golden import ABSOLUTE, GOLDEN_ATOL, MODES_1D, MODES_2D, MODES_3D

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
            flow._validate(phi, g2.flat_reference(lat).phi)
        with pytest.raises(flow.NotClosed, match="closedness violated"):
            formula(g2.G2Structure.from_phi(phi))


def test_hodge_vs_intrinsic_cross_validation(closed_structure_32):
    st, lat = closed_structure_32
    rh = flow.laplacian_phi_hodge(st)
    ri = flow.laplacian_phi_intrinsic(st)
    assert (rh - ri).max_norm() <= 1e-5 * rh.max_norm()


def _laplacian_gap(n, scheme):
    """max |d tau2 - i_phi(h)| at 2-D n of MODES_2D, each mode at amplitude 0.03."""
    cfg = RunConfig.from_dict({
        "lattice": {"active_axes": [1, 2], "points_per_axis": n, "scheme": scheme},
        "perturbation": [dict(mode, amplitude=0.03) for mode in MODES_2D]})
    st = cfg.build_initial()
    return (flow.laplacian_phi_hodge(st) - flow.laplacian_phi_intrinsic(st)).max_norm()


def test_laplacian_gap_falls_under_refinement(monkeypatch):
    # The two Laplacians agree up to discretization error: spectrally to
    # roundoff at n=32 (1.2e-12), and at fd4's order, 7.8e-5 -> 2.7e-5 from
    # n=24 to 32 against (32/24)^4 = 3.2.
    spectral = _laplacian_gap(32, "spectral")
    assert spectral < 1e-11
    assert _laplacian_gap(24, "fd4") >= 2.5 * _laplacian_gap(32, "fd4")
    # an h 1% off is an O(|Laplacian|) gap (1.8e-3), far above roundoff
    intrinsic_h = flow.intrinsic_h
    monkeypatch.setattr(flow, "intrinsic_h", lambda st: 0.99 * intrinsic_h(st))
    assert _laplacian_gap(32, "spectral") >= 1e3 * spectral


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
        state = flow.FlowState(0.0, ref, ref.phi, kind)
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
    r_lap = flow.flow_rhs(flow.FlowState(0.0, st, ref.phi, "laplacian"))
    r_det = flow.flow_rhs(flow.FlowState(0.0, st, ref.phi, "deturck"))
    assert (r_lap - r_det).max_norm() < 1e-10 * max(r_lap.max_norm(), 1e-300)


def test_rhs_is_exact_form(closed_structure_32):
    st, lat = closed_structure_32
    ref = g2.flat_reference(lat)
    for kind in flow.KINDS:
        rhs = flow.flow_rhs(flow.FlowState(0.0, st, ref.phi, kind))
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
        rp = flow.flow_rhs(flow.FlowState(0.0, sp, ref.phi, "deturck")).data
        rm = flow.flow_rhs(flow.FlowState(0.0, sm, ref.phi, "deturck")).data
        errs.append(np.max(np.abs((rp - rm) / (2 * e) - target)))
    slope = np.log(errs[1] / errs[0]) / np.log(0.1)
    assert 1.9 <= slope <= 2.1


# --- RK4 stepping -----------------------------------------------------------------

def test_step_leaves_stationary_point_fixed():
    lat = Lattice((1,), 16, TWO_PI)
    ref = g2.flat_reference(lat)
    state = flow.FlowState(0.0, ref, ref.phi, "deturck")
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
    out = flow.step_rk4(flow.FlowState(0.0, st, ref.phi, "deturck"), control)
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
    out = flow.step_rk4(flow.FlowState(0.0, st, ref.phi, "deturck"),
                        flow.StepControl(t_end=1.0, dt=1e-3))
    assert out.t == 1e-3  # the proposed dt, attempted once
    assert calls == {"from_phi": 4, "flow_rhs": 4, "_validate": 1}


def test_temporal_self_convergence():
    # halving dt reduces the end-state error ~16x (classical 4th order);
    # the base dt keeps every resolved mode inside the stability region
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-2)
    ref = g2.flat_reference(lat)
    t_end = 0.8
    finals = []
    for dt in (0.04, 0.02, 0.01):
        state = flow.FlowState(0.0, st, ref.phi, "deturck")
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
    control = flow.StepControl(t_end=1e300, dt=1e6)
    with pytest.raises(flow.StepFailed):
        flow.step_rk4(flow.FlowState(0.0, st, ref.phi, "laplacian"), control)


def test_run_flow_step_failure_carries_state():
    # an over-CFL fixed step blows up within a few steps and surfaces the
    # last good state on the exception
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-2)
    ref = g2.flat_reference(lat)
    control = flow.StepControl(t_end=10.0, dt=2.0)
    with pytest.raises(flow.StepFailed) as exc_info:
        flow.run_flow(st, ref.phi, "laplacian", control, sample_interval=1000)
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
    final, records = flow.run_flow(st, ref.phi, "deturck", control, sample_interval=100,
                                   checkpoint_cb=lambda state, step: done.append(step))
    assert final.t == pytest.approx(0.1, rel=1e-12)
    assert final.t <= 0.1
    assert records[-1].t == final.t
    assert flow.reached_end(final.t, control)
    assert done == [steps]


@pytest.mark.parametrize("every, t0, step0, want", [(1, 0.0, 0, [1, 2, 3, 4]),
                                                     (2, 0.0, 0, [2, 4]),
                                                     (3, 0.0, 0, [3, 4]),
                                                     (1, 0.04, 4, [4])],
                         ids=["every1", "every2", "every3", "no_step"])
def test_run_flow_checkpoints_each_step_once(every, t0, step0, want):
    # four steps of 0.01, or none from a resume at t_end: the last state is
    # written once, whether or not its step is a checkpoint step
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    control = flow.StepControl(t_end=0.04, dt=0.01, checkpoint_every=every)
    done = []
    flow.run_flow(st, g2.flat_reference(lat).phi, "deturck", control, sample_interval=100,
                  checkpoint_cb=lambda state, step: done.append(step), t0=t0, step0=step0)
    assert done == want


def test_run_flow_frees_the_initial_structure_after_step_1():
    # the caller hands over its only reference; none in run_flow outlives step 1
    lat = Lattice((1,), 16, TWO_PI)
    initial = []

    def built():
        st, _ = lowest_mode_initial(lat, 1e-3)
        initial.append(weakref.ref(st))
        return st

    alive = []

    def checkpoint_cb(state, step):
        gc.collect()
        alive.append(initial[0]() is not None)

    control = flow.StepControl(t_end=0.03, dt=0.01, checkpoint_every=1)
    flow.run_flow(built(), g2.flat_reference(lat).phi, "deturck", control, sample_interval=1,
                  checkpoint_cb=checkpoint_cb)
    assert alive == [False, False, False]


def _traced_peak(fn) -> int:
    """Bytes of the tracemalloc peak of fn() above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_step_peak_holds_one_stage_structure():
    # 3-D n=8, from a state as a run holds it (its tau2 cached): with the
    # three stage structures alive until _validate returned the step peaked
    # at 4.6 connections (6.2 MiB) above that, with each freed once its slope
    # is taken at 1.7
    lat = Lattice((1, 2, 3), 8, TWO_PI)
    ref = g2.flat_reference(lat).phi
    state = flow.FlowState(0.0, flow._validate(closed_perturbed_phi(
        lat, np.random.default_rng(2)), ref), ref, "deturck")
    flow.flow_rhs(state)
    state.structure.retain("tau2")
    connection = np.prod(lat.grid_shape) * 343 * 8
    peak = _traced_peak(lambda: flow.step_rk4(state, flow.StepControl(t_end=1.0, dt=1e-3)))
    assert peak < 2 * connection, f"{peak / connection:.2f} connections"


def test_diag_3d_shaped_run_peak(tmp_path):
    # 3-D n=8 DeTurck, 3 steps, a snapshot and a checkpoint after every step:
    # above the initial structure, run_flow peaked at 7.8 connections
    # (10.5 MiB, fresh process) with whole-grid dGamma, Christoffel stack and
    # nabla T, RK4 stages alive to the end of each step and the C^k stack
    # taken level by level; with those per block, freed or depth first, at
    # 5.4 in a fresh process and 5.1 in the suite, where the tables it
    # builds on first use already exist
    lat = Lattice((1, 2, 3), 8, TWO_PI)
    initial = [g2.G2Structure.from_phi(closed_perturbed_phi(lat, np.random.default_rng(3)))]
    ref = g2.flat_reference(lat).phi
    control = flow.StepControl(t_end=3e-3, dt=1e-3, checkpoint_every=1)
    done = []

    def checkpoint_cb(state, step):
        done.append(ckpt.write_form_field(tmp_path / f"step_{step}", state.structure.phi))

    connection = np.prod(lat.grid_shape) * 343 * 8
    peak = _traced_peak(lambda: flow.run_flow(initial.pop(), ref, "deturck", control,
                                              sample_interval=1, checkpoint_cb=checkpoint_cb))
    assert len(done) == 3
    assert peak < 5.5 * connection, f"{peak / connection:.2f} connections"


@pytest.mark.parametrize("scheme, oracle", [("spectral", oracles.fft_partial),
                                            ("fd4", oracles.fd4_partial)])
def test_default_step_inside_rk4_interval(scheme, oracle, monkeypatch):
    # dt * lambda_max <= 2.785 (RK4's real stability interval) for
    # CFL_COEFFICIENT and the largest coefficient its comment proves stable;
    # lambda_max = s a max|sigma|^2 with s = 1/scale^2 for phi = scale^3 phi0
    # (g = scale^2 I)
    scale, period = 1.25, 1.7
    coefficients = (flow.CFL_COEFFICIENT, 0.28)
    control = flow.StepControl(t_end=1e300)
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
            for c in coefficients:
                monkeypatch.setattr(flow, "CFL_COEFFICIENT", c)
                dt = flow.propose_dt(flow.FlowState(0.0, st, st.phi, "deturck"), control)
                assert dt * lam_max <= 2.785, (scheme, a, n, c)


def test_step_clamped_to_short_remainder_lands_on_t_end():
    lat = Lattice((1,), 16, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    ref = g2.flat_reference(lat)
    control = flow.StepControl(t_end=0.1, dt=0.03)
    state = flow.FlowState(0.09, st, ref.phi, "deturck")
    assert flow.propose_dt(state, control) == 0.1 - 0.09
    assert flow.step_rk4(state, control).t == 0.1


def test_sampled_structures_keep_only_what_the_next_step_reads(rng):
    # the snapshot's d phi, connection, curvature, torsion and nabla T go
    # once it is recorded; u = e_i . phi and the tau2 that k1 reads stay
    lat = Lattice((1, 2), 8, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng))
    control = flow.StepControl(t_end=3 * 2.0 ** -6, dt=2.0 ** -6)
    final, records = flow.run_flow(st, g2.flat_reference(lat).phi, "deturck", control,
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
    _, records = flow.run_flow(st, ref.phi, "deturck", control, sample_interval=2,
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
    flow.run_flow(st, ref.phi, "deturck", probe, sample_interval=5,
                  checkpoint_cb=lambda state, step: states.setdefault(step, state))
    norm = {k: np.sqrt(diagnostics.flat_l2(lat, s.theta())) for k, s in states.items()}
    tol = 0.5 * (norm[10] + norm[11])
    control = flow.StepControl(t_end=3.0, dt=0.05, stop_tolerance=tol)
    full, full_records = flow.run_flow(st, ref.phi, "deturck", control, sample_interval=5)
    resumed, records = flow.run_flow(states[11].structure, ref.phi, "deturck", control,
                                     sample_interval=5, t0=states[11].t, step0=11)
    assert full.t == resumed.t == states[15].t
    assert [r.to_dict() for r in records] == [r.to_dict() for r in full_records[-1:]]


def test_run_flow_immediate_stop_at_reference():
    lat = Lattice((1,), 16, TWO_PI)
    ref = g2.flat_reference(lat)
    control = flow.StepControl(t_end=1.0)
    final, records = flow.run_flow(ref, ref.phi, "deturck", control, sample_interval=10)
    assert final.t == 0.0
    assert len(records) == 1
    assert records[0].l2_theta == 0.0


def test_run_flow_preserves_exactness_and_closure():
    lat = Lattice((1,), 32, TWO_PI)
    st, _ = lowest_mode_initial(lat, 1e-3)
    ref = g2.flat_reference(lat)
    control = flow.StepControl(t_end=0.5)
    final, records = flow.run_flow(st, ref.phi, "deturck", control, sample_interval=5)
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
    s0 = flow.FlowState(0.0, st, ref.phi, "laplacian")
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
    s0 = flow.FlowState(0.0, st, ref.phi, "laplacian")
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
    _, records = flow.run_flow(st, ref.phi, "laplacian", control, sample_interval=10)
    assert all(rec.rhs_cross_residual <= 1e-5 for rec in records)


# --- the grid volume law -----------------------------------------------------------

# The golden lattices and modes (test_golden.CONFIGS) at 1, 4 and 8 times their amplitude.
VOLUME_LAYOUTS = {"1d_n16": ([1], 16, MODES_1D), "2d_n8": ([1, 2], 8, MODES_2D),
                  "3d_n8": ([1, 2, 3], 8, MODES_3D)}


def _initial_state(axes, n, scheme, kind, modes, scale):
    cfg = RunConfig.from_dict({
        "lattice": {"active_axes": axes, "points_per_axis": n, "scheme": scheme},
        "flow": {"kind": kind},
        "perturbation": [{**mode, "amplitude": scale * mode["amplitude"]} for mode in modes]})
    reference = g2.flat_reference(cfg.lattice).phi
    return flow.FlowState(0.0, cfg.build_initial(reference), reference, kind)


def _third_sum(lat, density):
    """1/3 of the grid sum of a per-site density, with lattice.cell_weight."""
    return float(np.sum(density)) * lat.cell_weight / 3.0


def _volume_rate(state):
    """(1/3 sum phidot . c(psi), 1/3 sum <sigma, tau2>_g vol), phidot = flow_rhs = d sigma.

    phidot . c(psi), with c the euclidean complement, is <phidot, phi>_g vol
    pointwise, so the first is the rate of total_volume along phidot.
    """
    st = state.structure
    lat, tau2 = st.lattice, flow.coexact_part(st).data
    sigma = tau2
    if state.kind == "deturck":
        sigma = sigma + st.interior(riemann.deturck_vector(st)).data
    rate = _third_sum(lat, flow.flow_rhs(state).data * g2._complement(st.psi.data, 4))
    return rate, _third_sum(lat, g2.form_inner(sigma, tau2, 2, st) * st.vol)


def _laplacian_volume_gap(state):
    """|dV/dt - 2/3 torsion_l2| / |dV/dt| for kind laplacian, where T = -tau2/2."""
    st = state.structure
    rate, _ = _volume_rate(state)
    t_sq = riemann.tensor_norm_sq(riemann.torsion_of(st), st)
    return abs(rate - (2.0 / 3.0) * st.lattice.integrate(t_sq, vol_density=st.vol)) / abs(rate)


@pytest.mark.parametrize("scale", [1, 4, 8])
@pytest.mark.parametrize("layout", sorted(VOLUME_LAYOUTS))
@pytest.mark.parametrize("kind", ["deturck", "laplacian"])
@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_grid_volume_law(scheme, kind, layout, scale):
    # Every D_a is antisymmetric, so sum d sigma ^ psi = -sum sigma ^ d psi on
    # the grid and dV_h/dt = 1/3 sum <sigma, tau2>_g vol to roundoff, at any
    # amplitude (ROADMAP item 26): read <= 1.8e-15 here. For kind laplacian,
    # sigma = tau2 and |T|^2 = |tau2|^2 / 2 make it 2/3 torsion_l2.
    axes, n, modes = VOLUME_LAYOUTS[layout]
    state = _initial_state(axes, n, scheme, kind, modes, scale)
    rate, law = _volume_rate(state)
    assert abs(rate - law) <= 1e-13 * abs(law)
    if kind == "laplacian":
        assert _laplacian_volume_gap(state) <= 1e-13
    # The rate is total_volume's own derivative (read <= 7e-8). At x1 the
    # rate is smallest against total_volume's roundoff over 2 eps, so the
    # central difference is taken at x4 and x8 (read <= 5.9e-9).
    if scale >= 4:
        eps, phi, phidot = 1e-6, state.structure.phi, flow.flow_rhs(state)
        volumes = [diagnostics.total_volume(g2.G2Structure.from_phi(phi + sign * eps * phidot))
                   for sign in (1.0, -1.0)]
        assert abs((volumes[0] - volumes[1]) / (2.0 * eps) - rate) <= 1e-7 * abs(rate)


def test_grid_volume_law_catches_a_scaled_laplacian_rate(monkeypatch):
    # 0.99 tau2 inside flow_rhs alone: phidot's volume rate falls 1% below
    # 2/3 torsion_l2, which reads the unscaled tau2
    real_rhs, real_coexact = flow.flow_rhs, flow.coexact_part

    def scaled_rhs(state):
        with monkeypatch.context() as patch:
            patch.setattr(flow, "coexact_part", lambda st: 0.99 * real_coexact(st))
            return real_rhs(state)
    monkeypatch.setattr(flow, "flow_rhs", scaled_rhs)
    state = _initial_state([1, 2], 8, "spectral", "laplacian", MODES_2D, 4)
    assert _laplacian_volume_gap(state) > 1e-3


def _deturck_leak(n):
    """1/3 sum <V . phi, tau2>_g vol over 1/3 sum |tau2|^2 vol: 1-D fd4, MODES_1D x4."""
    st = _initial_state([1], n, "fd4", "deturck", MODES_1D, 4).structure
    tau2 = flow.coexact_part(st).data
    leak = st.interior(riemann.deturck_vector(st)).data
    return (_third_sum(st.lattice, g2.form_inner(leak, tau2, 2, st) * st.vol)
            / _third_sum(st.lattice, g2.form_inner(tau2, tau2, 2, st) * st.vol))


def test_deturck_volume_leak_falls_with_resolution():
    # In the continuum V . phi lies in the 7-part and tau2 in the 14-part of
    # the 2-forms, so the leak vanishes; on the fd4 grid it read -2.08e-4 at
    # n=16 and -2.30e-5 at n=32, 9.0 times less, towards fourth order.
    coarse, fine = _deturck_leak(16), _deturck_leak(32)
    assert coarse != 0.0 and abs(fine) <= abs(coarse) / 8.0


# --- the Fano-diagonal reduction ---------------------------------------------------

def _fano_config(scheme, kind, n, dt, steps, amplitude=0.4):
    """beta = f e23 + p e45 + q e67 on x1: f = A sin x1, p = 0.6A sin(2 x1 + 0.7),
    q = -0.5A sin(x1 + 1.9)."""
    modes = [{"mode": [k, 0, 0, 0, 0, 0, 0], "component": pair, "amplitude": scale * amplitude,
              "phase": phase}
             for k, pair, scale, phase in ((1, [2, 3], 1.0, 0.0), (2, [4, 5], 0.6, 0.7),
                                           (1, [6, 7], -0.5, 1.9))]
    return {"lattice": {"active_axes": [1], "points_per_axis": n, "scheme": scheme},
            "flow": {"kind": kind}, "perturbation": modes,
            "control": {"t_end": steps * dt, "dt": dt}}


def _fano_gap(config, steps):
    """max |phi - phi_reduced| over e123, e145 and e167 after `steps` RK4 steps.

    Asserts the other 32 components stay exactly phi0's, and that the state
    moved far from flat.
    """
    cfg = RunConfig.from_dict(config)
    reference = g2.flat_reference(cfg.lattice).phi
    state = flow.FlowState(0.0, cfg.build_initial(reference), reference, cfg.flow.kind)
    diagonal = np.moveaxis(state.structure.phi.data[..., oracles.FANO_DIAGONAL], -1, 0)
    period, scheme = cfg.lattice.period, cfg.lattice.scheme
    # x1 is grid axis 0 of every lattice whose active axes include 1
    partial = ((lambda f: oracles.fft_partial(f, 0, period)) if scheme == "spectral"
               else (lambda f: oracles.fd4_partial(f, 0, period)))
    reduced = oracles.fano_rk4(diagonal, partial, cfg.flow.kind, cfg.control.dt, steps)
    for _ in range(steps):
        state = flow.step_rk4(state, cfg.control)
    phi = state.structure.phi.data
    others = [c for c in range(35) if c not in oracles.FANO_DIAGONAL]
    assert np.all(phi[..., others] == g2.PHI0[others])
    assert np.max(np.abs(diagonal - 1.0)) > 0.3
    return float(np.max(np.abs(np.moveaxis(phi[..., oracles.FANO_DIAGONAL], -1, 0) - reduced)))


@pytest.mark.parametrize("kind", ["deturck", "laplacian"])
@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_flow_matches_fano_reduction(scheme, kind):
    # An exact nonlinear oracle (ROADMAP item 23): data along x1 on e23, e45
    # and e67 keep phi Fano-diagonal, u e123 + v e145 + w e167 + phi0's other
    # terms, and the flow reduces to three scalar equations derived from the
    # diagonal metric alone; 100 steps at A = 0.4 agreed within 2.4e-15.
    assert _fano_gap(_fano_config(scheme, kind, 16, 0.01, 100), 100) <= 1e-13


def test_embedded_flow_matches_fano_reduction():
    # the 3-axis site blocks and slabs against the same reduction (item 27's embedding)
    config = oracles.embed(_fano_config("fd4", "deturck", 8, 2e-3, 20), (1, 2, 3))
    assert _fano_gap(config, 20) <= 1e-13


@pytest.mark.parametrize("kind", ["deturck", "laplacian"])
def test_fano_reduction_catches_a_scaled_coexact_part(monkeypatch, kind):
    real_coexact = flow.coexact_part
    monkeypatch.setattr(flow, "coexact_part", lambda st: 0.99 * real_coexact(st))
    assert _fano_gap(_fano_config("spectral", kind, 16, 0.01, 100), 100) > 1e-6


# --- embedded states ----------------------------------------------------------------

# (axis j the data vary along, the twin's active axes): data along x2 and x1
# in three axes, whose leading axis is then constant or the varying one; x3
# in two; x2 in two axes of which it is the leading one
EMBEDDINGS = {"x2_in_123": (2, (1, 2, 3)), "x1_in_123": (1, (1, 2, 3)),
              "x3_in_13": (3, (1, 3)), "x2_in_25": (2, (2, 5))}
EMBED_DT = 1.0 / 512  # dyadic, so 20 steps land on t_end


def _one_axis_config(axis, scheme, kind):
    """Three beta modes along x_axis, k = 1, 2, 1, on component pairs off the axis."""
    pairs = [pair for pair in ((1, 4), (5, 6), (3, 7), (2, 4)) if axis not in pair][:3]
    modes = [{"mode": [k * (a == axis) for a in range(1, 8)], "component": list(pair),
              "amplitude": amplitude}
             for k, pair, amplitude in zip((1, 2, 1), pairs, (0.3, 0.18, -0.15))]
    return {"lattice": {"active_axes": [axis], "points_per_axis": 8, "scheme": scheme},
            "flow": {"kind": kind}, "perturbation": modes,
            "control": {"t_end": 20 * EMBED_DT, "dt": EMBED_DT}}


def _run_20_steps(config):
    """run_flow on the config's initial structure, sampled at steps 0 and 20."""
    cfg = RunConfig.from_dict(config)
    reference = g2.flat_reference(cfg.lattice).phi
    final, records = flow.run_flow(cfg.build_initial(reference), reference, cfg.flow.kind,
                                   cfg.control, sample_interval=20)
    assert len(records) == 2 and final.t == cfg.control.t_end
    return final.structure.phi.data, records


@pytest.mark.parametrize("layout", sorted(EMBEDDINGS))
@pytest.mark.parametrize("kind", ["deturck", "laplacian"])
@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_embedded_flow_matches_its_axis(scheme, kind, layout):
    # The twin walks multi-axis site blocks, leading-axis slabs and their
    # curvature pieces, which no 1-D run uses. Its steps take partial_array
    # of constant lines, exactly 0.0, so phi is the 1-D phi bit for bit. Its
    # snapshots take dGamma along a constant leading axis unshifted
    # (Lattice.partial_rows), roundoff rather than 0.0, and sum over more
    # sites: the channels agree to 1e-14 relative, and the ones that can
    # read roundoff to test_golden's absolute bound.
    axis, axes = EMBEDDINGS[layout]
    line, line_records = _run_20_steps(_one_axis_config(axis, scheme, kind))
    twin, twin_records = _run_20_steps(oracles.embed(_one_axis_config(axis, scheme, kind), axes))
    shape = [1] * len(axes) + [35]
    shape[axes.index(axis)] = 8
    assert np.array_equal(twin, np.broadcast_to(line.reshape(shape), twin.shape))
    assert np.max(np.abs(line - g2.PHI0)) > 0.2  # far from flat, where Rm is not small
    for got, want in zip(twin_records, line_records):
        for key, value in want.to_dict().items():
            for g, w in zip(np.atleast_1d(getattr(got, key)), np.atleast_1d(value)):
                bound = GOLDEN_ATOL if key in ABSOLUTE else 1e-14 * abs(w)
                assert abs(g - w) <= bound, (key, g, w)


# A 2-axis log-diagonal state, phi = A(x)^* phi0 with A = diag(e^{a_i}): each
# a_i is s times two sines whose wave vectors have entries in {-1, 0, 1} on
# both active axes, with random phases and weights U(-1, 1), so every
# cross-axis term of d, * and V is present. phi need not be closed.
CONTINUUM_AXES = (2, 5)


@functools.lru_cache(maxsize=None)
def _continuum_state():
    """Numpy functions (x2, x5, s) -> components of phi and of each kind's velocity."""
    import sympy as sp

    x, s = sp.symbols("x1:8"), sp.Symbol("s")
    rng = np.random.default_rng(0)
    a = []
    for _ in range(7):
        a_i = 0
        for _ in range(2):
            k = rng.integers(-1, 2, size=len(CONTINUUM_AXES))
            phase, weight = rng.uniform(0.0, TWO_PI), rng.uniform(-1.0, 1.0)
            a_i += weight * sp.sin(sum(int(k_j) * x[axis - 1]
                                       for k_j, axis in zip(k, CONTINUUM_AXES)) + phase)
        a.append(s * a_i)
    state = oracles.log_diagonal_state(a, x)
    forms = {"phi": state["phi"], **state["rhs"]}
    args = [x[axis - 1] for axis in CONTINUUM_AXES] + [s]
    return {name: sp.lambdify(args, [form.get(idx, 0) for idx in oracles.increasing(3)],
                              "numpy", cse=True)
            for name, form in forms.items()}


def _continuum_gap(scheme, kind, n, s):
    """max|flow_rhs - exact| / max|exact| on the log-diagonal state at amplitude s."""
    fns = _continuum_state()
    lat = Lattice(CONTINUUM_AXES, n, TWO_PI, scheme=scheme)
    coords = [lat.coordinate(axis) for axis in CONTINUUM_AXES]

    def on_grid(name):
        return np.stack([np.broadcast_to(c, lat.grid_shape) for c in fns[name](*coords, s)],
                        axis=-1)

    structure = g2.G2Structure.from_phi(FormField(lat, 3, on_grid("phi")))
    got = flow.flow_rhs(flow.FlowState(0.0, structure, g2.flat_reference(lat).phi, kind)).data
    want = on_grid(kind)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["deturck", "laplacian"])
@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_flow_rhs_matches_continuum(scheme, kind):
    # spectral at large amplitude: read 1.9e-11 (Laplacian) and 3.9e-11
    # (DeTurck). fd4 at fourth order: read 14.9x and 15.0x from n=16 to 32.
    if scheme == "spectral":
        assert _continuum_gap(scheme, kind, 24, 0.3) < 1e-10
    else:
        coarse, fine = (_continuum_gap(scheme, kind, n, 0.05) for n in (16, 32))
        assert 12 < coarse / fine < 20


def test_flow_rhs_continuum_catches_a_scaled_deturck_vector(monkeypatch):
    deturck_vector = riemann.deturck_vector

    def scaled(structure):
        v = deturck_vector(structure)
        v[..., CONTINUUM_AXES[0] - 1] *= 1.01
        return v

    monkeypatch.setattr(riemann, "deturck_vector", scaled)
    assert _continuum_gap("spectral", "deturck", 24, 0.3) > 1e-10


# Python and C calls of one warm default-policy RK4 step at 1-D n=16, about 5%
# above 2,019 (DeTurck) and 1,827 (Laplacian) on Python 3.11.7 with numpy 2.4.6.
# A call count does not vary from run to run as a timing does. A change that
# raises a bound says why.
CALLS_PER_STEP_BOUND = {"deturck": 2120, "laplacian": 1920}


@pytest.mark.parametrize("kind", ["deturck", "laplacian"])
def test_calls_per_step(kind):
    state = _initial_state([1], 16, "spectral", kind, MODES_1D, 1)
    control = flow.StepControl()
    for _ in range(3):  # warm: caches filled, as in a run's later steps
        state = flow.step_rk4(state, control)
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    sys.setprofile(count)
    try:
        flow.step_rk4(state, control)
    finally:
        sys.setprofile(None)
    assert calls[0] <= CALLS_PER_STEP_BOUND[kind], calls[0]
