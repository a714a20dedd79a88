"""Functionals, spectral quantities, decay fitting, snapshots."""

from dataclasses import is_dataclass

import numpy as np
import pytest

from g2flow import diagnostics, flow, lattice, riemann
from g2flow import g2algebra as g2
from g2flow import tables
from g2flow.lattice import FormField, Lattice, exterior_derivative

import oracles
from conftest import closed_perturbed_phi
from test_flow import lowest_mode_initial

TWO_PI = 2.0 * np.pi


def snapshot_volume(structure):
    """total_volume of a snapshot: int sqrt(det g) = (1/7) int phi ^ psi."""
    rec = diagnostics.diagnostic_snapshot(flow.FlowState(0.0, structure, structure, "deturck"))
    return rec.total_volume


def test_hitchin_scaling_homogeneity():
    # lambda phi scales the metric by lambda^(2/3), the volume by lambda^(7/3)
    lat = Lattice((1,), 16, TWO_PI)
    lam = 1.7
    base = g2.flat_reference(lat)
    scaled = g2.G2Structure.from_phi(lam * base.phi)
    vol0 = snapshot_volume(base)
    vol1 = snapshot_volume(scaled)
    assert abs(vol1 - lam ** (7.0 / 3.0) * vol0) < 1e-10 * vol1


@pytest.mark.parametrize("period,expect", [(TWO_PI, 1.0), (np.pi, 4.0)])
def test_lambda1_values(period, expect):
    lat = Lattice((1,), 32, period)
    assert abs(diagnostics.lambda1_exact_forms(lat) - expect) < 1e-14


@pytest.mark.parametrize("period", [TWO_PI, np.pi])
def test_rayleigh_matches_lambda1(period):
    lat = Lattice((1,), 32, period)
    analytic = diagnostics.lambda1_exact_forms(lat)
    discrete = diagnostics.rayleigh_lowest_mode(lat)
    assert abs(discrete - analytic) < 1e-10 * analytic


@pytest.mark.parametrize("n, k_low", [(16, 1), (32, 1), (5, 2), (9, 4), (15, 7)])
@pytest.mark.parametrize("period", [TWO_PI, 1.7])
def test_fd4_lambda1_is_least_discrete_symbol(n, k_low, period):
    # the fd4 symbol from the oracle stencil, not the continuum (2 pi / L)^2;
    # at odd n it is least at k = (n - 1)/2, below sigma(1)^2
    lat = Lattice((1,), n, period, scheme="fd4")
    sigma = oracles.derivative_symbol(lambda f: oracles.fd4_partial(f, 0, period), n)
    expect = sigma[k_low] ** 2
    assert expect == np.min(sigma[1:(n + 1) // 2] ** 2)
    analytic = diagnostics.lambda1_exact_forms(lat)
    assert abs(analytic - expect) < 1e-13 * expect
    assert analytic < (TWO_PI / period) ** 2
    assert abs(diagnostics.rayleigh_lowest_mode(lat) - analytic) < 1e-12 * analytic


def test_fit_decay_rate_exact_exponential():
    ts = np.linspace(0.0, 5.0, 60)
    series = [(t, np.exp(-3.0 * t)) for t in ts]
    fit = diagnostics.fit_decay_rate(series, window=(0.0, 5.0))
    assert abs(fit.fitted_rate - 3.0) < 1e-9
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_fit_decay_rate_perturbed_exponential():
    ts = np.linspace(0.0, 5.0, 200)
    series = [(t, np.exp(-3.0 * t) * (1 + 0.01 * np.sin(t))) for t in ts]
    fit = diagnostics.fit_decay_rate(series, window=(0.0, 5.0))
    assert abs(fit.fitted_rate - 3.0) < 0.03


def test_fit_decay_rate_default_window_skips_transient():
    ts = np.linspace(0.0, 10.0, 100)
    series = [(t, np.exp(-2.0 * t)) for t in ts]
    fit = diagnostics.fit_decay_rate(series)
    assert fit.window[0] == pytest.approx(4.0)
    assert abs(fit.fitted_rate - 2.0) < 1e-9


def test_fit_decay_rate_errors():
    with pytest.raises(diagnostics.InsufficientData):
        diagnostics.fit_decay_rate([(0.0, 1.0), (1.0, 0.5)], window=(0.0, 1.0))
    series = [(t, 1.0 - 0.2 * t) for t in np.linspace(0, 6, 30)]
    with pytest.raises(diagnostics.NonPositiveSeries):
        diagnostics.fit_decay_rate(series, window=(0.0, 6.0))
    with pytest.raises(diagnostics.InsufficientData):
        diagnostics.fit_decay_rate([])


def test_snapshot_at_reference_state():
    lat = Lattice((1,), 16, TWO_PI)
    ref = g2.flat_reference(lat)
    state = flow.FlowState(0.0, ref, ref, "deturck")
    rec = diagnostics.diagnostic_snapshot(state)
    assert rec.l2_theta == 0.0
    assert rec.torsion_l2 < 1e-20
    assert rec.scalar_identity_residual < 1e-12
    assert rec.harmonic_residual == 0.0
    assert all(c == 0.0 for c in rec.ck_theta)
    assert rec.total_volume == pytest.approx(TWO_PI ** 7, rel=1e-12)


def test_snapshot_scalar_identity_perturbed(rng):
    lat = Lattice((1, 2), 32, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng, amp=5e-3))
    ref = g2.flat_reference(lat)
    rec = diagnostics.diagnostic_snapshot(flow.FlowState(0.0, st, ref, "laplacian"))
    max_r = np.max(np.abs(riemann.curvature_of(st).scalar))
    assert rec.scalar_identity_residual <= 1e-6 * max_r
    assert rec.l2_theta > 0
    assert rec.lambda_max > 0


def test_ck_channels_linear_in_amplitude():
    lat = Lattice((1,), 32, TWO_PI)
    ref = g2.flat_reference(lat)
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        st, _ = lowest_mode_initial(lat, eps)
        rec = diagnostics.diagnostic_snapshot(flow.FlowState(0.0, st, ref, "deturck"))
        ratios.append(rec.ck_theta[0] / eps)
    assert max(ratios) / min(ratios) < 1.01


def test_ck_channels_derivative_scaling():
    # mode k: each extra flat derivative multiplies the channel by |k| 2pi/L
    lat = Lattice((1,), 32, TWO_PI)
    x = lat.coordinate(1)
    pos = tables.index_position(2)
    beta = np.zeros(lat.grid_shape + (21,))
    beta[..., pos[(1, 2)]] = 1e-3 * np.sin(2.0 * x)
    theta = exterior_derivative(FormField(lat, 2, beta))
    cks = diagnostics.ck_channels(lat, theta.data)
    for a, b in zip(cks, cks[1:]):
        assert b / a == pytest.approx(2.0, rel=1e-10)


@pytest.mark.parametrize("axes,n,scheme", [((1,), 16, "spectral"), ((1, 2), 8, "fd4"),
                                           ((1, 2, 3), 8, "spectral"), ((2, 5, 7), 6, "fd4")])
def test_ck_channels_match_ordered_stack(rng, axes, n, scheme):
    lat = Lattice(axes, n, TWO_PI, scheme=scheme)
    theta = rng.standard_normal(lat.grid_shape + (35,))
    got = diagnostics.ck_channels(lat, theta)
    expect = oracles.ordered_ck_stack(lat.partial_array, lat.active_axes, theta,
                                      lat.ndim_active, 3)
    assert len(got) == 4
    # the multiset sum reorders the additions: a few ulp
    assert np.allclose(got, expect, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_snapshot_computes_each_covariant_derivative_once(rng, monkeypatch):
    # nabla T only (shared by the intrinsic Laplacian and the lambda
    # monitor); the snapshot takes no nabla phi, which only the checks use
    calls = []
    original = riemann.covariant_derivative_array

    def counted(t, gamma, lattice):
        calls.append(t.shape)
        return original(t, gamma, lattice)

    monkeypatch.setattr(riemann, "covariant_derivative_array", counted)
    lat = Lattice((1, 2), 8, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng))
    diagnostics.diagnostic_snapshot(flow.FlowState(0.0, st, g2.flat_reference(lat), "deturck"))
    assert calls == [lat.grid_shape + (7, 7)]


def test_one_dphi_and_one_dpsi_per_sampled_state(rng, monkeypatch):
    # the step check takes d phi and the snapshot d psi; the closedness guard
    # of both Laplacians and the torsion reads d phi, and the Hodge Laplacian
    # and the next step's first RK4 stage read d* phi, from the structure
    lat = Lattice((1, 2), 8, TWO_PI)
    ref = g2.flat_reference(lat)
    phi = closed_perturbed_phi(lat, rng)
    calls = []

    def counted(alpha):
        calls.append(alpha)
        return exterior_derivative(alpha)

    for module in (lattice, flow):  # every binding a snapshot could reach
        monkeypatch.setattr(module, "exterior_derivative", counted)
    st = flow._validate(phi, ref)
    state = flow.FlowState(0.0, st, ref, "deturck")
    diagnostics.diagnostic_snapshot(state)
    flow.flow_rhs(state)
    assert [a is st.phi for a in calls].count(True) == 1
    assert [a is st.psi for a in calls].count(True) == 1


def test_snapshot_takes_no_codifferential_and_stars_no_4form(rng, monkeypatch):
    # d* d phi = 0 on closed phi: the Hodge Laplacian is d of the cached
    # d* phi, and the one star a snapshot takes is that of the 5-form d psi
    codifferentials, star_degrees = [], []
    original_codifferential, original_star = flow.codifferential, g2.hodge_star

    def counted_codifferential(structure, alpha):
        codifferentials.append(alpha.degree)
        return original_codifferential(structure, alpha)

    def counted_star(alpha, k, metric=None):
        star_degrees.append(k)
        return original_star(alpha, k, metric)

    monkeypatch.setattr(flow, "codifferential", counted_codifferential)
    monkeypatch.setattr(g2, "hodge_star", counted_star)
    lat = Lattice((1, 2), 8, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng))
    diagnostics.diagnostic_snapshot(flow.FlowState(0.0, st, g2.flat_reference(lat), "deturck"))
    assert codifferentials == []
    assert star_degrees == [5]


def test_rhs_cross_residual_compares_the_flow_rhs(rng):
    # the snapshot checks the Delta phi the laplacian flow integrates; at
    # n = 16 the gap is resolved (about 1e-5 of max|phi|), so a roundoff-sized
    # term added to either side, such as a d* d phi of closed phi, shows in its bits
    lat = Lattice((1, 2), 16, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng, amp=2e-2))
    state = flow.FlowState(0.0, st, g2.flat_reference(lat), "laplacian")
    rec = diagnostics.diagnostic_snapshot(state)
    rhs = flow.flow_rhs(state)
    gap = (rhs - flow.laplacian_phi_intrinsic(st)).max_norm() / st.phi.max_norm()
    assert rec.rhs_cross_residual == gap
    assert rec.rhs_cross_residual > 0.0


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_rhs_cross_residual_stays_at_roundoff_as_theta_vanishes(scheme):
    # phi0 + a d beta, beta = sin(x1 + 2 x2) e34 + sin(2 x1 - x2) e15: the
    # gap falls with a and max|phi| does not, so the channel stays at or
    # below roundoff (measured at most 3.9e-13, fd4 at a = 1e-6)
    lat = Lattice((1, 2), 16, TWO_PI, scheme=scheme)
    x1, x2 = lat.coordinate(1), lat.coordinate(2)
    pos = tables.index_position(2)
    beta = np.zeros(lat.grid_shape + (21,))
    beta[..., pos[(2, 3)]] = np.sin(x1 + 2 * x2)
    beta[..., pos[(0, 4)]] = np.sin(2 * x1 - x2)
    dbeta = exterior_derivative(FormField(lat, 2, beta)).data
    ref = g2.flat_reference(lat)
    for amplitude in (1e-6, 1e-8, 1e-10, 1e-12):
        st = flow._validate(FormField(lat, 3, g2.PHI0 + amplitude * dbeta), ref)
        rec = diagnostics.diagnostic_snapshot(flow.FlowState(0.0, st, ref, "deturck"))
        assert rec.rhs_cross_residual <= 1e-12, amplitude


def test_snapshot_caches_no_array_above_1029_entries_per_site(rng):
    # d phi and tau2 = d* phi are kept compressed, (35,) and (21,), and Rm as
    # (7, 7, 21) per site, never 7^4
    lat = Lattice((1, 2), 8, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng))
    diagnostics.diagnostic_snapshot(flow.FlowState(0.0, st, g2.flat_reference(lat), "deturck"))
    assert {"dphi", "tau2", "curv"} <= set(st._cache)
    arrays = {}
    for key, value in st._cache.items():
        fields = vars(value) if is_dataclass(value) else {"": value}
        arrays.update({f"{key}.{name}": data for name, data in fields.items()})
    sites = np.prod(lat.grid_shape)
    assert {key: data.size / sites for key, data in arrays.items()
            if data.size > 7 * 7 * 21 * sites} == {}


def test_record_round_trip():
    rec = diagnostics.TimeSeriesRecord(
        t=1.0, l2_theta=0.5, ck_theta=(1.0, 2.0, 3.0, 4.0),
        total_volume=10.0, torsion_l2=0.1, scalar_identity_residual=1e-9,
        lambda_max=0.2, harmonic_residual=1e-12, rhs_cross_residual=1e-8)
    back = diagnostics.TimeSeriesRecord.from_dict(rec.to_dict())
    assert back == rec
    # series written before hitchin_h was dropped still read
    assert diagnostics.TimeSeriesRecord.from_dict({**rec.to_dict(), "hitchin_h": 10.0}) == rec
