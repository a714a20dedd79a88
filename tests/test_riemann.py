"""Connection, curvature, gauge vector and monitor quantities."""

import tracemalloc

import numpy as np
import pytest

from g2flow import g2algebra as g2
from g2flow import checks, lattice, riemann, tables
from g2flow.checks import _random_pullbacks
from g2flow.lattice import FormField, Lattice, exterior_derivative

import oracles
from conftest import band_limited_form, closed_perturbed_phi

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def closed_structure():
    lat = Lattice((1, 2), 32, TWO_PI)
    rng = np.random.default_rng(2024)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng))
    return st, lat


def _metric(g, g_inv):
    """The Metric of a field g that comes from no 3-form."""
    return g2.Metric(g, g_inv, np.sqrt(np.linalg.det(g)))


def _stacked_rm(gamma, metric, lat):
    """The whole-grid (..., 7, 7, 21) Rm, stacked from riemann.curvature_blocks."""
    rm = np.concatenate([rm for _, rm, _ in riemann.curvature_blocks(gamma, metric, lat)])
    return rm.reshape(gamma.shape[:-3] + (7, 7, 21))



# --- christoffels ---------------------------------------------------------------

def test_christoffels_euclidean_vanish():
    lat = Lattice((1,), 16, TWO_PI)
    g = np.broadcast_to(np.eye(7), lat.grid_shape + (7, 7)).copy()
    gamma = riemann.christoffels(_metric(g, g), lat)
    assert np.max(np.abs(gamma)) == 0.0


def test_christoffels_constant_pullback_metric_vanish(rng):
    lat = Lattice((1,), 16, TWO_PI)
    a = np.eye(7) + 0.2 * rng.standard_normal((7, 7))
    g = np.broadcast_to(a.T @ a, lat.grid_shape + (7, 7)).copy()
    gamma = riemann.christoffels(_metric(g, np.linalg.inv(g)), lat)
    assert np.max(np.abs(gamma)) < 1e-14


def test_christoffels_conformal_closed_form():
    # g = e^{2u} delta: Gamma^i_jk = d_j u delta^i_k + d_k u delta^i_j - d^i u delta_jk
    lat = Lattice((1, 2), 32, TWO_PI)
    x1, x2 = lat.coordinate(1), lat.coordinate(2)
    u = np.broadcast_to(0.1 * np.sin(x1) + 0.05 * np.cos(x2), lat.grid_shape).copy()
    g = np.exp(2 * u)[..., None, None] * np.eye(7)
    gamma = riemann.christoffels(_metric(g, np.exp(-2 * u)[..., None, None] * np.eye(7)), lat)
    du = lat.gradient(u)
    eye = np.eye(7)
    expect = (np.einsum("ij,...k->...ijk", eye, du)
              + np.einsum("ik,...j->...ijk", eye, du)
              - np.einsum("jk,...i->...ijk", eye, du))
    assert np.max(np.abs(gamma - expect)) < 1e-12


# --- covariant derivative --------------------------------------------------------

def test_nabla_psi_formula(closed_structure):
    # nabla_m psi_ijkl = -(T_mi phi_jkl - T_mj phi_ikl - T_mk phi_jil - T_ml phi_jki)
    st, lat = closed_structure
    gamma = riemann.connection_of(st)
    t = riemann.torsion_of(st)
    npsi = checks.covariant_derivative_form(st.psi.data, 4, gamma, lat)
    phi_full = g2.expand_form(st.phi.data, 3)
    rhs = g2.compress_form(-(np.einsum("...mi,...jkl->...mijkl", t, phi_full)
                             - np.einsum("...mj,...ikl->...mijkl", t, phi_full)
                             - np.einsum("...mk,...jil->...mijkl", t, phi_full)
                             - np.einsum("...ml,...jki->...mijkl", t, phi_full)), 4)
    scale = max(np.max(np.abs(npsi)), 1e-300)
    assert np.max(np.abs(npsi - rhs)) < 1e-8 * scale


def test_covariant_derivative_matches_index_formula(rng):
    # Gamma is not symmetric in its lower pair and t not symmetric, so a
    # swapped slot or index shows
    lat = Lattice((1, 3), 8, TWO_PI)
    gamma = rng.standard_normal(lat.grid_shape + (7, 7, 7))
    assert np.max(np.abs(gamma - np.swapaxes(gamma, -1, -2))) > 0.1
    t = rng.standard_normal(lat.grid_shape + (7, 7))
    assert np.max(np.abs(t - np.swapaxes(t, -1, -2))) > 0.1
    got = riemann.covariant_derivative_array(t, gamma, lat)
    expect = oracles.covariant_derivative(t, gamma, lat.gradient(t))
    assert got.shape == lat.grid_shape + (7, 7, 7)
    assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect))


def _conformal_connection(lat):
    """Christoffels of g = e^{2u} delta, a metric that comes from no G2 structure here."""
    x1, x2 = lat.coordinate(1), lat.coordinate(2)
    u = np.broadcast_to(0.1 * np.sin(x1) + 0.05 * np.cos(x2), lat.grid_shape)
    eye = np.eye(7)
    return riemann.christoffels(_metric(np.exp(2 * u)[..., None, None] * eye,
                                        np.exp(-2 * u)[..., None, None] * eye), lat)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("field", ["closed_g2", "conformal"])
def test_covariant_derivative_form_matches_full_array(closed_structure, rng, field, k):
    if field == "closed_g2":
        st, lat = closed_structure
        gamma = riemann.connection_of(st)
        alpha = st.phi.data if k == 3 else st.psi.data
    else:
        lat = Lattice((1, 2), 16, TWO_PI)
        gamma = _conformal_connection(lat)
        alpha = rng.standard_normal(lat.grid_shape + (tables.num_components(k),))
    got = checks.covariant_derivative_form(alpha, k, gamma, lat)
    full = g2.expand_form(alpha, k)
    want = g2.compress_form(oracles.covariant_derivative(full, gamma, lat.gradient(full)), k)
    assert got.shape == lat.grid_shape + (7, tables.num_components(k))
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_curvature_matches_index_formula(rng, scheme):
    # 100 sites are no multiple of lattice.SITE_BLOCK: the last block is short
    lat = Lattice((2, 3), 10, TWO_PI, scheme=scheme)
    gamma = rng.standard_normal(lat.grid_shape + (7, 7, 7))
    a = np.eye(7) + 0.2 * rng.standard_normal(lat.grid_shape + (7, 7))
    g = np.swapaxes(a, -1, -2) @ a
    g_inv = np.linalg.inv(g)
    metric = _metric(g, g_inv)
    curv = riemann.curvature(gamma, metric, lat)
    rm, ric, scalar = oracles.curvature(gamma, lat.gradient(gamma), g, g_inv)
    got_rm = g2.expand_form(_stacked_rm(gamma, metric, lat), 2)
    for got, want in ((got_rm, rm), (curv.ric, ric), (curv.scalar, scalar),
                      (curv.rm_sq, riemann.tensor_norm_sq(rm, metric))):
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_site_blocks_match_one_block_bit_for_bit(rng, monkeypatch):
    # curvature_blocks walks slabs of whole leading-axis rows and 16-site
    # pieces of them (lattice.piece_sites). 1-D n=20: slabs of 16 rows and a
    # short last slab of 4; 2-D n=10: one row per slab and piece; 2-D n=24:
    # one row per slab, in pieces of 16 sites and a short last piece of 8;
    # 3-D n=8: one row per slab, in four pieces. The other side is one
    # genuine slab and one piece, the whole grid, whose leading-axis dGamma
    # takes every row of D, each row as one (1, n) @ (n, W) product as in a
    # slab of fewer rows.
    for axes, n in (((1,), 20), ((1, 2), 10), ((1, 2), 24), ((1, 2, 3), 8)):
        lat = Lattice(axes, n, TWO_PI)
        sites = n ** len(axes)
        gamma = rng.standard_normal(lat.grid_shape + (7, 7, 7))
        a = np.eye(7) + 0.2 * rng.standard_normal(lat.grid_shape + (7, 7))
        g = np.swapaxes(a, -1, -2) @ a
        metric = _metric(g, np.linalg.inv(g))
        phi = closed_perturbed_phi(lat, rng, amp=2e-2)

        def evaluate():
            st = g2.G2Structure.from_phi(phi)
            curv = riemann.curvature(gamma, metric, lat)
            nabla_t = riemann.torsion_derivative(st)
            return {"christoffels": riemann.christoffels(metric, lat), "ric": curv.ric,
                    "scalar": curv.scalar, "rm_sq": curv.rm_sq,
                    "rm": _stacked_rm(gamma, metric, lat), "nabla_t_sq": nabla_t.norm_sq,
                    "phi_term": nabla_t.phi_term, "lambda": riemann.lambda_monitor(st)}

        blocked = evaluate()
        monkeypatch.setattr(lattice, "SITE_BLOCK", 4 * sites)
        assert lat.row_slabs() == [slice(0, n)] and lattice.piece_sites() == sites
        whole = evaluate()
        monkeypatch.undo()
        for name, got in blocked.items():
            assert np.array_equal(got, whole[name]), (axes, n, name)


@pytest.mark.parametrize("axes, n", [((1, 2), 10), ((1, 2, 3), 8)])
def test_blocked_geometry_matches_whole_grid_formulas_bit_for_bit(axes, n):
    # the whole-grid arrays these replace: the (..., 7, 7, 7) stack of
    # partials of g behind Gamma, and nabla T, raised for |nabla T|^2 and
    # contracted with phi_j^mn for intrinsic_h
    lat = Lattice(axes, n, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, np.random.default_rng(n)))
    dg = lat.gradient(st.g)
    s = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1)
    s -= dg
    gamma = st.g_inv @ s.reshape(lat.grid_shape + (7, 49))
    gamma *= 0.5
    assert np.array_equal(riemann.connection_of(st), gamma.reshape(s.shape))
    nabla_t = riemann.covariant_derivative_array(riemann.torsion_of(st),
                                                 riemann.connection_of(st), lat)
    phi_mix = (np.swapaxes(st.g_inv, -1, -2)[..., None, :, :]
               @ g2.expand_form(st.phi.data, 3) @ st.g_inv[..., None, :, :])
    phi_term = np.swapaxes(nabla_t.reshape(lat.grid_shape + (49, 7)), -1, -2) @ np.swapaxes(
        phi_mix.reshape(lat.grid_shape + (7, 49)), -1, -2)
    got = riemann.torsion_derivative_of(st)
    assert np.array_equal(got.norm_sq, riemann.tensor_norm_sq(nabla_t, st))
    assert np.array_equal(got.phi_term, phi_term)


@pytest.mark.parametrize("one_block", [False, True])
@pytest.mark.parametrize("n", [8, 10])
def test_fused_scalars_match_a_stacked_rm_bit_for_bit(monkeypatch, n, one_block):
    # 3-D n=8 is 8 whole site blocks and 32 whole curvature pieces; n=10 has
    # a short last block and a short last piece in each row. The path that
    # curvature replaced: the whole-grid Rm stacked from the same kernel, then
    # the per-block |Rm|^2 contraction that lambda_monitor ran on it, and the
    # scalar curvature contracted from the whole-grid Ric
    lat = Lattice((1, 2, 3), n, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, np.random.default_rng(n)))
    gamma = riemann.connection_of(st)
    if one_block:  # one slab and one piece, for the kernel and for the |Rm|^2 blocks below
        monkeypatch.setattr(lattice, "SITE_BLOCK", 4 * n ** 3)
    curv = riemann.curvature(gamma, st, lat)
    rm = _stacked_rm(gamma, st, lat).reshape(-1, 7, 7, 21)
    g_inv = st.g_inv.reshape(-1, 7, 7)
    rm_sq = np.empty(rm.shape[0])
    for block in lattice.site_blocks(rm.shape[0]):
        gb = g_inv[block]
        rm_up = g2.contract_slots(rm[block], (gb, gb, riemann._pair_metric(gb)))
        rm_sq[block] = 2.0 * np.einsum("...ijK,...ijK->...", rm_up, rm[block])
    ric = np.concatenate([ric for _, _, ric in riemann.curvature_blocks(gamma, st, lat)])
    scalar = np.einsum("...jl,...jl->...", st.g_inv, ric.reshape(lat.grid_shape + (7, 7)))
    assert np.array_equal(curv.rm_sq, rm_sq.reshape(lat.grid_shape))
    assert np.array_equal(curv.scalar, scalar)
    assert np.array_equal(curv.ric, ric.reshape(lat.grid_shape + (7, 7)))


# Traced peak of curvature past its outputs, in connections (one whole-grid
# Gamma, 7^3 doubles per site). At 3-D n=8 one (..., 7, 7, 7, 7) array is
# 9.4 MiB; whole-grid evaluation peaked at 13.2 MiB past its outputs in
# curvature and at 9.8 MiB, three raised copies of Rm, in lambda_monitor.
# With Rm per block curvature read 5.0 connections, three of them the
# whole-grid dGamma partials; with dGamma per block from slabs of four
# leading-axis rows, 2.5; with dGamma per slab of whole leading-axis rows of
# up to SITE_BLOCK sites, 2.03 here and 4.07 at 2-D n=16 (four 16-site
# rows per slab); with slabs of up to piece_sites() = 16 sites and the
# 7^4-per-site work in 16-site pieces of them, 0.89 and 1.16.
@pytest.mark.parametrize("axes, n, limit", [((1, 2), 16, 1.5), ((1, 2, 3), 8, 1.25)],
                         ids=["2d_n16", "3d_n8"])
def test_curvature_and_monitor_peaks_stay_below_a_grid_of_7_to_the_4(rng, axes, n, limit):
    lat = Lattice(axes, n, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng))
    gamma = riemann.connection_of(st)
    riemann.torsion_derivative_of(st)
    tracemalloc.start()
    try:
        curv = riemann.curvature_of(st)
        curv_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        riemann.lambda_monitor(st)
        monitor_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    returned = curv.ric.nbytes + curv.scalar.nbytes + curv.rm_sq.nbytes
    assert curv_peak - returned < gamma.nbytes * limit
    assert monitor_peak < gamma.nbytes * 3  # less than one raised copy of Rm


# --- curvature -------------------------------------------------------------------

def test_curvature_flat_metric_vanishes():
    lat = Lattice((1,), 16, TWO_PI)
    g = np.broadcast_to(np.eye(7), lat.grid_shape + (7, 7)).copy()
    metric = _metric(g, g)
    gamma = riemann.christoffels(metric, lat)
    curv = riemann.curvature(gamma, metric, lat)
    assert np.max(np.abs(_stacked_rm(gamma, metric, lat))) == 0.0
    assert np.max(np.abs(curv.ric)) == 0.0
    assert np.max(curv.rm_sq) == 0.0


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_exact_orbit_state_has_zero_torsion_and_curvature(scheme):
    # phi = psi^* phi0 with psi = id + X: a torsion-free structure whose
    # metric is not constant, so Gamma != 0 and the dGamma and Gamma Gamma
    # terms of Rm must cancel
    lat = Lattice((1,), 16, TWO_PI, scheme=scheme)
    x1 = lat.coordinate(1)
    x = np.zeros(lat.grid_shape + (7,))
    x[..., 3] = 0.05 * np.sin(x1)
    x[..., 1] = 0.05 * np.cos(x1 + 0.3)
    jt = np.eye(7) + lat.gradient(x)  # jt[a, i] = J^i_a = delta + d_a X^i
    phi = g2.compress_form(g2.contract_slots(g2.expand_form(g2.PHI0, 3), (jt,) * 3), 3)
    st = g2.G2Structure.from_phi(FormField(lat, 3, phi))
    assert np.max(np.abs(riemann.connection_of(st))) > 1e-2
    curv = riemann.curvature_of(st)
    rm = _stacked_rm(riemann.connection_of(st), st, lat)
    nabla_t = riemann.covariant_derivative_array(riemann.torsion_of(st),
                                                 riemann.connection_of(st), lat)
    for got in (riemann.torsion_of(st), nabla_t, riemann.torsion_derivative_of(st).phi_term, rm,
                curv.ric, curv.scalar, riemann.lambda_monitor(st)):
        assert np.max(np.abs(got)) < 1e-12


def test_curvature_warped_metric_symbolic_oracle():
    # diagonal metric with two x1-dependent warp factors vs the sympy oracle
    import sympy as sp

    x = sp.Symbol("x")
    w1 = sp.exp(sp.Rational(1, 10) * sp.sin(x))
    w2 = 1 + sp.Rational(5, 100) * sp.cos(2 * x)
    funcs = [sp.Integer(1), w1, w2, sp.Integer(1), sp.Integer(1),
             sp.Integer(1), sp.Integer(1)]
    gamma_sym, ric_sym, scal_sym = oracles.diagonal_metric_curvature_1d(funcs, x)

    lat = Lattice((1,), 64, TWO_PI)
    xs = lat.coordinate(1)
    diag = np.ones(lat.grid_shape + (7,))
    f1 = np.exp(0.1 * np.sin(xs))
    f2 = 1 + 0.05 * np.cos(2 * xs)
    diag[..., 1] = f1 ** 2
    diag[..., 2] = f2 ** 2
    g = np.zeros(lat.grid_shape + (7, 7))
    for i in range(7):
        g[..., i, i] = diag[..., i]
    g_inv = np.zeros_like(g)
    for i in range(7):
        g_inv[..., i, i] = 1.0 / diag[..., i]
    metric = _metric(g, g_inv)
    curv = riemann.curvature(riemann.christoffels(metric, lat), metric, lat)

    ric_expect = np.zeros(lat.grid_shape + (7, 7))
    for i in range(7):
        for j in range(7):
            val = sp.lambdify(x, ric_sym[i, j], "numpy")(xs)
            ric_expect[..., i, j] = np.broadcast_to(np.asarray(val), lat.grid_shape)
    scal_expect = np.broadcast_to(
        np.asarray(sp.lambdify(x, scal_sym, "numpy")(xs)), lat.grid_shape)
    scale = max(np.max(np.abs(ric_expect)), 1e-300)
    assert np.max(np.abs(curv.ric - ric_expect)) < 1e-9 * scale
    assert np.max(np.abs(curv.scalar - scal_expect)) < 1e-9 * max(np.max(np.abs(scal_expect)), 1e-300)


def test_ricci_formula_closed_g2(closed_structure):
    # Ric_ij = nabla_k T_li phi_j^kl - T_i^k T_kj for closed structures
    st, lat = closed_structure
    curv = riemann.curvature_of(st)
    gamma = riemann.connection_of(st)
    t = riemann.torsion_of(st)
    nt = riemann.covariant_derivative_array(t, gamma, lat)
    phi_mix = np.einsum("...jab,...ak,...bl->...jkl",
                        g2.expand_form(st.phi.data, 3), st.g_inv, st.g_inv)
    rhs = (np.einsum("...kli,...jkl->...ij", nt, phi_mix)
           - np.einsum("...ia,...ab,...bj->...ij", t, st.g_inv, t))
    scale = max(np.max(np.abs(curv.ric)), 1e-300)
    assert np.max(np.abs(curv.ric - rhs)) < 1e-7 * scale


# --- torsion -------------------------------------------------------------------

# beta_K = 0.03 cos(k1 x1 + k2 x2 + phase) on four pairs K, modes up to 2 per axis
_TORSION_BETA = (((3, 4), (2, 1), 0.0), ((5, 6), (1, -2), 1.0),
                 ((3, 7), (2, 2), 2.0), ((4, 6), (0, 1), 0.5))


def test_torsion_formulas_converge_together():
    # T = -tau2/2 (torsion_of) and T from nabla phi (full_torsion) are two
    # discretizations of one tensor: their torsion_l2 gap falls spectrally
    # (measured 7.5e-4, 5.2e-7, 6.5e-10, 9.0e-16)
    gaps = []
    for n in (8, 12, 16, 24):
        lat = Lattice((1, 2), n, TWO_PI)
        x1, x2 = lat.coordinate(1), lat.coordinate(2)
        beta = np.zeros(lat.grid_shape + (21,))
        for (a, b), (k1, k2), phase in _TORSION_BETA:
            beta[..., tables.index_position(2)[(a - 1, b - 1)]] = (
                0.03 * np.cos(k1 * x1 + k2 * x2 + phase))
        dbeta = exterior_derivative(FormField(lat, 2, beta))
        st = g2.G2Structure.from_phi(FormField(lat, 3, g2.PHI0 + dbeta.data))
        l2 = [lat.integrate(riemann.tensor_norm_sq(t, st), vol_density=st.vol)
              for t in (riemann.torsion_of(st), g2.full_torsion(st, checks.nabla_phi_of(st)))]
        gaps.append(abs(l2[0] - l2[1]) / l2[1])
    assert all(fine <= coarse / 100.0 for coarse, fine in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] <= 1e-12


# --- gauge vector ----------------------------------------------------------------

def test_deturck_vector_zero_at_reference():
    lat = Lattice((1,), 16, TWO_PI)
    ref = g2.flat_reference(lat)
    assert np.max(np.abs(riemann.deturck_vector(ref))) == 0.0


def test_deturck_vector_zero_when_metric_flat():
    # pointwise rotations of the model form keep g = euclidean, so S = 0 and
    # V = 0 although phi differs from the reference
    lat = Lattice((1,), 16, TWO_PI)
    angle = 0.3 * np.sin(lat.coordinate(1))
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
    assert np.max(np.abs(st.phi.data - ref.phi.data)) > 0.1  # genuinely different
    assert np.max(np.abs(st.g - np.eye(7))) < 1e-12
    assert np.max(np.abs(riemann.deturck_vector(st))) < 1e-10


def test_deturck_vector_conformal_closed_form():
    # V^i = g^pq S^i_pq = -5 e^{-2u} d_i u for g = e^{2u} delta
    lat = Lattice((1, 2), 32, TWO_PI)
    x1, x2 = lat.coordinate(1), lat.coordinate(2)
    u = np.broadcast_to(0.02 * np.sin(x1) + 0.01 * np.cos(x2), lat.grid_shape).copy()
    phi = FormField(lat, 3, (np.exp(3 * u))[..., None] * g2.PHI0)  # g = e^{2u} delta
    st = g2.G2Structure.from_phi(phi)
    assert np.max(np.abs(st.g - np.exp(2 * u)[..., None, None] * np.eye(7))) < 1e-12
    v = riemann.deturck_vector(st)
    du = lat.gradient(u)
    expect = -5.0 * np.exp(-2 * u)[..., None] * du
    assert np.max(np.abs(v - expect)) < 1e-12


@pytest.mark.parametrize("axes", [(1, 2), (1, 2, 3)])
@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_deturck_vector_matches_christoffel_contraction(axes, scheme):
    # a non-conformal closed structure; the flat background's Gamma, which V
    # leaves out, is exactly 0.0
    lat = Lattice(axes, 8, TWO_PI, scheme)
    rng = np.random.default_rng(31)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng, amp=0.03))
    assert not np.any(riemann.christoffels(g2.flat_reference(lat), lat))
    want = np.einsum("...pq,...ipq->...i", st.g_inv, riemann.christoffels(st, lat))
    got = riemann.deturck_vector(st)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


# --- monitor ---------------------------------------------------------------------

def test_lambda_monitor_zero_at_flat():
    lat = Lattice((1,), 16, TWO_PI)
    assert np.max(riemann.lambda_monitor(g2.flat_reference(lat))) < 1e-14


def test_lambda_monitor_matches_full_tensor_norms(rng):
    # a^* phi0 + d beta for a constant GL+ map a puts the metric far from the
    # identity, where both products of every 2 x 2 minor that raises the pair
    # of Rm count; the form stays closed, as the torsion T = -tau2/2 needs
    lat = Lattice((1, 2), 16, TWO_PI)
    a_t = _random_pullbacks(rng, 1)[0].T
    pulled = g2.compress_form(g2.contract_slots(g2.expand_form(g2.PHI0, 3), (a_t,) * 3), 3)
    beta = band_limited_form(lat, 2, rng, n_modes=4, amp=2e-2)
    st = g2.G2Structure.from_phi(FormField(lat, 3, pulled + exterior_derivative(beta).data))
    assert np.max(np.abs(st.g - np.eye(7))) > 0.1
    rm = g2.expand_form(_stacked_rm(riemann.connection_of(st), st, lat), 2)
    nabla_t = riemann.covariant_derivative_array(riemann.torsion_of(st),
                                                 riemann.connection_of(st), lat)
    want = np.sqrt(riemann.tensor_norm_sq(rm, st) + riemann.tensor_norm_sq(nabla_t, st))
    assert np.max(np.abs(riemann.lambda_monitor(st) - want)) < 1e-12 * np.max(want)


def test_lambda_monitor_linear_in_amplitude():
    lat = Lattice((1, 2), 16, TWO_PI)
    def lam(eps):
        rng = np.random.default_rng(5)
        st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng, amp=eps))
        return np.max(riemann.lambda_monitor(st))
    ratio = lam(2e-4) / lam(1e-4)
    assert 1.8 <= ratio <= 2.2
