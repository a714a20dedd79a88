"""Pointwise G2 algebra: metric map, star, type projections, torsion."""

import contextlib

import numpy as np
import pytest

from g2flow import g2algebra as g2
from g2flow import checks, riemann, tables
from g2flow.checks import _random_pullbacks as pullback_batch
from g2flow.lattice import FormField, Lattice, exterior_derivative

import oracles
from conftest import band_limited_form, closed_perturbed_phi

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def curved_batch():
    a = pullback_batch(np.random.default_rng(77), 200)
    phi = oracles.pullback_3form(a, g2.PHI0)
    m = g2.metric_from_phi(phi)
    return phi, a, m, g2.hodge_star(phi, 3, m)


# --- model forms ---------------------------------------------------------------

def test_model_form_components():
    pos3, pos4 = tables.index_position(3), tables.index_position(4)
    assert g2.PHI0[pos3[(0, 1, 2)]] == 1.0
    assert g2.PHI0[pos3[(1, 4, 6)]] == -1.0  # e257 carries the minus sign
    assert np.sum(g2.PHI0 != 0) == 7
    assert g2.PSI0[pos4[(3, 4, 5, 6)]] == 1.0
    assert g2.PSI0[pos4[(0, 1, 3, 6)]] == -1.0  # e1247
    assert np.sum(g2.PSI0 != 0) == 7


# --- metric map ----------------------------------------------------------------

def test_metric_of_model_form_is_identity():
    m = g2.metric_from_phi(g2.PHI0)
    assert np.max(np.abs(m.g - np.eye(7))) < 1e-14
    assert np.max(np.abs(m.g_inv - np.eye(7))) < 1e-14
    assert abs(m.vol - 1.0) < 1e-14


def test_metric_equivariance_under_pullbacks(rng):
    # oracle applies the pullback to the euclidean metric directly: A^T A
    a = pullback_batch(rng, 100)
    phi = oracles.pullback_3form(a, g2.PHI0)
    m = g2.metric_from_phi(phi)
    expect = np.einsum("...ai,...aj->...ij", a, a)
    assert np.max(np.abs(m.g - expect)) < 1e-10
    assert np.max(np.abs(m.g @ m.g_inv - np.eye(7))) < 1e-12
    assert np.max(np.abs(m.vol - np.abs(np.linalg.det(a)))) < 1e-10


def test_metric_scaling_homogeneity():
    # lambda = 8 gives g = 4 id (g scales as lambda^(2/3)); cross-checked
    # against the pullback oracle with A = 2 id
    m8 = g2.metric_from_phi(8.0 * g2.PHI0)
    assert np.max(np.abs(m8.g - 4.0 * np.eye(7))) < 1e-12
    a = 2.0 * np.eye(7)[None]
    phi = oracles.pullback_3form(a, g2.PHI0)
    assert np.max(np.abs(phi[0] - 8.0 * g2.PHI0)) < 1e-12
    assert abs(m8.vol - 2.0 ** 7) < 1e-10


@pytest.mark.parametrize("c", [1e-30, 1e-16, 1.0, 1e15, 1e30])
def test_metric_at_extreme_scales(c):
    # det b = 6^7 c^21 leaves the float range; g = c^(2/3) id and
    # vol = c^(7/3) still hold, and metric_from_phi agrees with is_positive
    m = g2.metric_from_phi(c * g2.PHI0)
    assert np.max(np.abs(m.g / c ** (2 / 3) - np.eye(7))) < 1e-13
    assert np.max(np.abs(m.g_inv * c ** (2 / 3) - np.eye(7))) < 1e-13
    assert abs(m.vol / c ** (7 / 3) - 1.0) < 1e-13
    assert bool(g2.is_positive(c * g2.PHI0))
    with pytest.raises(g2.NotPositive):
        g2.metric_from_phi(-c * g2.PHI0)
    assert not bool(g2.is_positive(-c * g2.PHI0))


def test_not_positive_raised():
    with pytest.raises(g2.NotPositive):
        g2.metric_from_phi(-g2.PHI0)


def test_is_positive_cases(rng):
    assert bool(g2.is_positive(g2.PHI0))
    assert not bool(g2.is_positive(-g2.PHI0))
    small = g2.PHI0 + 0.01 * rng.standard_normal((50, 35))
    assert np.all(g2.is_positive(small))
    assert not np.any(g2.is_positive(np.zeros((3, 35))))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_phi_is_not_positive(bad):
    # det b > 0 is false for NaN; a NaN passes through the elimination
    # silently, and only inf warns, as inf * 0 in the table gemm
    phi = np.stack([g2.PHI0, g2.PHI0])
    phi[1, 0] = bad
    with pytest.warns(RuntimeWarning) if np.isinf(bad) else contextlib.nullcontext():
        with pytest.raises(g2.NotPositive):
            g2.metric_from_phi(phi)
        assert g2.is_positive(phi).tolist() == [True, False]


def test_elimination_matches_lapack_inverse_and_det(curved_batch):
    # b far from 6 id on GL+ pullbacks; the pivots multiply to det b
    phi = curved_batch[0]
    b = g2._cubic_contraction(g2._interior_phi(phi), phi)
    b_inv, pivots = g2._eliminate(b)
    want_inv = np.linalg.inv(b)
    assert np.max(np.abs(b_inv - want_inv)) < 1e-12 * np.max(np.abs(want_inv))
    det = np.linalg.det(b)
    assert np.max(np.abs(np.prod(pivots, axis=-1) / det - 1.0)) < 1e-12
    assert np.all(pivots > 0.0)


def test_elimination_finds_indefinite_with_positive_det(rng):
    # diag(-1, -1, 1, ..., 1) rotated: det > 0, yet not positive-definite
    q, _ = np.linalg.qr(rng.standard_normal((20, 7, 7)))
    b = q @ np.diag([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0]) @ np.swapaxes(q, -1, -2)
    assert np.all(np.linalg.det(b) > 0.0)
    _, pivots = g2._eliminate(b)
    assert np.all(np.prod(pivots, axis=-1) > 0.0)
    assert np.all(np.any(pivots <= 0.0, axis=-1))


def test_split_form_is_not_positive_definite():
    # flipping e123 and e145 gives the split form: b has signature (3, 4), det b > 0
    split = g2.PHI0.copy()
    split[np.nonzero(g2.PHI0)[0][:2]] *= -1.0
    b = g2._cubic_contraction(g2._interior_phi(split), split)
    assert np.linalg.det(b) > 0.0
    with pytest.raises(g2.NotPositive, match="not positive-definite"):
        g2.metric_from_phi(split)
    assert not bool(g2.is_positive(split))


# --- hodge star ----------------------------------------------------------------

def test_star_model_phi_is_model_psi():
    assert np.array_equal(g2.hodge_star(g2.PHI0, 3), g2.PSI0)
    assert np.array_equal(g2.hodge_star(g2.PSI0, 4), g2.PHI0)


def test_star_one_is_volume_form(curved_batch):
    phi, a, m, psi = curved_batch
    ones = np.ones(m.vol.shape + (1,))
    star1 = g2.hodge_star(ones, 0, m)
    assert np.max(np.abs(star1[..., 0] - m.vol)) < 1e-12


@pytest.mark.parametrize("k", range(8))
def test_star_involution_random_metric(rng, k):
    m = _random_metric(rng, (100,))
    alpha = rng.standard_normal((100, tables.num_components(k)))
    ss = g2.hodge_star(g2.hodge_star(alpha, k, m), 7 - k, m)
    assert np.max(np.abs(ss - alpha)) < 1e-11


def _random_metric(rng, shape):
    a = pullback_batch(rng, int(np.prod(shape))).reshape(shape + (7, 7))
    g = np.einsum("...ai,...aj->...ij", a, a)
    return g2.Metric(g, np.linalg.inv(g), np.sqrt(np.linalg.det(g)))


@pytest.mark.parametrize("metric_shape,form_shape", [((3,), (3,)), ((2, 1), (2, 3))])
@pytest.mark.parametrize("k", range(8))
def test_star_and_inner_match_table_free_oracle(rng, k, metric_shape, form_shape):
    # the projector-trace checks pass g of shape (m, 1, 7, 7) with forms (m, C, C_k)
    m = _random_metric(rng, metric_shape)
    alpha = rng.standard_normal(form_shape + (tables.num_components(k),))
    beta = rng.standard_normal(form_shape + (tables.num_components(k),))
    star = g2.hodge_star(alpha, k, m)
    expect = oracles.metric_hodge_star(alpha, k, m.g)
    assert star.shape == expect.shape
    assert np.max(np.abs(star - expect)) < 1e-12 * np.max(np.abs(expect))
    inner = g2.form_inner(alpha, beta, k, m)
    expect = oracles.metric_inner(alpha, beta, k, m.g)
    assert inner.shape == expect.shape
    assert np.max(np.abs(inner - expect)) < 1e-12 * np.max(np.abs(expect))


def test_star_and_inner_expand_at_most_three_slots(rng, monkeypatch):
    # a full k-tensor has 7^k entries per site; degrees 4..7 go through the
    # complement at degree 7 - k instead
    requested = []
    expand_table = tables.expand_table

    def recording(k):
        requested.append(k)
        return expand_table(k)

    monkeypatch.setattr(tables, "expand_table", recording)
    m = _random_metric(rng, (4,))
    for k in range(8):
        alpha = rng.standard_normal((4, tables.num_components(k)))
        g2.hodge_star(alpha, k, m)
        g2.form_inner(alpha, alpha, k, m)
    assert requested and max(requested) <= 3


def test_contract_slots_matches_einsum(rng):
    t = rng.standard_normal((5, 7, 7, 7))
    m = rng.standard_normal((3, 5, 7, 7))
    expect = np.einsum("...ia,...jb,...kc,...abc->...ijk", m[0], m[1], m[2], t)
    assert np.allclose(g2.contract_slots(t, m), expect, rtol=0, atol=1e-12)
    # one tensor broadcast against a batch of matrices
    expect = np.einsum("...ia,...jb,...kc,abc->...ijk", m[0], m[0], m[0], t[0])
    assert np.allclose(g2.contract_slots(t[0], (m[0],) * 3), expect, rtol=0, atol=1e-12)


def test_wedge_with_star_gives_inner_product(rng, curved_batch):
    phi, a, m, psi = curved_batch
    alpha = rng.standard_normal((200, 35))
    beta = rng.standard_normal((200, 35))
    top = g2.wedge_components(alpha, 3, g2.hodge_star(beta, 3, m), 4)
    ip = g2.form_inner(alpha, beta, 3, m)
    assert np.max(np.abs(top[..., 0] - ip * m.vol)) < 1e-10 * np.max(np.abs(top))


# --- type projections -----------------------------------------------------------

def test_project_2form_eigenbasis(curved_batch):
    phi, a, m, psi = curved_batch
    # X . phi is pure 7-type for all basis vectors X
    for i in range(7):
        x = np.zeros((1, 7))
        x[0, i] = 1.0
        xphi = np.einsum("iop,si,sp->so", tables.interior_table(3), x,
                         phi[:1])
        b7, b14 = checks.project_2form(xphi, phi[:1], m[:1])
        assert np.max(np.abs(b14)) < 1e-11
        assert np.max(np.abs(b7 - xphi)) < 1e-11


def test_project_2form_defining_relations(rng, curved_batch):
    phi, a, m, psi = curved_batch
    beta = rng.standard_normal((200, 21))
    b7, b14 = checks.project_2form(beta, phi, m)
    assert np.max(np.abs(b7 + b14 - beta)) < 1e-12
    # beta7 ^ phi = 2 * beta7 and beta14 ^ psi = 0
    w7 = g2.wedge_components(b7, 2, phi, 3)
    star_b7 = g2.hodge_star(b7, 2, m)
    assert np.max(np.abs(w7 - 2.0 * star_b7)) < 1e-10 * max(np.max(np.abs(w7)), 1)
    assert np.max(np.abs(g2.wedge_components(b14, 2, psi, 4))) < 1e-10 * np.max(np.abs(beta))
    ip = g2.form_inner(b7, b14, 2, m)
    assert np.max(np.abs(ip)) < 1e-11 * np.max(np.abs(beta)) ** 2


def test_projector_matrices_2form_eigen_oracle(rng):
    # brute-force 21 x 21 matrices: eigenvalues of *(. ^ phi) are 2 and -1
    # with multiplicities 7 and 14; projector traces are 7 and 14
    a = pullback_batch(rng, 1)
    phi = oracles.pullback_3form(a, g2.PHI0)[0]
    m = g2.metric_from_phi(phi)
    basis = np.eye(21)
    lmat = g2.hodge_star(g2.wedge_components(basis, 2, phi, 3), 5, m).T
    eig = np.sort(np.linalg.eigvals(lmat).real)
    assert np.allclose(eig[:14], -1.0, atol=1e-9)
    assert np.allclose(eig[14:], 2.0, atol=1e-9)
    b7, b14 = checks.project_2form(basis, phi, m)
    assert abs(np.trace(b7) - 7.0) < 1e-10
    assert abs(np.trace(b14) - 14.0) < 1e-10


def test_project_3form_parts(curved_batch, rng):
    phi, a, m, psi = curved_batch
    # gamma = phi -> (phi, 0, 0)
    p1, p7, p27 = g2.project_3form(phi, phi, psi, m)
    assert np.max(np.abs(p1 - phi)) < 1e-10
    assert np.max(np.abs(p7)) < 1e-10
    assert np.max(np.abs(p27)) < 1e-10
    # gamma = X . psi -> pure 7-type
    x = rng.standard_normal((200, 7))
    xpsi = np.einsum("iop,...i,...p->...o", tables.interior_table(4), x, psi)
    q1, q7, q27 = g2.project_3form(xpsi, phi, psi, m)
    assert np.max(np.abs(q1)) < 1e-9
    assert np.max(np.abs(q27)) < 1e-9
    assert np.max(np.abs(q7 - xpsi)) < 1e-9
    # 27-part kills both wedges
    gamma = rng.standard_normal((200, 35))
    r1, r7, r27 = g2.project_3form(gamma, phi, psi, m)
    assert np.max(np.abs(r1 + r7 + r27 - gamma)) < 1e-11
    assert np.max(np.abs(g2.wedge_components(r27, 3, phi, 3))) < 1e-10 * np.max(np.abs(gamma))
    assert np.max(np.abs(g2.wedge_components(r27, 3, psi, 4))) < 1e-10 * np.max(np.abs(gamma))


def test_projector_matrices_3form_traces(rng):
    a = pullback_batch(rng, 1)
    phi = oracles.pullback_3form(a, g2.PHI0)[0]
    m = g2.metric_from_phi(phi)
    psi = g2.hodge_star(phi, 3, m)
    basis = np.eye(35)
    p1, p7, p27 = g2.project_3form(basis, phi, psi, m)
    for p, t in ((p1, 1.0), (p7, 7.0), (p27, 27.0)):
        assert abs(np.trace(p) - t) < 1e-9
        # projector idempotence via the eigen-decomposition oracle
        eig = np.sort(np.linalg.eigvals(p.T).real)
        assert np.allclose(eig, np.concatenate([np.zeros(35 - int(t)),
                                                np.ones(int(t))]), atol=1e-8)


# --- i_phi / j_phi --------------------------------------------------------------

def test_i_phi_of_metric_is_three_phi(curved_batch):
    phi, a, m, psi = curved_batch
    assert np.max(np.abs(g2.i_phi(m.g, phi, m) - 3.0 * phi)) < 1e-12
    assert np.max(np.abs(g2.i_phi(np.zeros_like(m.g), phi, m))) == 0.0


def test_i_phi_matches_einsum_oracle(rng, curved_batch):
    # random symmetric h, GL+ metrics and both the pulled-back and random 3-forms
    phi, a, m, psi = curved_batch
    h = rng.standard_normal((200, 7, 7))
    h = h + np.swapaxes(h, -1, -2)
    for form in (phi, rng.standard_normal((200, 35))):
        expect = oracles.i_phi(h, form, m.g_inv)
        got = g2.i_phi(h, form, m)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
    # one unbatched 3-form against the batch of h and metrics
    expect = oracles.i_phi(h, np.broadcast_to(g2.PHI0, phi.shape), m.g_inv)
    assert np.max(np.abs(g2.i_phi(h, g2.PHI0, m) - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_i_phi_lands_in_one_plus_27(rng, curved_batch):
    phi, a, m, psi = curved_batch
    h = rng.standard_normal((200, 7, 7))
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    _, part7, _ = g2.project_3form(g2.i_phi(h, phi, m), phi, psi, m)
    assert np.max(np.abs(part7)) < 1e-11 * np.max(np.abs(h))


def test_j_phi_of_phi_is_six_metric(curved_batch):
    phi, a, m, psi = curved_batch
    assert np.max(np.abs(checks.j_phi(phi, phi, m) - 6.0 * m.g)) < 1e-11


def test_j_raw_antisymmetric_on_7_type(curved_batch):
    phi, a, m, psi = curved_batch
    for i in range(7):
        x = np.zeros((1, 7))
        x[0, i] = 1.0
        xpsi = np.einsum("iop,si,sp->so", tables.interior_table(4), x, psi[:1])
        raw = checks.j_phi_raw(xpsi, phi[:1], m[:1])
        sym = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        assert np.max(np.abs(sym)) < 1e-10


# --- structure and torsion -------------------------------------------------------

def test_structure_caches_psi_consistent(rng):
    lat = Lattice((1, 2), 16, TWO_PI)
    st = g2.G2Structure.from_phi(FormField(lat, 3, np.broadcast_to(
        g2.PHI0, lat.grid_shape + (35,)).copy()))
    assert np.max(np.abs(st.psi.data - g2.PSI0)) < 1e-13
    assert np.max(np.abs(st.vol - 1.0)) < 1e-13


def test_psi_identity_matches_hodge_star_far_from_flat(curved_batch):
    phi, _, m, psi = curved_batch
    got = g2._psi_of(g2._interior_phi(phi), m)
    assert np.max(np.abs(got - psi)) < 1e-12 * np.max(np.abs(psi))


def test_structure_psi_matches_hodge_star_on_closed_perturbed(rng):
    lat = Lattice((1, 2), 16, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng))
    want = g2.hodge_star(st.phi.data, 3, st)
    assert np.max(np.abs(st.psi.data - want)) < 1e-12 * np.max(np.abs(want))


def test_full_torsion_zero_for_constant_structure():
    lat = Lattice((1,), 16, TWO_PI)
    st = g2.flat_reference(lat)
    assert np.max(np.abs(riemann.torsion_of(st))) < 1e-15


def test_full_torsion_skew_for_closed_structure(rng):
    lat = Lattice((1, 2), 32, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng))
    # riemann.torsion_of, -tau2/2, is skew by construction; nabla phi's T is not
    t = g2.full_torsion(st, checks.nabla_phi_of(st))
    assert np.max(np.abs(t + np.swapaxes(t, -1, -2))) < 1e-10


def test_torsion_forms_vanish_for_torsion_free():
    lat = Lattice((1,), 16, TWO_PI)
    td = checks.extract_torsion_forms(g2.flat_reference(lat))
    for tau in (td.tau0, td.tau1, td.tau2, td.tau3):
        assert np.max(np.abs(tau)) < 1e-13


def test_torsion_forms_closed_case(rng):
    lat = Lattice((1, 2), 32, TWO_PI)
    st = g2.G2Structure.from_phi(closed_perturbed_phi(lat, rng))
    td = checks.extract_torsion_forms(st)
    assert np.max(np.abs(td.tau0)) < 1e-9
    assert np.max(np.abs(td.tau1)) < 1e-9
    assert np.max(np.abs(td.tau3)) < 1e-9
    # tau2 is 14-type: tau2 ^ psi = 0
    assert np.max(np.abs(g2.wedge_components(td.tau2, 2, st.psi.data, 4))) < 1e-9
    # T = -tau2 / 2
    t = riemann.torsion_of(st)
    assert np.max(np.abs(t + 0.5 * g2.expand_form(td.tau2, 2))) < 1e-10


def test_torsion_forms_conformal_oracle():
    # phi = f^3 phi0: the defining equations force tau1 parallel to d(log f)
    # and tau0 = tau2 = tau3 = 0; the constant is measured, both equations
    # are then verified as residuals.
    lat = Lattice((1, 2), 32, TWO_PI)
    x1, x2 = lat.coordinate(1), lat.coordinate(2)
    f = np.broadcast_to(np.exp(0.05 * np.sin(x1) + 0.03 * np.cos(x2)),
                        lat.grid_shape).copy()
    st = g2.G2Structure.from_phi(FormField(lat, 3, (f ** 3)[..., None] * g2.PHI0))
    td = checks.extract_torsion_forms(st)
    dlf = lat.gradient(np.log(f))
    c = np.sum(td.tau1 * dlf) / np.sum(dlf * dlf)
    assert np.max(np.abs(td.tau1 - c * dlf)) < 1e-12
    assert np.max(np.abs(td.tau0)) < 1e-12
    assert np.max(np.abs(td.tau2)) < 1e-12
    assert np.max(np.abs(td.tau3)) < 1e-12
    _assert_defining_equations(st, td, 1e-9)


def test_torsion_form_assembly_generic(rng):
    # generic (non-closed) small perturbation: T matches the tau-form assembly
    lat = Lattice((1, 2), 32, TWO_PI)
    pert = band_limited_form(lat, 3, rng, n_modes=4, amp=5e-3)
    st = g2.G2Structure.from_phi(FormField(lat, 3, g2.PHI0 + pert.data))
    td = checks.extract_torsion_forms(st)
    # riemann.torsion_of is -tau2/2, closed phi only; nabla phi gives all of T
    t = g2.full_torsion(st, checks.nabla_phi_of(st))
    tau1_phi = np.einsum("...l,...la,...aij->...ij", td.tau1, st.g_inv,
                         g2.expand_form(st.phi.data, 3))
    bar_tau3 = checks.j_phi(td.tau3, st.phi.data, st) / 4.0
    assert np.max(np.abs(g2.i_phi(bar_tau3, st.phi.data, st) - td.tau3)) < 1e-12
    assembly = ((td.tau0[..., None, None] / 4.0) * st.g - tau1_phi - bar_tau3
                - 0.5 * g2.expand_form(td.tau2, 2))
    assert np.max(np.abs(t - assembly)) < 1e-9
    _assert_defining_equations(st, td, 1e-9)


def _assert_defining_equations(st, td, tol):
    dphi = exterior_derivative(st.phi)
    dpsi = exterior_derivative(st.psi)
    w13, w14 = tables.wedge_table(1, 3), tables.wedge_table(1, 4)
    w23 = tables.wedge_table(2, 3)
    rhs1 = (td.tau0[..., None] * st.psi.data
            + 3.0 * np.einsum("oaj,...a,...j->...o", w13, td.tau1, st.phi.data)
            + g2.hodge_star(td.tau3, 3, st))
    scale1 = max(np.max(np.abs(dphi.data)), np.max(np.abs(st.phi.data)))
    assert np.max(np.abs(dphi.data - rhs1)) < tol * scale1
    rhs2 = (4.0 * np.einsum("oaj,...a,...j->...o", w14, td.tau1, st.psi.data)
            + np.einsum("oaj,...a,...j->...o", w23, td.tau2, st.phi.data))
    scale2 = max(np.max(np.abs(dpsi.data)), np.max(np.abs(st.psi.data)))
    assert np.max(np.abs(dpsi.data - rhs2)) < tol * scale2
