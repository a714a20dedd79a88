"""The identity suite behind `g2flow check`, the one home of every identity.

Each entry of CHECKS states one identity, and run_check is the one rule for
running it: `g2flow check` and tier-1 (one case per entry) both use it.
Inputs are drawn from Draws, a counter-based generator keyed by the seed, so
repeated runs with the same seed are bit-identical, and the suite imports no
numpy.random, whose secrets and hmac imports map OpenSSL. The base 3-form of
the pointwise battery is recovered from the stored 4-form via the euclidean
star, which cross-anchors the two model tables. The G2 algebra that only the
checks use lives here too: j_phi, the 2-form type projection, the torsion
forms tau0..tau3 and nabla phi, which the three torsion checks compare with
the flow's T = -tau2/2. By g2algebra's block rule, j_phi, the torsion forms
past d phi and d psi, the connection term of nabla phi and its
reconstruction from T run on blocks of lattice.SITE_BLOCK sites.

Each shared fixture of SuiteContext, the pointwise batch and the closed
lattice structure with the geometry cached on it, lives from its first
reader to its last: LAST_READER names that check, and run_identity_suite
releases the fixture once it has run, so no later check runs beside it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import g2algebra as g2
from . import riemann, tables
from .flow import hodge_laplacian
from .lattice import FormField, Lattice, exterior_derivative, map_site_blocks, site_blocks

POINTWISE_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    tolerance: float
    max_residual: float  # None when error is set
    passed: bool
    error: str = None

    def to_dict(self):
        d = {"name": self.name, "tolerance": self.tolerance,
             "max_residual": self.max_residual, "passed": self.passed}
        if self.error:
            d["error"] = self.error
        return d


# --- G2 algebra that only the checks use ---------------------------------------

def j_phi_raw(gamma: np.ndarray, phi: np.ndarray, metric: g2.Metric) -> np.ndarray:
    """Unsymmetrized j: (u,v) -> *((u . phi) ^ (v . phi) ^ gamma), with u . phi per site block."""
    return g2._cubic_form(phi, gamma) / np.asarray(metric.vol)[..., None, None]


def j_phi(gamma: np.ndarray, phi: np.ndarray, metric: g2.Metric) -> np.ndarray:
    """Symmetric part of j_phi; inverse of i_phi up to 4 id + 2 tr."""
    raw = j_phi_raw(gamma, phi, metric)
    return 0.5 * (raw + np.swapaxes(raw, -1, -2))


def project_2form(beta: np.ndarray, phi: np.ndarray, metric: g2.Metric):
    """Split a 2-form into its 7- and 14-dimensional type components.

    Uses the eigen-projectors of L: beta -> *(beta ^ phi), which acts as +2
    on the 7-part and -1 on the 14-part.
    """
    w = g2.wedge_components(beta, 2, phi, 3)
    l_beta = g2.hodge_star(w, 5, metric)
    beta7 = (l_beta + beta) / 3.0
    return beta7, beta - beta7


def covariant_derivative_form(alpha: np.ndarray, k: int, gamma: np.ndarray,
                              lattice: Lattice) -> np.ndarray:
    """Covariant derivative of a compressed k-form field, k >= 1: out[..., m, I].

    The connection acts on forms as a derivation,
    nabla_m alpha = d_m alpha - sum_{x,z} Gamma^z_mx e^x ^ (e_z . alpha),
    whose increasing components are those of the index formula
    nabla_m alpha_a1..ak = d_m alpha_a1..ak - sum_s Gamma^z_m(a_s) alpha_a1..z..ak,
    with z in slot s. u = e_z . alpha is one interior-table gemm; Gamma
    arranged [(m, x), z] contracts z in one batched (49, 7) @ (7, C_{k-1})
    matmul per site; and e^x ^ . contracts (x, J) against the same table
    read as a (7 C_{k-1}, C_k) matrix. The partials are taken over the
    whole grid; the connection term is per site and runs on blocks of
    lattice.SITE_BLOCK sites, so its (49, C_{k-1}) product exists for one
    block at a time.
    """
    interior = tables.interior_table(k)
    wedge = interior.reshape(-1, interior.shape[-1])
    out = lattice.gradient(alpha)
    flat = out.reshape((-1, 7) + alpha.shape[-1:])
    alpha = alpha.reshape(-1, alpha.shape[-1])
    gamma = gamma.reshape(-1, 7, 7, 7)
    for block in site_blocks(flat.shape[0]):
        conn = np.moveaxis(gamma[block], -3, -1).reshape(-1, 49, 7)  # conn[(m, x), z] = Gamma^z_mx
        v = conn @ tables.apply_table(interior, alpha[block])  # v[m, x, J]
        flat[block] -= v.reshape(-1, 7, wedge.shape[0]) @ wedge
    return out


def nabla_phi_of(structure: g2.G2Structure) -> np.ndarray:
    """Covariant derivative of phi, (nabla phi)[..., m, I] for the 35 increasing lmn, cached.

    g2algebra.full_torsion reads it; the flow and its snapshot take T from
    d* phi (riemann.torsion_of), and the torsion checks compare the two.
    """
    return structure.cached("nabla_phi", lambda: covariant_derivative_form(
        structure.phi.data, 3, riemann.connection_of(structure), structure.lattice))


@dataclass
class TorsionData:
    """Intrinsic torsion forms tau0..tau3."""

    tau0: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    tau3: np.ndarray


def extract_torsion_forms(structure: g2.G2Structure) -> TorsionData:
    """Torsion forms (tau0, tau1, tau2, tau3) from dphi and dpsi.

    dphi = tau0 psi + 3 tau1 ^ phi + *tau3 is resolved through the type
    decomposition of *(dphi); tau2 then solves
    dpsi - 4 tau1 ^ psi = tau2 ^ phi, a pointwise 21 x 21 linear system.
    Only d phi and d psi span the grid: the star, the type decomposition and
    both solves run on site blocks, and each block's forms equal the
    whole-grid ones bit for bit, since every kernel they call runs on blocks
    of the same size.
    """
    def forms(phi, psi, dphi, dpsi, g, g_inv, vol):
        metric = g2.Metric(g, g_inv, vol)
        v3 = g2.hodge_star(dphi, 4, metric)
        _, v7, tau3 = g2.project_3form(v3, phi, psi, metric)
        tau0 = g2.form_inner(v3, phi, 3, metric) / 7.0
        star_v7 = g2.hodge_star(v7, 3, metric)
        # 3 tau1 ^ phi equals the 7-part of dphi; solve the normal equations.
        m1_t = 3.0 * np.swapaxes(tables.apply_table(tables.wedge_table(1, 3), phi), -1, -2)
        tau1 = np.linalg.solve(m1_t @ np.swapaxes(m1_t, -1, -2), m1_t @ star_v7[..., None])[..., 0]
        wedge_psi = tables.apply_table(tables.wedge_table(1, 4), psi)
        rho = dpsi - 4.0 * (wedge_psi @ tau1[..., None])[..., 0]
        m2 = tables.apply_table(tables.wedge_table(2, 3), phi)
        return tau0, tau1, np.linalg.solve(m2, rho[..., None])[..., 0], tau3

    return TorsionData(*map_site_blocks(
        forms, (structure.phi.data, 1), (structure.psi.data, 1),
        (exterior_derivative(structure.phi).data, 1), (exterior_derivative(structure.psi).data, 1),
        (structure.g, 2), (structure.g_inv, 2), (structure.vol, 0)))


# --- randomized inputs ---------------------------------------------------------

_MASK = 2 ** 64 - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment, 2^64 / golden ratio
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _splitmix(z: int) -> int:
    """SplitMix64's output function of the 64-bit state z, in Python ints."""
    z = ((z ^ (z >> 30)) * _MIX[0]) & _MASK
    z = ((z ^ (z >> 27)) * _MIX[1]) & _MASK
    return z ^ (z >> 31)


# Up to this many words an array draw loops over scalar draws: about 0.7 us
# a word against about 11 us for the dozen passes over a uint64 array.
_LOOPED_WORDS = 12


class Draws:
    """Seeded uniform draws: SplitMix64 over a counter, keyed by (seed, stream).

    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): word i of a stream is the
    output function of key + (i + 1) * _GAMMA mod 2^64, and a uniform on
    [0, 1) is its top 53 bits over 2^53. uniform and integers take numpy
    Generator's arguments, so the helpers below accept either. A scalar draw
    (size None) runs in Python ints, which cost about 1 us where a 1-element
    uint64 array costs 20; an array draw of more than _LOOPED_WORDS words
    runs on uint64 arrays, which wrap without warning where a numpy uint64
    scalar warns. All read the same words, so a scalar equals the array
    draw at its place.
    """

    def __init__(self, seed: int, stream: int):
        self._key = _splitmix((_splitmix((seed + _GAMMA) & _MASK) ^ stream) & _MASK)
        self._drawn = 0

    def _unit(self, size):
        """The stream's next uniforms on [0, 1): a float, or an array of shape size."""
        if size is None:
            self._drawn += 1
            return (_splitmix((self._key + self._drawn * _GAMMA) & _MASK) >> 11) * 2.0 ** -53
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        n = math.prod(shape)
        if n <= _LOOPED_WORDS:
            return np.array([self._unit(None) for _ in range(n)]).reshape(shape)
        z = np.arange(self._drawn + 1, self._drawn + n + 1, dtype=np.uint64)
        self._drawn += n
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._key)
        for shift, mult in zip((30, 27), _MIX):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mult)
        z ^= z >> np.uint64(31)
        return ((z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53).reshape(shape)

    def uniform(self, low=0.0, high=1.0, size=None):
        """Uniforms on [low, high), as numpy Generator.uniform."""
        return low + (high - low) * self._unit(size)

    def integers(self, low, high=None, size=None):
        """Integers on [low, high), or [0, low) without high, as numpy Generator.integers."""
        if high is None:
            low, high = 0, low
        scaled = (high - low) * self._unit(size)
        return low + (int(scaled) if size is None else scaled.astype(np.int64))


_SQRT3 = 3.0 ** 0.5


def _centred(rng, size=None):
    """Uniforms on [-sqrt 3, sqrt 3]: mean 0 and variance 1."""
    return rng.uniform(-_SQRT3, _SQRT3, size)


def _random_pullbacks(rng, n):
    """GL+(7) maps near the identity with bounded conditioning."""
    a = np.eye(7) + 0.15 * _centred(rng, (n, 7, 7))
    bad = np.linalg.cond(a) > 20.0
    while np.any(bad):
        a[bad] = np.eye(7) + 0.15 * _centred(rng, (int(bad.sum()), 7, 7))
        bad = np.linalg.cond(a) > 20.0
    neg = np.linalg.det(a) < 0
    a[neg, :, 0] *= -1.0
    return a


def _band_limited(lat, degree, rng, n_modes=5, amp=1.0, kmax=2):
    """Random real band-limited k-form field on the active axes."""
    data = np.zeros(lat.grid_shape + (tables.num_components(degree),))
    for _ in range(n_modes):
        c = rng.integers(0, tables.num_components(degree))
        ks = rng.integers(-kmax, kmax + 1, lat.ndim_active)
        ph = rng.uniform(0, 2 * np.pi)
        arg = ph * np.ones(lat.grid_shape)
        for k, ax in zip(ks, lat.active_axes):
            arg = arg + k * (2 * np.pi / lat.period) * lat.coordinate(ax)
        data[..., c] += amp * _centred(rng) * np.broadcast_to(np.cos(arg), lat.grid_shape)
    return FormField(lat, degree, data)


def _closed_perturbed_phi(lat, rng, n_modes=4, amp=5e-3, kmax=2):
    """phi0 + d(beta) for a random band-limited 2-form beta; closed by construction."""
    beta = _band_limited(lat, 2, rng, n_modes=n_modes, amp=amp, kmax=kmax)
    return FormField(lat, 3, g2.PHI0 + exterior_derivative(beta).data)


def _pointwise_batch(seed, n, phi0):
    """(phi, a, metric, psi) of n random positive forms, the GL+ pullbacks a of phi0."""
    a = _random_pullbacks(Draws(seed, 1000), n)
    phi = g2._apply_metric(phi0, 3, np.swapaxes(a, -1, -2))
    m = g2.metric_from_phi(phi)
    return phi, a, m, g2.hodge_star(phi, 3, m)


def _closed_lattice_structure(seed):
    """(structure, lattice) of a closed perturbed 2-D n=32 structure, spectrally resolvable."""
    lat = Lattice((1, 2), 32, 2.0 * np.pi)
    return g2.G2Structure.from_phi(_closed_perturbed_phi(lat, Draws(seed, 2000))), lat


class SuiteContext:
    """Shared randomized fixtures, each built on its first request and held until released.

    run_identity_suite releases a fixture right after its last reader, the
    check LAST_READER names for it, so it is freed with the geometry cached
    on it while the later checks run. A released fixture is not rebuilt: a
    request for it raises RuntimeError, which fails the requesting check.
    """

    def __init__(self, seed, n_random):
        self.seed = seed
        self.n = n_random
        self.phi0 = g2.hodge_star(g2.PSI0, 4)  # the model 3-form
        self._held = {}
        self._released = set()

    def _fixture(self, name, build):
        if name in self._released:
            raise RuntimeError(f"suite fixture {name} was released after its last reader")
        if name not in self._held:
            self._held[name] = build()
        return self._held[name]

    def release(self, name):
        """Drop fixture name ("pointwise" or "closed_structure"); it cannot be requested again."""
        self._held.pop(name, None)
        self._released.add(name)

    def pointwise(self):
        """Batch of random positive forms with derived geometry."""
        return self._fixture("pointwise", lambda: _pointwise_batch(self.seed, self.n, self.phi0))

    def closed_structure(self):
        """One closed perturbed structure with spectrally resolvable content."""
        return self._fixture("closed_structure", lambda: _closed_lattice_structure(self.seed))


# --- pointwise battery -------------------------------------------------------

def _check_metric_model(rng, ctx):
    m = g2.metric_from_phi(ctx.phi0)
    return max(float(np.max(np.abs(m.g - np.eye(7)))), abs(float(m.vol) - 1.0))


def _check_star_model(rng, ctx):
    return float(np.max(np.abs(g2.hodge_star(ctx.phi0, 3) - g2.PSI0)))


def _check_i_phi_metric(rng, ctx):
    phi, _, m, psi = ctx.pointwise()
    return float(np.max(np.abs(g2.i_phi(m.g, phi, m) - 3.0 * phi)))


def _check_j_phi_phi(rng, ctx):
    phi, _, m, psi = ctx.pointwise()
    return float(np.max(np.abs(j_phi(phi, phi, m) - 6.0 * m.g)))


def _random_symmetric(rng, n):
    h = _centred(rng, (n, 7, 7))
    return 0.5 * (h + np.swapaxes(h, -1, -2))


def _check_j_i_identity(rng, ctx):
    phi, _, m, psi = ctx.pointwise()
    h = _random_symmetric(rng, ctx.n)
    jih = j_phi(g2.i_phi(h, phi, m), phi, m)
    expect = 4.0 * h + 2.0 * np.einsum("...ij,...ij->...", m.g_inv, h)[..., None, None] * m.g
    return float(np.max(np.abs(jih - expect)))


def _norm_identity_sides(h, phi, m):
    """|i_phi(h)|^2 and (tr h)^2 + 2 h.h at each site, traces and contractions by g_inv."""
    ih = g2.i_phi(h, phi, m)
    hm = np.einsum("...ia,...aj->...ij", h, m.g_inv)
    return (g2.form_inner(ih, ih, 3, m),
            np.einsum("...ii->...", hm) ** 2 + 2.0 * np.einsum("...ik,...ki->...", hm, hm))


def _check_norm_identity(rng, ctx):
    """Each site's gap over max(|lhs|, 1): the sides reach about 1e5 on the battery."""
    phi, _, m, psi = ctx.pointwise()
    lhs, rhs = _norm_identity_sides(_random_symmetric(rng, ctx.n), phi, m)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)))


def _check_i_phi_type(rng, ctx):
    phi, _, m, psi = ctx.pointwise()
    h = _random_symmetric(rng, ctx.n)
    _, part7, _ = g2.project_3form(g2.i_phi(h, phi, m), phi, psi, m)
    return float(np.max(np.abs(part7)))


def _check_metric_equivariance(rng, ctx):
    phi, a, m, psi = ctx.pointwise()
    return float(np.max(np.abs(m.g - np.einsum("...ai,...aj->...ij", a, a))))


def _check_phi_norm(rng, ctx):
    phi, _, m, psi = ctx.pointwise()
    r1 = np.abs(g2.form_inner(phi, phi, 3, m) - 7.0)
    r2 = np.abs(g2.form_inner(psi, psi, 4, m) - 7.0)
    return float(max(np.max(r1), np.max(r2)))


def _check_star_involution(rng, ctx):
    phi, _, m, psi = ctx.pointwise()
    n = min(ctx.n, 128)
    m = m[:n]
    worst = 0.0
    for k in range(0, 8):
        alpha = _centred(rng, (n, tables.num_components(k)))
        ss = g2.hodge_star(g2.hodge_star(alpha, k, m), 7 - k, m)
        worst = max(worst, float(np.max(np.abs(ss - alpha))))
    return worst


def _check_positivity(rng, ctx):
    ok = bool(g2.is_positive(ctx.phi0)) and not bool(g2.is_positive(-ctx.phi0))
    small = ctx.phi0 + 0.01 * _centred(rng, (16, 35))
    ok = ok and bool(np.all(g2.is_positive(small)))
    return 0.0 if ok else 1.0


def _check_projection_completeness(rng, ctx):
    phi, _, m, psi = ctx.pointwise()
    beta = _centred(rng, (ctx.n, 21))
    b7, b14 = project_2form(beta, phi, m)
    worst = float(np.max(np.abs(b7 + b14 - beta)))
    worst = max(worst, float(np.max(np.abs(g2.form_inner(b7, b14, 2, m)))))
    gamma = _centred(rng, (ctx.n, 35))
    p1, p7, p27 = g2.project_3form(gamma, phi, psi, m)
    worst = max(worst, float(np.max(np.abs(p1 + p7 + p27 - gamma))))
    for x, y in ((p1, p7), (p1, p27), (p7, p27)):
        worst = max(worst, float(np.max(np.abs(g2.form_inner(x, y, 3, m)))))
    return worst


def _check_traces_2form(rng, ctx):
    phi, _, m, psi = ctx.pointwise()
    n = min(ctx.n, 64)
    basis = np.broadcast_to(np.eye(21), (n, 21, 21))
    b7, b14 = project_2form(basis, phi[:n, None], m[:n, None])
    t7 = np.einsum("...cc->...", b7)
    t14 = np.einsum("...cc->...", b14)
    return float(max(np.max(np.abs(t7 - 7.0)), np.max(np.abs(t14 - 14.0))))


def _check_traces_3form(rng, ctx):
    phi, _, m, psi = ctx.pointwise()
    n = min(ctx.n, 64)
    basis = np.broadcast_to(np.eye(35), (n, 35, 35))
    p1, p7, p27 = g2.project_3form(basis, phi[:n, None], psi[:n, None], m[:n, None])
    res = [np.max(np.abs(np.einsum("...cc->...", p) - t))
           for p, t in ((p1, 1.0), (p7, 7.0), (p27, 27.0))]
    return float(max(res))


# --- lattice battery ---------------------------------------------------------

def _check_d_squared(rng, ctx):
    lat = Lattice((1, 2), 16, 2.0 * np.pi)
    worst = 0.0
    for k in range(0, 6):
        alpha = _band_limited(lat, k, rng)
        dd = exterior_derivative(exterior_derivative(alpha))
        worst = max(worst, dd.max_norm() / max(alpha.max_norm(), 1e-300))
    return worst


def _check_leibniz(rng, ctx):
    lat = Lattice((1, 2), 16, 2.0 * np.pi)
    worst = 0.0
    for k, l in ((1, 2), (2, 2), (0, 3), (2, 3)):
        a = _band_limited(lat, k, rng)
        b = _band_limited(lat, l, rng)
        da, db = exterior_derivative(a).data, exterior_derivative(b).data
        ab = FormField(lat, k + l, g2.wedge_components(a.data, k, b.data, l))
        lhs = exterior_derivative(ab)
        rhs = (g2.wedge_components(da, k + 1, b.data, l)
               + ((-1.0) ** k) * g2.wedge_components(a.data, k, db, l + 1))
        worst = max(worst, float(np.max(np.abs(lhs.data - rhs))) / max(lhs.max_norm(), 1e-300))
    return worst


def _check_stokes(rng, ctx):
    lat = Lattice((1, 2), 16, 2.0 * np.pi)
    data = _band_limited(lat, 6, rng).data.copy()
    # The torus integral of d alpha sums each axis's partial over the other
    # axis, which cancels every mode that varies along the other axis, so a
    # defect that is the same on every grid line shows only on a mode that
    # is constant along it: one on the component d couples to each axis.
    pos = tables.index_position(6)
    for axis, k, phase in ((1, 1, 0.4), (2, 2, 1.1)):
        c = pos[tuple(j for j in range(7) if j != axis - 1)]
        data[..., c] += np.cos(k * lat.coordinate(axis) + phase)
    alpha = FormField(lat, 6, data)
    total = lat.integrate(exterior_derivative(alpha).data[..., 0])
    scale = lat.integrate(np.abs(alpha.data).sum(axis=-1)) + 1e-300
    return abs(total) / scale


def _check_fd4_order(rng, ctx):
    errs = []
    for m in (16, 32, 64):
        lat = Lattice((1,), m, 2.0 * np.pi, scheme="fd4")
        x = lat.coordinate(1)[..., None]
        errs.append(np.max(np.abs(lat.partial_array(np.sin(x), 1) - np.cos(x))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    worst = max(abs(o - 4.0) for o in orders)
    return float(worst)


def _check_flat_weitzenboeck(rng, ctx):
    lat = Lattice((1, 2), 16, 2.0 * np.pi)
    ref = g2.flat_reference(lat)
    worst = 0.0
    for k in (1, 2, 3, 4):
        alpha = _band_limited(lat, k, rng)
        lap = hodge_laplacian(ref, alpha)
        rough = np.zeros_like(alpha.data)
        for ax in lat.active_axes:
            rough += lat.partial_array(lat.partial_array(alpha.data, ax), ax)
        worst = max(worst, float(np.max(np.abs(lap.data + rough)))
                    / max(lap.max_norm(), 1e-300))
    return worst


# --- geometry battery --------------------------------------------------------

def _check_scalar_identity(rng, ctx):
    st, lat = ctx.closed_structure()
    t = riemann.torsion_of(st)
    t_sq = riemann.tensor_norm_sq(t, st)
    curv = riemann.curvature_of(st)
    return float(np.max(np.abs(curv.scalar + t_sq)) / max(np.max(np.abs(curv.scalar)), 1e-300))


def _check_metric_compatibility(rng, ctx):
    """max |nabla g|, taken per site block: no (..., 7, 7, 7) array spans the grid."""
    st, lat = ctx.closed_structure()
    return float(np.max(riemann.map_covariant_derivative(
        lambda nabla_g: np.max(np.abs(nabla_g), axis=(1, 2, 3)), st.g, riemann.connection_of(st), lat)))


def _check_bianchi(rng, ctx):
    st, lat = ctx.closed_structure()
    curv = riemann.curvature_of(st)
    worst = float(np.max(np.abs(curv.ric - np.swapaxes(curv.ric, -1, -2))))
    lhs = riemann.map_covariant_derivative(  # g^mi nabla_m Ric_ij, per site block
        lambda nric, g_inv: np.einsum("...mi,...mij->...j", g_inv, nric),
        curv.ric, riemann.connection_of(st), lat, (st.g_inv, 2))
    dr = lat.gradient(curv.scalar)
    scale = max(np.max(np.abs(dr)), 1e-300)
    return max(worst, float(np.max(np.abs(lhs - 0.5 * dr)) / scale))


def _check_riemann_symmetries(rng, ctx):
    """Rm_ijkl = -Rm_jikl = Rm_klij and the first Bianchi identity, over max|Rm|.

    Each identity reads expand_form of one (..., 7, 7, 21) block of Rm as
    riemann.curvature_blocks yields it, so the 7^4 array exists for one
    block at a time. Antisymmetry in kl is not tested: expand_form writes
    Rm_ijlk as the negated copy of Rm_ijkl, so their sum is exactly 0 and
    could never fail. np.maximum keeps a NaN in any block.
    """
    st, lat = ctx.closed_structure()
    scale = worst = 0.0
    for _, block, _ in riemann.curvature_blocks(riemann.connection_of(st), st, lat):
        full = g2.expand_form(block, 2)
        scale = np.maximum(scale, np.max(np.abs(block)))
        worst = np.maximum(worst, np.max(np.abs(full + np.einsum("...jikl->...ijkl", full))))
        worst = np.maximum(worst, np.max(np.abs(full - np.einsum("...klij->...ijkl", full))))
        worst = np.maximum(worst, np.max(np.abs(
            full + np.einsum("...iklj->...ijkl", full) + np.einsum("...iljk->...ijkl", full))))
    return float(worst / max(scale, 1e-300))


def _check_torsion_closed(rng, ctx):
    st, lat = ctx.closed_structure()
    t = g2.full_torsion(st, nabla_phi_of(st))  # torsion_of is skew by construction
    td = extract_torsion_forms(st)
    worst = float(np.max(np.abs(t + np.swapaxes(t, -1, -2))))
    worst = max(worst, float(np.max(np.abs(t + 0.5 * g2.expand_form(td.tau2, 2)))))
    worst = max(worst, float(np.max(np.abs(td.tau0))), float(np.max(np.abs(td.tau1))),
                float(np.max(np.abs(td.tau3))))
    worst = max(worst, float(np.max(np.abs(
        g2.wedge_components(td.tau2, 2, st.psi.data, 4)))))
    return worst


def _check_torsion_reconstruction(rng, ctx):
    """nabla_i phi_jkl = T_i^m psi_mjkl at the 35 increasing jkl, per site block.

    psi_mjkl at increasing jkl is e_m . psi, (7, 35) per site, the size of
    the stored nabla phi, so no 7^4 array of psi is built, and the (7, 35)
    tables exist for one block of lattice.SITE_BLOCK sites at a time.
    """
    st, lat = ctx.closed_structure()

    def gap(t, g_inv, psi, nabla_phi):
        t_up = np.einsum("...ia,...am->...im", t, g_inv)
        int_psi = tables.apply_table(tables.interior_table(4), psi)
        recon = np.einsum("...im,...mJ->...iJ", t_up, int_psi)
        recon -= nabla_phi
        return np.max(np.abs(recon, out=recon), axis=(1, 2))
    return float(np.max(map_site_blocks(gap, (riemann.torsion_of(st), 2), (st.g_inv, 2),
                                        (st.psi.data, 1), (nabla_phi_of(st), 2))))


def _check_torsion_assembly(rng, ctx):
    lat = Lattice((1, 2), 32, 2.0 * np.pi)
    pert = _band_limited(lat, 3, rng, n_modes=4, amp=5e-3, kmax=2)
    st = g2.G2Structure.from_phi(FormField(lat, 3, g2.PHI0 + pert.data))
    td = extract_torsion_forms(st)
    # phi is not closed; its connection is used once, so it is not cached
    t = g2.full_torsion(st, covariant_derivative_form(
        st.phi.data, 3, riemann.christoffels(st, lat), lat))
    tau1_phi = g2.expand_form(st.interior((td.tau1[..., None, :] @ st.g_inv)[..., 0, :]).data, 2)
    bar_tau3 = j_phi(td.tau3, st.phi.data, st) / 4.0
    assembly = ((td.tau0[..., None, None] / 4.0) * st.g - tau1_phi - bar_tau3
                - 0.5 * g2.expand_form(td.tau2, 2))
    return float(np.max(np.abs(t - assembly)))


def _check_deturck_reference(rng, ctx):
    """V and Gamma vanish at phi0: deturck_vector leaves out the background's Gamma."""
    lat = Lattice((1,), 16, 2.0 * np.pi)
    ref = g2.flat_reference(lat)
    return float(max(np.max(np.abs(riemann.deturck_vector(ref))),
                     np.max(np.abs(riemann.christoffels(ref, lat)))))


CHECKS = [
    ("metric_from_phi(model) = identity", POINTWISE_TOL, _check_metric_model),
    ("star(model phi) = model psi", POINTWISE_TOL, _check_star_model),
    ("i_phi(metric) = 3 phi", POINTWISE_TOL, _check_i_phi_metric),
    ("j_phi(phi) = 6 metric", POINTWISE_TOL, _check_j_phi_phi),
    ("j_phi(i_phi(h)) = 4h + 2tr(h) metric", POINTWISE_TOL, _check_j_i_identity),
    ("|i_phi(h)|^2 = (tr h)^2 + 2 h.h", POINTWISE_TOL, _check_norm_identity),
    ("i_phi(h) has no 7-part", POINTWISE_TOL, _check_i_phi_type),
    ("2-form projector traces (7, 14)", POINTWISE_TOL, _check_traces_2form),
    ("3-form projector traces (1, 7, 27)", POINTWISE_TOL, _check_traces_3form),
    ("type decomposition completeness/orthogonality", POINTWISE_TOL,
     _check_projection_completeness),
    ("metric equivariance under GL+ pullback", POINTWISE_TOL, _check_metric_equivariance),
    ("|phi|^2 = |psi|^2 = 7", POINTWISE_TOL, _check_phi_norm),
    ("hodge star involution", POINTWISE_TOL, _check_star_involution),
    ("positivity detection", 0.5, _check_positivity),
    ("d o d = 0", 1e-10, _check_d_squared),
    ("Leibniz rule", 1e-9, _check_leibniz),
    ("Stokes on the closed torus", 1e-9, _check_stokes),
    ("fd4 convergence order", 0.2, _check_fd4_order),
    ("flat Weitzenboeck identity", 1e-9, _check_flat_weitzenboeck),
    ("scalar curvature = -|T|^2 (closed)", 1e-6, _check_scalar_identity),
    ("metric compatibility", 1e-10, _check_metric_compatibility),
    ("Ricci symmetry + contracted Bianchi", 1e-7, _check_bianchi),
    ("Riemann tensor symmetries", 1e-9, _check_riemann_symmetries),
    ("closed torsion: skew, -tau2/2, types", 1e-9, _check_torsion_closed),
    ("torsion reconstructs nabla phi", 1e-9, _check_torsion_reconstruction),
    ("full torsion = tau-form assembly", 1e-9, _check_torsion_assembly),
    ("gauge vector vanishes at reference", 1e-12, _check_deturck_reference),
]


# The last check that reads each SuiteContext fixture, by fixture: run_identity_suite
# releases the fixture once that check has run.
LAST_READER = {
    "pointwise": "hodge star involution",
    "closed_structure": "torsion reconstructs nabla phi",
}


def run_check(ctx: SuiteContext, index: int) -> CheckResult:
    """Run CHECKS[index] on ctx's fixtures with the generator Draws(ctx.seed, index).

    The entry is read at call time, so a wrapper installed into CHECKS in
    place is the one that runs. A check that raises or returns a residual
    that is not finite fails with its error, and its max_residual is None.
    """
    name, tol, fn = CHECKS[index]
    try:
        residual = float(fn(Draws(ctx.seed, index), ctx))
    except Exception as exc:  # a raised identity is a failed identity
        return CheckResult(name, tol, None, False, error=f"{type(exc).__name__}: {exc}")
    if not math.isfinite(residual):  # JSON has no nan or inf
        return CheckResult(name, tol, None, False, error=f"non-finite residual {residual}")
    return CheckResult(name, tol, residual, residual <= tol)


def run_identity_suite(seed: int = 0, n_random: int = 1000) -> dict:
    """Run every check in order, each fixture released after its LAST_READER; returns a report."""
    ctx = SuiteContext(seed, n_random)
    results = []
    for index in range(len(CHECKS)):
        results.append(run_check(ctx, index))
        for fixture, last in LAST_READER.items():
            if results[-1].name == last:
                ctx.release(fixture)
    return {
        "seed": seed,
        "n_random": n_random,
        "passed": all(r.passed for r in results),
        "first_failure": next((r.name for r in results if not r.passed), None),
        "checks": [r.to_dict() for r in results],
    }
