"""Pointwise G2 linear algebra on the 7-dimensional fiber.

The array-level functions act on trailing component axes and broadcast over
any leading batch/grid shape, so the same code serves single covectors,
randomized test batches and whole lattice fields. The structure and its
cache live at the bottom. Algebra that only the identity suite uses (j_phi,
the 2-form projection, the torsion forms, nabla phi) lives in checks. Three
functions that only the checks call stay here while the benchmark wraps them
by these paths: wedge_components, the one wedge of compressed forms,
project_3form and full_torsion.
"""

import numpy as np

from . import tables
from .lattice import FormField, Lattice

# Calibration of the metric map, frozen by requiring that the model 3-form
# produce the identity metric and unit volume density (see metric_from_phi).
_METRIC_SCALE = 6.0 ** (-2.0 / 9.0)
_VOL_SCALE = 6.0 ** (-7.0 / 9.0)


class NotPositive(Exception):
    """Raised when a 3-form fails the positivity (metric) condition."""


def _terms_to_components(terms, degree):
    comp = np.zeros(tables.num_components(degree))
    pos = tables.index_position(degree)
    for axes, coeff in terms:
        comp[pos[tuple(a - 1 for a in axes)]] = coeff
    return comp


# Model forms in the fixed frame: phi0 = e123+e145+e167+e246-e257-e347-e356,
# psi0 = e4567+e2367+e2345+e1357-e1346-e1256-e1247.
PHI0 = _terms_to_components(
    [((1, 2, 3), 1.0), ((1, 4, 5), 1.0), ((1, 6, 7), 1.0), ((2, 4, 6), 1.0),
     ((2, 5, 7), -1.0), ((3, 4, 7), -1.0), ((3, 5, 6), -1.0)], 3)
PSI0 = _terms_to_components(
    [((4, 5, 6, 7), 1.0), ((2, 3, 6, 7), 1.0), ((2, 3, 4, 5), 1.0),
     ((1, 3, 5, 7), 1.0), ((1, 3, 4, 6), -1.0), ((1, 2, 5, 6), -1.0),
     ((1, 2, 4, 7), -1.0)], 4)
PHI0.flags.writeable = False
PSI0.flags.writeable = False


def expand_form(comp: np.ndarray, k: int) -> np.ndarray:
    """Compressed storage -> full antisymmetric tensor with k trailing 7-axes."""
    full = comp @ tables.expand_table(k).T
    return full.reshape(comp.shape[:-1] + (7,) * k)


def compress_form(full: np.ndarray, k: int) -> np.ndarray:
    """Full antisymmetric tensor -> compressed increasing-multi-index storage."""
    flat = full.reshape(full.shape[:-k] + (7 ** k,)) if k else full
    return flat[..., tables.compress_positions(k)]


def contract_slots(t: np.ndarray, mats) -> np.ndarray:
    """Apply one square (..., n, n) matrix to each trailing axis of t, of length n.

    With k = len(mats), out[..., i1..ik] = m1[..., i1, a1] ... mk[..., ik, ak]
    t[..., a1..ak]. Each pass is one batched matmul that contracts the
    leading slot and leaves it last, so k passes restore the slot order; the
    transposes are strides handed to BLAS, so a pass allocates only its
    output. Leading axes of t and of the matrices broadcast.
    """
    k = len(mats)
    for m in mats:
        slots = t.shape[t.ndim - k:]
        flat = t.reshape(t.shape[:t.ndim - k] + (slots[0], -1))
        t = np.swapaxes(flat, -1, -2) @ np.swapaxes(m, -1, -2)
        t = t.reshape(t.shape[:-2] + slots[1:] + slots[:1])
    return t


def _interior_phi(phi: np.ndarray) -> np.ndarray:
    """u[..., i, J] = (e_i . phi)_J, the 7 contractions of phi as (7, 21) per site."""
    return tables.apply_table(tables.interior_table(3), phi)


def _cubic_contraction(u: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Coefficient of e^{1..7} in (e_i . phi) ^ (e_j . phi) ^ gamma, with u = _interior_phi(phi)."""
    t = tables.apply_table(tables.triple_wedge_223(), gamma)
    return u @ t @ np.swapaxes(u, -1, -2)


def _eliminate(b: np.ndarray):
    """Inverse and pivots of a batch of (..., 7, 7) matrices, by Gauss-Jordan without pivoting.

    The pivots are the ratios of successive leading principal minors, so
    their product is det b, and a symmetric b is positive-definite iff every
    pivot is > 0 (Sylvester). A zero pivot, an indefinite b or a NaN gives
    non-finite or meaningless entries without a warning, which callers
    reject by reading the pivots.
    """
    a = b.copy()
    pivots = np.empty(b.shape[:-1])
    with np.errstate(all="ignore"):
        for k in range(b.shape[-1]):
            p = a[..., k, k].copy()
            pivots[..., k] = p
            f = a[..., :, k].copy()
            f[..., k] = 0.0
            a[..., :, k] = 0.0
            a[..., k, k] = 1.0
            row = a[..., k, :] / p[..., None]
            a -= f[..., :, None] * row[..., None, :]
            a[..., k, :] = row
    return a, pivots


class Metric:
    """A metric field: g, its inverse g_inv and volume density vol = sqrt(det g).

    The three arrays share their leading (site) axes; metric[sel] selects
    along those axes in all three at once.
    """

    def __init__(self, g: np.ndarray, g_inv: np.ndarray, vol):
        self.g = g
        self.g_inv = g_inv
        self.vol = vol

    @property
    def det_g(self) -> np.ndarray:
        return self.vol * self.vol

    def __getitem__(self, sel) -> "Metric":
        return Metric(self.g[sel], self.g_inv[sel], self.vol[sel])


def _metric_of(u: np.ndarray, phi: np.ndarray) -> Metric:
    """metric_from_phi with u = _interior_phi(phi) given."""
    b = _cubic_contraction(u, phi)
    b_inv, pivots = _eliminate(b)
    bad = ~(np.prod(np.sign(pivots), axis=-1) > 0.0)
    if np.any(bad):
        raise NotPositive(f"det b is not > 0 at {int(np.sum(bad))} site(s)")
    if np.any(pivots <= 0.0):
        raise NotPositive("metric candidate is not positive-definite")
    scale = np.exp(np.sum(np.log(pivots), axis=-1) / -9.0)
    g = _METRIC_SCALE * b * scale[..., None, None]
    g_inv = b_inv / (_METRIC_SCALE * scale)[..., None, None]
    return Metric(g, g_inv, _VOL_SCALE / scale)


def metric_from_phi(phi: np.ndarray) -> Metric:
    """Metric of a positive 3-form, with its inverse and volume density.

    b_ij is the coefficient of the coordinate 7-form in
    (e_i . phi) ^ (e_j . phi) ^ phi; the returned metric is
    6^(-2/9) b / (det b)^(1/9), the unique scaling for which the model form
    gives the identity (for it, b = 6 * id). Volume density scales
    correspondingly as (det b)^(1/9) / 6^(7/9).

    One batched Gauss-Jordan sweep over b (_eliminate) gives b^-1, whence
    g^-1, and the pivots: det b takes its sign from theirs and (det b)^(1/9)
    from the sum of their logs, so no scale of phi overflows. Raises
    NotPositive unless det b > 0 (which a NaN fails) and every pivot is > 0,
    i.e. unless phi is in the open GL+ orbit of the model.
    """
    return _metric_of(_interior_phi(phi), phi)


def is_positive(phi: np.ndarray):
    """True where the 3-form defines a positive-definite metric; False where b is not finite."""
    b = _cubic_contraction(_interior_phi(phi), phi)
    finite = np.all(np.isfinite(b), axis=(-2, -1))
    _, pivots = _eliminate(np.where(finite[..., None, None], b, 0.0))
    return finite & np.all(pivots > 0.0, axis=-1)


def _complement(alpha: np.ndarray, k: int) -> np.ndarray:
    """Euclidean complement of compressed k-forms: the flat Hodge star."""
    src, sign = tables.star_tables(k)
    return sign * alpha[..., src]


def _apply_metric(alpha: np.ndarray, k: int, m: np.ndarray) -> np.ndarray:
    """Raise (m = g_inv) or lower (m = g) every slot of a compressed k-form."""
    if k == 0:
        return alpha
    return compress_form(contract_slots(expand_form(alpha, k), (m,) * k), k)


def raise_form(alpha: np.ndarray, k: int, metric: Metric) -> np.ndarray:
    """All-indices-raised compressed k-form.

    For k <= 3 the form is expanded and each slot contracted with g_inv. For
    k >= 4 the complementary-minor identity does the same at degree 7 - k:
    complement, lower the 7 - k slots with g, complement back and divide by
    det g. The complement is an involution in dimension 7, so no form is ever
    expanded beyond three slots.
    """
    if k <= 3:
        return _apply_metric(alpha, k, metric.g_inv)
    lowered = _apply_metric(_complement(alpha, k), 7 - k, metric.g)
    return _complement(lowered, 7 - k) / np.asarray(metric.det_g)[..., None]


def form_inner(alpha: np.ndarray, beta: np.ndarray, k: int, metric: Metric):
    """Pointwise metric inner product of two compressed k-forms."""
    return np.einsum("...i,...i->...", raise_form(alpha, k, metric), beta)


def hodge_star(alpha: np.ndarray, k: int, metric: Metric = None) -> np.ndarray:
    """Metric Hodge star in the fixed orientation dx^1 ^ ... ^ dx^7.

    The star is vol times the euclidean complement of the raised form (see
    raise_form). With no metric it is the euclidean star.
    """
    if metric is None:
        return _complement(alpha, k)
    raised = raise_form(alpha, k, metric)
    return _complement(raised, k) * np.asarray(metric.vol)[..., None]


def i_phi(h: np.ndarray, phi: np.ndarray, metric: Metric) -> np.ndarray:
    """3-form i_phi(h) with components h_i^l phi_ljk + h_j^l phi_lki + h_k^l phi_lij.

    Maps symmetric 2-tensors into the 1 + 27 part; i_phi(g) = 3 phi.

    The three terms are the increasing components of sum_a e^a ^ x_a with
    x_a = h_a^l (e_l . phi): x is one (h g_inv) @ u product, and e^a ^ .
    contracts (a, J) against the interior table read as a (147, 35) matrix.
    """
    x = (h @ metric.g_inv) @ _interior_phi(phi)
    return x.reshape(x.shape[:-2] + (147,)) @ tables.interior_table(3).reshape(147, 35)


def wedge_components(alpha: np.ndarray, k: int, beta: np.ndarray, l: int) -> np.ndarray:
    """Pointwise wedge of compressed k- and l-forms on raw component arrays.

    The wedge table is applied to beta (one gemm), which leaves a
    (C_{k+l}, C_k) matrix per site; a batched matvec with alpha finishes it.
    """
    mat = tables.apply_table(tables.wedge_table(k, l), beta)
    return (mat @ alpha[..., None])[..., 0]


def project_3form(gamma: np.ndarray, phi: np.ndarray, psi: np.ndarray, metric: Metric):
    """Split a 3-form into (1, 7, 27) type components.

    The 1-part is <gamma,phi> phi / 7; the 7-part is X . psi for the vector X
    solving the 7-component linear system (X . psi) ^ phi = gamma ^ phi; the
    27-part is the remainder.
    """
    f = form_inner(gamma, phi, 3, metric) / 7.0
    gamma1 = f[..., None] * phi
    int_psi = tables.apply_table(tables.interior_table(4), psi)
    wedge_phi = tables.apply_table(tables.wedge_table(3, 3), phi)
    mat = wedge_phi @ np.swapaxes(int_psi, -1, -2)
    x = np.linalg.solve(mat, wedge_phi @ gamma[..., None])[..., 0]
    gamma7 = (x[..., None, :] @ int_psi)[..., 0, :]
    return gamma1, gamma7, gamma - gamma1 - gamma7


def full_torsion(structure: "G2Structure", nabla_phi: np.ndarray) -> np.ndarray:
    """Full torsion 2-tensor T_ij from the covariant derivative of phi.

    Holds for any positive phi; on closed phi, riemann.torsion_of reads
    T = -tau2/2 from d* phi instead, and the check suite compares the two.
    nabla_phi[..., i, I] holds nabla_i phi_lmn at the 35 increasing lmn
    (checks.nabla_phi_of). T_i^j = (1/24) nabla_i phi_lmn psi^jlmn; the
    result satisfies nabla_i phi_jkl = T_i^m psi_mjkl. Both factors are
    antisymmetric in lmn, so the sum runs over increasing lmn with weight
    3!/24: psi is raised in compressed storage and psi^jlmn is the interior
    product e_j . psi^.
    """
    psi_up = raise_form(structure.psi.data, 4, structure)
    int_up = tables.apply_table(tables.interior_table(4), psi_up)
    t_mixed = nabla_phi @ np.swapaxes(int_up, -1, -2) / 4.0
    return t_mixed @ structure.g


# The 35 increasing ijkl: i, j, k, l, and the flat position 21 P(ij) + P(kl)
# of the pairs ij and kl among the 21 increasing pairs.
_QUADS = np.array(tables.index_sets(4)).T
_QUAD_PAIRS = np.array([21 * tables.index_position(2)[q[:2]] + tables.index_position(2)[q[2:]]
                        for q in tables.index_sets(4)])


def _psi_of(u: np.ndarray, metric: Metric) -> np.ndarray:
    """psi = *phi of a positive 3-form in its own metric, from u = _interior_phi(phi).

    The G2 identity phi_ijm g^mn phi_kln = g_ik g_jl - g_il g_jk + psi_ijkl
    (Bryant, "Some remarks on G2-structures", arXiv:math/0305124; the sign is
    the one of the orientation dx^1 ^ ... ^ dx^7) has u^T g_inv u as its left
    side, a (21, 21) matrix over the pairs ij and kl, read here at the 35
    increasing ijkl.
    """
    m = np.swapaxes(u, -1, -2) @ (metric.g_inv @ u)
    m = m.reshape(m.shape[:-2] + (441,))
    g = metric.g.reshape(metric.g.shape[:-2] + (49,))
    i, j, k, l = _QUADS
    return (m[..., _QUAD_PAIRS] - g[..., 7 * i + k] * g[..., 7 * j + l]
            + g[..., 7 * i + l] * g[..., 7 * j + k])


class G2Structure(Metric):
    """A positive 3-form field: its metric, its 4-form psi and cached derived geometry.

    _cache holds what is computed once per structure: "interior_phi", the
    (..., 7, 21) array u = e_i . phi that the metric and psi were built from
    (see interior), and what the flow and riemann accessors add through
    cached(key, build) on first use: d phi, tau2 = d* phi, the connection,
    the torsion and the curvature.

    An entry lives as long as the structure, unless retain drops it: after
    each sample, flow.run_flow keeps only interior_phi and the tau2 that the
    next step reads, so no sampled state carries its snapshot geometry on.
    """

    def __init__(self, phi: FormField, metric: Metric, psi: FormField, interior_phi: np.ndarray):
        super().__init__(metric.g, metric.g_inv, metric.vol)
        self.phi = phi
        self.psi = psi
        self._cache = {"interior_phi": interior_phi}

    @classmethod
    def from_phi(cls, phi: FormField) -> "G2Structure":
        """Structure of a 3-form field; raises NotPositive unless it is positive at every site.

        u = e_i . phi is computed once: b and its elimination give the
        metric (metric_from_phi), and psi = *phi comes from u through the G2
        identity (_psi_of) rather than from the general Hodge star.
        """
        u = _interior_phi(phi.data)
        metric = _metric_of(u, phi.data)
        psi = FormField(phi.lattice, 4, _psi_of(u, metric))
        return cls(phi, metric, psi, u)

    @property
    def lattice(self) -> Lattice:
        return self.phi.lattice

    def cached(self, key: str, build):
        """The value cached under key, computed by build() on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def retain(self, *keys: str) -> None:
        """Drop every cached entry but interior_phi and keys; a dropped one is rebuilt on use."""
        for key in set(self._cache) - {"interior_phi", *keys}:
            del self._cache[key]

    def interior(self, v: np.ndarray) -> FormField:
        """The 2-form v . phi of the vector field v[..., i] = V^i, from the cached u."""
        data = (v[..., None, :] @ self._cache["interior_phi"])[..., 0, :]
        return FormField(self.lattice, 2, data)

    def star(self, alpha: FormField) -> FormField:
        data = hodge_star(alpha.data, alpha.degree, self)
        return FormField(self.lattice, 7 - alpha.degree, data)


def flat_reference(lattice: Lattice) -> G2Structure:
    """The torsion-free model structure, constant over the lattice."""
    phi = FormField.constant(lattice, 3, PHI0)
    return G2Structure.from_phi(phi)

