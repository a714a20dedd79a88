"""Pointwise G2 linear algebra on the 7-dimensional fiber.

The array-level functions act on trailing component axes and broadcast over
any leading batch/grid shape, so the same code serves single covectors,
randomized test batches and whole lattice fields. The structure and its
cache live at the bottom. Algebra that only the identity suite uses (j_phi,
the 2-form projection, the torsion forms, nabla phi) lives in checks. Three
functions that only the checks call stay here while the benchmark wraps them
by these paths: wedge_components, the one wedge of compressed forms,
project_3form and full_torsion.

Block rule: raising or lowering a form of degree k >= 3 (hodge_star and
form_inner on 3- and 4-forms), i_phi, project_3form and full_torsion run on
blocks of lattice.SITE_BLOCK sites (lattice.map_site_blocks), so no 7^3 or
(7, 35) temporary per site spans the batch; k <= 2 stays whole-batch.
"""

import numpy as np

from . import tables
from .lattice import FormField, Lattice, map_site_blocks

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
    return tables.apply_table(tables.expand_table(k), comp).reshape(comp.shape[:-1] + (7,) * k)


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


def _cubic(u: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Coefficient of e^{1..7} in (e_i . phi) ^ (e_j . phi) ^ gamma, with u = _interior_phi(phi).

    b = u t u^T with t the (21, 21) matrix of the (2,2,3) table applied to gamma.
    """
    return u @ tables.apply_table(tables.triple_wedge_223(), gamma) @ np.swapaxes(u, -1, -2)


def _cubic_form(phi: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """_cubic with u = _interior_phi(phi), per site block: only b, (..., 7, 7), spans the batch."""
    return map_site_blocks(lambda p, c: _cubic(_interior_phi(p), c), (phi, 1), (gamma, 1))


def _eliminate(b: np.ndarray):
    """Inverse and pivots of a batch of (..., 7, 7) matrices, by Gauss-Jordan without pivoting.

    The pivots are the ratios of successive leading principal minors, so
    their product is det b, and a symmetric b is positive-definite iff every
    pivot is > 0 (Sylvester). A zero pivot, an indefinite b or a NaN gives
    non-finite or meaningless entries without a warning, which callers
    reject by reading the pivots.

    The sweep runs on a component-major copy a[i, j, site], so every row
    operation reads contiguous runs of sites; b itself is never written
    (a one-matrix batch reshapes to a contiguous view of b, hence the
    explicit copy). b^-1 and the pivots come back C-contiguous: a matmul
    that reads a strided g^-1 rounds differently from one that reads a
    contiguous one.
    """
    n = b.shape[-1]
    a = np.moveaxis(b.reshape(-1, n, n), 0, -1).copy()
    pivots = np.empty((n, a.shape[-1]))
    with np.errstate(all="ignore"):
        for k in range(n):
            p = a[k, k].copy()
            pivots[k] = p
            f = a[:, k].copy()
            f[k] = 0.0
            a[:, k] = 0.0
            a[k, k] = 1.0
            row = a[k] / p
            a -= f[:, None] * row
            a[k] = row
    b_inv = np.ascontiguousarray(np.moveaxis(a, -1, 0)).reshape(b.shape)
    return b_inv, np.ascontiguousarray(pivots.T).reshape(b.shape[:-1])


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


def _metric_of(b: np.ndarray) -> Metric:
    """metric_from_phi with b = _cubic_form(phi, phi) given."""
    b_inv, pivots = _eliminate(b)
    bad = ~np.all(pivots > 0.0, axis=-1)  # a NaN pivot fails too
    if np.any(bad):
        raise NotPositive(f"metric candidate is not positive-definite at "
                          f"{int(np.sum(bad))} site(s)")
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

    b is built in site blocks (_cubic_form), and one batched
    Gauss-Jordan sweep over a component-major copy of it (_eliminate) gives
    b^-1, whence g^-1, and the pivots: (det b)^(1/9) comes from the sum of
    their logs, so no scale of phi overflows. phi is left unchanged, and g,
    g^-1 and vol are C-contiguous. Raises NotPositive unless every pivot is
    > 0 (which a NaN fails), the test is_positive applies, i.e. unless phi is
    in the open GL+ orbit of the model.
    """
    return _metric_of(_cubic_form(phi, phi))


def is_positive(phi: np.ndarray):
    """True where the 3-form defines a positive-definite metric; False where b is not finite."""
    b = _cubic_form(phi, phi)
    finite = np.all(np.isfinite(b), axis=(-2, -1))
    _, pivots = _eliminate(np.where(finite[..., None, None], b, 0.0))
    return finite & np.all(pivots > 0.0, axis=-1)


def _complement(alpha: np.ndarray, k: int) -> np.ndarray:
    """Euclidean complement of compressed k-forms: the flat Hodge star."""
    src, sign = tables.star_tables(k)
    return sign * alpha[..., src]


def _apply_metric(alpha: np.ndarray, k: int, m: np.ndarray) -> np.ndarray:
    """Raise (m = g_inv) or lower (m = g) every slot of a compressed k-form.

    Leading axes broadcast. For k >= 3 this runs on site blocks, so no
    (..., 7^k) tensor spans the batch; k <= 2, the flow's star of d psi,
    stays whole-batch, where blocking measured slower.
    """
    if k == 0:
        return alpha

    def apply(a, mb):
        return compress_form(contract_slots(expand_form(a, k), (mb,) * k), k)
    return apply(alpha, m) if k <= 2 else map_site_blocks(apply, (alpha, 1), (m, 2))


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
    def apply(h, phi, g_inv):
        x = (h @ g_inv) @ _interior_phi(phi)
        return x.reshape(-1, 147) @ tables.interior_table(3).reshape(147, 35)
    return map_site_blocks(apply, (h, 2), (phi, 1), (metric.g_inv, 2))


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
    27-part is the remainder. The leading axes of the operands broadcast,
    and the parts are formed on site blocks.
    """
    def parts(gamma, phi, psi, f):
        gamma1 = f[..., None] * phi
        int_psi = tables.apply_table(tables.interior_table(4), psi)
        wedge_phi = tables.apply_table(tables.wedge_table(3, 3), phi)
        mat = wedge_phi @ np.swapaxes(int_psi, -1, -2)
        x = np.linalg.solve(mat, wedge_phi @ gamma[..., None])[..., 0]
        gamma7 = (x[..., None, :] @ int_psi)[..., 0, :]
        return gamma1, gamma7, gamma - gamma1 - gamma7
    f = form_inner(gamma, phi, 3, metric) / 7.0
    return map_site_blocks(parts, (gamma, 1), (phi, 1), (psi, 1), (f, 0))


def full_torsion(structure: "G2Structure", nabla_phi: np.ndarray) -> np.ndarray:
    """Full torsion 2-tensor T_ij from the covariant derivative of phi.

    Holds for any positive phi; on closed phi, riemann.torsion_of reads
    T = -tau2/2 from d* phi instead, and the check suite compares the two.
    nabla_phi[..., i, I] holds nabla_i phi_lmn at the 35 increasing lmn
    (checks.nabla_phi_of). T_i^j = (1/24) nabla_i phi_lmn psi^jlmn; the
    result satisfies nabla_i phi_jkl = T_i^m psi_mjkl. Both factors are
    antisymmetric in lmn, so the sum runs over increasing lmn with weight
    3!/24: psi is raised in compressed storage and psi^jlmn is the interior
    product e_j . psi^, formed on site blocks.
    """
    def torsion(psi_up, nabla, g):
        int_up = tables.apply_table(tables.interior_table(4), psi_up)
        return (nabla @ np.swapaxes(int_up, -1, -2) / 4.0) @ g
    return map_site_blocks(torsion, (raise_form(structure.psi.data, 4, structure), 1),
                           (nabla_phi, 2), (structure.g, 2))


# The 35 increasing ijkl = (ij, kl) read only 10 x 10 pairs: the first
# pair ij has j <= 4 (_PSI_ROWS, pair positions), the second has k >= 2,
# which are the positions 11:21 (_PSI_COLS). _QUAD_PAIRS holds the flat
# position 10 r + c of (ij, kl) in that block, and _QUAD_METRIC the flat
# positions 7a + b of g_ik, g_jl, g_il and g_jk, one run of 35 each.
_PSI_ROWS = np.array([pos for pos, (i, j) in enumerate(tables.index_sets(2)) if j <= 4])
_PSI_COLS = slice(11, 21)
_QUAD_PAIRS = np.array([10 * list(_PSI_ROWS).index(tables.index_position(2)[q[:2]])
                        + tables.index_position(2)[q[2:]] - 11 for q in tables.index_sets(4)])
_QUAD_METRIC = np.array([[7 * q[a] + q[b] for q in tables.index_sets(4)]
                         for a, b in ((0, 2), (1, 3), (0, 3), (1, 2))]).ravel()


def _psi_of(u: np.ndarray, metric: Metric) -> np.ndarray:
    """psi = *phi of a positive 3-form in its own metric, from u = _interior_phi(phi).

    The G2 identity phi_ijm g^mn phi_kln = g_ik g_jl - g_il g_jk + psi_ijkl
    (Bryant, "Some remarks on G2-structures", arXiv:math/0305124; the sign is
    the one of the orientation dx^1 ^ ... ^ dx^7) has u^T g_inv u as its left
    side, a (21, 21) matrix over the pairs ij and kl. The 35 increasing ijkl
    read only its (_PSI_ROWS, _PSI_COLS) block, which is formed on blocks
    of lattice.SITE_BLOCK sites, so only psi spans the grid.
    """
    def psi(u, g_inv, g):
        m = np.swapaxes(u[..., _PSI_ROWS], -1, -2) @ (g_inv @ u[..., _PSI_COLS])
        q = g.reshape(-1, 49)[:, _QUAD_METRIC].reshape(-1, 4, 35)  # g_ik, g_jl, g_il, g_jk
        return m.reshape(-1, 100)[:, _QUAD_PAIRS] - q[:, 0] * q[:, 1] + q[:, 2] * q[:, 3]
    return map_site_blocks(psi, (u, 2), (metric.g_inv, 2), (metric.g, 2))


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
        metric = _metric_of(map_site_blocks(_cubic, (u, 2), (phi.data, 1)))
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

