"""Metric differential geometry on the lattice.

Christoffel symbols, covariant derivatives and curvature are computed from
the evolving metric of a structure at evaluation time (no separately
integrated metric), so the metric-evolution and curvature identities of the
flow are genuine cross-checks rather than consequences of bookkeeping.

Every tensor here is covariant, all slots lower, and norms raise them with
the metric's g_inv. The covariant derivative of a full lower 2-tensor
(T, g, Ric) is its partials less _connection_terms: over the whole grid in
covariant_derivative_array, the tests' reference, and per site block in
map_covariant_derivative, which torsion_derivative (the flow's) and the check
suite read. Only the check suite takes nabla phi (checks.covariant_derivative_form).

No array of 7^3 or more entries per site is stored for the whole grid but
the connection Gamma itself. The Christoffel build's d_m g_lk stack and
nabla T exist per block of lattice.SITE_BLOCK sites, dGamma per slab of
whole leading-axis rows, and Rm per piece of at most lattice.piece_sites()
= 16 sites of a slab: curvature_blocks yields Rm per piece, and curvature
keeps of it the pointwise |Rm|^2, Ric and the scalar curvature;
torsion_derivative keeps of nabla T |nabla T|^2 and the nabla T . phi term
of flow.intrinsic_h.
"""

from dataclasses import dataclass

import numpy as np

from . import g2algebra, tables
from .lattice import Lattice, map_site_blocks, piece_sites

# flat position 7k + l of each increasing pair K = (k < l), and 7l + k of its swap
_PAIRS = tables.compress_positions(2)
_K, _L = _PAIRS // 7, _PAIRS % 7
_SWAPPED = 7 * _L + _K
# r_up[i, j, K] = a[i, k, l, j] - a[i, l, k, j] in curvature_blocks, read at
# the flat positions 343 i + 7 (7k + l) + j and 343 i + 7 (7l + k) + j
_IJ = 343 * np.arange(7)[:, None, None] + np.arange(7)[:, None]
_R_PLUS, _R_MINUS = _IJ + 7 * _PAIRS, _IJ + 7 * _SWAPPED
# flat positions 7a + b in g_inv of the factors g^kp, g^lq, g^kq and g^lp of
# _pair_metric's minor at the pairs (k < l), (p < q)
_MINOR_FACTORS = np.stack([7 * a[:, None] + b for a, b in ((_K, _K), (_L, _L), (_K, _L), (_L, _K))])


@dataclass
class CurvatureData:
    """Ricci tensor, scalar curvature and pointwise |Rm|^2 of a connection.

    ric[..., j, l] = Ric_jl, scalar = g^jl Ric_jl and rm_sq = |Rm|^2, each
    per site in the metric that curvature was given. Rm itself is not kept:
    curvature_blocks yields it per piece to whatever reads it.
    """

    ric: np.ndarray
    scalar: np.ndarray
    rm_sq: np.ndarray


def _axis_partials(t: np.ndarray, lattice: Lattice) -> list:
    """(partial_array(t, axis), 2) per active axis: map_site_blocks operands of a 2-tensor field."""
    return [(lattice.partial_array(t, axis), 2) for axis in lattice.active_axes]


def _stacked(partials: tuple, lattice: Lattice) -> np.ndarray:
    """The (sites, 7, 7, 7) stack of a block of _axis_partials, 0.0 on inactive axes."""
    out = np.zeros((len(partials[0]), 7, 7, 7))
    for axis, partial in zip(lattice.active_axes, partials):
        out[:, axis - 1] = partial
    return out


def christoffels(metric: g2algebra.Metric, lattice: Lattice) -> np.ndarray:
    """Levi-Civita connection of g: Gamma^i_jk = g^il (d_j g_lk + d_k g_lj - d_l g_jk)/2.

    Index order of the returned array: upper, lower, lower. The partials
    d_m g are taken over the whole grid, one (..., 7, 7) array per active
    axis; the (7, 7, 7) stack of them, s and the product with g_inv are
    formed per site block, so only Gamma spans the grid.
    """
    def connection(g_inv, *dg):
        d = _stacked(dg, lattice)
        # s[l, j, k] = d_j g_lk + d_k g_lj - d_l g_jk
        s = np.swapaxes(d, -3, -2) + np.moveaxis(d, -3, -1)
        s -= d
        gb = g_inv @ s.reshape(-1, 7, 49)
        gb *= 0.5
        return gb.reshape(-1, 7, 7, 7)
    return map_site_blocks(connection, (metric.g_inv, 2), *_axis_partials(metric.g, lattice))


def _connection_terms(out: np.ndarray, gamma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """nabla t from its partials: out[..., m, i, j] = d_m t_ij, less the Gamma terms, in place.

    nabla_m t_ij = d_m t_ij - Gamma^z_mi t_zj - Gamma^z_mj t_iz. With Gamma
    arranged [(m, x), z], each connection term is one batched
    (49, 7) @ (7, 7) matmul per site: against t for the first slot, and
    against its transpose, with x moved back to the last slot, for the second.
    """
    batch = gamma.shape[:-3]
    conn = np.moveaxis(gamma, -3, -1).reshape(batch + (49, 7))  # conn[(m, x), z] = Gamma^z_mx
    out -= (conn @ t).reshape(out.shape)
    out -= np.swapaxes((conn @ np.swapaxes(t, -1, -2)).reshape(out.shape), -1, -2)
    return out


def covariant_derivative_array(t: np.ndarray, gamma: np.ndarray,
                               lattice: Lattice) -> np.ndarray:
    """Covariant derivative of a lower 2-tensor field: out[..., m, i, j] = nabla_m t_ij."""
    return _connection_terms(lattice.gradient(t), gamma, t)


def map_covariant_derivative(kernel, t: np.ndarray, gamma: np.ndarray, lattice: Lattice,
                             *operands):
    """kernel(nabla t, *operand blocks) per site block; nabla t as in covariant_derivative_array.

    The partials d_m t are whole-grid, one (..., 7, 7) array per active
    axis; their (7, 7, 7) stack and the connection terms exist per block.
    """
    def apply(t, gamma, *rest):
        n = len(lattice.active_axes)
        return kernel(_connection_terms(_stacked(rest[:n], lattice), gamma, t), *rest[n:])
    return map_site_blocks(apply, (t, 2), (gamma, 3), *_axis_partials(t, lattice), *operands)


def curvature_blocks(gamma: np.ndarray, metric: g2algebra.Metric, lattice: Lattice):
    """Rm and Ric of the connection, one piece of a slab of leading-axis rows at a time.

    Yields (sites, rm, ric) for consecutive slices sites of the flattened
    grid: rm[s, i, j, K] = Rm_ijkl, all indices lowered, for the 21
    increasing pairs K = (k < l) of tables.index_sets(2), and
    ric[s, j, l] = Ric_jl. Rm is antisymmetric in kl, so these carry all of
    it: g2algebra.expand_form(rm, 2) is the full (..., 7, 7, 7, 7) block.

    Rm comes from the coordinate dGamma + Gamma Gamma formula. Both
    Gamma Gamma terms come from one per-site (49, 7) @ (7, 49) product,
    into which dGamma is added in place. R^i_jK at the increasing pairs is
    the difference of two gathers from it, Rm = g @ R over the upper index,
    and Ric_jl = R^k_jkl reads the pair through interior_table(2):
    R^k_jkl = sum_K T[k, l, K] R^k_jK.

    dGamma is taken per slab of whole leading-axis rows (Lattice.row_slabs),
    as Lattice.partial_rows of each active axis: partial_array's to
    roundoff, as the leading axis is taken unshifted. A block is a piece of
    at most lattice.piece_sites() = 16 consecutive sites of a slab, which
    reads the slab's dGamma: so the 7^4 array and the two pair gathers
    exist for 16 sites, and dGamma for one slab, at a time. Each site's
    arithmetic is the same for any slab and piece size. Traced peak of
    curvature past its outputs, in whole-grid connections, with slabs of up
    to SITE_BLOCK sites and with these pieces: 4.07 and 1.16 at 2-D n=16,
    2.03 and 0.89 at 3-D n=8. Warm curvature, interleaved with the slabs'
    on a 2-CPU Xeon, took 0.83-0.99 of their time at 3-D n=8 (0.94-0.99
    where neither faulted in fresh pages), 0.89-0.91 at 2-D n=32 and
    0.82-0.89 at 2-D n=16 and 3-D n=16.
    """
    # per site, the (49, 7) and (7, 49) factors of the Gamma Gamma product
    left, right = gamma.reshape(-1, 49, 7), gamma.reshape(-1, 7, 49)
    g = metric.g.reshape(-1, 7, 7)
    row = left.shape[0] // lattice.points_per_axis  # sites per row of the leading axis
    piece = piece_sites()
    ric_table = tables.interior_table(2).transpose(0, 2, 1).reshape(147, 7)
    for rows in lattice.row_slabs():
        top, bottom = rows.start * row, rows.stop * row
        partials = [lattice.partial_rows(gamma, axis, rows).reshape(-1, 7, 7, 7)
                    for axis in lattice.active_axes]
        for start in range(top, bottom, piece):
            block = slice(start, min(start + piece, bottom))
            # a[i, k, l, j] = d_k Gamma^i_lj + Gamma^i_km Gamma^m_lj, so that
            # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
            #         = a[i, k, l, j] - a[i, l, k, j].
            a = (left[block] @ right[block]).reshape(-1, 7, 7, 7, 7)
            for axis, partial in zip(lattice.active_axes, partials):
                a[:, :, axis - 1, :, :] += partial[block.start - top:block.stop - top]
            a = a.reshape(-1, 2401)
            r_up = np.take(a, _R_PLUS, axis=-1)
            r_up -= np.take(a, _R_MINUS, axis=-1)
            del a
            # Ric_jl = sum_(k, K) R^k_jK T[k, l, K], one (7, 147) @ (147, 7) product per site
            ric = r_up.swapaxes(-3, -2).reshape(-1, 7, 147) @ ric_table
            rm = (g[block] @ r_up.reshape(-1, 7, 147)).reshape(r_up.shape)
            del r_up  # so that the consumer's temporaries do not sit beside it
            yield block, rm, ric
        del partials  # before the next slab's are taken


def curvature(gamma: np.ndarray, metric: g2algebra.Metric, lattice: Lattice) -> CurvatureData:
    """Ric, the scalar curvature and |Rm|^2 of the connection, from curvature_blocks.

    |Rm|^2 = 2 sum Rm_ij,K Rm^ij,K over the increasing pairs K of the
    2-form-valued Rm: i and j are raised with g_inv, the pair with
    _pair_metric(g_inv). The raise, the contraction and the scalar
    curvature g^jl Ric_jl run on each block as curvature_blocks yields it,
    so Rm and its raised copies exist for one piece of at most
    lattice.piece_sites() sites at a time.
    """
    batch = gamma.shape[:-3]
    g_inv = metric.g_inv.reshape(-1, 7, 7)
    sites = g_inv.shape[0]
    ric = np.empty((sites, 7, 7))
    scalar = np.empty(sites)
    rm_sq = np.empty(sites)
    for block, rm, ric_block in curvature_blocks(gamma, metric, lattice):
        gb = g_inv[block]
        np.einsum("...ijK,...ijK->...", g2algebra.contract_slots(rm, (gb, gb, _pair_metric(gb))),
                  rm, out=rm_sq[block])
        ric[block] = ric_block
        np.einsum("...jl,...jl->...", gb, ric_block, out=scalar[block])
    rm_sq *= 2.0
    return CurvatureData(ric=ric.reshape(batch + (7, 7)), scalar=scalar.reshape(batch),
                         rm_sq=rm_sq.reshape(batch))


def tensor_norm_sq(t: np.ndarray, metric: g2algebra.Metric) -> np.ndarray:
    """Pointwise squared norm of a covariant tensor field in the metric.

    Every slot of t past the metric's batch axes is raised with g_inv.
    """
    rank = t.ndim - metric.g_inv.ndim + 2
    dual = g2algebra.contract_slots(t, (metric.g_inv,) * rank)
    return np.sum(dual * t, axis=tuple(range(-rank, 0)))


def connection_of(structure) -> np.ndarray:
    """Christoffel symbols of the structure's metric, cached."""
    return structure.cached("conn", lambda: christoffels(structure, structure.lattice))


def torsion_of(structure) -> np.ndarray:
    """Full torsion tensor T_ij = -tau2_ij / 2 of a closed structure, cached.

    Holds only for closed phi, whose torsion is the 14-type 2-form
    tau2 = d* phi, the flow's own potential (flow.coexact_part, cached with
    the structure); raises flow.NotClosed on any other phi
    (flow.require_closed). A non-closed structure's torsion has further
    parts; it is g2algebra.full_torsion(structure, checks.nabla_phi_of(structure)).
    """
    from .flow import coexact_part, require_closed  # flow imports this module

    require_closed(structure)
    return structure.cached(
        "torsion", lambda: -0.5 * g2algebra.expand_form(coexact_part(structure).data, 2))


@dataclass
class TorsionDerivative:
    """What the flow reads of nabla T, per site.

    norm_sq = |nabla T|^2 in the structure's metric, for lambda_monitor, and
    phi_term[..., i, j] = nabla_m T_ni phi_j^mn, the gradient term of
    flow.intrinsic_h. nabla T itself is not kept: torsion_derivative builds
    it one site block at a time.
    """

    norm_sq: np.ndarray
    phi_term: np.ndarray


def torsion_derivative(structure) -> TorsionDerivative:
    """|nabla T|^2 and nabla_m T_ni phi_j^mn of a closed structure, from nabla T per site block.

    nabla T comes from map_covariant_derivative. Per block it is raised
    and contracted into |nabla T|^2 (tensor_norm_sq) and contracted with
    phi_j^mn = g^am phi_jab g^bn, one (7, 49) @ (49, 7) product per site;
    each site's arithmetic is the same for any block size.
    """
    def terms(nabla_t, g, g_inv, vol, phi):
        # phi_j^mn = g^am phi_jab g^bn, one (7, 7) sandwich per j
        phi_mix = (np.swapaxes(g_inv, -1, -2)[..., None, :, :]
                   @ g2algebra.expand_form(phi, 3) @ g_inv[..., None, :, :])
        # nabla_m T_ni phi_j^mn: (i, mn) @ (mn, j)
        return tensor_norm_sq(nabla_t, g2algebra.Metric(g, g_inv, vol)), np.swapaxes(
            nabla_t.reshape(-1, 49, 7), -1, -2) @ np.swapaxes(phi_mix.reshape(-1, 7, 49), -1, -2)
    norm_sq, phi_term = map_covariant_derivative(
        terms, torsion_of(structure), connection_of(structure), structure.lattice,
        (structure.g, 2), (structure.g_inv, 2), (structure.vol, 0), (structure.phi.data, 1))
    return TorsionDerivative(norm_sq=norm_sq, phi_term=phi_term)


def torsion_derivative_of(structure) -> TorsionDerivative:
    """torsion_derivative of the structure, cached."""
    return structure.cached("nabla_torsion", lambda: torsion_derivative(structure))


def curvature_of(structure) -> CurvatureData:
    """Curvature of the structure's metric, cached."""
    return structure.cached(
        "curv", lambda: curvature(connection_of(structure), structure, structure.lattice))


def deturck_vector(structure) -> np.ndarray:
    """Gauge-fixing vector field V^i = g^pq Gamma(g)^i_pq, relative to the flat background.

    Returns the (..., 7) array of V^i. Against a background metric g_bar the
    DeTurck vector is g^pq (Gamma(g) - Gamma(g_bar))^i_pq; the flow's
    background is the constant phi0 of flat_reference, whose Gamma is
    exactly 0.0, so V has no background term. V linearizes at a
    torsion-free point to div h - d(tr h)/2, the weighting for which the
    gauge-fixed flow linearizes to the negative rough Laplacian there, and
    vanishes at phi0.

    V needs no Gamma: g^pq Gamma^i_pq = g^ij w_j with
    w_j = g^pq d_p g_jq - g^pq d_j g_pq / 2, and only the active axes a
    differentiate, so w_j sums (d_a g g_inv)_ja, less tr(g_inv d_a g) / 2
    at j = a.
    """
    lattice, g_inv = structure.lattice, structure.g_inv
    w = np.zeros(lattice.grid_shape + (7,))
    for axis in lattice.active_axes:
        dg = lattice.partial_array(structure.g, axis)
        w += (dg @ g_inv[..., axis - 1, :, None])[..., 0]
        w[..., axis - 1] -= 0.5 * np.sum(g_inv * dg, axis=(-2, -1))
    return (g_inv @ w[..., None])[..., 0]


def _pair_metric(g_inv: np.ndarray) -> np.ndarray:
    """Inverse metric on compressed 2-forms: the 21 x 21 matrix of 2 x 2 minors of g_inv.

    beta^K = sum_K' m[K, K'] beta_K' with m[(k, l), (p, q)] = g^kp g^lq - g^kq g^lp.
    The four factors are gathered from g_inv with the sites last, so each
    entry copies one run of sites: on 16-site blocks that took about half
    the time of a per-site fancy index.
    """
    f = np.take(g_inv.reshape(-1, 49).T, _MINOR_FACTORS, axis=0)  # (4, 21, 21, sites)
    f[0] *= f[1]
    f[2] *= f[3]
    m = np.empty(g_inv.shape[:-2] + (21, 21))
    np.subtract(f[0], f[2], out=m.reshape(-1, 21, 21).transpose(1, 2, 0))
    return m


def lambda_monitor(structure) -> np.ndarray:
    """Pointwise (|Rm|^2 + |nabla T|^2)^(1/2) in the structure's own metric.

    |Rm|^2 is the cached curvature's and |nabla T|^2 the cached
    torsion_derivative's, each contracted block by block.
    """
    rm_sq = curvature_of(structure).rm_sq
    return np.sqrt(rm_sq + torsion_derivative_of(structure).norm_sq)
