"""Metric differential geometry on the lattice.

Christoffel symbols, covariant derivatives and curvature are computed from
the evolving metric of a structure at evaluation time (no separately
integrated metric), so the metric-evolution and curvature identities of the
flow are genuine cross-checks rather than consequences of bookkeeping.

Every tensor here is covariant, all slots lower, and norms raise them with
the metric's g_inv. The one covariant derivative is covariant_derivative_array,
for full lower 2-tensors (T, g, Ric); the flow needs no nabla phi, which only
the check suite takes (checks.covariant_derivative_form).
"""

from dataclasses import dataclass

import numpy as np

from . import g2algebra, tables
from .lattice import Lattice

# flat position 7k + l of each increasing pair K = (k < l), and 7l + k of its swap
_PAIRS = tables.compress_positions(2)
_SWAPPED = _PAIRS % 7 * 7 + _PAIRS // 7

# Sites per block of curvature and lambda_monitor: a block's (7, 7, 7, 7)
# intermediate is 32 * 2401 doubles, 0.6 MB. Warm at 3-D n=8 on a 2-CPU
# Xeon, 16 to 64 sites ran fastest and the whole grid slowest (curvature
# 10 against 23 ms per call).
_SITE_BLOCK = 32


@dataclass
class CurvatureData:
    """Riemann tensor as a 2-form-valued 2-tensor, Ricci tensor, scalar curvature.

    rm[..., i, j, K] = Rm_ijkl, all indices lowered, for the 21 increasing
    pairs K = (k < l) of tables.index_sets(2). Rm is antisymmetric in kl,
    so these carry all of it: g2algebra.expand_form(rm, 2) is the full
    (..., 7, 7, 7, 7) array.
    """

    rm: np.ndarray
    ric: np.ndarray
    scalar: np.ndarray


def christoffels(metric: g2algebra.Metric, lattice: Lattice) -> np.ndarray:
    """Levi-Civita connection of g: Gamma^i_jk = g^il (d_j g_lk + d_k g_lj - d_l g_jk)/2.

    Index order of the returned array: upper, lower, lower.
    """
    dg = lattice.gradient(metric.g)
    # s[l, j, k] = d_j g_lk + d_k g_lj - d_l g_jk
    s = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1)
    s -= dg
    gamma = metric.g_inv @ s.reshape(s.shape[:-3] + (7, 49))
    gamma *= 0.5
    return gamma.reshape(s.shape)


def covariant_derivative_array(t: np.ndarray, gamma: np.ndarray,
                               lattice: Lattice) -> np.ndarray:
    """Covariant derivative of a lower 2-tensor field: out[..., m, i, j] = nabla_m t_ij.

    nabla_m t_ij = d_m t_ij - Gamma^z_mi t_zj - Gamma^z_mj t_iz. With Gamma
    arranged [(m, x), z], each connection term is one batched
    (49, 7) @ (7, 7) matmul per site: against t for the first slot, and
    against its transpose, with x moved back to the last slot, for the second.
    """
    out = lattice.gradient(t)
    batch = gamma.shape[:-3]
    conn = np.moveaxis(gamma, -3, -1).reshape(batch + (49, 7))  # conn[(m, x), z] = Gamma^z_mx
    out -= (conn @ t).reshape(out.shape)
    out -= np.swapaxes((conn @ np.swapaxes(t, -1, -2)).reshape(out.shape), -1, -2)
    return out


def curvature(gamma: np.ndarray, metric: g2algebra.Metric, lattice: Lattice) -> CurvatureData:
    """Curvature of the connection from the coordinate dGamma + Gamma Gamma formula.

    Both Gamma Gamma terms come from one per-site (49, 7) @ (7, 49) product,
    into which dGamma is added in place. R^i_jK at the increasing pairs
    K = (k < l) is the difference of two gathers from it, Rm = g @ R over
    the upper index, and Ric_jl = R^k_jkl reads the pair through
    interior_table(2): R^k_jkl = sum_K T[k, l, K] R^k_jK.

    The dGamma partials are taken over the whole grid, one per active axis,
    because they differentiate along grid axes. Everything after them is
    per site and runs on blocks of _SITE_BLOCK sites, so the 7^4 array
    exists for one block at a time; each site's arithmetic is the same
    for any block size.
    """
    batch = gamma.shape[:-3]
    dgamma = [(axis - 1, lattice.partial_array(gamma, axis).reshape(-1, 7, 7, 7))
              for axis in lattice.active_axes]
    gamma = gamma.reshape(-1, 7, 7, 7)
    g = metric.g.reshape(-1, 7, 7)
    sites = gamma.shape[0]
    rm = np.empty((sites, 7, 7, 21))
    ric = np.empty((sites, 7, 7))
    # r_up[i, j, K] = a[i, k, l, j] - a[i, l, k, j], read at the flat
    # positions 343 i + 7 (7k + l) + j and 343 i + 7 (7l + k) + j
    ij = 343 * np.arange(7)[:, None, None] + np.arange(7)[:, None]
    ric_table = tables.interior_table(2).transpose(0, 2, 1).reshape(147, 7)
    for start in range(0, sites, _SITE_BLOCK):
        block = slice(start, start + _SITE_BLOCK)
        gb = gamma[block]
        # a[i, k, l, j] = d_k Gamma^i_lj + Gamma^i_km Gamma^m_lj, so that
        # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
        #         = a[i, k, l, j] - a[i, l, k, j].
        a = gb.reshape(-1, 49, 7) @ gb.reshape(-1, 7, 49)
        a = a.reshape(-1, 7, 7, 7, 7)
        for k, partial in dgamma:
            a[:, :, k, :, :] += partial[block]
        a = a.reshape(-1, 2401)
        r_up = np.take(a, ij + 7 * _PAIRS, axis=-1) - np.take(a, ij + 7 * _SWAPPED, axis=-1)
        rm[block] = (g[block] @ r_up.reshape(-1, 7, 147)).reshape(r_up.shape)
        # Ric_jl = sum_(k, K) R^k_jK T[k, l, K], one (7, 147) @ (147, 7) product per site
        ric[block] = np.swapaxes(r_up, -3, -2).reshape(-1, 7, 147) @ ric_table
    ric = ric.reshape(batch + (7, 7))
    scalar = np.einsum("...jl,...jl->...", metric.g_inv, ric)
    return CurvatureData(rm=rm.reshape(batch + (7, 7, 21)), ric=ric, scalar=scalar)


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


def nabla_torsion_of(structure) -> np.ndarray:
    """Covariant derivative of the full torsion, (nabla T)[..., m, i, j], cached."""
    return structure.cached("nabla_torsion", lambda: covariant_derivative_array(
        torsion_of(structure), connection_of(structure), structure.lattice))


def curvature_of(structure) -> CurvatureData:
    """Curvature of the structure's metric, cached."""
    return structure.cached(
        "curv", lambda: curvature(connection_of(structure), structure, structure.lattice))


def deturck_vector(structure, reference) -> np.ndarray:
    """Gauge-fixing vector field V^i = g^pq S^i_pq, S = Gamma(g) - Gamma(g_ref).

    Returns the (..., 7) array of V^i. This connection-difference vector
    linearizes at a torsion-free point to div h - d(tr h)/2, the weighting
    for which the gauge-fixed flow linearizes to the negative rough
    Laplacian there. V vanishes at the reference.

    The structure's half needs no Gamma: g^pq Gamma^i_pq = g^ij w_j with
    w_j = g^pq d_p g_jq - g^pq d_j g_pq / 2, and only the active axes a
    differentiate, so w_j sums (d_a g g_inv)_ja, less tr(g_inv d_a g) / 2
    at j = a. The reference's half contracts its cached connection.
    """
    if structure.lattice != reference.lattice:
        raise ValueError("structure and reference live on different lattices")
    lattice, g_inv = structure.lattice, structure.g_inv
    w = np.zeros(lattice.grid_shape + (7,))
    for axis in lattice.active_axes:
        dg = lattice.partial_array(structure.g, axis)
        w += (dg @ g_inv[..., axis - 1, :, None])[..., 0]
        w[..., axis - 1] -= 0.5 * np.sum(g_inv * dg, axis=(-2, -1))
    batch = g_inv.shape[:-2]
    gamma_ref = connection_of(reference).reshape(batch + (7, 49))
    return ((g_inv @ w[..., None]) - gamma_ref @ g_inv.reshape(batch + (49, 1)))[..., 0]


def _pair_metric(g_inv: np.ndarray) -> np.ndarray:
    """Inverse metric on compressed 2-forms: the 21 x 21 matrix of 2 x 2 minors of g_inv.

    beta^K = sum_K' m[K, K'] beta_K' with m[(k, l), (p, q)] = g^kp g^lq - g^kq g^lp.
    """
    k, l = _PAIRS // 7, _PAIRS % 7
    return (g_inv[..., k[:, None], k] * g_inv[..., l[:, None], l]
            - g_inv[..., k[:, None], l] * g_inv[..., l[:, None], k])


def lambda_monitor(structure) -> np.ndarray:
    """Pointwise (|Rm|^2 + |nabla T|^2)^(1/2) in the structure's own metric.

    |Rm|^2 = 2 sum Rm_ij,K Rm^ij,K over the increasing pairs K of the
    2-form-valued Rm: i and j are raised with g_inv, the pair with
    _pair_metric(g_inv). The raise and the contraction run on blocks of
    _SITE_BLOCK sites, as in curvature, so the raised copies of Rm exist
    for one block at a time.
    """
    rm = curvature_of(structure).rm
    batch = rm.shape[:-3]
    rm = rm.reshape(-1, 7, 7, 21)
    g_inv = structure.g_inv.reshape(-1, 7, 7)
    rm_sq = np.empty(rm.shape[0])
    for start in range(0, rm.shape[0], _SITE_BLOCK):
        block = slice(start, start + _SITE_BLOCK)
        gb = g_inv[block]
        rm_up = g2algebra.contract_slots(rm[block], (gb, gb, _pair_metric(gb)))
        rm_sq[block] = 2.0 * np.einsum("...ijK,...ijK->...", rm_up, rm[block])
    nt_sq = tensor_norm_sq(nabla_torsion_of(structure), structure)
    return np.sqrt(rm_sq.reshape(batch) + nt_sq)
