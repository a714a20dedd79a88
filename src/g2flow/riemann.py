"""Metric differential geometry on the lattice.

Christoffel symbols, covariant derivatives and curvature are computed from
the evolving metric of a structure at evaluation time (no separately
integrated metric), so the metric-evolution and curvature identities of the
flow are genuine cross-checks rather than consequences of bookkeeping.

Every tensor here is covariant, all slots lower, and norms raise them with
the metric's g_inv. There are two covariant derivatives, one per storage:
covariant_derivative_form for compressed k-forms (phi, psi) and
covariant_derivative_array for full lower 2-tensors (T, g, Ric).
"""

from dataclasses import dataclass

import numpy as np

from . import g2algebra, tables
from .lattice import Lattice

# flat position 7k + l of each increasing pair K = (k < l), and 7l + k of its swap
_PAIRS = tables.compress_positions(2)
_SWAPPED = _PAIRS % 7 * 7 + _PAIRS // 7


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


def metric_partials(t: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Partial stack of any (..., 7, 7) field: out[..., m, i, j] = d_m t_ij, 0 off-axis."""
    out = np.zeros(lattice.grid_shape + (7, 7, 7))
    for axis in lattice.active_axes:
        out[..., axis - 1, :, :] = lattice.partial_array(t, axis)
    return out


def christoffels(g: np.ndarray, g_inv: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Levi-Civita connection of g: Gamma^i_jk = g^il (d_j g_lk + d_k g_lj - d_l g_jk)/2.

    Index order of the returned array: upper, lower, lower.
    """
    dg = metric_partials(g, lattice)
    # s[l, j, k] = d_j g_lk + d_k g_lj - d_l g_jk
    s = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1)
    s -= dg
    gamma = g_inv @ s.reshape(s.shape[:-3] + (7, 49))
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
    out = metric_partials(t, lattice)
    batch = gamma.shape[:-3]
    conn = np.moveaxis(gamma, -3, -1).reshape(batch + (49, 7))  # conn[(m, x), z] = Gamma^z_mx
    out -= (conn @ t).reshape(out.shape)
    out -= np.swapaxes((conn @ np.swapaxes(t, -1, -2)).reshape(out.shape), -1, -2)
    return out


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
    read as a (7 C_{k-1}, C_k) matrix.
    """
    interior = tables.interior_table(k)
    out = np.zeros(lattice.grid_shape + (7, interior.shape[-1]))
    for axis in lattice.active_axes:
        out[..., axis - 1, :] = lattice.partial_array(alpha, axis)
    batch = gamma.shape[:-3]
    conn = np.moveaxis(gamma, -3, -1).reshape(batch + (49, 7))
    v = conn @ tables.apply_table(interior, alpha)  # v[m, x, J]
    wedge = interior.reshape(-1, interior.shape[-1])
    out -= v.reshape(batch + (7, wedge.shape[0])) @ wedge
    return out


def curvature(gamma: np.ndarray, g: np.ndarray, g_inv: np.ndarray,
              lattice: Lattice) -> CurvatureData:
    """Curvature of the connection from the coordinate dGamma + Gamma Gamma formula.

    Both Gamma Gamma terms come from one per-site (49, 7) @ (7, 49) product,
    into which dGamma is added in place. R^i_jK at the increasing pairs
    K = (k < l) is the difference of two gathers from it, Rm = g @ R over
    the upper index, and Ric_jl = R^k_jkl reads the pair through
    interior_table(2): R^k_jkl = sum_K T[k, l, K] R^k_jK.
    """
    batch = gamma.shape[:-3]
    # a[i, k, l, j] = d_k Gamma^i_lj + Gamma^i_km Gamma^m_lj, so that
    # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    #         = a[i, k, l, j] - a[i, l, k, j].
    a = gamma.reshape(batch + (49, 7)) @ gamma.reshape(batch + (7, 49))
    a = a.reshape(batch + (7, 7, 7, 7))
    for axis in lattice.active_axes:
        a[..., :, axis - 1, :, :] += lattice.partial_array(gamma, axis)
    # r_up[i, j, K] = a[i, k, l, j] - a[i, l, k, j], read at the flat
    # positions 343 i + 7 (7k + l) + j and 343 i + 7 (7l + k) + j
    ij = 343 * np.arange(7)[:, None, None] + np.arange(7)[:, None]
    a = a.reshape(batch + (2401,))
    r_up = np.take(a, ij + 7 * _PAIRS, axis=-1) - np.take(a, ij + 7 * _SWAPPED, axis=-1)
    del a
    rm = (g @ r_up.reshape(batch + (7, 147))).reshape(r_up.shape)
    # Ric_jl = sum_(k, K) R^k_jK T[k, l, K], one (7, 147) @ (147, 7) product per site
    ric_table = tables.interior_table(2).transpose(0, 2, 1).reshape(147, 7)
    ric = np.swapaxes(r_up, -3, -2).reshape(batch + (7, 147)) @ ric_table
    scalar = np.einsum("...jl,...jl->...", g_inv, ric)
    return CurvatureData(rm=rm, ric=ric, scalar=scalar)


def tensor_norm_sq(t: np.ndarray, metric: g2algebra.Metric) -> np.ndarray:
    """Pointwise squared norm of a covariant tensor field in the metric.

    Every slot of t past the metric's batch axes is raised with g_inv.
    """
    rank = t.ndim - metric.g_inv.ndim + 2
    dual = g2algebra.contract_slots(t, (metric.g_inv,) * rank)
    return np.sum(dual * t, axis=tuple(range(-rank, 0)))


def connection_of(structure) -> np.ndarray:
    """Christoffel symbols of the structure's metric, cached."""
    cache = structure._cache
    if "conn" not in cache:
        cache["conn"] = christoffels(structure.g, structure.g_inv, structure.lattice)
    return cache["conn"]


def nabla_phi_of(structure) -> np.ndarray:
    """Covariant derivative of phi, (nabla phi)[..., m, I] for the 35 increasing lmn, cached."""
    cache = structure._cache
    if "nabla_phi" not in cache:
        cache["nabla_phi"] = covariant_derivative_form(
            structure.phi.data, 3, connection_of(structure), structure.lattice)
    return cache["nabla_phi"]


def torsion_of(structure) -> np.ndarray:
    """Full torsion tensor T_ij of the structure, cached."""
    cache = structure._cache
    if "torsion" not in cache:
        cache["torsion"] = g2algebra.full_torsion(structure, nabla_phi_of(structure))
    return cache["torsion"]


def nabla_torsion_of(structure) -> np.ndarray:
    """Covariant derivative of the full torsion, (nabla T)[..., m, i, j], cached."""
    cache = structure._cache
    if "nabla_torsion" not in cache:
        cache["nabla_torsion"] = covariant_derivative_array(
            torsion_of(structure), connection_of(structure), structure.lattice)
    return cache["nabla_torsion"]


def curvature_of(structure) -> CurvatureData:
    cache = structure._cache
    if "curv" not in cache:
        cache["curv"] = curvature(connection_of(structure), structure.g,
                                  structure.g_inv, structure.lattice)
    return cache["curv"]


def deturck_vector(structure, reference) -> np.ndarray:
    """Gauge-fixing vector field V^i = g^pq S^i_pq, S = Gamma(g) - Gamma(g_ref).

    Returns the (..., 7) array of V^i. This connection-difference vector
    linearizes at a torsion-free point to div h - d(tr h)/2, the weighting
    for which the gauge-fixed flow linearizes to the negative rough
    Laplacian there. V vanishes at the reference.
    """
    if structure.lattice != reference.lattice:
        raise ValueError("structure and reference live on different lattices")
    s = connection_of(structure) - connection_of(reference)
    return np.einsum("...pq,...ipq->...i", structure.g_inv, s)


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
    _pair_metric(g_inv).
    """
    rm = curvature_of(structure).rm
    g_inv = structure.g_inv
    rm_up = g2algebra.contract_slots(rm, (g_inv, g_inv, _pair_metric(g_inv)))
    rm_sq = 2.0 * np.einsum("...ijK,...ijK->...", rm_up, rm)
    nt_sq = tensor_norm_sq(nabla_torsion_of(structure), structure)
    return np.sqrt(rm_sq + nt_sq)
