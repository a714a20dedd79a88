"""Metric differential geometry on the lattice.

Christoffel symbols, covariant derivatives and curvature are computed from
the evolving metric of a structure at evaluation time (no separately
integrated metric), so the metric-evolution and curvature identities of the
flow are genuine cross-checks rather than consequences of bookkeeping.
"""

from dataclasses import dataclass

import numpy as np

from . import g2algebra
from .lattice import Lattice


@dataclass
class CurvatureData:
    """Riemann tensor with all indices lowered, Ricci tensor, scalar curvature."""

    rm: np.ndarray
    ric: np.ndarray
    scalar: np.ndarray


def metric_partials(g: np.ndarray, lattice: Lattice) -> np.ndarray:
    """dg[..., m, i, j] = d_m g_ij; zero along inactive axes."""
    out = np.zeros(lattice.grid_shape + (7, 7, 7))
    for axis in lattice.active_axes:
        out[..., axis - 1, :, :] = lattice.partial_array(g, axis)
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


def covariant_derivative_array(data: np.ndarray, variance: str, gamma: np.ndarray,
                               lattice: Lattice) -> np.ndarray:
    """Covariant derivative, new derivative slot first: out[..., m, slots].

    out[m, a1..ar] = d_m t[a1..ar] + sum over slots s of the connection term:
    Gamma^x_mz t[..z..] for an upper slot, -Gamma^z_mx t[..z..] for a lower
    one, with z in slot s and x its free index. Each slot term is one batched
    matmul, (49, 7) @ (7, 7^(r-1)) per site: the (m, x) pairs of the
    connection matrix against the data with slot s moved to the front. Every
    slot writes into the same (..., 7, 7, 7^(r-1)) buffer, whose view with x
    moved back to slot s is then added to out.
    """
    r = len(variance)
    out = np.zeros(lattice.grid_shape + (7,) * (r + 1))
    for axis in lattice.active_axes:
        out[(Ellipsis, axis - 1) + (slice(None),) * r] = lattice.partial_array(data, axis)
    if r == 0:
        return out
    batch = gamma.shape[:-3]
    conn = {}
    if "u" in variance:  # up[m, x, z] = Gamma^x_mz
        conn["u"] = np.swapaxes(gamma, -3, -2).reshape(batch + (49, 7))
    if "d" in variance:  # down[m, x, z] = -Gamma^z_mx
        conn["d"] = -np.moveaxis(gamma, -3, -1).reshape(batch + (49, 7))
    rest = 7 ** (r - 1)
    buf = np.empty(np.broadcast_shapes(batch, data.shape[:-r]) + (49, rest))
    for s, var in enumerate(variance):
        front = np.moveaxis(data, s - r, -r).reshape(data.shape[:-r] + (7, rest))
        np.matmul(conn[var], front, out=buf)
        out += np.moveaxis(buf.reshape(buf.shape[:-2] + (7,) * (r + 1)), -r, s - r)
    return out


def curvature(gamma: np.ndarray, g: np.ndarray, g_inv: np.ndarray,
              lattice: Lattice) -> CurvatureData:
    """Curvature of the connection from the coordinate dGamma + Gamma Gamma formula.

    Both Gamma Gamma terms come from one per-site (49, 7) @ (7, 49) product,
    into which dGamma is added in place; R^i_jkl is then the difference of two
    transposed views of it, and Rm = g @ R over the upper index.
    """
    batch = gamma.shape[:-3]
    # a[i, k, l, j] = d_k Gamma^i_lj + Gamma^i_km Gamma^m_lj, so that
    # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    #         = a[i, k, l, j] - a[i, l, k, j].
    a = gamma.reshape(batch + (49, 7)) @ gamma.reshape(batch + (7, 49))
    a = a.reshape(batch + (7, 7, 7, 7))
    for axis in lattice.active_axes:
        a[..., :, axis - 1, :, :] += lattice.partial_array(gamma, axis)
    a = np.moveaxis(a, -1, -3)  # a view indexed [i, j, k, l]
    r_up = a - np.swapaxes(a, -1, -2)
    del a
    rm = (g @ r_up.reshape(batch + (7, 343))).reshape(r_up.shape)
    ric = np.einsum("...kjkl->...jl", r_up)
    scalar = np.einsum("...jl,...jl->...", g_inv, ric)
    return CurvatureData(rm=rm, ric=ric, scalar=scalar)


def raise_all(t: np.ndarray, variance: str, metric: g2algebra.Metric) -> np.ndarray:
    """Flip every slot: lower slots raised with g_inv, upper slots lowered with g."""
    return g2algebra.contract_slots(
        t, [metric.g_inv if var == "d" else metric.g for var in variance])


def tensor_norm_sq(t: np.ndarray, variance: str, metric: g2algebra.Metric):
    """Pointwise squared norm of a tensor field in the metric."""
    dual = raise_all(t, variance, metric)
    axes = tuple(range(-len(variance), 0))
    return np.sum(dual * t, axis=axes)


def connection_of(structure) -> np.ndarray:
    """Christoffel symbols of the structure's metric, cached."""
    cache = structure._cache
    if "conn" not in cache:
        cache["conn"] = christoffels(structure.g, structure.g_inv, structure.lattice)
    return cache["conn"]


def nabla_phi_of(structure) -> np.ndarray:
    """Covariant derivative of phi as a full (0,4) array, cached."""
    cache = structure._cache
    if "nabla_phi" not in cache:
        gamma = connection_of(structure)
        full = g2algebra.expand_form(structure.phi.data, 3)
        cache["nabla_phi"] = covariant_derivative_array(full, "ddd", gamma, structure.lattice)
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
            torsion_of(structure), "dd", connection_of(structure), structure.lattice)
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


def lambda_monitor(structure) -> np.ndarray:
    """Pointwise (|Rm|^2 + |nabla T|^2)^(1/2) in the structure's own metric."""
    curv = curvature_of(structure)
    rm_sq = tensor_norm_sq(curv.rm, "dddd", structure)
    nt_sq = tensor_norm_sq(nabla_torsion_of(structure), "ddd", structure)
    return np.sqrt(rm_sq + nt_sq)
