"""Metric differential geometry on the lattice.

Christoffel symbols, covariant derivatives and curvature are computed from
the evolving metric of a structure at evaluation time (no separately
integrated metric), so the metric-evolution and curvature identities of the
flow are genuine cross-checks rather than consequences of bookkeeping.
"""

from dataclasses import dataclass

import numpy as np

from . import g2algebra
from .lattice import FormField, Lattice, TensorField


@dataclass
class ConnectionData:
    """Christoffel symbols Gamma^i_jk (index order: upper, lower, lower)."""

    gamma: np.ndarray


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


def christoffels(g: np.ndarray, g_inv: np.ndarray, lattice: Lattice) -> ConnectionData:
    """Levi-Civita connection of g: Gamma^i_jk = g^il (d_j g_lk + d_k g_lj - d_l g_jk)/2."""
    dg = metric_partials(g, lattice)
    s = (np.einsum("...jlk->...ljk", dg) + np.einsum("...klj->...ljk", dg) - dg)
    return ConnectionData(0.5 * np.einsum("...il,...ljk->...ijk", g_inv, s))


_SLOT_LETTERS = "abcdefgh"


def covariant_derivative_array(data: np.ndarray, variance: str, gamma: np.ndarray,
                               lattice: Lattice) -> np.ndarray:
    """Covariant derivative, new derivative slot first: out[..., m, slots]."""
    r = len(variance)
    letters = _SLOT_LETTERS[:r]
    out = np.zeros(lattice.grid_shape + (7,) * (r + 1))
    for axis in lattice.active_axes:
        out[(Ellipsis, axis - 1) + (slice(None),) * r] = lattice.partial_array(data, axis)
    for s, var in enumerate(variance):
        x = letters[s]
        rest = letters[:s] + "z" + letters[s + 1:]
        if var == "u":
            out += np.einsum(f"...{x}mz,...{rest}->...m{letters}", gamma, data)
        else:
            out -= np.einsum(f"...zm{x},...{rest}->...m{letters}", gamma, data)
    return out


def covariant_derivative(field, conn: ConnectionData):
    """Covariant derivative of a FormField or TensorField (one extra lower slot)."""
    if isinstance(field, FormField):
        data = g2algebra.expand_form(field.data, field.degree)
        variance = "d" * field.degree
        lattice = field.lattice
    else:
        data, variance, lattice = field.data, field.variance, field.lattice
    out = covariant_derivative_array(data, variance, conn.gamma, lattice)
    return TensorField(lattice, "d" + variance, out)


def curvature(conn: ConnectionData, g: np.ndarray, g_inv: np.ndarray,
              lattice: Lattice) -> CurvatureData:
    """Curvature of the connection from the coordinate dGamma + Gamma Gamma formula."""
    gamma = conn.gamma
    dgamma = np.zeros(lattice.grid_shape + (7, 7, 7, 7))
    for axis in lattice.active_axes:
        dgamma[..., axis - 1, :, :, :] = lattice.partial_array(gamma, axis)
    # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    r_up = (np.einsum("...kilj->...ijkl", dgamma)
            - np.einsum("...likj->...ijkl", dgamma)
            + np.einsum("...ikm,...mlj->...ijkl", gamma, gamma)
            - np.einsum("...ilm,...mkj->...ijkl", gamma, gamma))
    rm = np.einsum("...im,...mjkl->...ijkl", g, r_up)
    ric = np.einsum("...kjkl->...jl", r_up)
    scalar = np.einsum("...jl,...jl->...", g_inv, ric)
    return CurvatureData(rm=rm, ric=ric, scalar=scalar)


def raise_all(t: np.ndarray, variance: str, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Flip every slot: lower slots raised with g_inv, upper slots lowered with g."""
    return g2algebra.contract_slots(t, [g_inv if var == "d" else g for var in variance])


def tensor_norm_sq(t: np.ndarray, variance: str, g: np.ndarray, g_inv: np.ndarray):
    """Pointwise squared norm of a tensor field in the metric g."""
    dual = raise_all(t, variance, g, g_inv)
    axes = tuple(range(-len(variance), 0))
    return np.sum(dual * t, axis=axes)


def connection_of(structure) -> ConnectionData:
    cache = structure._cache
    if "conn" not in cache:
        cache["conn"] = christoffels(structure.g, structure.g_inv, structure.lattice)
    return cache["conn"]


def nabla_phi_of(structure) -> np.ndarray:
    """Covariant derivative of phi as a full (0,4) array, cached."""
    cache = structure._cache
    if "nabla_phi" not in cache:
        conn = connection_of(structure)
        full = g2algebra.expand_form(structure.phi.data, 3)
        cache["nabla_phi"] = covariant_derivative_array(
            full, "ddd", conn.gamma, structure.lattice)
    return cache["nabla_phi"]


def torsion_of(structure) -> np.ndarray:
    """Full torsion tensor T_ij of the structure, cached."""
    cache = structure._cache
    if "torsion" not in cache:
        cache["torsion"] = g2algebra.full_torsion(structure, nabla_phi_of(structure))
    return cache["torsion"]


def curvature_of(structure) -> CurvatureData:
    cache = structure._cache
    if "curv" not in cache:
        cache["curv"] = curvature(connection_of(structure), structure.g,
                                  structure.g_inv, structure.lattice)
    return cache["curv"]


def deturck_vector(structure, reference, a_const: float = 0.0) -> TensorField:
    """Gauge-fixing vector field built from S = Gamma(g) - Gamma(g_ref).

    The base term is the classical connection-difference vector
    g^pq S^i_pq e_i, whose linearization at a torsion-free point is
    div h - d(tr h)/2; this is the unique weighting for which the gauge-fixed
    flow linearizes to the negative rough Laplacian there. a_const adds the
    complementary trace direction g^kj S^i_ik e_j (zero by default; kept as a
    knob for convention sensitivity checks). V vanishes at the reference.
    """
    if structure.lattice != reference.lattice:
        raise ValueError("structure and reference live on different lattices")
    s = connection_of(structure).gamma - connection_of(reference).gamma
    g_inv = structure.g_inv
    base = np.einsum("...pq,...ipq->...i", g_inv, s)
    if a_const:
        base = base + a_const * np.einsum("...kj,...iik->...j", g_inv, s)
    return TensorField(structure.lattice, "u", base)


def lambda_monitor(structure) -> np.ndarray:
    """Pointwise (|Rm|^2 + |nabla T|^2)^(1/2) in the structure's own metric."""
    curv = curvature_of(structure)
    conn = connection_of(structure)
    nabla_t = covariant_derivative_array(torsion_of(structure), "dd",
                                         conn.gamma, structure.lattice)
    rm_sq = tensor_norm_sq(curv.rm, "dddd", structure.g, structure.g_inv)
    nt_sq = tensor_norm_sq(nabla_t, "ddd", structure.g, structure.g_inv)
    return np.sqrt(rm_sq + nt_sq)
