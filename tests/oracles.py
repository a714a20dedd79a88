"""Brute-force reference implementations used as test oracles.

Everything here recomputes exterior-algebra quantities from first principles
(explicit permutation sums, Levi-Civita symbols, sympy curvature), sharing no
index tables with the library.
"""

import copy
from itertools import combinations, permutations
from math import factorial

import numpy as np


def perm_sign(seq) -> int:
    """Sign via inversion count; 0 on repeated entries."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        return 0
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def increasing(k):
    return list(combinations(range(7), k))


def full_from_compressed(comp, k):
    """Full antisymmetric tensor from increasing-multi-index storage."""
    comp = np.asarray(comp)
    full = np.zeros(comp.shape[:-1] + (7,) * k)
    for pos, idx in enumerate(increasing(k)):
        for perm in permutations(idx):
            full[(Ellipsis,) + perm] = perm_sign(
                tuple(np.searchsorted(idx, perm))) * comp[..., pos]
    return full


def compressed_from_full(full, k):
    comp = np.zeros(full.shape[:-k] + (len(increasing(k)),))
    for pos, idx in enumerate(increasing(k)):
        comp[..., pos] = full[(Ellipsis,) + idx]
    return comp


def wedge_compressed(a, k, b, l):
    """Shuffle-sum wedge on compressed storage."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.zeros(a.shape[:-1] + (len(increasing(k + l)),))
    pos_a = {idx: p for p, idx in enumerate(increasing(k))}
    pos_b = {idx: p for p, idx in enumerate(increasing(l))}
    for pos, idx in enumerate(increasing(k + l)):
        for left in combinations(idx, k):
            right = tuple(i for i in idx if i not in left)
            out[..., pos] += (perm_sign(left + right)
                              * a[..., pos_a[left]] * b[..., pos_b[right]])
    return out


def euclidean_star_compressed(a, k):
    """Hodge star for the identity metric via the Levi-Civita symbol."""
    a = np.asarray(a)
    out = np.zeros(a.shape[:-1] + (len(increasing(7 - k)),))
    pos_out = {idx: p for p, idx in enumerate(increasing(7 - k))}
    for pos, idx in enumerate(increasing(k)):
        rest = tuple(sorted(set(range(7)) - set(idx)))
        out[..., pos_out[rest]] += perm_sign(idx + rest) * a[..., pos]
    return out


def raise_full(full, k, g_inv):
    """Raise every slot of a full k-tensor, one einsum per slot."""
    letters = "abcdefg"[:k]
    for s, x in enumerate(letters):
        rest = letters[:s] + "z" + letters[s + 1:]
        full = np.einsum(f"...{x}z,...{rest}->...{letters}", g_inv, full)
    return full


def metric_hodge_star(comp, k, g):
    """(*a)_J = sqrt(det g) sum_I sign(I J) a^I, from the fully raised tensor."""
    comp, g = np.asarray(comp), np.asarray(g)
    batch = np.broadcast_shapes(comp.shape[:-1], g.shape[:-2])
    up = np.broadcast_to(raise_full(full_from_compressed(comp, k), k, np.linalg.inv(g)),
                         batch + (7,) * k)
    out = np.zeros(batch + (len(increasing(7 - k)),))
    for pos, rest in enumerate(increasing(7 - k)):
        for idx in increasing(k):
            sign = perm_sign(idx + rest)
            if sign:
                out[..., pos] += sign * up[(Ellipsis,) + idx]
    return out * np.sqrt(np.linalg.det(g))[..., None]


def metric_inner(a, b, k, g):
    """<a, b> = a^{i1..ik} b_{i1..ik} / k! over full tensors."""
    a, b, g = np.asarray(a), np.asarray(b), np.asarray(g)
    batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1], g.shape[:-2])
    prod = raise_full(full_from_compressed(a, k), k, np.linalg.inv(g)) \
        * full_from_compressed(b, k)
    return np.broadcast_to(prod, batch + (7,) * k).reshape(batch + (-1,)).sum(axis=-1) \
        / factorial(k)


def interior_compressed(x, comp, k):
    """(x . a)_J = x^i a_{iJ}: contract the first slot of the full tensor."""
    rest = "abcdef"[:k - 1]
    full = full_from_compressed(comp, k)
    out = np.einsum(f"...i,...i{rest}->...{rest}", x, full)
    return out[..., None] if k == 1 else compressed_from_full(out, k - 1)


def covariant_derivative(data, gamma, partials):
    """nabla_m t of a covariant tensor from the index formula, one einsum per slot.

    partials[..., m, slots] holds d_m t. gamma[..., i, j, k] = Gamma^i_jk has
    the grid axes of data, so the rank is what data has beyond them. Each
    (lower) slot subtracts Gamma^z_mx t[..z..].
    """
    rank = data.ndim - (gamma.ndim - 3)
    letters = "abcdefg"[:rank]
    out = np.array(partials, dtype=float)
    for s in range(rank):
        x = letters[s]
        rest = letters[:s] + "z" + letters[s + 1:]
        out = out - np.einsum(f"...zm{x},...{rest}->...m{letters}", gamma, data)
    return out


def curvature(gamma, dgamma, g, g_inv):
    """(Rm, Ric, R) from dgamma[..., k, i, j, l] = d_k Gamma^i_jl.

    R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^i_km Gamma^m_lj
    - Gamma^i_lm Gamma^m_kj, Rm_ijkl = g_im R^m_jkl, Ric_jl = R^k_jkl and
    R = g^jl Ric_jl.
    """
    r_up = (np.einsum("...kilj->...ijkl", dgamma)
            - np.einsum("...likj->...ijkl", dgamma)
            + np.einsum("...ikm,...mlj->...ijkl", gamma, gamma)
            - np.einsum("...ilm,...mkj->...ijkl", gamma, gamma))
    rm = np.einsum("...im,...mjkl->...ijkl", g, r_up)
    ric = np.einsum("...kjkl->...jl", r_up)
    return rm, ric, np.einsum("...jl,...jl->...", g_inv, ric)


def ordered_ck_stack(partial, axes, data, n_grid, k_max):
    """Sup-norms of the ordered derivative stacks d_{a1} .. d_{ak} data, k = 0..k_max.

    partial(field, axis) differentiates along one axis; every ordered tuple
    of `axes` gets its own field, stacked on a trailing axis per order.
    """
    out = []
    level = data
    for k in range(k_max + 1):
        comp_axes = tuple(range(n_grid, level.ndim))
        out.append(float(np.max(np.sqrt(np.sum(level * level, axis=comp_axes)))))
        if k < k_max:
            level = np.stack([partial(level, ax) for ax in axes], axis=-1)
    return tuple(out)


def i_phi(h, comp, g_inv):
    """h_i^l phi_ljk + h_j^l phi_lki + h_k^l phi_lij on the full tensor, h_i^l = h_im g^ml."""
    full = full_from_compressed(comp, 3)
    t = np.einsum("...im,...ml,...ljk->...ijk", h, g_inv, full)
    out = t + np.einsum("...jki->...ijk", t) + np.einsum("...kij->...ijk", t)
    return compressed_from_full(out, 3)


def fft_partial(data, axis, period):
    """d/dx along grid axis `axis` (0-based) of periodic samples, by numpy.fft.

    Mode k is multiplied by i k 2 pi / period; on an even grid the Nyquist
    mode is dropped.
    """
    n = data.shape[axis]
    mult = 1j * (2.0 * np.pi / period) * np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        mult[n // 2] = 0.0
    shape = [1] * data.ndim
    shape[axis] = n
    return np.fft.ifft(np.fft.fft(data, axis=axis) * mult.reshape(shape), axis=axis).real


def fd4_partial(data, axis, period):
    """(-f[j+2] + 8 f[j+1] - 8 f[j-1] + f[j-2]) / 12h along grid axis `axis`, by np.roll."""
    h = period / data.shape[axis]

    def shifted(s):  # f[j + s]
        return np.roll(data, -s, axis=axis)

    return (-shifted(2) + 8.0 * shifted(1) - 8.0 * shifted(-1) + shifted(-2)) / (12.0 * h)


def derivative_symbol(partial, n):
    """|sigma(k)|, k = 0..n-1, of a translation-invariant derivative on n points.

    partial(f) differentiates 1-D samples; the FFT of its response to a unit
    impulse is its Fourier multiplier.
    """
    impulse = np.zeros(n)
    impulse[0] = 1.0
    return np.abs(np.fft.fft(partial(impulse)))


def pullback_3form(a_matrix, comp):
    """(A^* alpha)_ijk = A^a_i A^b_j A^c_k alpha_abc on compressed storage."""
    full = full_from_compressed(comp, 3)
    out = np.einsum("...ai,...bj,...ck,...abc->...ijk",
                    a_matrix, a_matrix, a_matrix,
                    np.broadcast_to(full, a_matrix.shape[:-2] + full.shape[-3:]))
    return compressed_from_full(out, 3)


def diagonal_metric_curvature_1d(funcs, x_symbol):
    """Symbolic curvature of g = diag(f_1(x)^2, ..., f_7(x)^2), x = first coordinate.

    Returns sympy expressions (christoffel, ricci, scalar) as dense nested
    lists computed from the textbook coordinate formulas.
    """
    import sympy as sp

    g = sp.zeros(7, 7)
    for i, f in enumerate(funcs):
        g[i, i] = f ** 2
    g_inv = g.inv()
    dg = [[[sp.diff(g[i, j], x_symbol) if m == 0 else sp.Integer(0)
            for j in range(7)] for i in range(7)] for m in range(7)]
    gamma = [[[sp.expand(sum(g_inv[i, l] * (dg[j][l][k] + dg[k][l][j] - dg[l][j][k])
                             for l in range(7)) / 2)
               for k in range(7)] for j in range(7)] for i in range(7)]

    def dgamma(i, j, k, m):
        return sp.diff(gamma[i][j][k], x_symbol) if m == 0 else sp.Integer(0)

    ric = sp.zeros(7, 7)
    for j in range(7):
        for l in range(7):
            expr = sp.Integer(0)
            for k in range(7):
                expr += dgamma(k, l, j, k) - dgamma(k, k, j, l)
                for m in range(7):
                    expr += (gamma[k][k][m] * gamma[m][l][j]
                             - gamma[k][l][m] * gamma[m][k][j])
            ric[j, l] = expr
    scalar = sum(g_inv[j, l] * ric[j, l] for j in range(7) for l in range(7))
    return gamma, ric, scalar


def embed(config, axes):
    """The multi-axis twin of a 1-D run config: the same document on active axes `axes`.

    Every perturbation mode of the 1-D config excites its one active axis j
    alone, so beta and phi depend on x_j alone on any lattice whose active
    axes include j, and the flow keeps them so: at every site of the twin,
    phi is the 1-D run's phi at that site's x_j.
    """
    (j,) = config["lattice"]["active_axes"]
    if j not in axes:
        raise ValueError(f"axes {axes} do not hold the config's axis {j}")
    for m in config["perturbation"]:
        if any(k for axis, k in enumerate(m["mode"], 1) if axis != j):
            raise ValueError(f"mode {m['mode']} excites an axis other than {j}")
    twin = copy.deepcopy(config)
    twin["lattice"]["active_axes"] = list(axes)
    return twin


# e123, e145 and e167: phi0's terms through axis 1, compressed (lexicographic) positions
FANO_DIAGONAL = [increasing(3).index(c) for c in ((0, 1, 2), (0, 3, 4), (0, 5, 6))]


def fano_rhs(uvw, partial, kind):
    """d/dt (u, v, w) of phi = u e123 + v e145 + w e167 + e246 - e257 - e347 - e356.

    The Fano-diagonal reduction of the flow, for data along x1 alone, with
    partial the scheme's d/dx1. With m = (uvw)^(1/3) the metric is
    g = diag(m^2, u/m, u/m, v/m, v/m, w/m, w/m), and psi's terms free of
    index 1 are (vw/m^2) e4567, (uw/m^2) e2367 and (uv/m^2) e2345, so
    d* phi = -*d psi = tau23 e23 + tau45 e45 + tau67 e67 with
    tau23 = -(u/(vw)) D(vw/m^2), and cyclically. The DeTurck kind adds
    V^1 (u, v, w), V^1 = (1/g11) [D(g11)/(2 g11) - sum_{p>=2} D(g_pp)/(2 g_pp)],
    the one nonzero component of g^pq Gamma^i_pq. Then dphi/dt = d(sigma)
    gives d/dt (u, v, w) = D(sigma23, sigma45, sigma67).
    """
    u, v, w = uvw
    m = np.cbrt(u * v * w)
    sigma = [-(u / (v * w)) * partial(v * w / m ** 2),
             -(v / (u * w)) * partial(u * w / m ** 2),
             -(w / (u * v)) * partial(u * v / m ** 2)]
    if kind == "deturck":
        g11 = m ** 2
        log_sum = sum(partial(gpp) / gpp for gpp in (u / m, v / m, w / m))  # each g_pp twice
        v1 = (0.5 * partial(g11) / g11 - log_sum) / g11
        sigma = [s + v1 * a for s, a in zip(sigma, uvw)]
    return np.array([partial(s) for s in sigma])


def fano_rk4(uvw, partial, kind, dt, steps):
    """`steps` classical RK4 steps of fano_rhs at a fixed dt."""
    for _ in range(steps):
        k1 = fano_rhs(uvw, partial, kind)
        k2 = fano_rhs(uvw + 0.5 * dt * k1, partial, kind)
        k3 = fano_rhs(uvw + 0.5 * dt * k2, partial, kind)
        k4 = fano_rhs(uvw + dt * k3, partial, kind)
        uvw = uvw + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return uvw


# phi0 = e123 + e145 + e167 + e246 - e257 - e347 - e356, 0-based index triples
PHI0_TERMS = [((0, 1, 2), 1), ((0, 3, 4), 1), ((0, 5, 6), 1), ((1, 3, 5), 1),
              ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1)]


def log_diagonal_state(a_exprs, symbols):
    """Closed forms at phi = A(x)^* phi0 with A = diag(e^{a_1}, ..., e^{a_7}).

    a_exprs are 7 sympy expressions in symbols, the 7 coordinates; phi need
    not be closed. In the coframe e^{a_i} dx^i, which is orthonormal for
    g = diag(e^{2 a_i}) with vol = e^{sum a}:
    - phi = sum_L s_L e^{a_L} dx^L over phi0's terms, a_L the sum of a_i over L;
    - *dx^I = sign(I, I^c) e^{a_{I^c} - a_I} dx^{I^c};
    - tau2 = -*d*phi, Gamma^i_pq = g^ii (d_p g_iq + d_q g_ip - d_i g_pq) / 2
      and V^i = g^pq Gamma^i_pq;
    - the velocity is d tau2 for kind "laplacian", d(tau2 + V.phi) for
      "deturck", with (V.phi)_jk = V^i phi_ijk.

    A k-form is a dict from increasing 0-based index k-tuples to expressions;
    signs come from perm_sign. Returns a dict with "phi", "g" (the diagonal),
    "vol", "gamma" (nested [i][p][q]), "V" and "rhs" (by kind).
    """
    import sympy as sp

    x, a = list(symbols), list(a_exprs)

    def star(form):
        out = {}
        for idx, f in form.items():
            rest = tuple(i for i in range(7) if i not in idx)
            weight = sp.exp(sum(a[i] for i in rest) - sum(a[i] for i in idx))
            out[rest] = out.get(rest, 0) + perm_sign(idx + rest) * weight * f
        return out

    def d(form):
        k = len(next(iter(form)))
        out = {}
        for idx in combinations(range(7), k + 1):
            expr = sum((-1) ** m * sp.diff(form.get(idx[:m] + idx[m + 1:], 0), x[idx[m]])
                       for m in range(k + 1))
            if expr != 0:
                out[idx] = expr
        return out

    phi = {idx: s * sp.exp(sum(a[i] for i in idx)) for idx, s in PHI0_TERMS}
    g = [sp.exp(2 * a_i) for a_i in a]
    dg = [[sp.diff(g_j, x_m) for g_j in g] for x_m in x]  # dg[m][j] = d_m g_jj
    gamma = [[[(int(i == q) * dg[p][i] + int(i == p) * dg[q][i] - int(p == q) * dg[i][p])
               / (2 * g[i]) for q in range(7)] for p in range(7)] for i in range(7)]
    v = [sum(gamma[i][p][p] / g[p] for p in range(7)) for i in range(7)]
    tau2 = {idx: -f for idx, f in star(d(star(phi))).items()}
    v_phi = {}
    for jk in combinations(range(7), 2):
        expr = sum(v[i] * perm_sign((i,) + jk) * phi[tuple(sorted((i,) + jk))]
                   for i in range(7) if tuple(sorted((i,) + jk)) in phi)
        if expr != 0:
            v_phi[jk] = expr
    deturck = {idx: tau2.get(idx, 0) + v_phi.get(idx, 0) for idx in set(tau2) | set(v_phi)}
    return {"phi": phi, "g": g, "vol": sp.exp(sum(a)), "gamma": gamma, "V": v,
            "rhs": {"laplacian": d(tau2), "deturck": d(deturck)}}
