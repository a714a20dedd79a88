"""Brute-force reference implementations used as test oracles.

Everything here recomputes exterior-algebra quantities from first principles
(explicit permutation sums, Levi-Civita symbols, sympy curvature), sharing no
index tables with the library.
"""

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
