"""Combinatorial tables for exterior algebra on a 7-dimensional fiber.

Alternating k-covectors are stored compressed: one coefficient per strictly
increasing multi-index, in lexicographic order, so that

    alpha = sum_{I increasing} alpha_I e^I.

All tables below are built once (cached) and shared; indices are 0-based
internally (axes 1..7 of the public API map to 0..6 here).
"""

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

DIM = 7


@lru_cache(maxsize=None)
def index_sets(k: int) -> tuple[tuple[int, ...], ...]:
    """Strictly increasing k-tuples from {0..6}, lexicographic."""
    if not 0 <= k <= DIM:
        raise ValueError(f"degree {k} out of range 0..{DIM}")
    return tuple(combinations(range(DIM), k))


@lru_cache(maxsize=None)
def index_position(k: int) -> dict:
    return {idx: pos for pos, idx in enumerate(index_sets(k))}


def num_components(k: int) -> int:
    return len(index_sets(k))


def sort_sign(indices) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation sorting `indices`; sign 0 on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return 0, ()
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(idx)


@lru_cache(maxsize=None)
def wedge_table(k: int, l: int) -> np.ndarray:
    """Signs W with (a^b)_out = sum W[out, i, j] a_i b_j, shape (C_{k+l}, C_k, C_l)."""
    if k + l > DIM:
        raise ValueError("wedge degree exceeds 7")
    table = np.zeros((num_components(k + l), num_components(k), num_components(l)))
    pos_out = index_position(k + l)
    for pi, I in enumerate(index_sets(k)):
        for pj, J in enumerate(index_sets(l)):
            sign, merged = sort_sign(I + J)
            if sign:
                table[pos_out[merged], pi, pj] = sign
    return table


def apply_table(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_p table[..., p] x[..., p]: the table's leading axes replace x's last.

    One 2-D gemm over all leading (site) axes of x.
    """
    flat = x @ table.reshape(-1, table.shape[-1]).T
    return flat.reshape(x.shape[:-1] + table.shape[:-1])


@lru_cache(maxsize=None)
def interior_table(k: int) -> np.ndarray:
    """Signs T with (X . a)_out = sum T[i, out, in] X^i a_in, shape (7, C_{k-1}, C_k).

    The (1, k-1) wedge table in another axis order: e_i . e^J and
    e^i ^ e^{J minus i} carry the same sign. T[i] is also the d-table of the
    i-th partial on (k-1)-forms.
    """
    if k < 1:
        raise ValueError("interior product needs degree >= 1")
    return np.ascontiguousarray(wedge_table(1, k - 1).transpose(1, 2, 0))


@lru_cache(maxsize=None)
def expand_table(k: int) -> np.ndarray:
    """Signed (7^k, C_k) matrix mapping compressed storage to the full tensor.

    Row (i, rest) holds a(e_i, e_rest) = (e_i . a)(e_rest): the interior
    table followed by the expansion of degree k-1.
    """
    if k == 0:
        return np.ones((1, 1))
    return (expand_table(k - 1) @ interior_table(k)).reshape(DIM ** k, -1)


@lru_cache(maxsize=None)
def compress_positions(k: int) -> np.ndarray:
    """Flat positions of the increasing multi-indices inside the full 7^k layout."""
    pos = []
    for I in index_sets(k):
        flat = 0
        for idx in I:
            flat = flat * DIM + idx
        pos.append(flat)
    return np.array(pos, dtype=np.intp)


@lru_cache(maxsize=None)
def star_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Complement maps for the Hodge star on k-forms.

    Returns (src, sign) of length C_{7-k} so that, with raised input a^,
    (star a)[out] = sign[out] * a^[src[out]] * sqrt(det g). Column J of
    the (k, 7-k) wedge table has one nonzero, at the complement I of J,
    with the sign of e^I ^ e^J.
    """
    w = wedge_table(k, DIM - k)[0]
    src = np.abs(w).argmax(axis=0)
    return src, w[src, np.arange(w.shape[1])]


@lru_cache(maxsize=None)
def triple_wedge_223() -> np.ndarray:
    """Signs T[A,B,C] of e^A ^ e^B ^ e^C = T e^{1..7} for degrees (2,2,3).

    e^B ^ e^C is expanded over the 5-forms e^D, and each e^A ^ e^D read off.
    """
    return np.tensordot(wedge_table(2, 5)[0], wedge_table(2, 3), 1)


def compound_matrix(m: np.ndarray, k: int) -> np.ndarray:
    """k-th compound of a batch of 7x7 matrices: all k x k minors.

    Input shape (..., 7, 7), output (..., C_k, C_k) with
    out[I, K] = det(m[rows I, cols K]), by direct Leibniz expansion. A
    reference for the induced metric on k-forms; the library raises forms
    by slot-wise contraction instead (g2algebra.raise_form) and never calls it.
    """
    if k == 0:
        return np.ones(m.shape[:-2] + (1, 1))
    if k == 1:
        return m
    rows = np.array(index_sets(k), dtype=np.intp)  # (C, k)
    cols = rows
    c = rows.shape[0]
    out = np.zeros(m.shape[:-2] + (c, c))
    for perm in permutations(range(k)):
        sign, _ = sort_sign(perm)
        term = np.ones(m.shape[:-2] + (c, c))
        for a in range(k):
            r = rows[:, a][:, None]          # (C, 1)
            cc = cols[:, perm[a]][None, :]   # (1, C)
            term = term * m[..., r, cc]
        out += sign * term
    return out
