"""Index tables against brute-force combinatorial oracles."""

import numpy as np
import pytest

from g2flow import tables

import oracles


@pytest.mark.parametrize("k,count", [(0, 1), (1, 7), (2, 21), (3, 35),
                                     (4, 35), (5, 21), (6, 7), (7, 1)])
def test_component_counts(k, count):
    assert tables.num_components(k) == count
    assert len(tables.index_sets(k)) == count


def test_sort_sign_matches_inversion_count():
    rng = np.random.default_rng(0)
    for _ in range(200):
        seq = tuple(rng.integers(0, 7, size=rng.integers(2, 6)))
        sign, _ = tables.sort_sign(seq)
        assert sign == oracles.perm_sign(seq)


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (1, 6)])
def test_wedge_table_against_shuffle_sum(k, l):
    rng = np.random.default_rng(k * 10 + l)
    a = rng.standard_normal(tables.num_components(k))
    b = rng.standard_normal(tables.num_components(l))
    via_table = np.einsum("oij,i,j->o", tables.wedge_table(k, l), a, b)
    assert np.allclose(via_table, oracles.wedge_compressed(a, k, b, l), atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_interior_table_against_full_contraction(k):
    rng = np.random.default_rng(k)
    a = rng.standard_normal(tables.num_components(k))
    x = rng.standard_normal(7)
    via_table = np.einsum("ioj,i,j->o", tables.interior_table(k), x, a)
    full = oracles.full_from_compressed(a, k)
    contracted = np.einsum("i,i...->...", x, full)
    assert np.allclose(via_table, oracles.compressed_from_full(contracted, k - 1),
                       atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_expand_compress_roundtrip_and_antisymmetry(k):
    rng = np.random.default_rng(k + 40)
    comp = rng.standard_normal(tables.num_components(k))
    full = comp @ tables.expand_table(k).T
    full = full.reshape((7,) * k)
    # sign-correct values under index permutation
    assert np.allclose(full, oracles.full_from_compressed(comp, k), atol=1e-14)
    flat = full.reshape(-1)[tables.compress_positions(k)]
    assert np.allclose(flat, comp, atol=1e-15)


@pytest.mark.parametrize("k", range(8))
def test_star_tables_match_levi_civita(k):
    rng = np.random.default_rng(k + 80)
    a = rng.standard_normal(tables.num_components(k))
    src, sign = tables.star_tables(k)
    out = sign * a[src]
    assert np.allclose(out, oracles.euclidean_star_compressed(a, k), atol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_compound_matrix_is_minor_matrix(k):
    rng = np.random.default_rng(k + 7)
    m = rng.standard_normal((7, 7))
    comp = tables.compound_matrix(m, k)
    sets = oracles.increasing(k)
    for _ in range(50):
        i, j = rng.integers(0, len(sets), 2)
        expect = np.linalg.det(m[np.ix_(sets[i], sets[j])])
        assert abs(comp[i, j] - expect) < 1e-12


def test_triple_wedge_223_oracle():
    # every one of the 21 * 21 * 35 entries, of which 210 are nonzero
    sets2, sets3 = oracles.increasing(2), oracles.increasing(3)
    expect = np.array([[[oracles.perm_sign(a + b + c) for c in sets3] for b in sets2]
                       for a in sets2])
    assert np.count_nonzero(expect) == 210
    assert np.array_equal(tables.triple_wedge_223(), expect)


def test_d_signs_from_interior_table():
    # (d alpha)_J picks up (-1)^m for the m-th index of J; exterior_derivative
    # reads these signs from the degree-3 interior table, transposed
    d = tables.interior_table(3).transpose(0, 2, 1)
    pos3 = tables.index_position(3)
    pos2 = tables.index_position(2)
    assert d[0, pos3[(0, 1, 2)], pos2[(1, 2)]] == 1.0   # d_0 slot, first position
    assert d[1, pos3[(0, 1, 2)], pos2[(0, 2)]] == -1.0  # second position
    assert d[2, pos3[(0, 1, 2)], pos2[(0, 1)]] == 1.0   # third position
